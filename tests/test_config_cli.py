"""Config parsing/validation and the command-line front end."""
import contextlib
import io
import json
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plumeseek import swarm
from plumeseek.cli import main
from plumeseek.config import (
    ConfigError,
    check_seeds,
    check_tier_budget,
    load_config,
    parse_config,
)
from plumeseek.field import GridSpec, PlumeParams
from plumeseek.planner import TIERS
from plumeseek.rl.env import HybridEnvConfig, RewardWeights
from plumeseek.rl.train import MODES, TrainConfig
from plumeseek.swarm import POLICIES, World

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


TINY_SIM = {
    "grid": {"x_max": 8.0, "y_max": 8.0, "a_cells": 8, "b_cells": 8, "i_cells": 8, "j_cells": 8},
    "plume": {"length_scale": 1.0, "noise_sigma": 0.4},
    "cost": {"quad_coeff": 0.05},
    "sim": {"n_agents": 2, "n_steps": 3},
    "seeds": [0, 1],
}

TINY_RL = {
    "grid": {"x_max": 4.0, "y_max": 4.0, "a_cells": 4, "b_cells": 4, "i_cells": 4, "j_cells": 4},
    "plume": {"length_scale": 1.0, "noise_sigma": 0.5},
    "sim": {"source": {"placement": "fixed", "x": 2.5, "y": 2.5}},
    "rl": {
        "n_agents": 2,
        "horizon": 8,
        "hidden": [8],
        "batch_size": 4,
        "replay_capacity": 64,
        "train_steps": 20,
        "target_sync": 10,
    },
    "seeds": [0],
}


# -- parsing and defaults -----------------------------------------------------------


def test_cli_and_training_import_without_scipy():
    # nor fractions: the lattice strides come from integer cell counts; nor
    # numpy.polynomial: only the exact tier's quadrature nodes need it
    import plumeseek

    src = str(Path(plumeseek.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import plumeseek.cli, plumeseek.rl.train; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'fractions') "
        "or m.startswith('numpy.polynomial')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # only --threads > 1 needs the pool; its import brings multiprocessing,
    # logging and socket into every single-process run's start-up
    import plumeseek

    src = str(Path(plumeseek.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import plumeseek.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"



def test_readme_library_example_runs(capsys):
    readme = (CONFIGS.parent / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "information gain:" in out and "next waypoint:" in out


def test_empty_config_resolves_all_defaults():
    cfg = parse_config({})
    assert cfg.grid.a_cells == 64 and cfg.grid.n_src_cells == 64 * 64
    assert cfg.plume.kind == "isotropic-blob"
    assert cfg.sim.tier == "snr-fft" and cfg.sim.quad_nodes == 16
    assert cfg.prior_weights() is None
    assert cfg.effective_dict()["prior"] == {"kind": "uniform"}
    assert cfg.seeds == (0,)
    assert cfg.policies == ("info", "cost-only", "random")


def test_effective_dict_round_trips_exactly():
    cfg = parse_config(
        {
            "grid": {"x_max": 16.0, "a_cells": 16},
            "plume": {"kind": "advected-plume", "wind": [1.0, 0.5], "spread_rate": 0.2},
            "planner": {"tier": "exact", "quad_nodes": 8},
            "seeds": [3, 1, 4],
        }
    )
    echoed = json.loads(json.dumps(cfg.effective_dict()))
    assert parse_config(echoed) == cfg


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _some(draw, section: dict) -> dict:
    """A random subset of a section's keys; the rest fall back to defaults."""
    keep = draw(st.lists(st.sampled_from(sorted(section)), unique=True))
    return {k: draw(section[k]) for k in keep}


@st.composite
def raw_configs(draw):
    """Valid raw configs that set a random subset of the sections and their keys."""
    grid = {"i_cells": draw(st.integers(1, 6)), "j_cells": draw(st.integers(1, 6))}
    extent = {
        "x_min": _floats(-10.0, 0.0),
        "x_max": _floats(1.0, 100.0),
        "y_min": _floats(-10.0, 0.0),
        "y_max": _floats(1.0, 100.0),
        "a_cells": st.integers(1, 8),
        "b_cells": st.integers(1, 8),
    }
    grid.update(_some(draw, extent))
    # an advected plume needs a nonzero wind, so the wind is always given
    plume = {
        "kind": draw(st.sampled_from(["isotropic-blob", "advected-plume"])),
        "wind": [draw(_floats(0.1, 3.0)), draw(_floats(-3.0, 3.0))],
    }
    shape = {
        "strength": _floats(0.0, 5.0),
        "length_scale": _floats(0.1, 5.0),
        "sigma0": _floats(0.1, 5.0),
        "spread_rate": _floats(0.0, 1.0),
        "noise_sigma": _floats(0.01, 2.0),
    }
    plume.update(_some(draw, shape))
    n_src = grid["i_cells"] * grid["j_cells"]
    weights = st.lists(_floats(0.0, 1.0), min_size=n_src, max_size=n_src).filter(any)
    source = st.one_of(
        st.just({"placement": "sampled"}),
        st.fixed_dictionaries(
            {"placement": st.just("fixed"), "x": _floats(0.0, 1.0), "y": _floats(0.0, 1.0)}
        ),
    )
    sections = {
        "plume": st.just(plume),
        "cost": st.builds(dict, quad_coeff=_floats(0.0, 1.0)),
        "planner": st.builds(dict, tier=st.sampled_from(TIERS), quad_nodes=st.integers(1, 20)),
        "prior": st.one_of(
            st.just({"kind": "uniform"}), st.builds(dict, kind=st.just("weights"), values=weights)
        ),
        "sim": st.builds(
            dict,
            n_agents=st.integers(1, 6),
            n_steps=st.integers(0, 50),
            policies=st.lists(st.sampled_from(POLICIES), max_size=3),
            source=source,
        ),
        "rl": st.builds(
            dict,
            n_agents=st.integers(1, 5),
            horizon=st.integers(1, 300),
            damping=_floats(0.0, 1.0),
            buffer_capacity=st.integers(1, 10),
            hidden=st.lists(st.integers(1, 64), min_size=1, max_size=3),
            gamma=_floats(0.0, 1.0),
            learning_rate=_floats(1e-5, 1.0),
            eps_decay_steps=st.integers(0, 1000),
            reward=st.builds(
                dict,
                w_info=_floats(-5.0, 5.0),
                action_costs=st.lists(_floats(0.0, 1.0), min_size=5, max_size=5),
            ),
        ),
        "seeds": st.lists(st.integers(0, 1000), min_size=1, max_size=4),
    }
    # the grid is always given: a weights prior lists one value per source cell
    return {"grid": grid, **_some(draw, sections)}


@settings(max_examples=50, derandomize=True, deadline=None)
@given(raw_configs())
def test_effective_dict_round_trip_property(raw):
    echoed = parse_config(raw).effective_dict()
    assert parse_config(echoed).effective_dict() == echoed


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError, match="top level"):
        parse_config({"bogus": {}})
    with pytest.raises(ConfigError, match="grid"):
        parse_config({"grid": {"cells": 8}})
    with pytest.raises(ConfigError, match="rl.reward"):
        parse_config({"rl": {"reward": {"w_speed": 1.0}}})
    # settings that only picked a unit: one move's fixed cost, the step, the wind scale
    for section, key in (("cost", "overhead"), ("rl", "dt"), ("rl", "w_max")):
        with pytest.raises(ConfigError, match=re.escape(f"{section}: unknown key(s) ['{key}']")):
            parse_config({section: {key: 1.0}})


def test_invalid_sections_are_reported_as_config_errors():
    with pytest.raises(ConfigError):
        parse_config({"grid": {"x_max": -1.0}})
    with pytest.raises(ConfigError):
        parse_config({"plume": {"kind": "volcano"}})
    with pytest.raises(ConfigError):
        parse_config({"plume": {"kind": "advected-plume"}})  # calm wind
    with pytest.raises(ConfigError, match="wind"):
        parse_config({"plume": {"kind": "advected-plume", "wind": ["1", "0"]}})
    with pytest.raises(ConfigError, match="tier"):
        parse_config({"planner": {"tier": "psychic"}})
    with pytest.raises(ConfigError, match=re.escape("is not one of ['exact', 'snr-fft']")):
        parse_config({"planner": {"tier": "expected-measurement"}})
    with pytest.raises(ConfigError):
        parse_config({"cost": {"quad_coeff": -1.0}})


def test_prior_validation():
    ok = parse_config(
        {
            "grid": {"a_cells": 2, "b_cells": 2, "i_cells": 2, "j_cells": 2},
            "prior": {"kind": "weights", "values": [1.0, 0.0, 2.0, 1.0]},
        }
    )
    assert ok.prior_weights() == (1.0, 0.0, 2.0, 1.0)
    assert parse_config({}).prior_weights() is None
    with pytest.raises(ConfigError, match="prior"):
        parse_config({"prior": {"kind": "gaussian"}})
    with pytest.raises(ConfigError, match="prior.values"):
        parse_config(
            {
                "grid": {"a_cells": 2, "b_cells": 2, "i_cells": 2, "j_cells": 2},
                "prior": {"kind": "weights", "values": [1.0, 2.0]},
            }
        )
    for bad in ([-1.0, 1.0, 1.0, 1.0], [float("nan"), 1.0, 1.0, 1.0], [True] * 4):
        with pytest.raises(ConfigError):
            parse_config(
                {
                    "grid": {"a_cells": 2, "b_cells": 2, "i_cells": 2, "j_cells": 2},
                    "prior": {"kind": "weights", "values": bad},
                }
            )


def test_sim_and_rl_validation():
    with pytest.raises(ConfigError, match="policies"):
        parse_config({"sim": {"policies": ["info", "psychic"]}})
    with pytest.raises(ConfigError, match="sim.policies must be a list"):
        parse_config({"sim": {"policies": "info"}})
    with pytest.raises(ConfigError, match="placement"):
        parse_config({"sim": {"source": {"placement": "orbital"}}})
    with pytest.raises(ConfigError, match="fixed"):
        parse_config({"sim": {"source": {"placement": "fixed", "x": 1.0}}})
    with pytest.raises(ConfigError, match="action_costs"):
        parse_config({"rl": {"reward": {"action_costs": [0.1, 0.2]}}})
    with pytest.raises(ConfigError, match="n_agents"):
        parse_config({"sim": {"n_agents": 0}})


def test_seed_validation():
    assert parse_config({"seeds": [5, 0, 7]}).seeds == (5, 0, 7)
    for bad in ([], [-1], [1.5], [1.0], [True], "seeds"):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config({"seeds": bad})


def test_config_builds_working_sub_configs():
    cfg = parse_config(json.loads(json.dumps(TINY_RL)))
    sim = cfg.sim_config(seed=3, policy="random")
    assert sim.seed == 3 and sim.policy == "random"
    assert cfg.sim.world is cfg.train.env.world  # one world, checked once, for both engines
    assert sim.world.source_xy == (2.5, 2.5)
    env = cfg.train.env
    assert env.n_agents == 2 and env.horizon == 8
    assert env.reward.action_costs[1] == 0.2
    tc = cfg.train_config(seed=1, mode="individual")
    assert tc.hidden == (8,) and tc.seed == 1


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_bundled_config_round_trips_and_builds_jobs(path):
    cfg = load_config(path)
    echoed = json.loads(json.dumps(cfg.effective_dict()))
    again = parse_config(echoed)
    assert again == cfg
    assert again.effective_dict() == echoed
    seed = cfg.seeds[0]
    for policy in cfg.policies:
        sim = cfg.sim_config(seed, policy)
        assert (sim.policy, sim.seed, sim.world.grid) == (policy, seed, cfg.grid)
    for mode in MODES:
        tc = cfg.train_config(seed, mode)
        assert (tc.mode, tc.seed, tc.env.world.grid) == (mode, seed, cfg.grid)


# every entry: (section, key, value) that must fail at load time
BAD_VALUES = [
    ("plume", "noise_sigma", float("nan")),
    ("plume", "strength", float("nan")),
    ("plume", "length_scale", float("nan")),
    ("grid", "x_max", float("inf")),
    ("cost", "overhead", float("nan")),  # a unit now: an unknown key, whatever its value
    ("sim", "n_agents", 2.5),
    ("rl", "learning_rate", -1),
    ("rl", "batch_size", 0),
    ("rl", "target_sync", 0),
    ("rl", "horizon", 0),
    ("rl", "n_agents", 2.5),
    ("rl", "horizon", 2.5),
    ("rl", "buffer_capacity", 2.5),
    ("rl", "train_steps", 2.5),
    ("rl", "batch_size", 2.5),
    ("rl", "replay_capacity", 2.5),
    ("rl", "replay_capacity", 0),
    ("rl", "target_sync", 2.5),
    ("rl", "eps_decay_steps", 2.5),
    ("rl", "hidden", 8.5),
    ("rl", "hidden", [8.5]),
    ("rl", "gamma", float("nan")),
    ("rl", "gamma", 1.5),
    ("rl", "eps_start", float("nan")),
    ("rl", "eps_end", -0.1),
    ("rl", "a_max", float("nan")),
    ("rl", "v_max", float("inf")),
    ("rl", "dt", float("nan")),  # units now: unknown keys, whatever their value
    ("rl", "w_max", float("inf")),
    ("rl", "reward", {"w_info": float("nan")}),
    ("rl", "reward", {"w_est": float("inf")}),
    ("rl", "reward", {"action_costs": [0.0, 0.2, float("nan"), 0.1, 0.3]}),
    ("sim", "n_agents", True),
    ("grid", "a_cells", 16.0),
    ("grid", "j_cells", True),
    ("planner", "quad_nodes", True),
    ("rl", "hidden", [True]),
    ("rl", "batch_size", True),
    ("rl", "horizon", True),
    ("rl", "batch_size", 10_001),  # above the default replay_capacity: never trains
    ("planner", "tier", "snr-brute"),  # a score-map oracle, not a run tier
    ("sim", "source", {"placement": "fixed", "x": float("nan"), "y": 1.0}),
    ("sim", "source", {"placement": "fixed", "x": 1000.0, "y": 1.0}),  # world is 64 wide
    ("sim", "source", {"placement": "fixed", "x": True, "y": 1.0}),
    ("plume", "strength", True),
    ("rl", "gamma", True),
    ("cost", "overhead", True),
    ("grid", "x_max", True),
    ("plume", "wind", [float("nan"), 0.0]),  # unused by the default blob, still checked
    ("plume", "wind", ["1", "0"]),
    ("rl", "reward", {"action_costs": [True, 0, 0, 0, 0]}),
    ("grid", "a_cells", 4097),  # pitch ratio 64/4097: the snr-fft kernel cannot serve it
    ("plume", "wind", [1, 0, 0]),
    ("plume", "wind", 1.0),
    ("rl", "reward", {"action_costs": 0.5}),
    # 2 w^2 under- or overflows, or the kernel peak strength^2 / (2 noise_sigma^2) overflows
    ("plume", "length_scale", 1e-170),
    ("plume", "length_scale", 1e300),
    ("plume", "noise_sigma", 1e300),
    ("plume", "noise_sigma", 1e-170),
    ("plume", "strength", 1e200),
    ("plume", "sigma0", 1e-170),
    ("cost", "overhead", 1e-310),
    # the longest move's cost overflows
    ("cost", "quad_coeff", 1e308),
    # a finite kernel peak, 5e305, whose sum over the 127 x 127 offset lattice overflows
    ("plume", "strength", 1e153),
    ("planner", "tier", "expected-measurement"),  # a deleted tier
    ("planner", "quad_nodes", 0),
    # one move costs 8.2e306, the 100 x 5 moves the summary sums overflow
    ("cost", "quad_coeff", 1e303),
    # a reward bound times max(2, n_agents, train_steps) overflows the curves or the summary
    ("rl", "reward", {"w_info": 1e308}),
    ("rl", "reward", {"w_est": 1e308}),
    ("rl", "reward", {"action_costs": [0, 1e308, -1e308, 0.1, 0.3]}),
]


@pytest.mark.parametrize("command", ["simulate", "train"])
@pytest.mark.parametrize("section,key,value", BAD_VALUES)
def test_bad_value_in_any_section_exits_2(tmp_path, capsys, command, section, key, value):
    cfg_path = write_config(tmp_path, {section: {key: value}})
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "payload,setting",
    [
        # a unit quad_coeff on a grid whose squared diagonal, 2e306, is finite
        ({"grid": {"x_max": 1e153, "y_max": 1e153}, "cost": {"quad_coeff": 1.0}}, "cost.quad_coeff"),
        ({"cost": {"quad_coeff": 1e308}}, "cost.quad_coeff"),
        ({"plume": {"strength": 1e153}}, "plume.strength"),
        # the bound holds on either tier: 2 x 3 moves of 1.28e308 each overflow
        ({**TINY_SIM, "planner": {"tier": "exact"}, "cost": {"quad_coeff": 1e306}}, "cost.quad_coeff"),
        # one move costs 1.28e303, which 2 x 3 moves keep finite but 2 x 1e6 do not
        (
            {**TINY_SIM, "sim": {"n_agents": 2, "n_steps": 10**6}, "cost": {"quad_coeff": 1e301}},
            "cost.quad_coeff",
        ),
        # one move costs 8.2e306; the summary sums 100 x 5 of them
        ({"cost": {"quad_coeff": 1e303}}, "cost.quad_coeff"),
        # the reward bound's largest term is named; 1e305 x 12 bits is finite, not x 10000 steps
        ({"rl": {"reward": {"w_info": 1e308}}}, "rl.reward.w_info"),
        ({"rl": {"reward": {"w_est": 1e308}}}, "rl.reward.w_est"),
        (
            {"rl": {"reward": {"action_costs": [0, 1e308, -1e308, 0.1, 0.3]}}},
            "rl.reward.action_costs",
        ),
        ({"rl": {"reward": {"w_info": 1e305}}}, "rl.reward.w_info"),
        # 1e308 steps x 5 agents is no float, whatever quad_coeff (here 0) prices a move
        ({"sim": {"n_steps": 10**308}}, "sim.n_steps"),
    ],
)
def test_overflowing_plume_or_cost_names_the_setting(payload, setting):
    with pytest.raises(ConfigError, match=setting.replace(".", r"\.")):
        parse_config(payload)


def test_overflowing_grid_extent_names_the_grid_not_the_cost():
    # x_max - x_min overflows to inf, and quad_coeff 0 would price the longest move 0 * inf
    payload = {"grid": {"x_min": -1e308, "x_max": 1e308}, "cost": {"quad_coeff": 0}}
    with pytest.raises(ConfigError) as info:
        parse_config(payload)
    message = str(info.value)
    assert "grid" in message and "x_min" in message and "cost" not in message


def test_bounded_reward_at_the_edge_still_loads():
    raw = json.loads((CONFIGS / "quickstart.json").read_text())
    raw["rl"]["reward"] = {"w_info": 1e300, "w_est": 1e300}
    assert parse_config(raw).train.env.reward.w_est == 1e300


def assert_only_finite_numbers(out):
    files = [path for path in out.rglob("*") if path.is_file()]
    assert files
    for path in files:
        text = path.read_text()
        assert not re.search(r"NaN|Infinity|\bnan\b|\binf\b", text), path.name


def test_diverging_training_writes_no_non_finite_number(tmp_path, capsys):
    raw = json.loads((CONFIGS / "quickstart.json").read_text())
    raw["rl"]["learning_rate"] = 1e6  # the Q-nets' weights reach nan
    out = tmp_path / "out"
    args = ["train", "--config", write_config(tmp_path, raw), "--out", str(out), "--mode", "both"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(args) == 3
    assert "not JSON compliant" in capsys.readouterr().err
    assert_only_finite_numbers(out)


@pytest.mark.parametrize("rl", [{"a_max": 1e308}, {"a_max": 1e308, "v_max": 1e308}])
def test_huge_acceleration_trains_to_the_end(tmp_path, rl):
    # Move scales the unit vector toward its target by a_max, so a kick from
    # less than a cell away stays finite where a_max / dist would overflow
    raw = json.loads((CONFIGS / "quickstart.json").read_text())
    raw["rl"].update(rl, train_steps=200)
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, raw)
    assert main(["train", "--config", cfg_path, "--out", str(out), "--mode", "communicating"]) == 0
    assert_only_finite_numbers(out)


@pytest.mark.parametrize(
    "payload,key",
    [
        ({"plume": {"wind": [1, 0, 0]}}, "wind"),
        ({"plume": {"wind": 1.0}}, "wind"),
        ({"rl": {"reward": {"action_costs": 0.5}}}, "action_costs"),
    ],
)
def test_wrong_shape_error_names_the_setting(payload, key):
    with pytest.raises(ConfigError, match=key):
        parse_config(payload)


GRID4 = GridSpec(0.0, 4.0, 0.0, 4.0, 4, 4, 4, 4)
ENV4 = HybridEnvConfig(world=World(GRID4, PlumeParams()))
PRIOR4 = [1, 2, 0, 1, 0.5, 1, 1, 3, 1, 1, 0, 2, 1, 1, 1, 4]

# (setting, build from a list value, the stored value, a valid list, a list of
# the wrong length or None, an entry the setting refuses)
LIST_SETTINGS = [
    ("wind", lambda v: PlumeParams(wind=v), lambda o: o.wind, [1, 0], [1, 0, 0], float("nan")),
    (
        "sim.source",
        lambda v: World(GRID4, PlumeParams(), source_xy=v),
        lambda o: o.source_xy,
        [1, 2.5],
        [1.0],
        5.0,  # outside the 4-wide world
    ),
    (
        "prior.values",
        lambda v: World(GRID4, PlumeParams(), prior_weights=v),
        lambda o: o.prior_weights,
        PRIOR4,
        PRIOR4[:-1],
        -1.0,
    ),
    (
        "action_costs",
        lambda v: RewardWeights(action_costs=v),
        lambda o: o.action_costs,
        [0, 0.2, 0.1, 0.1, 0.3],
        [0, 0.2],
        True,
    ),
    ("hidden", lambda v: TrainConfig(env=ENV4, hidden=v), lambda o: o.hidden, [8, 6], None, 0),
    ("seeds", check_seeds, lambda o: o, [3, 0, 7], [], 1.5),
]


@pytest.mark.parametrize(
    "name,build,stored,good,wrong_length,bad_entry",
    LIST_SETTINGS,
    ids=[setting[0] for setting in LIST_SETTINGS],
)
def test_list_setting_is_one_checked_tuple(name, build, stored, good, wrong_length, bad_entry):
    # a list, a tuple or a 1-D array builds the same hashable value
    built = [build(given) for given in (good, tuple(good), np.array(good))]
    for obj in built:
        assert type(stored(obj)) is tuple and stored(obj) == tuple(good)
        assert obj == built[0] and hash(obj) == hash(built[0])
    bad_values = ["1, 0", 1.0, np.array([good]), [*good[:-1], bad_entry]]
    for bad in bad_values + ([] if wrong_length is None else [wrong_length]):
        with pytest.raises(ValueError, match=name):
            build(bad)


def _numeric_leaves(node, path=()):
    """(path, value) of every number in a JSON-like tree, list entries included."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _numeric_leaves(child, (*path, key))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from _numeric_leaves(child, (*path, k))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


def _replaced(tree, path, value):
    out = json.loads(json.dumps(tree))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def test_every_numeric_setting_rejects_non_numbers():
    # walks the whole effective schema, so a field added later is covered too
    grid = {"x_max": 4.0, "y_max": 4.0, "a_cells": 4, "b_cells": 4, "i_cells": 2, "j_cells": 2}
    echoed = parse_config(
        {
            "grid": grid,
            "prior": {"kind": "weights", "values": [1.0, 0.0, 2.0, 1.0]},
            "sim": {"source": {"placement": "fixed", "x": 2.5, "y": 1.5}},
        }
    ).effective_dict()
    leaves = list(_numeric_leaves(echoed))
    assert len(leaves) > 40
    accepted = []
    for path, value in leaves:
        bad = [True, "1"]
        if not isinstance(value, int):
            bad += [float("nan"), float("inf"), float("-inf")]
        for replacement in bad:
            try:
                parse_config(_replaced(echoed, path, replacement))
            except ConfigError:
                continue
            accepted.append((path, replacement))
    assert accepted == []


# quickstart cut to a few steps, with every real-valued setting spelled out
FUZZ_BASE = json.loads((CONFIGS / "quickstart.json").read_text())
FUZZ_BASE["sim"]["n_steps"] = 4
FUZZ_BASE["rl"].update(train_steps=40, horizon=10, batch_size=8, eps_decay_steps=20, target_sync=10)
FUZZ_BASE = parse_config(FUZZ_BASE).effective_dict()
REAL_SETTINGS = [path for path, value in _numeric_leaves(FUZZ_BASE) if isinstance(value, float)]
EXTREMES = [5e-324, 1e-308, 1e-150, -1e-150, 1e150, 1e300, 1e308, -1e308, 0.0]


def _run_quietly(args):
    """main(args) in-process: its exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = main(args)
    return code, err.getvalue()


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(REAL_SETTINGS), st.sampled_from(EXTREMES)),
        min_size=1,
        max_size=2,
        unique_by=lambda setting: setting[0],
    )
)
@example([(("rl", "a_max"), 1e308)])
@example([(("rl", "a_max"), 1e308), (("rl", "v_max"), 1e308)])
def test_every_config_the_loader_accepts_runs_to_the_end(tmp_path_factory, settings_drawn):
    # the loader contract: a config exits 2 at load naming a setting, or
    # simulate runs to the end and train either does or stops on a diverging
    # (non-finite) checkpoint; no output file holds a number that is not finite
    raw = FUZZ_BASE
    for path, value in settings_drawn:
        raw = _replaced(raw, path, value)
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg_path = write_config(tmp, raw)
    code, err = _run_quietly(["simulate", "--config", cfg_path, "--out", str(tmp / "sim")])
    if code == 2:
        named = {key for path, _ in settings_drawn for key in path if isinstance(key, str)}
        assert err.startswith("error:") and any(key in err for key in named), err
        assert not (tmp / "sim").exists()
        return
    assert code == 0, err
    assert_only_finite_numbers(tmp / "sim")
    code, err = _run_quietly(["train", "--config", cfg_path, "--out", str(tmp / "train")])
    assert code == 0 or (code == 3 and "runtime failure: checkpoint" in err), err
    assert_only_finite_numbers(tmp / "train")


@pytest.mark.parametrize(
    "payload",
    [
        {"prior": {"kind": "uniform", "values": [1]}},
        {"sim": {"source": {"placement": "sampled", "x": 3}}},
        {"sim": {"source": {"placement": "fixed", "x": 1, "y": 2, "z": 3}}},
    ],
)
def test_unknown_key_in_prior_or_source_exits_2(tmp_path, capsys, payload):
    cfg_path = write_config(tmp_path, payload)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"sim": {"policies": ["caf\u00e9"]}}'.encode("latin-1"))
    with pytest.raises(ConfigError, match="latin1.json: not UTF-8 text"):
        load_config(latin1)


def test_tier_budget_gate():
    big_exact = parse_config({"planner": {"tier": "exact"}})  # 64x64 src grid
    with pytest.raises(ConfigError, match="--force"):
        check_tier_budget(big_exact)
    check_tier_budget(big_exact, force=True)
    small_exact = parse_config(
        {
            "grid": {"a_cells": 8, "b_cells": 8, "i_cells": 8, "j_cells": 8},
            "planner": {"tier": "exact"},
        }
    )
    check_tier_budget(small_exact)
    check_tier_budget(parse_config({}))  # fft tier has no budget gate


# -- CLI: simulate ---------------------------------------------------------------------


def test_simulate_writes_expected_artifacts(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY_SIM)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    echoed = capsys.readouterr().out
    assert '"a_cells": 8' in echoed  # effective config echoed to stdout
    for policy in ("info", "cost-only", "random"):
        for seed in (0, 1):
            assert (out / policy / f"episode_{seed}.csv").is_file()
    assert (out / "effective_config.json").is_file()
    assert (out / "ig_curves.svg").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["runs"]) == 6
    for run in summary["runs"]:
        assert set(run) >= {"seed", "policy", "cumulative_cost", "final", "steps_to_ig_10"}
    echoed_cfg = json.loads((out / "effective_config.json").read_text())
    assert parse_config(echoed_cfg) == load_config(cfg_path)


def test_simulate_is_deterministic_across_runs(tmp_path):
    cfg_path = write_config(tmp_path, TINY_SIM)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg_path, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(out_b)]) == 0
    for rel in [p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file()]:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_simulate_threads_match_serial(tmp_path):
    cfg_path = write_config(tmp_path, TINY_SIM)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main(["simulate", "--config", cfg_path, "--out", str(serial)]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(pooled), "--threads", "2"]) == 0
    for rel in [p.relative_to(serial) for p in serial.rglob("*.csv")]:
        assert (serial / rel).read_bytes() == (pooled / rel).read_bytes(), rel


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    cfg_path = write_config(tmp_path, TINY_SIM)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg_path, "--out", str(out), "--threads", threads]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_pool_never_has_more_workers_than_jobs(tmp_path, monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    cfg_path = write_config(tmp_path, TINY_SIM)
    args = ["simulate", "--config", cfg_path, "--policy", "random", "--threads", "64"]
    assert main([*args, "--out", str(tmp_path / "two")]) == 0  # 2 seeds: 2 jobs
    assert main([*args, "--out", str(tmp_path / "one"), "--seed", "0"]) == 0
    assert sizes == [2]  # one job runs in-process, without a pool


def test_simulate_seed_and_policy_overrides(tmp_path):
    cfg_path = write_config(tmp_path, TINY_SIM)
    out = tmp_path / "run"
    code = main(
        [
            "simulate", "--config", cfg_path, "--out", str(out),
            "--seed", "5", "--policy", "random",
        ]
    )
    assert code == 0
    assert (out / "random" / "episode_5.csv").is_file()
    assert not (out / "info").exists()
    assert not (out / "random" / "episode_0.csv").exists()


@pytest.mark.parametrize(
    "command,seeds,policies,flags",
    [
        ("simulate", [1, 1], None, []),
        ("simulate", [0, 1], None, ["--seed", "3", "--seed", "3"]),
        ("simulate", [0, 1], None, ["--policy", "random", "--policy", "random"]),
        ("simulate", [1, 1], None, ["--threads", "2"]),
        ("simulate", [0, 1], None, ["--seed", "-1"]),
        ("train", [1, 1], None, []),
        ("simulate", [0, 1], [], []),
        ("simulate", [0, 1], "info", []),
    ],
    ids=[
        "config-seeds",
        "seed-flag",
        "policy-flag",
        "pooled",
        "negative-seed",
        "train",
        "empty-policies",
        "string-policies",
    ],
)
def test_repeated_or_negative_runs_exit_2_before_writing(
    tmp_path, capsys, command, seeds, policies, flags
):
    sim = TINY_SIM["sim"] if policies is None else {**TINY_SIM["sim"], "policies": policies}
    cfg_path = write_config(tmp_path, {**TINY_SIM, "sim": sim, "seeds": seeds})
    out = tmp_path / "run"
    assert main([command, "--config", cfg_path, "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_gross_outlier_fails_loudly_with_exit_3(tmp_path, capsys, monkeypatch):
    # a reading ~38 sigma above every hypothesis' prediction floors the
    # likelihood of every source cell: the model cannot explain it, so the
    # run stops and names the reading instead of dropping it
    cfg_path = write_config(tmp_path, TINY_SIM)
    plume = load_config(cfg_path).plume
    outlier = plume.strength + 38.0 * plume.noise_sigma  # strength is the peak prediction
    real_sense = swarm.sense

    def sense_with_outlier(position, source, plume, rng, step, agent_id):
        rec = real_sense(position, source, plume, rng, step, agent_id)
        return replace(rec, value=outlier) if (step, agent_id) == (1, 0) else rec

    monkeypatch.setattr(swarm, "sense", sense_with_outlier)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg_path, "--out", str(out), "--seed", "0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime failure:")
    assert f"measurement {outlier!r}" in err and "impossible" in err


def test_simulate_refuses_nonempty_output(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY_SIM)
    out = tmp_path / "run"
    out.mkdir()
    (out / "keep.txt").write_text("precious")
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert "not empty" in capsys.readouterr().err
    assert (out / "keep.txt").read_text() == "precious"  # untouched
    assert main(["simulate", "--config", cfg_path, "--out", str(out), "--force"]) == 0


def test_simulate_invalid_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["simulate", "--config", missing, "--out", str(tmp_path / "o")]) == 2
    bad = write_config(tmp_path, {"planner": {"tier": "psychic"}}, name="bad.json")
    assert main(["simulate", "--config", bad, "--out", str(tmp_path / "o2")]) == 2
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"sim": {"n_agents": 2}} \xe9')
    assert main(["simulate", "--config", str(latin1), "--out", str(tmp_path / "o3")]) == 2
    assert "not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "o3").exists()


def test_simulate_exact_tier_budget_respected(tmp_path):
    big = json.loads(json.dumps(TINY_SIM))
    big["grid"] = {"a_cells": 128, "b_cells": 128, "i_cells": 64, "j_cells": 64}
    big["planner"] = {"tier": "exact"}
    cfg_path = write_config(tmp_path, big, name="big.json")
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "big_out")]) == 2


def test_simulate_runtime_failure_exits_3(tmp_path, capsys):
    # --out itself is fine; a file where a policy's directory must go inside
    # it is found only when the run writes there
    cfg_path = write_config(tmp_path, TINY_SIM)
    out = tmp_path / "run"
    out.mkdir()
    (out / "info").write_text("a file where a directory must go")
    assert main(["simulate", "--config", cfg_path, "--out", str(out), "--force"]) == 3
    assert "runtime failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "train", "bench"])
@pytest.mark.parametrize("under", [False, True])
@pytest.mark.parametrize("force", [[], ["--force"]])
def test_out_that_is_or_lies_under_a_file_exits_2(tmp_path, capsys, command, under, force):
    cfg_path = write_config(tmp_path, TINY_RL if command == "train" else TINY_SIM)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where a directory must go")
    out = blocker / "run" if under else blocker
    extra = ["--sizes", "8", "--repeats", "1"] if command == "bench" else []
    assert main([command, "--config", cfg_path, "--out", str(out), *force, *extra]) == 2
    assert f"output path {blocker} is not a directory" in capsys.readouterr().err
    assert blocker.read_text() == "a file where a directory must go"


# -- CLI: train --------------------------------------------------------------------------


def test_train_writes_expected_artifacts(tmp_path):
    cfg_path = write_config(tmp_path, TINY_RL)
    out = tmp_path / "train"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    for mode in ("individual", "communicating"):
        assert (out / f"curves_{mode}_0.csv").is_file()
        for agent in (0, 1):
            assert (out / f"qnet_{mode}_0_agent{agent}.json").is_file()
    assert (out / "reward_curves.svg").is_file()
    summary = json.loads((out / "train_summary.json").read_text())
    assert {run["mode"] for run in summary["runs"]} == {"individual", "communicating"}
    for run in summary["runs"]:
        assert run["train_steps"] == 20
        assert "mean_reward_first_quarter" in run and "mean_reward_last_quarter" in run


def test_train_single_mode_and_determinism(tmp_path):
    cfg_path = write_config(tmp_path, TINY_RL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = main(
            ["train", "--config", cfg_path, "--out", str(out), "--mode", "individual"]
        )
        assert code == 0
        assert not (out / "curves_communicating_0.csv").exists()
    for rel in [p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file()]:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


# -- CLI: bench and plot -------------------------------------------------------------------


def test_bench_single_size_writes_csv(tmp_path):
    cfg_path = write_config(tmp_path, {"plume": {"length_scale": 3.0, "noise_sigma": 0.5}})
    out = tmp_path / "bench"
    code = main(
        ["bench", "--config", cfg_path, "--out", str(out), "--sizes", "8", "--repeats", "2"]
    )
    assert code == 0
    lines = (out / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "size,fft_ms,brute_ms"
    assert len(lines) == 2 and lines[1].startswith("8,")


def test_bench_times_every_size_whatever_its_growth(tmp_path):
    # bench only measures: criterion 10 judges the 32->64 growth, and a
    # 32->48 step grows brute force about 1.5^4, not the 16x of a doubling
    out = tmp_path / "bench"
    args = ["--sizes", "16,32,48", "--repeats", "1"]
    assert main(["bench", "--config", str(CONFIGS / "bench.json"), "--out", str(out), *args]) == 0
    lines = (out / "bench.csv").read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines] == ["size", "16", "32", "48"]


def test_bench_rejects_unsorted_sizes(tmp_path):
    cfg_path = write_config(tmp_path, {})
    out = tmp_path / "bench"
    code = main(
        ["bench", "--config", cfg_path, "--out", str(out), "--sizes", "8,4", "--repeats", "1"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "flag,value", [("--repeats", "0"), ("--repeats", "-1"), ("--sizes", "8,x"), ("--sizes", "0,8")]
)
def test_bench_rejects_bad_sizes_and_repeats(tmp_path, capsys, flag, value):
    cfg_path = write_config(tmp_path, {})
    out = tmp_path / "bench"
    args = ["--sizes", "8", "--repeats", "1"]
    args[args.index(flag) + 1] = value
    code = main(["bench", "--config", cfg_path, "--out", str(out), *args])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (out / "bench.csv").exists()


def test_bench_refuses_a_plume_its_lattice_sizes_cannot_hold(tmp_path, capsys):
    # the config's own 16x16 lattice FFT is finite, so it loads; the 64-cell
    # bench grid's 128x128 lattice FFT is not, and nothing may be timed or written
    plume = {"strength": 4.5e152, "length_scale": 3.0}
    cfg_path = write_config(tmp_path, {"grid": TINY_SIM["grid"], "plume": plume})
    out = tmp_path / "bench"
    code = main(
        ["bench", "--config", cfg_path, "--out", str(out), "--sizes", "8,64", "--repeats", "1"]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --sizes 64:")
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--threads", "0"), ("--seed", "7")])
def test_bench_takes_no_run_flags(tmp_path, capsys, flag, value):
    # bench runs one timing pass with no seeds and no workers, so the flags
    # simulate and train take are usage errors here, not silently ignored
    cfg_path = write_config(tmp_path, {})
    out = tmp_path / "bench"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--config", cfg_path, "--out", str(out), "--sizes", "8", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_plot_regenerates_svg_and_needs_data(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY_SIM)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    svg_before = (out / "ig_curves.svg").read_bytes()
    (out / "ig_curves.svg").unlink()
    assert main(["plot", "--out", str(out)]) == 0
    assert (out / "ig_curves.svg").read_bytes() == svg_before
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["plot", "--out", str(empty)]) == 2
    assert main(["plot", "--out", str(tmp_path / "missing")]) == 2


@pytest.mark.parametrize(
    "command,svg_name", [("simulate", "ig_curves.svg"), ("train", "reward_curves.svg")]
)
def test_a_runs_own_chart_is_the_chart_plot_draws_from_its_tables(
    tmp_path, capsys, command, svg_name
):
    # a run charts the series it holds in memory; plot reads its tables back
    out = tmp_path / command
    assert main([command, "--config", str(CONFIGS / "quickstart.json"), "--out", str(out)]) == 0
    own = (out / svg_name).read_bytes()
    (out / svg_name).unlink()
    assert main(["plot", "--out", str(out)]) == 0
    assert (out / svg_name).read_bytes() == own


def test_plot_escapes_a_label_taken_from_a_file_name(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY_SIM)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg_path, "--out", str(out), "--policy", "info"]) == 0
    (out / "info" / "episode_0.csv").rename(out / "info" / "episode_a&b.csv")
    assert main(["plot", "--out", str(out)]) == 0
    svg = ElementTree.parse(out / "ig_curves.svg").getroot()  # well-formed XML
    legend = [text.text for text in svg.iter("{http://www.w3.org/2000/svg}text")]
    assert "info a&b" in legend and "info 1" in legend


@pytest.mark.parametrize(
    "command,payload,stale_run,run,svg_name,stale_table,labels",
    [
        ("simulate", TINY_SIM, ["--policy", "info", "--seed", "7"],
         ["--policy", "info", "--seed", "0"], "ig_curves.svg", "info/episode_99.csv",
         {"info 0"}),
        ("train", TINY_RL, ["--mode", "individual", "--seed", "3"],
         ["--mode", "communicating", "--seed", "0"], "reward_curves.svg",
         "curves_individual_99.csv", {"communicating_0"}),
    ],
    ids=["simulate", "train"],
)
def test_a_forced_run_charts_only_the_runs_in_its_summary(
    tmp_path, capsys, command, payload, stale_run, run, svg_name, stale_table, labels
):
    # a run charts the tables it wrote: not a stale one from an earlier run into
    # the same --out, nor a foreign file whose name looks like a table
    cfg_path = write_config(tmp_path, payload)
    out = tmp_path / "run"
    assert main([command, "--config", cfg_path, "--out", str(out), *stale_run]) == 0
    (out / stale_table).write_text("a,b\n1,2\n")
    assert main([command, "--config", cfg_path, "--out", str(out), "--force", *run]) == 0, (
        capsys.readouterr().err
    )
    svg = ElementTree.parse(out / svg_name).getroot()
    legend = {text.text for text in svg.iter("{http://www.w3.org/2000/svg}text")}
    assert legend & {"info 0", "info 7", "info 99", "communicating_0", "individual_3",
                     "individual_99"} == labels


@pytest.mark.parametrize(
    "command,payload,svg_name,label",
    [
        ("simulate", {**TINY_SIM, "sim": {"n_steps": 0}}, "ig_curves.svg", "info 0"),
        ("train", {**TINY_RL, "rl": {**TINY_RL["rl"], "train_steps": 0}}, "reward_curves.svg",
         "communicating_0"),
    ],
)
def test_plot_draws_a_zero_step_run_as_empty_series(
    tmp_path, capsys, command, payload, svg_name, label
):
    cfg_path = write_config(tmp_path, payload)
    out = tmp_path / "run"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
    svg_before = (out / svg_name).read_bytes()
    (out / svg_name).unlink()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "Mean of empty slice"
        assert main(["plot", "--out", str(out)]) == 0, capsys.readouterr().err
    assert (out / svg_name).read_bytes() == svg_before
    svg = ElementTree.parse(out / svg_name).getroot()
    legend = [text.text for text in svg.iter("{http://www.w3.org/2000/svg}text")]
    assert label in legend


@pytest.mark.parametrize(
    "rewards",
    [("1e+16", "1e+16"), ("-1e+308", "1e+308")],
    ids=["flat-beyond-2-53", "span-overflows"],
)
def test_plot_draws_any_finite_table_with_finite_coordinates(tmp_path, capsys, rewards):
    # a flat span widened by +1.0 loses the 1 at |y| >= 2^53, and 1e308 - -1e308
    # overflows: neither may divide by zero or write nan into the chart
    rows = "".join(f"{step},0,{v}\n" for step, v in enumerate(rewards))
    (tmp_path / "curves_communicating_0.csv").write_text(f"step,agent_id,smoothed_reward\n{rows}")
    assert main(["plot", "--out", str(tmp_path)]) == 0, capsys.readouterr().err
    svg = (tmp_path / "reward_curves.svg").read_text()
    ElementTree.fromstring(svg)  # well-formed XML
    numbers = []
    for token in re.findall(r"[^\s,\"<>=()]+", svg):
        try:
            numbers.append(float(token))
        except ValueError:
            continue
    assert numbers and all(map(np.isfinite, numbers))
    ticks = re.findall(r'text-anchor="end">([^<]*)<', svg)
    assert len(ticks) == 5 and len(set(ticks)) == 5


EPISODE_HEADER = ",".join(swarm.StepRecord._fields)
EPISODE_ROW = "0.5,0.5,0.1,0.0,1.0"  # x, y, m, ig_bits, cost after step and agent_id


@pytest.mark.parametrize(
    "name,text,error",
    [
        ("info/episode_0.csv", "step,agent,x\n0,0,0.5\n", "CSV header"),
        ("info/episode_0.csv", f"{EPISODE_HEADER}\n0,0,0.5\n", "line 2: 3 values, not 7"),
        (
            "info/episode_0.csv",
            f"{EPISODE_HEADER}\n0,0,{EPISODE_ROW}\n2,0,{EPISODE_ROW}\n",
            "line 3: step 2 agent 0 is out of order",
        ),
        ("curves_communicating_0.csv", "step,agent,smoothed_reward\n0,0,1.0\n", "CSV header"),
        (
            "curves_communicating_0.csv",
            "step,agent_id,smoothed_reward\n0,0\n",
            "line 2: 2 values, not 3",
        ),
        (
            "info/episode_0.csv",
            f"{EPISODE_HEADER}\n0,0,0.5,0.5,nan,0.0,1.0\n",
            "line 2: ['0', '0', '0.5', '0.5', 'nan', '0.0', '1.0'] holds a value that is not",
        ),
        ("info/episode_0.csv", f"{EPISODE_HEADER}\n".encode() + b"0,0,\xe9\n", "not UTF-8 text"),
        (
            "curves_individual_0.csv",
            "step,agent_id,smoothed_reward\n0,0,-inf\n",
            "line 2: ['0', '0', '-inf'] holds a value that is not finite",
        ),
        (
            "info/episode_0.csv",
            f"{EPISODE_HEADER}\n0,0, 1_0.5 ,0.5,0.1,0.0,1.0\n",
            "line 2: ' 1_0.5 ' reads as 10.5, which write_rows writes as '10.5'",
        ),
    ],
    ids=["episode-header", "episode-short-row", "episode-missing-step", "curves-header",
         "curves-short-row", "episode-nan", "episode-not-utf-8", "curves-inf",
         "episode-underscored-number"],
)
def test_plot_refuses_a_foreign_table_with_exit_2(tmp_path, capsys, name, text, error):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["plot", "--out", str(tmp_path)]) == 2
    assert f"{path}: {error}" in capsys.readouterr().err
    assert not (tmp_path / "ig_curves.svg").exists()
