"""Config parsing/validation and the command-line front end."""
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumeseek import swarm
from plumeseek.cli import main
from plumeseek.config import (
    ConfigError,
    check_tier_budget,
    load_config,
    parse_config,
)
from plumeseek.planner import TIERS
from plumeseek.rl.train import MODES
from plumeseek.swarm import POLICIES

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


TINY_SIM = {
    "grid": {"x_max": 8.0, "y_max": 8.0, "a_cells": 8, "b_cells": 8, "i_cells": 8, "j_cells": 8},
    "plume": {"length_scale": 1.0, "noise_sigma": 0.4},
    "cost": {"overhead": 1.0, "quad_coeff": 0.05},
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
    import plumeseek

    src = str(Path(plumeseek.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import plumeseek.cli, plumeseek.rl.train; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"



def test_empty_config_resolves_all_defaults():
    cfg = parse_config({})
    assert cfg.grid.a_cells == 64 and cfg.grid.n_src_cells == 64 * 64
    assert cfg.plume.kind == "isotropic-blob"
    assert cfg.sim.tier == "snr-fft" and cfg.sim.quad.n_nodes == 16
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
        "cost": st.builds(dict, overhead=_floats(0.1, 5.0), quad_coeff=_floats(0.0, 1.0)),
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


def test_invalid_sections_are_reported_as_config_errors():
    with pytest.raises(ConfigError):
        parse_config({"grid": {"x_max": -1.0}})
    with pytest.raises(ConfigError):
        parse_config({"plume": {"kind": "volcano"}})
    with pytest.raises(ConfigError):
        parse_config({"plume": {"kind": "advected-plume"}})  # calm wind
    with pytest.raises(ConfigError, match="tier"):
        parse_config({"planner": {"tier": "psychic"}})
    with pytest.raises(ConfigError):
        parse_config({"cost": {"overhead": 0.0}})


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
    for bad in ([-1.0, 1.0, 1.0, 1.0], [float("nan"), 1.0, 1.0, 1.0]):
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
    assert sim.source_xy == (2.5, 2.5)
    env = cfg.train.env
    assert env.n_agents == 2 and env.horizon == 8
    assert env.reward.action_cost(1) == 0.2
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
        assert (sim.policy, sim.seed, sim.grid) == (policy, seed, cfg.grid)
    for mode in MODES:
        tc = cfg.train_config(seed, mode)
        assert (tc.mode, tc.seed, tc.env.grid) == (mode, seed, cfg.grid)


# every entry: (section, key, value) that must fail at load time
BAD_VALUES = [
    ("plume", "noise_sigma", float("nan")),
    ("plume", "strength", float("nan")),
    ("plume", "length_scale", float("nan")),
    ("grid", "x_max", float("inf")),
    ("cost", "overhead", float("nan")),
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
    ("rl", "dt", float("nan")),
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

    monkeypatch.setattr("plumeseek.cli.ProcessPoolExecutor", RecordingPool)
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
    "command,seeds,flags",
    [
        ("simulate", [1, 1], []),
        ("simulate", [0, 1], ["--seed", "3", "--seed", "3"]),
        ("simulate", [0, 1], ["--policy", "random", "--policy", "random"]),
        ("simulate", [1, 1], ["--threads", "2"]),
        ("simulate", [0, 1], ["--seed", "-1"]),
        ("train", [1, 1], []),
    ],
    ids=["config-seeds", "seed-flag", "policy-flag", "pooled", "negative-seed", "train"],
)
def test_repeated_or_negative_runs_exit_2_before_writing(
    tmp_path, capsys, command, seeds, flags
):
    cfg_path = write_config(tmp_path, {**TINY_SIM, "seeds": seeds})
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


def test_simulate_exact_tier_budget_respected(tmp_path):
    big = json.loads(json.dumps(TINY_SIM))
    big["grid"] = {"a_cells": 128, "b_cells": 128, "i_cells": 64, "j_cells": 64}
    big["planner"] = {"tier": "exact"}
    cfg_path = write_config(tmp_path, big, name="big.json")
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "big_out")]) == 2


def test_simulate_runtime_failure_exits_3(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY_SIM)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where a directory must go")
    assert main(["simulate", "--config", cfg_path, "--out", str(blocker)]) == 3
    assert "runtime failure" in capsys.readouterr().err


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
