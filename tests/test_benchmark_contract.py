"""The benchmark harness in perfbench/, imported as it is, against the current program.

No other test imports perfbench/, so these keep a refactor of the package
from breaking the harness's checks or its tracer's wrap sites unnoticed.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from plumeseek.config import load_config, parse_config
from plumeseek.swarm import POLICY_INFO, run_episode

ROOT = Path(__file__).resolve().parent.parent

# the one wrap site with no function behind it: the RL env measures through swarm.sense
KNOWN_UNWRAPPED = ["field.concentration at plumeseek.rl.env:concentration"]

FIXED_SOURCE_WEIGHTS_PRIOR = {
    "grid": {"x_max": 4.0, "y_max": 4.0, "a_cells": 4, "b_cells": 4, "i_cells": 4, "j_cells": 4},
    "plume": {"length_scale": 1.0, "noise_sigma": 0.5},
    "prior": {"kind": "weights", "values": [1, 0, 2, 1, 0.5, 0.5, 3, 1, 1, 1, 0, 2, 1, 1, 1, 4]},
    "sim": {"n_agents": 2, "n_steps": 10, "source": {"placement": "fixed", "x": 2.5, "y": 1.25}},
}


def _load(name):
    """A perfbench module by file path, so its generic name joins no import path."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
tracer = _load("tracer")


@pytest.mark.parametrize(
    "cfg",
    [load_config(ROOT / "configs" / "quickstart.json"), parse_config(FIXED_SOURCE_WEIGHTS_PRIOR)],
    ids=["quickstart", "fixed-source-weights-prior-4x4"],
)
def test_benchmark_checks_run_on_the_program(cfg, tmp_path):
    seed = cfg.seeds[0]
    log = run_episode(cfg.sim_config(seed, POLICY_INFO))
    assert np.array_equal(checks.prior_of(cfg).log_probs, log.prior.log_probs)
    log.to_csv(tmp_path / "episode.csv")
    replayed = checks.replay_episode(cfg, tmp_path / "episode.csv")
    assert checks.is_normalised(replayed)
    assert checks.ig_matches(replayed, cfg, log.summary()["final"]["ig_bits"])
    post = checks.synthetic_posterior(cfg, seed)
    assert checks.is_normalised(post)
    assert checks.fft_spot_check(post, cfg, seed) <= checks.FFT_REL_TOL


def test_every_tracer_wrap_site_resolves_but_the_known_gap():
    patches = tracer.Patches()
    try:
        for name, sites in tracer.WRAP_TABLE.items():
            for module, attr in sites:
                patches.apply(name, module, attr, lambda fn: fn)
        for module, attr in checks.UPDATE_SITES:
            patches.apply("normalisation guard", module, attr, lambda fn: fn)
    finally:
        patches.undo()
    assert patches.unwrapped == KNOWN_UNWRAPPED


def test_tracer_count_hooks_run_on_the_program(tmp_path, capsys):
    # the hooks read the kernel's values and strides, the posterior's grid and
    # the env's actions: a refactor of those must not crash a traced run
    from plumeseek import cli

    config = str(ROOT / "configs" / "quickstart.json")
    traced, patches = tracer.Tracer(), tracer.Patches()
    traced.install(patches)
    try:
        assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / "sim")]) == 0
        argv = ["train", "--config", config, "--out", str(tmp_path / "rl")]
        assert cli.main([*argv, "--mode", "communicating"]) == 0
    finally:
        patches.undo()
    assert patches.unwrapped == KNOWN_UNWRAPPED
    counts = traced.run_counts([traced.run_id])
    for key in ("planner.fft_cells", "field.kernel_cells", "belief.cell_records",
                "planner.distinct_targets", "rl.qnet.replay_samples", "rl.env.actions.move"):
        assert counts[key] > 0, key
