"""The benchmark's workloads and the run configs it derives from the checked-in ones.

Each workload runs one user-facing CLI command (`plumeseek simulate` or
`plumeseek train`) in rounds. A round is a fixed list of jobs, one CLI call
each, all on the same seed, so every round does the same mix of work and a
throughput figure does not depend on where the time window cuts the loop.
Pure standard library: the parent process uses it before NumPy is loaded.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                        # checked-in config, relative to the checkout root
    command: str                       # CLI subcommand every job runs
    jobs: tuple[tuple[str, ...], ...]  # extra CLI arguments, one tuple per job of a round
    overrides: dict = field(default_factory=dict)  # section -> keys replaced in the config


WORKLOADS = {
    w.name: w
    for w in (
        # small grid: per-call overhead, the 5-reading update and select_next
        # weigh as much as the FFT; 5 agents show the agent collapse
        Workload(
            name="desk-search",
            config="configs/desk_search_64.json",
            command="simulate",
            jobs=(("--policy", "info"), ("--policy", "cost-only"), ("--policy", "random")),
        ),
        # large grid: score map, update and select_next do the work
        Workload(
            name="fullscale-info",
            config="configs/full_scale_advected.json",
            command="simulate",
            jobs=(("--policy", "info"),),
            # The checked-in 300 steps take ~45 s per episode. An episode's
            # prefix does not depend on n_steps, so a 64-step cap keeps every
            # step's work and the steps-to-10-bits count (seed 0: step 43).
            overrides={"sim": {"n_steps": 64}},
        ),
        # RL layer; never calls the planner, so it bypasses planner changes
        Workload(
            name="train-comm",
            config="configs/train_compare_32.json",
            command="train",
            jobs=(("--mode", "communicating"),),
        ),
    )
}


def write_run_config(workload: Workload, root: Path, dest: Path) -> Path:
    """Write the workload's run config (checked-in config plus overrides) to dest."""
    raw = json.loads((root / workload.config).read_text())
    for section, keys in workload.overrides.items():
        raw.setdefault(section, {}).update(keys)
    dest.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    return dest


def job_argv(workload: Workload, slot: int, config_path: Path, out: Path, seed: int) -> list[str]:
    """`plumeseek` CLI arguments of one job of a round."""
    return [workload.command, "--config", str(config_path), "--out", str(out),
            "--threads", "1", "--seed", str(seed), *workload.jobs[slot]]
