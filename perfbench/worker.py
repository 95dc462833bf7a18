"""Closed-loop measurement of one workload, run by run.py in its own process.

One client calls `plumeseek.cli.main` in-process, job after job, with
`--threads 1`, until the time is up. Every round runs the same jobs on the
run's seed, so each round is the same work and every round after the first
is a repeat that the byte-identical check compares with round 0. The last
stdout line is a JSON record that run.py turns into the benchmark result.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from machine import cpu_ticks, limit_threads, machine_record

limit_threads(os.environ)  # before NumPy is imported, also when run by hand

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import plumeseek  # noqa: E402
from plumeseek import cli  # noqa: E402
from plumeseek.config import load_config  # noqa: E402

import checks  # noqa: E402
from tracer import COVERAGE, SPAN_KEYS, Patches, Tracer  # noqa: E402
from workloads import WORKLOADS, job_argv  # noqa: E402

IG_THRESHOLD_KEY = "steps_to_ig_10"
DETERMINISTIC_COUNTS = (
    "planner.fft_cells",
    "planner.fft_bytes_computed",
    "field.kernel_cells",
    "belief.cell_records",
    "rl.env.actions.do_nothing",
    "rl.env.actions.move",
    "rl.env.actions.measure",
    "rl.env.actions.update",
    "rl.env.actions.communicate",
    "rl.qnet.replay_samples",
)


def read_job(command: str, out: Path) -> tuple[int, list[dict]]:
    """(steps done, per-run summaries) from a job's output directory."""
    if command == "simulate":
        runs = json.loads((out / "summary.json").read_text())["runs"]
        return sum(r["n_steps"] for r in runs), runs
    runs = json.loads((out / "train_summary.json").read_text())["runs"]
    return sum(r["train_steps"] for r in runs), runs


def episode_quality(run: dict) -> dict:
    """steps to 10 bits (capped at the step budget), final IG and MAP error."""
    reached = run[IG_THRESHOLD_KEY]
    final = run["final"]
    mx, my = final["map_xy"]
    sx, sy = run["source_xy"]
    return {
        "policy": run["policy"],
        "n_steps": run["n_steps"],
        "steps_to_10bits": run["n_steps"] if reached is None else reached,
        "final_ig_bits": final["ig_bits"],
        "map_error": float(np.hypot(mx - sx, my - sy)),
    }


def summarise_episodes(jobs: list[dict]) -> dict:
    """Per-policy medians over the rounds (every round repeats the seed's episodes)."""
    out = {}
    for policy in sorted({q["policy"] for j in jobs for q in j["quality"]}):
        runs = [(j, q) for j in jobs for q in j["quality"] if q["policy"] == policy]
        out[policy] = {
            "episodes": len(runs),
            "ms_per_step": statistics.median(1e3 * j["seconds"] / j["steps"] for j, _ in runs),
            "time_to_10bits_s": statistics.median(
                j["seconds"] / q["n_steps"] * (q["steps_to_10bits"] + 1) for j, q in runs
            ),
            "steps_to_10bits": statistics.median(q["steps_to_10bits"] for _, q in runs),
            "final_ig_bits": statistics.median(q["final_ig_bits"] for _, q in runs),
            "map_error": statistics.median(q["map_error"] for _, q in runs),
        }
    return out


def run_loop(wl, config_path: Path, work: Path, seed: int, seconds: float, tracer, guard):
    """Run rounds of jobs until `seconds` have passed and at least two rounds ran.

    A job's time is its `cli.main` call's wall time less the time the
    normalisation check spent inside it.
    """
    patterns = ("*/episode_*.csv",) if wl.command == "simulate" else ("curves_*.csv",)
    jobs = []
    rounds = []
    start = time.perf_counter()
    with open(os.devnull, "w") as sink:
        r = 0
        while r < 2 or time.perf_counter() - start < seconds:
            round_jobs = []
            for k in range(len(wl.jobs)):
                out = work / f"round{r}-job{k}"
                job = {"id": len(jobs) + 1, "round": r, "slot": k, "out": out}
                if tracer is not None:
                    tracer.run_id = job["id"]
                check_s = guard.seconds
                t0 = time.perf_counter()
                with redirect_stdout(sink):
                    job["exit_code"] = cli.main(job_argv(wl, k, config_path, out, seed))
                job["seconds"] = time.perf_counter() - t0 - (guard.seconds - check_s)
                if job["exit_code"] == 0:
                    job["steps"], runs = read_job(wl.command, out)
                    job["quality"] = [episode_quality(q) for q in runs] if wl.command == "simulate" else []
                    job["digest"] = checks.digest(out, patterns)
                if r > 0:  # round 0 stays on disk for the replay and spot checks
                    shutil.rmtree(out, ignore_errors=True)
                jobs.append(job)
                round_jobs.append(job)
            rounds.append(round_jobs)
            r += 1
    return jobs, rounds


def per_layer_metrics(tracer: Tracer, wl, jobs, rounds, steps_per_s: float, unwrapped) -> dict:
    """Span calls of the seed's first round, ms per step over the run, and counts."""
    total_steps = sum(j.get("steps", 0) for j in jobs) or 1
    ref = tracer.run_counts([j["id"] for j in rounds[0]])
    times = tracer.times()
    out = {}
    for key in SPAN_KEYS:
        total, own = times.get(key, (0.0, 0.0))
        out[f"{key}.calls"] = ref[key]
        out[f"{key}.ms"] = 1e3 * total / total_steps
        out[f"{key}.self_ms"] = 1e3 * own / total_steps
    for key in DETERMINISTIC_COUNTS:
        out[key] = ref[key]
    slots = ref["planner.target_slots"]
    out["planner.distinct_target_ratio"] = ref["planner.distinct_targets"] / slots if slots else 0.0
    parent, parts = COVERAGE[wl.command]
    loop_time = times.get(parent, (0.0, 0.0))[0]
    covered = sum(times.get(k, (0.0, 0.0))[0] for k in parts)
    out["trace.coverage_pct"] = 100.0 * covered / loop_time if loop_time else 0.0
    out["trace.steps_per_s"] = steps_per_s
    out["trace.unwrapped_sites"] = len(unwrapped)
    return out


def correctness_checks(wl, cfg, jobs, rounds, guard, tracer, seed: int) -> dict:
    """Named pass/fail results; none is skipped."""
    done = {(j["round"], j["slot"]): j for j in jobs}
    results = {}
    results["repeat_byte_identical"] = all(
        done[(0, j["slot"])].get("digest") is not None
        and j.get("digest") == done[(0, j["slot"])].get("digest")
        for j in jobs
    )
    results["posteriors_normalised"] = guard.checked > 0 and guard.bad == 0
    first = rounds[0][0]
    if wl.command == "simulate":
        post = None
        if first["exit_code"] == 0:
            (csv_path,) = sorted(first["out"].glob("*/episode_*.csv"))
            post = checks.replay_episode(cfg, csv_path)
        results["replayed_posterior_matches_summary"] = (
            post is not None
            and checks.is_normalised(post)
            and checks.ig_matches(post, cfg, first["quality"][0]["final_ig_bits"])
        )
    else:
        post = checks.synthetic_posterior(cfg, seed)
    results["fft_score_map_spot_check"] = (
        post is not None and checks.fft_spot_check(post, cfg, seed) <= checks.FFT_REL_TOL
    )
    if tracer is not None:
        first_round = tracer.run_counts([j["id"] for j in rounds[0]])
        repeat_round = tracer.run_counts([j["id"] for j in rounds[1]])
        results["counts_repeat_exactly"] = first_round == repeat_round
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True, help="run config written by run.py")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where a traced run writes its spans (CSV)")
    args = ap.parse_args(argv)

    if Path(plumeseek.__file__).resolve().parent != ROOT / "src" / "plumeseek":
        print(f"plumeseek was imported from {plumeseek.__file__}, not this checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    config_path = Path(args.config)
    work = Path(args.workdir)
    cfg = load_config(config_path)

    patches = Patches()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(patches)
    guard = checks.NormalisationGuard()
    guard.install(patches)  # outside the tracer: the check's cost stays out of the update span
    steal0, total0 = cpu_ticks()
    try:
        jobs, rounds = run_loop(wl, config_path, work, args.seed, args.seconds, tracer, guard)
    finally:
        patches.undo()
    steal1, total1 = cpu_ticks()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok_rounds = [rj for rj in rounds if all(j["exit_code"] == 0 for j in rj)]
    # every round is the same work, so the median round's rate is the program's
    rates = [sum(j["steps"] for j in rj) / sum(j["seconds"] for j in rj) for rj in ok_rounds]
    steps_per_s = statistics.median(rates or [0.0])
    results = correctness_checks(wl, cfg, jobs, rounds, guard, tracer, args.seed)
    ok_jobs = [j for j in jobs if j["exit_code"] == 0]
    record = {
        "jobs": len(jobs),
        "rounds": len(rounds),
        "failed_jobs": len(jobs) - len(ok_jobs),
        "checks": results,
        "steps_per_s": steps_per_s,
        "round_steps_per_s": rates,
        "peak_rss_mb": peak_rss_mb,
        "posteriors_checked": guard.checked,
        "episodes": summarise_episodes(ok_jobs) if wl.command == "simulate" else {},
        "unwrapped": patches.unwrapped,
        "machine": machine_record(),
        "host_steal_pct": 100.0 * (steal1 - steal0) / max(total1 - total0, 1),
    }
    if tracer is not None:
        record["per_layer"] = per_layer_metrics(
            tracer, wl, jobs, rounds, steps_per_s, patches.unwrapped
        )
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(record, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
