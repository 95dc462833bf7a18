"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload desk-search --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. It times set-up in fresh interpreters
(median of several), runs the workload's closed loop in a child process
(worker.py) and prints, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` its per-layer metrics.
Scratch output goes under `.perfbench/` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from machine import limit_threads
from workloads import WORKLOADS, write_run_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
RUN_BUDGET_S = 170  # a run must end within 180 s


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def run_setup_probes(wl, config_path: Path, seed: int, env, work: Path, deadline: float):
    """(set-up seconds of each probe that reached step 0, failure messages).

    A probe's set-up runs from just before its interpreter starts to the
    job's first step, both read from the system-wide monotonic clock.
    """
    times, failures = [], []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(config_path),
               str(seed), str(work / f"setup{i}")]
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, cwd=ROOT,
                              timeout=min(PROBE_TIMEOUT_S, deadline - time.monotonic()))
        if proc.returncode == 0:
            times.append(json.loads(proc.stdout.splitlines()[-1])["step0_s"] - t0)
        else:
            sys.stderr.write(proc.stderr)
            failures.append(f"setup probe {i} exited {proc.returncode}")
    return times, failures


def print_report(wl, args, rec, metrics, units, attempted, failed) -> None:
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: {rec['jobs']} jobs in "
          f"{rec['rounds']} rounds, {rec['posteriors_checked']} posteriors checked")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    for policy, q in rec["episodes"].items():
        print(f"  [{policy}] time_to_10bits_s {q['time_to_10bits_s']:.4g} s, steps_to_10bits "
              f"{q['steps_to_10bits']:g} steps, final_ig_bits {q['final_ig_bits']:.4g} bits, "
              f"map_error {q['map_error']:.4g} world units, {q['ms_per_step']:.4g} ms/step, "
              f"{q['episodes']} episodes")
    print(f"  error_rate {failed / attempted:.4g} ({failed}/{attempted} operations failed)")
    print("  checks: " + ", ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in rec["checks"].items()))
    if rec["unwrapped"]:
        print("  unwrapped: " + "; ".join(rec["unwrapped"]))
    print(f"  machine: {json.dumps(rec['machine'], sort_keys=True)}, "
          f"host steal during the loop {rec['host_steal_pct']:.2f} % of CPU time")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    start = time.monotonic()

    wl = WORKLOADS[args.workload]
    for needed in (ROOT / "src" / "plumeseek" / "cli.py", ROOT / wl.config):
        if not needed.is_file():
            return fail(f"{needed.relative_to(ROOT)} not found; run from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = dict(os.environ)
    limit_threads(env)
    base = ROOT / ".perfbench"
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = base / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (base / "results").mkdir(exist_ok=True)
    config_path = write_run_config(wl, ROOT, work / "run_config.json")

    try:
        # set-up is an end-to-end metric; traced runs skip timing it
        deadline = start + RUN_BUDGET_S
        if args.trace:
            setup_times, failures = [], []
        else:
            setup_times, failures = run_setup_probes(wl, config_path, args.seed, env, work, deadline)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", wl.name,
               "--config", str(config_path), "--workdir", str(work), "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            (base / "traces").mkdir(exist_ok=True)
            cmd += ["--spans", str(base / "traces" / f"{tag}.csv")]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=deadline - time.monotonic(), cwd=ROOT)
        if proc.returncode != 0 or not proc.stdout.strip():
            return fail(f"worker exited {proc.returncode}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired as exc:  # the child is killed and reaped
        return fail(f"{Path(exc.cmd[1]).name} did not finish within the {RUN_BUDGET_S} s budget")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = rec["per_layer"]
    else:
        if not setup_times:
            return fail("no setup probe succeeded")
        values = {
            "steps_per_s": rec["steps_per_s"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
    missing = [name for name in units if name not in values]
    if missing:
        return fail(f"no value for metric(s) {missing}")
    metrics = {name: values[name] for name in units}

    failures += [f"job failed ({rec['failed_jobs']})"] * rec["failed_jobs"]
    failures += [f"check {name} failed" for name, ok in rec["checks"].items() if not ok]
    if not (all(math.isfinite(v) for v in metrics.values()) and rec["steps_per_s"] > 0):
        failures.append("a metric is not finite, or no round completed")
    probes = 0 if args.trace else SETUP_PROBES
    attempted = probes + rec["jobs"] + len(rec["checks"]) + 1
    failed = len(failures)
    for msg in failures:
        print(f"perfbench: {msg}", file=sys.stderr)

    print_report(wl, args, rec, metrics, units, attempted, failed)
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "metrics": metrics, "attempted": attempted,
              "failed": failed, "failures": failures, "setup_probe_s": setup_times, **rec}
    detail.pop("per_layer", None)  # already under "metrics"
    (base / "results" / f"{tag}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
