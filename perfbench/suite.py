"""Run every workload untraced, then traced, and print every metric with its unit.

    python3 perfbench/suite.py [--seed 0] [--seconds 20]

Per workload it prints the end-to-end metrics, the search-quality metrics of
info episodes (time_to_10bits_s, steps_to_10bits, final_ig_bits, map_error),
error_rate, the per-layer split of the traced run and the tracing overhead
(traced against untraced steps_per_s). Exits 1 if any run is not correct.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
EPISODE_METRICS = (
    ("time_to_10bits_s", "s"),
    ("steps_to_10bits", "steps"),
    ("final_ig_bits", "bits"),
    ("map_error", "world units"),
)
TOP_SPANS = 8


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py run; returns the result record it saves under .perfbench/results."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.DEVNULL, cwd=HERE.parent,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: run.py exited {proc.returncode}")
    saved = HERE.parent / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(saved.read_text())


def report(name: str, plain: dict, traced: dict) -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {name} (seed {plain['seed']}, {plain['jobs']} jobs untraced, {traced['jobs']} traced)")
    for metric, value in plain["metrics"].items():
        print(f"  {metric:<22} {value:>12.6g} {units[metric]}")
    info = plain["episodes"].get("info")
    for metric, unit in EPISODE_METRICS:
        shown = f"{info[metric]:>12.6g} {unit}" if info else f"{'n/a':>12} (no info episodes)"
        print(f"  {metric:<22} {shown}")
    for r in (plain, traced):
        rate = r["failed"] / r["attempted"]
        print(f"  error_rate (trace={r['trace']}) {rate:>7.3g} ({r['failed']}/{r['attempted']})")
    layer = traced["metrics"]
    overhead = 1.0 - layer["trace.steps_per_s"] / plain["metrics"]["steps_per_s"]
    print(f"  tracing overhead       {100 * overhead:>12.3g} % of untraced steps_per_s")
    print(f"  trace coverage         {layer['trace.coverage_pct']:>12.4g} % of the loop span")
    spans = sorted(
        (k[: -len(".self_ms")] for k in layer if k.endswith(".self_ms") and not k.startswith("cli.")),
        key=lambda k: -layer[f"{k}.self_ms"],
    )
    for span in spans[:TOP_SPANS]:
        print(f"    {span:<34} {layer[span + '.ms']:>10.4g} ms/step total"
              f" {layer[span + '.self_ms']:>10.4g} self  {layer[span + '.calls']:>8} calls")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    ok = True
    for name in WORKLOADS:
        plain = run(name, args.seed, args.seconds, 0)
        traced = run(name, args.seed, args.seconds, 1)
        ok = ok and plain["failed"] == 0 and traced["failed"] == 0
        report(name, plain, traced)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
