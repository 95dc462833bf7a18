"""Command-line front end: simulate | train | bench | plot.

Exit codes: 0 on success, 2 for invalid configuration or refusal to
overwrite existing outputs, 3 for runtime failures. Outputs are plain CSV,
JSON and SVG; a run is fully reproducible from its echoed effective config.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, check_seeds, check_tier_budget, load_config
from .field import GridSpec, squared_snr_kernel
from .planner import snr_score_map_bruteforce, snr_score_map_fft
from .rl.train import MODES, curves_to_csv, read_curves_csv, train
from .swarm import POLICIES, ig_by_step, read_episode_csv, run_episode
from .svgplot import PALETTE, Series, line_chart, write_svg

POLICY_COLORS = {"info": "#1f77b4", "cost-only": "#ff7f0e", "random": "#2ca02c"}
MODE_COLORS = {"individual": "#d62728", "communicating": "#1f77b4"}
BENCH_SIZES = (8, 16, 32, 64)
BENCH_FFT_MAX_RATIO = 4.5
BENCH_BRUTE_MIN_RATIO = 10.0


def _echo_config(cfg: RunConfig) -> None:
    print(json.dumps(cfg.effective_dict(), indent=2, sort_keys=True))


def _refuse_nonempty(out_dir: Path, force: bool) -> None:
    if force:
        return
    if out_dir.exists() and any(out_dir.iterdir()):
        raise ConfigError(
            f"output directory {out_dir} is not empty; pass --force to overwrite"
        )


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run_jobs(ns, cfg: RunConfig, job, kinds, summary_name: str, plot, what: str) -> int:
    """Run job((cfg, kind, seed, out_dir)) for every kind and seed, then write the summary.

    The output directory gets effective_config.json first, then
    {"runs": [one summary per job]} under summary_name in job order, then
    plot(out_dir). With --threads > 1 the jobs run in min(threads, jobs)
    worker processes; the outputs do not depend on that. Bad --seed values and
    a kind and seed listed twice (one file, two runs) fail before any write.
    """
    if ns.threads < 1:
        raise ConfigError("--threads must be >= 1")
    seeds = check_seeds(ns.seed) if ns.seed else cfg.seeds
    runs = [(kind, seed) for kind in kinds for seed in seeds]
    for k, (kind, seed) in enumerate(runs):
        if (kind, seed) in runs[:k]:
            raise ConfigError(f"{kind} seed {seed} is listed twice; both runs would write one file")
    out_dir = Path(ns.out)
    _refuse_nonempty(out_dir, ns.force)
    _echo_config(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "effective_config.json", cfg.effective_dict())

    jobs = [(cfg, kind, seed, str(out_dir)) for kind, seed in runs]
    workers = min(ns.threads, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(job, jobs))
    else:
        summaries = [job(args) for args in jobs]

    _write_json(out_dir / summary_name, {"runs": summaries})
    plot(out_dir)
    print(f"wrote {len(jobs)} {what} under {out_dir}")
    return 0


def _simulate_job(args):
    cfg, policy, seed, out_dir = args
    log = run_episode(cfg.sim_config(seed, policy))
    pol_dir = Path(out_dir) / policy
    pol_dir.mkdir(parents=True, exist_ok=True)
    log.to_csv(pol_dir / f"episode_{seed}.csv")
    return log.summary()


def _write_chart(path: Path, series, **labels) -> str | None:
    """Write series as a line chart to path and return its name; None, and no file, if none."""
    if not series:
        return None
    write_svg(path, line_chart(series, **labels))
    return path.name


def _ig_curves_svg(out_dir: Path) -> str | None:
    series = []
    for k, policy in enumerate(POLICIES):
        for path in sorted((out_dir / policy).glob("episode_*.csv")):
            recs = read_episode_csv(path)
            ig = ig_by_step(recs, recs[-1].step + 1 if recs else 0)
            series.append(
                Series(
                    label=f"{policy} {path.stem.split('_')[-1]}",
                    xs=list(range(ig.size)),
                    ys=ig.tolist(),
                    color=POLICY_COLORS.get(policy, PALETTE[k % len(PALETTE)]),
                )
            )
    return _write_chart(
        out_dir / "ig_curves.svg",
        series,
        title="Shared information gain",
        x_label="step",
        y_label="bits",
    )


def cmd_simulate(ns) -> int:
    cfg = load_config(ns.config)
    check_tier_budget(cfg, ns.force)
    policies = tuple(ns.policy) if ns.policy else cfg.policies
    return _run_jobs(
        ns, cfg, _simulate_job, policies, "summary.json", _ig_curves_svg, "episode(s)"
    )


def _train_job(args):
    cfg, mode, seed, out_dir = args
    result = train(cfg.train_config(seed, mode))
    out = Path(out_dir)
    curves_to_csv(result, out / f"curves_{mode}_{seed}.csv")
    for j, net in enumerate(result.nets):
        net.save(out / f"qnet_{mode}_{seed}_agent{j}.json")
    mean_curve = result.curves.mean(axis=1) if result.curves.size else np.zeros(0)
    quarter = max(1, len(mean_curve) // 4)
    return {
        "mode": mode,
        "seed": seed,
        "n_episodes": result.n_episodes,
        "train_steps": int(result.curves.shape[0]),
        "mean_reward_first_quarter": float(mean_curve[:quarter].mean())
        if mean_curve.size
        else 0.0,
        "mean_reward_last_quarter": float(mean_curve[-quarter:].mean())
        if mean_curve.size
        else 0.0,
    }


def _reward_curves_svg(out_dir: Path) -> str | None:
    series = []
    for path in sorted(out_dir.glob("curves_*.csv")):
        curves = read_curves_csv(path)
        if curves.size == 0:
            continue
        tag = path.stem[len("curves_") :]
        mode = tag.rsplit("_", 1)[0]
        mean_curve = curves.mean(axis=1)
        series.append(
            Series(
                label=tag,
                xs=list(range(len(mean_curve))),
                ys=[float(v) for v in mean_curve],
                color=MODE_COLORS.get(mode, PALETTE[len(series) % len(PALETTE)]),
            )
        )
    return _write_chart(
        out_dir / "reward_curves.svg",
        series,
        title="Smoothed reward (agent mean)",
        x_label="training step",
        y_label="reward",
    )


def cmd_train(ns) -> int:
    cfg = load_config(ns.config)
    modes = tuple(MODES) if ns.mode == "both" else (ns.mode,)
    return _run_jobs(
        ns, cfg, _train_job, modes, "train_summary.json", _reward_curves_svg, "training run(s)"
    )


def bench_grid(side: int, world: float = 64.0) -> GridSpec:
    return GridSpec(0.0, world, 0.0, world, side, side, side, side)


def _time_call(fn, repeats: int) -> float:
    fn()  # warm-up outside the clock
    best = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best.append(time.perf_counter() - t0)
    return float(np.median(best)) * 1e3


def cmd_bench(ns) -> int:
    from .belief import posterior_from_weights

    cfg = load_config(ns.config)
    out_dir = Path(ns.out)
    _refuse_nonempty(out_dir, ns.force)
    try:
        sizes = [int(s) for s in ns.sizes.split(",")]
    except ValueError:
        raise ConfigError(f"bench sizes must be integers, got {ns.sizes!r}") from None
    if sizes[0] < 1 or sorted(sizes) != sizes or len(set(sizes)) != len(sizes):
        raise ConfigError("bench sizes must be strictly increasing integers >= 1")
    if ns.repeats < 1:
        raise ConfigError("--repeats must be >= 1")
    _echo_config(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(0)
    rows = []
    for side in sizes:
        grid = bench_grid(side)
        post = posterior_from_weights(grid, rng.random(grid.n_src_cells) + 1e-3)
        kernel = squared_snr_kernel(cfg.plume, grid)
        fft_ms = _time_call(lambda: snr_score_map_fft(post, kernel), ns.repeats)
        brute_ms = _time_call(
            lambda: snr_score_map_bruteforce(post, cfg.plume, grid), ns.repeats
        )
        rows.append((side, fft_ms, brute_ms))
        print(f"{side:>4}x{side:<4} fft {fft_ms:10.3f} ms   brute {brute_ms:10.3f} ms")

    with open(out_dir / "bench.csv", "w") as fh:
        fh.write("size,fft_ms,brute_ms\n")
        for side, fft_ms, brute_ms in rows:
            fh.write(f"{side},{repr(fft_ms)},{repr(brute_ms)}\n")

    if len(rows) >= 2:
        (s0, fft0, brute0), (s1, fft1, brute1) = rows[-2], rows[-1]
        fft_ratio = fft1 / fft0
        brute_ratio = brute1 / brute0
        print(
            f"{s0}->{s1} doubling: fft x{fft_ratio:.2f} (limit {BENCH_FFT_MAX_RATIO}), "
            f"brute x{brute_ratio:.2f} (floor {BENCH_BRUTE_MIN_RATIO})"
        )
        if fft_ratio > BENCH_FFT_MAX_RATIO or brute_ratio < BENCH_BRUTE_MIN_RATIO:
            print("bench: relative-growth invariant violated", file=sys.stderr)
            return 3
    return 0


def cmd_plot(ns) -> int:
    out_dir = Path(ns.out)
    if not out_dir.is_dir():
        raise ConfigError(f"not a directory: {out_dir}")
    names = [name for name in (_ig_curves_svg(out_dir), _reward_curves_svg(out_dir)) if name]
    if not names:
        raise ConfigError(f"no episode or curves CSVs found under {out_dir}")
    print(f"regenerated {', '.join(names)} under {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumeseek",
        description="Multi-agent plume source search: simulate, train, bench, plot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")

    def add_runs(p):
        add_io(p)
        p.add_argument("--threads", type=int, default=1, help="parallel worker count")
        p.add_argument(
            "--seed", type=int, action="append", help="override config seeds (repeatable)"
        )

    p_sim = sub.add_parser("simulate", help="run heuristic search episodes")
    add_runs(p_sim)
    p_sim.add_argument(
        "--policy", choices=POLICIES, action="append", help="restrict motion policies"
    )
    p_sim.set_defaults(fn=cmd_simulate)

    p_train = sub.add_parser("train", help="train the hybrid RL layer")
    add_runs(p_train)
    p_train.add_argument("--mode", choices=(*MODES, "both"), default="both")
    p_train.set_defaults(fn=cmd_train)

    p_bench = sub.add_parser("bench", help="time FFT vs brute-force score maps")
    add_io(p_bench)
    p_bench.add_argument("--sizes", default=",".join(str(s) for s in BENCH_SIZES))
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.set_defaults(fn=cmd_bench)

    p_plot = sub.add_parser("plot", help="regenerate SVGs from CSV outputs")
    p_plot.add_argument("--out", required=True, help="directory holding run outputs")
    p_plot.set_defaults(fn=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.fn(ns)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, not a usage problem
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
