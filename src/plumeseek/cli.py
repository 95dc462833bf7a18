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
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import ConfigError, RunConfig, check_seeds, check_tier_budget, load_config
from .field import GridSpec, offset_lattice, squared_snr_kernel
from .planner import snr_score_map_bruteforce, snr_score_map_fft
from .rl.train import MODES, curves_to_csv, read_curves_csv, train
from .swarm import POLICIES, ig_by_step, read_episode_csv, run_episode, write_rows
from .svgplot import PALETTE, Series, line_chart

POLICY_COLORS = {"info": "#1f77b4", "cost-only": "#ff7f0e", "random": "#2ca02c"}
MODE_COLORS = {"individual": "#d62728", "communicating": "#1f77b4"}
BENCH_SIZES = (8, 16, 32, 64)


def _echo_config(cfg: RunConfig) -> None:
    print(json.dumps(cfg.effective_dict(), indent=2, sort_keys=True))


def _refuse_nonempty(out_dir: Path, force: bool) -> None:
    """Refuse an --out that is or lies under a non-directory, and a non-empty one unless forced."""
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output path {existing} is not a directory")
    if not force and out_dir.exists() and any(out_dir.iterdir()):
        raise ConfigError(
            f"output directory {out_dir} is not empty; pass --force to overwrite"
        )


def _write_json(path: Path, payload) -> None:
    """Write payload as JSON; a number that is not finite raises a ValueError before the write."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    path.write_text(text + "\n")


def _run_jobs(ns, cfg: RunConfig, job, kinds, summary_name: str, plot, what: str) -> int:
    """Run job((cfg, kind, seed, out_dir)) for every kind and seed, then write the summary.

    Each job returns (its summary, (the path of the table it wrote, the
    series charted from it)). The output directory gets
    effective_config.json first, then {"runs": [one summary per job]} under
    summary_name in job order, then plot(out_dir, tables), which charts
    these jobs' series, held in memory, and no other file. With --threads > 1
    the jobs run in min(threads, jobs) worker processes; the outputs do not
    depend on that. Bad --seed values, an empty run list and a kind and seed
    listed twice (one file, two runs) fail before any write.
    """
    if ns.threads < 1:
        raise ConfigError("--threads must be >= 1")
    seeds = check_seeds(ns.seed) if ns.seed else cfg.seeds
    runs = [(kind, seed) for kind in kinds for seed in seeds]
    if not runs:
        raise ConfigError(f"no {what} to run: the run list is empty")
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
        # imported here: the pool brings multiprocessing, logging and socket,
        # which a single-process run does not need at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, jobs))
    else:
        results = [job(args) for args in jobs]

    _write_json(out_dir / summary_name, {"runs": [summary for summary, _ in results]})
    plot(out_dir, [table for _, table in results])
    print(f"wrote {len(jobs)} {what} under {out_dir}")
    return 0


def _simulate_job(args):
    cfg, policy, seed, out_dir = args
    log = run_episode(cfg.sim_config(seed, policy))
    table = Path(out_dir) / policy / f"episode_{seed}.csv"
    table.parent.mkdir(parents=True, exist_ok=True)
    log.to_csv(table)
    return log.summary(), (table, ig_by_step(log.records))


def _write_chart(path: Path, series, **labels) -> str | None:
    """Write series as a line chart to path and return its name; None, and no file, if none."""
    if not series:
        return None
    path.write_text(line_chart(series, **labels))
    return path.name


def _ig_curves_svg(out_dir: Path, tables) -> str | None:
    """Chart (path, IG by step) of episode tables <policy>/episode_<seed>.csv, by policy, then name.

    The one IG chart: a run charts its episodes' series as it holds them,
    and plot charts ig_by_step of the tables it reads, which equal them.
    """
    series = []
    for path, ig in sorted(tables, key=lambda t: (POLICIES.index(t[0].parent.name), t[0].name)):
        policy = path.parent.name
        series.append(
            Series(
                label=f"{policy} {path.stem.split('_')[-1]}",
                xs=list(range(ig.size)),
                ys=ig.tolist(),
                color=POLICY_COLORS[policy],
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
    table = out / f"curves_{mode}_{seed}.csv"
    curves_to_csv(result, table)
    for j, net in enumerate(result.nets):
        net.save(out / f"qnet_{mode}_{seed}_agent{j}.json")
    mean_curve = _mean_curve(result.curves)
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
    }, (table, mean_curve)


def _mean_curve(curves: np.ndarray) -> np.ndarray:
    """The agent mean of (train_steps, n_agents) reward curves; empty for a 0-step run."""
    return curves.mean(axis=1) if curves.size else np.empty(0)


def _reward_curves_svg(out_dir: Path, tables) -> str | None:
    """Chart (path, agent-mean curve) of curves_<mode>_<seed>.csv tables, by file name.

    The one reward chart: a run charts its curves as it holds them, and plot
    charts _mean_curve of the tables it reads, which equal them.
    """
    series = []
    for path, mean_curve in sorted(tables, key=lambda t: t[0]):
        tag = path.stem[len("curves_") :]
        mode = tag.rsplit("_", 1)[0]
        series.append(
            Series(
                label=tag,
                xs=list(range(mean_curve.size)),
                ys=mean_curve.tolist(),
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


class BenchRow(NamedTuple):
    """One row of bench.csv: a grid side and the fastest FFT and brute-force score-map times."""

    size: int
    fft_ms: float
    brute_ms: float


def bench_grid(side: int) -> GridSpec:
    return GridSpec(0.0, 64.0, 0.0, 64.0, side, side, side, side)


def _time_call(fn, repeats: int) -> float:
    """Fastest of repeats timed calls of fn, in ms; load only ever adds time."""
    fn()  # warm-up outside the clock
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times) * 1e3


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
    for side in sizes:
        try:
            offset_lattice(bench_grid(side), cfg.plume)
        except ValueError as exc:
            raise ConfigError(f"--sizes {side}: {exc}") from None
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
            lambda: snr_score_map_bruteforce(post, cfg.plume), ns.repeats
        )
        rows.append(BenchRow(side, fft_ms, brute_ms))
        print(f"{side:>4}x{side:<4} fft {fft_ms:10.3f} ms   brute {brute_ms:10.3f} ms")

    write_rows(out_dir / "bench.csv", rows, BenchRow)
    return 0


def cmd_plot(ns) -> int:
    out_dir = Path(ns.out)
    if not out_dir.is_dir():
        raise ConfigError(f"not a directory: {out_dir}")
    try:
        episodes = [p for pol in POLICIES for p in (out_dir / pol).glob("episode_*.csv")]
        curves = out_dir.glob("curves_*.csv")
        charts = (
            _ig_curves_svg(out_dir, [(p, ig_by_step(read_episode_csv(p))) for p in episodes]),
            _reward_curves_svg(out_dir, [(p, _mean_curve(read_curves_csv(p))) for p in curves]),
        )
        names = [name for name in charts if name]
    except ValueError as exc:  # a CSV under --out that is not the table its name says
        raise ConfigError(str(exc)) from None
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
