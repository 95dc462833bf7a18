"""End-to-end acceptance gates.

Each test prints exactly one ``CRITERION k: PASS/FAIL — measured values`` line
before asserting, so one full run documents every measured margin. Heavy
shared workloads (the 64x64 search comparison, the 32x32 training comparison)
run once in module-scoped fixtures.
"""
import hashlib
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from plumeseek.belief import (
    MeasurementRecord,
    info_gain_bits,
    posterior_from_weights,
    posterior_update,
    uniform_posterior,
)
from plumeseek.cli import main
from plumeseek.config import load_config
from plumeseek.field import GridSpec, PlumeParams, concentration, squared_snr_kernel
from plumeseek.planner import eig_exact, snr_score_map_bruteforce, snr_score_map_fft
from plumeseek.rl.qnet import QNet, loss_and_grads
from plumeseek.rl.train import train
from plumeseek.swarm import run_episode, steps_to_ig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

FFT_TOL = 1e-6           # criterion 1 gate (measured values sit near 1e-15)
MC_SIGMAS = 3.0          # criterion 2: quadrature vs Monte-Carlo, in standard errors
KL_TOL = 1e-9            # criterion 3
NORM_TOL = 1e-12         # criterion 4
ORACLE_TOL = 1e-10       # criterion 4
EFFICIENCY_RATIO = 100.0  # criterion 5
DIST_SEEDS_NEEDED = 8    # criterion 6
GRAD_TOL = 1e-4          # criterion 7
HEAD_START_SEEDS = 4     # criterion 8
BENCH_FFT_MAX = 4.5      # criterion 10
BENCH_BRUTE_MIN = 10.0   # criterion 10


def verdict(k: int, ok: bool, detail: str) -> bool:
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


# -- shared heavy runs ---------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_runs():
    """All 30 episodes of the 64x64 search comparison, plus wall time."""
    cfg = load_config(CONFIGS / "desk_search_64.json")
    t0 = time.perf_counter()
    logs = {
        policy: [run_episode(cfg.sim_config(seed, policy)) for seed in cfg.seeds]
        for policy in cfg.policies
    }
    return cfg, logs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def train_runs():
    """Both training modes on all five seeds of the 32x32 comparison."""
    cfg = load_config(CONFIGS / "train_compare_32.json")
    t0 = time.perf_counter()
    results = {
        mode: [train(cfg.train_config(seed, mode)) for seed in cfg.seeds]
        for mode in ("individual", "communicating")
    }
    return cfg, results, time.perf_counter() - t0


# -- criterion 1: FFT score map equals the brute-force oracle -------------------------


def test_criterion_01_fft_matches_bruteforce():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for side in (8, 16, 32):
        grid = GridSpec(0.0, float(side), 0.0, float(side), side, side, side, side)
        plumes = [
            PlumeParams(
                kind="isotropic-blob",
                strength=1.0,
                length_scale=0.2 * side,
                noise_sigma=0.4,
            ),
            PlumeParams(
                kind="advected-plume",
                strength=1.0,
                wind=(1.0, 0.4),
                sigma0=0.08 * side,
                spread_rate=0.3,
                noise_sigma=0.4,
            ),
        ]
        for params in plumes:
            kernel = squared_snr_kernel(params, grid)
            for _ in range(10):
                w = rng.random(grid.n_src_cells)
                w[rng.random(grid.n_src_cells) < 0.2] = 0.0  # holes in the support
                post = posterior_from_weights(grid, w + 1e-9)
                fft = snr_score_map_fft(post, kernel).values
                brute = snr_score_map_bruteforce(post, params).values
                worst = max(worst, np.abs(fft - brute).max() / brute.max())
    elapsed = time.perf_counter() - t0
    ok = worst <= FFT_TOL and elapsed < 10.0
    assert verdict(
        1,
        ok,
        f"max |fft-brute| / max(brute) = {worst:.3e} over 20 posteriors x "
        f"{{8,16,32}}^2 grids x 2 plume kinds (tol {FFT_TOL:.0e}); {elapsed:.1f}s",
    )


# -- criterion 2: quadrature EIG equals a Monte-Carlo estimate ------------------------


def _mc_eig_bits(post, candidate, params, reference, n_samples, seed):
    """Monte-Carlo expected info gain: sample source cell, then the reading."""
    rng = np.random.default_rng(seed)
    p = post.probs().ravel()
    q = reference.probs().ravel()
    f = concentration(np.asarray(candidate, float), post.grid.src_centers(), params)
    f = f.ravel()
    idx = rng.choice(p.size, size=n_samples, p=p)
    m = f[idx] + params.noise_sigma * rng.standard_normal(n_samples)
    kls = np.empty(n_samples)
    for lo in range(0, n_samples, 100_000):
        mm = m[lo : lo + 100_000, None]
        like = np.exp(-0.5 * ((mm - f[None, :]) / params.noise_sigma) ** 2)
        w = p[None, :] * like
        w /= w.sum(axis=1, keepdims=True)
        kls[lo : lo + 100_000] = (w * np.log2(w / q[None, :])).sum(axis=1)
    return float(kls.mean()), float(kls.std(ddof=1) / math.sqrt(n_samples))


def test_criterion_02_exact_eig_matches_monte_carlo():
    rng = np.random.default_rng(202)
    grid = GridSpec(0.0, 4.0, 0.0, 4.0, 4, 4, 4, 4)
    params = PlumeParams(
        kind="isotropic-blob", strength=1.0, length_scale=1.2, noise_sigma=0.35
    )
    t0 = time.perf_counter()
    worst_pull = 0.0
    for k in range(10):
        post = posterior_from_weights(grid, rng.random(16) + 0.05)
        candidate = rng.uniform(0.0, 4.0, size=2)
        reference = uniform_posterior(grid)
        eig = eig_exact(post, candidate, params, 64, reference)
        mc, sem = _mc_eig_bits(post, candidate, params, reference, 4_000_000, 3000 + k)
        worst_pull = max(worst_pull, abs(eig - mc) / sem)
    elapsed = time.perf_counter() - t0
    ok = worst_pull <= MC_SIGMAS and elapsed < 60.0
    assert verdict(
        2,
        ok,
        f"max |quadrature - MC| = {worst_pull:.2f} standard errors over 10 random "
        f"candidates, 4e6 samples each (gate {MC_SIGMAS:g} SE); {elapsed:.1f}s",
    )


# -- criterion 3: KL identities -------------------------------------------------------


def test_criterion_03_kl_identities():
    rng = np.random.default_rng(303)
    worst_self = 0.0
    worst_point = 0.0
    for a, b in ((2, 2), (16, 16), (512, 256)):
        grid = GridSpec(0.0, float(a), 0.0, float(b), 2, 2, a, b)
        n = a * b
        uniform = uniform_posterior(grid)
        point_w = np.zeros(n)
        point_w[int(rng.integers(n))] = 1.0
        point = posterior_from_weights(grid, point_w)
        worst_point = max(
            worst_point, abs(info_gain_bits(point, uniform) - math.log2(n))
        )
        randomized = posterior_from_weights(grid, rng.random(n) + 1e-6)
        worst_self = max(worst_self, abs(info_gain_bits(randomized, randomized)))
    ok = worst_self <= 1e-12 and worst_point <= KL_TOL
    assert verdict(
        3,
        ok,
        f"self-KL max {worst_self:.1e} (tol 1e-12); point-mass-vs-uniform deviation "
        f"from log2(N) max {worst_point:.1e} for N in {{4, 256, 131072}} (tol {KL_TOL:.0e})",
    )


# -- criterion 4: posterior update properties -----------------------------------------


def _linear_bayes(prior_probs, records, grid, params):
    w = prior_probs.astype(float).copy()
    centers = grid.src_centers()
    for rec in records:
        f = concentration(np.array((rec.x, rec.y)), centers, params).ravel()
        w = w * np.exp(-0.5 * ((rec.value - f) / params.noise_sigma) ** 2)
    return w / w.sum()


def test_criterion_04_posterior_battery():
    rng = np.random.default_rng(404)
    worst_norm = 0.0
    worst_perm = 0.0
    worst_oracle = 0.0
    t0 = time.perf_counter()
    for case in range(1000):
        if case < 50:  # oracle subset: fixed 8x8 geometry
            grid = GridSpec(0.0, 8.0, 0.0, 8.0, 8, 8, 8, 8)
        else:
            cells = [int(rng.integers(2, 17)) for _ in range(4)]
            grid = GridSpec(
                0.0, float(rng.uniform(4, 16)), 0.0, float(rng.uniform(4, 16)), *cells
            )
        params = PlumeParams(
            kind="isotropic-blob",
            strength=float(rng.uniform(0.3, 2.0)),
            length_scale=float(rng.uniform(0.5, 3.0)),
            noise_sigma=float(rng.uniform(0.2, 1.0)),
        )
        weights = rng.random(grid.n_src_cells) + 1e-6
        post = posterior_from_weights(grid, weights)
        records = [
            MeasurementRecord(
                x=float(rng.uniform(grid.x_min, grid.x_max)),
                y=float(rng.uniform(grid.y_min, grid.y_max)),
                value=float(rng.normal(0.3, 0.6)),
            )
            for _ in range(int(rng.integers(1, 7)))
        ]
        batch = posterior_update(post, records, params)
        worst_norm = max(worst_norm, abs(float(logsumexp(batch.log_probs))))
        shuffled = post
        for k in rng.permutation(len(records)):
            shuffled = posterior_update(shuffled, [records[k]], params)
        worst_perm = max(worst_perm, np.abs(batch.probs() - shuffled.probs()).max())
        if case < 50:
            oracle = _linear_bayes(post.probs().ravel(), records, grid, params)
            worst_oracle = max(
                worst_oracle, np.abs(batch.probs().ravel() - oracle).max()
            )
    elapsed = time.perf_counter() - t0
    ok = worst_norm <= NORM_TOL and worst_perm <= NORM_TOL and worst_oracle <= ORACLE_TOL
    assert verdict(
        4,
        ok,
        f"1000 random update sequences: |log-mass| max {worst_norm:.1e}, "
        f"order-invariance max {worst_perm:.1e} (tol {NORM_TOL:.0e}), linear-space "
        f"oracle max {worst_oracle:.1e} on 8x8 (tol {ORACLE_TOL:.0e}); {elapsed:.1f}s",
    )


# -- criterion 5: desk-scale search efficiency ----------------------------------------


def _capped_median(logs, threshold, cap):
    vals = [
        cap if (s := steps_to_ig(log, threshold)) is None else s for log in logs
    ]
    return statistics.median(vals), vals


def test_criterion_05_search_efficiency(desk_runs):
    cfg, logs, elapsed = desk_runs
    frac_grid = cfg.grid
    from plumeseek.field import snr_area_fraction

    frac = snr_area_fraction(cfg.plume, frac_grid)
    cap = cfg.sim.n_steps + 1
    info_med, info_vals = _capped_median(logs["info"], 10.0, cap)
    cost_med, _ = _capped_median(logs["cost-only"], 10.0, cap)
    rand_med, _ = _capped_median(logs["random"], 10.0, cap)
    ratio = rand_med / info_med
    trend = info_med < cost_med < rand_med
    ok = (
        0.002 <= frac <= 0.005
        and info_med <= cfg.sim.n_steps
        and trend
        and ratio >= EFFICIENCY_RATIO
        and elapsed < 600.0
    )
    assert verdict(
        5,
        ok,
        f"snr area fraction {frac:.5f}; medians info={info_med:g} "
        f"cost-only={cost_med:g} random={rand_med:g} (cap {cap}); random/info = "
        f"{ratio:.1f}x vs required {EFFICIENCY_RATIO:g}x; trend "
        f"info<cost-only<random {'holds' if trend else 'broken'}; info per-seed "
        f"{info_vals}; {elapsed:.0f}s",
    )


# -- criterion 6: exploration turns into exploitation after first detection ------------


def _detection_contrast(log, sigma, window=50):
    t0 = None
    for rec in log.records:
        if rec.m > 3.0 * sigma:
            t0 = rec.step
            break
    if t0 is None:
        return None
    sx, sy = log.source_xy
    pre, post = [], []
    for rec in log.records:
        d = math.hypot(rec.x - sx, rec.y - sy)
        if max(0, t0 - window) <= rec.step < t0:
            pre.append(d)
        elif t0 < rec.step <= t0 + window:
            post.append(d)
    if not pre or not post:
        return None
    return statistics.fmean(pre), statistics.fmean(post)


def test_criterion_06_detection_pulls_agents_in(desk_runs):
    cfg, logs, _ = desk_runs
    sigma = cfg.plume.noise_sigma
    contrasts = [_detection_contrast(log, sigma) for log in logs["info"]]
    hits = sum(1 for c in contrasts if c is not None and c[1] < c[0])
    pairs = [
        "none" if c is None else f"{c[0]:.0f}->{c[1]:.0f}" for c in contrasts
    ]
    ok = hits >= DIST_SEEDS_NEEDED
    assert verdict(
        6,
        ok,
        f"mean agent-source distance dropped after first 3-sigma reading in "
        f"{hits}/10 seeds (gate >= {DIST_SEEDS_NEEDED}); pre->post {pairs}",
    )


# -- criterion 7: value-network gradients and target sync -----------------------------


def test_criterion_07_gradient_check():
    rng = np.random.default_rng(707)
    eps = 1e-5
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        net = QNet((17, 8, 5), rng=rng)
        obs = rng.normal(size=(8, 17))
        actions = rng.integers(0, 5, size=8)
        targets = rng.normal(size=8)
        _, w_grads, b_grads = loss_and_grads(net, obs, actions, targets)
        for tensors, grads in ((net.weights, w_grads), (net.biases, b_grads)):
            for W, G in zip(tensors, grads):
                flat_w, flat_g = W.ravel(), G.ravel()
                for k in range(flat_w.size):
                    keep = flat_w[k]
                    flat_w[k] = keep + eps
                    up = loss_and_grads(net, obs, actions, targets)[0]
                    flat_w[k] = keep - eps
                    down = loss_and_grads(net, obs, actions, targets)[0]
                    flat_w[k] = keep
                    fd = (up - down) / (2.0 * eps)
                    scale = max(abs(fd), abs(flat_g[k]), 1e-8)
                    worst = max(worst, abs(fd - flat_g[k]) / scale)
    target = QNet((17, 8, 5), rng=np.random.default_rng(1))
    target.copy_from(net)
    sync_gap = max(
        max(np.abs(a - b).max() for a, b in zip(target.weights, net.weights)),
        max(np.abs(a - b).max() for a, b in zip(target.biases, net.biases)),
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= GRAD_TOL and sync_gap <= 1e-12 and elapsed < 60.0
    assert verdict(
        7,
        ok,
        f"finite-difference gradient max relative error {worst:.2e} over 100 draws "
        f"on a 17->8->5 net (tol {GRAD_TOL:.0e}); target-sync gap {sync_gap:.1e}; "
        f"{elapsed:.1f}s",
    )


# -- criterion 8: communicating mode beats individual mode ----------------------------


def test_criterion_08_mode_comparison(train_runs):
    cfg, results, elapsed = train_runs
    firsts = {}
    lasts = {}
    for mode, runs in results.items():
        firsts[mode] = []
        lasts[mode] = []
        for res in runs:
            mean_curve = res.curves.mean(axis=1)
            q = len(mean_curve) // 4
            firsts[mode].append(float(mean_curve[:q].mean()))
            lasts[mode].append(float(mean_curve[-q:].mean()))
    head_start = sum(
        c >= i for c, i in zip(firsts["communicating"], firsts["individual"])
    )
    final_comm = statistics.fmean(lasts["communicating"])
    final_indiv = statistics.fmean(lasts["individual"])
    ok = (
        head_start >= HEAD_START_SEEDS
        and final_comm >= final_indiv
        and elapsed < 1800.0
    )
    assert verdict(
        8,
        ok,
        f"first-quarter smoothed reward: communicating >= individual in "
        f"{head_start}/5 seeds (gate >= {HEAD_START_SEEDS}); final-quarter pooled "
        f"mean {final_comm:.4f} vs {final_indiv:.4f}; {elapsed:.0f}s",
    )


# -- criterion 9: byte-identical reruns -----------------------------------------------


def _tree_digest(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


def test_criterion_09_deterministic_outputs(tmp_path):
    cfg = str(CONFIGS / "quickstart.json")
    digests = []
    for label in ("a", "b"):
        sim_out = tmp_path / f"sim_{label}"
        train_out = tmp_path / f"train_{label}"
        assert main(["simulate", "--config", cfg, "--out", str(sim_out), "--threads", "1"]) == 0
        assert main(["train", "--config", cfg, "--out", str(train_out), "--threads", "1"]) == 0
        digests.append((_tree_digest(sim_out), _tree_digest(train_out)))
    n_files = len(digests[0][0]) + len(digests[0][1])
    ok = digests[0] == digests[1] and n_files > 0
    assert verdict(
        9,
        ok,
        f"two simulate+train reruns produced byte-identical trees "
        f"({n_files} files compared)",
    )


# -- criterion 10: scaling trend of the two score-map implementations -----------------


def test_criterion_10_bench_scaling(tmp_path):
    out = tmp_path / "bench"
    code = main(
        [
            "bench",
            "--config",
            str(CONFIGS / "bench.json"),
            "--out",
            str(out),
            "--sizes",
            "32,64",
            "--repeats",
            "3",
        ]
    )
    rows = (out / "bench.csv").read_text().strip().splitlines()[1:]
    (s0, fft0, brute0), (s1, fft1, brute1) = (
        tuple(float(v) for v in row.split(",")) for row in rows
    )
    fft_ratio = fft1 / fft0
    brute_ratio = brute1 / brute0
    ok = (
        code == 0
        and (s0, s1) == (32.0, 64.0)
        and fft_ratio <= BENCH_FFT_MAX
        and brute_ratio >= BENCH_BRUTE_MIN
    )
    assert verdict(
        10,
        ok,
        f"32->64 wall-time growth: fft x{fft_ratio:.2f} (limit {BENCH_FFT_MAX}), "
        f"brute x{brute_ratio:.2f} (floor {BENCH_BRUTE_MIN}); exit code {code}",
    )
