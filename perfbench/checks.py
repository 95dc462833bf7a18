"""Correctness checks the benchmark runs on every run.

The FFT spot check's oracle is a direct sum built here on the public
`plumeseek.concentration`, so it does not lean on the package's own
brute-force scorer.
"""
from __future__ import annotations

import functools
import hashlib
import math
import time
from pathlib import Path

import numpy as np

from plumeseek import (
    MeasurementRecord,
    SourcePosterior,
    concentration,
    info_gain_bits,
    posterior_from_weights,
    posterior_update,
    snr_score_map_fft,
    squared_snr_kernel,
    uniform_posterior,
)
from plumeseek.swarm import read_episode_csv

NORM_TOL = 1e-9
IG_TOL_BITS = 1e-6
FFT_REL_TOL = 1e-9
SPOT_CELLS = 8

# every place a posterior update result reaches the program
UPDATE_SITES = (("plumeseek.swarm", "posterior_update"), ("plumeseek.rl.env", "posterior_update"))


def is_normalised(post: SourcePosterior) -> bool:
    total = float(np.exp(post.log_probs).sum())
    return math.isfinite(total) and abs(total - 1.0) <= NORM_TOL


class NormalisationGuard:
    """Counts posterior updates whose result does not sum to one.

    `seconds` is the time spent checking, which callers take out of the
    program's timings.
    """

    def __init__(self):
        self.checked = 0
        self.bad = 0
        self.seconds = 0.0

    def install(self, patches) -> None:
        for module, attr in UPDATE_SITES:
            patches.apply("normalisation guard", module, attr, self.wrap)

    def wrap(self, fn):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            post = fn(*args, **kwargs)
            t0 = time.perf_counter()
            self.checked += 1
            if not is_normalised(post):
                self.bad += 1
            self.seconds += time.perf_counter() - t0
            return post

        return guarded


def digest(out_dir: Path, patterns) -> str:
    """SHA-256 over the relative names and bytes of the matching output files."""
    h = hashlib.sha256()
    for pattern in patterns:
        for path in sorted(out_dir.glob(pattern)):
            h.update(str(path.relative_to(out_dir)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def prior_of(cfg) -> SourcePosterior:
    weights = cfg.prior_weights()
    if weights is None:
        return uniform_posterior(cfg.grid)
    return posterior_from_weights(cfg.grid, np.asarray(weights, dtype=float))


def replay_episode(cfg, csv_path: Path) -> SourcePosterior:
    """Final posterior rebuilt from an episode CSV's readings in one batch update."""
    records = [
        MeasurementRecord(x=r.x, y=r.y, value=r.m, step=r.step, agent_id=r.agent_id)
        for r in read_episode_csv(csv_path)
    ]
    return posterior_update(prior_of(cfg), records, cfg.plume)


def synthetic_posterior(cfg, seed: int, n_readings: int = 12) -> SourcePosterior:
    """A peaked posterior from seeded noisy readings around a seeded source."""
    rng = np.random.default_rng(seed)
    g = cfg.grid
    source = rng.uniform((g.x_min, g.y_min), (g.x_max, g.y_max))
    spots = rng.uniform((g.x_min, g.y_min), (g.x_max, g.y_max), size=(n_readings, 2))
    records = []
    for x, y in spots:
        f = float(concentration((x, y), source, cfg.plume))
        m = f + cfg.plume.noise_sigma * float(rng.standard_normal())
        records.append(MeasurementRecord(x=float(x), y=float(y), value=m))
    return posterior_update(prior_of(cfg), records, cfg.plume)


def fft_spot_check(post: SourcePosterior, cfg, seed: int) -> float:
    """Largest error of the FFT score map at a few cells, relative to its peak.

    The cells are the map's argmax plus seeded random cells; the oracle is
    sum_s p(s) f(c - s)^2 / (2 sigma^2), in bits.
    """
    grid, plume = cfg.grid, cfg.plume
    fast = snr_score_map_fft(post, squared_snr_kernel(plume, grid), grid).values.ravel()
    rng = np.random.default_rng(seed)
    cells = {int(np.argmax(fast)), *(int(c) for c in rng.integers(0, fast.size, SPOT_CELLS))}
    centers = grid.meas_centers().reshape(-1, 2)
    sources = grid.src_centers().reshape(-1, 2)
    p = post.probs().ravel()
    scale = 1.0 / (2.0 * plume.noise_sigma**2 * math.log(2.0))
    worst = 0.0
    peak = max(float(fast.max()), 1e-300)
    for c in sorted(cells):
        f = concentration(centers[c], sources, plume)
        direct = float(p @ (f * f)) * scale
        worst = max(worst, abs(float(fast[c]) - direct) / peak)
    return worst


def ig_matches(post: SourcePosterior, cfg, reported_bits: float) -> bool:
    return abs(info_gain_bits(post, prior_of(cfg)) - reported_bits) <= IG_TOL_BITS
