"""Grid Bayes filter over source-location hypotheses.

The posterior lives on the source grid in natural-log space and is only
exponentiated for readouts. Updates accept batches of measurement records
and are order invariant because log-likelihoods add.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# `concentration` is not called here; perfbench's tracer wraps it under this name.
from .field import GridSpec, PlumeParams, concentration, concentration_at_sources

LOG_2 = float(np.log(2.0))
# Per-cell log-likelihood floor: keeps exp() finite while leaving a huge
# dynamic range. A measurement that floors every cell is treated as
# impossible rather than silently renormalized.
LOGLIK_FLOOR = -700.0
_NORM_TOL = 1e-9


class AllMassLost(ValueError):
    """A measurement batch was impossible under every source hypothesis."""


class UnsupportedReference(ValueError):
    """Posterior puts mass where the reference distribution has none."""


@dataclass(frozen=True)
class MeasurementRecord:
    """One sensor reading: location, value, and bookkeeping tags."""

    x: float
    y: float
    value: float
    step: int = 0
    agent_id: int = 0


@dataclass(frozen=True)
class SourcePosterior:
    """Normalized log-probabilities over the source grid, shape (I, J)."""

    log_probs: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        lp = np.asarray(self.log_probs, dtype=float)
        if lp.shape != (self.grid.i_cells, self.grid.j_cells):
            raise ValueError(
                f"log_probs shape {lp.shape} does not match source grid "
                f"({self.grid.i_cells}, {self.grid.j_cells})"
            )
        total = logsumexp(lp)
        if not np.isfinite(total) or abs(total) > _NORM_TOL:
            raise ValueError(f"posterior is not normalized (logsumexp={total})")
        object.__setattr__(self, "log_probs", lp)

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)


def logsumexp(a, axis=None, keepdims: bool = False):
    """log(sum(exp(a))) over axis, stable for real input.

    A NumPy port of SciPy's real-input algorithm, so results match
    `scipy.special.logsumexp` bit for bit: the maxima are taken out of the
    sum and counted, the rest is summed as exp(a - max), and the result is
    log1p(rest / count) + log(count) + max. Where that is not finite (every
    entry -inf, an inf or a NaN), the direct log(sum(exp(a))) is returned.
    A full reduction gives a NumPy scalar, as SciPy does.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        is_max = a == a_max
        count = np.sum(is_max, axis=axis, keepdims=True, dtype=float)
        rest = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=axis, keepdims=True)
        rest = np.where(rest == 0, rest, rest / count)
        out = np.log1p(rest) + np.log(count) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
            out = np.where(finite, out, direct)
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def uniform_posterior(grid: GridSpec) -> SourcePosterior:
    n = grid.n_src_cells
    lp = np.full((grid.i_cells, grid.j_cells), -np.log(n))
    return SourcePosterior(lp - logsumexp(lp), grid)


def posterior_from_weights(grid: GridSpec, weights) -> SourcePosterior:
    """Build a normalized posterior from nonnegative weights (zeros allowed)."""
    w = np.asarray(weights, dtype=float).reshape(grid.i_cells, grid.j_cells)
    if np.any(w < 0) or not np.any(w > 0):
        raise ValueError("weights must be nonnegative with positive total mass")
    with np.errstate(divide="ignore"):
        lp = np.log(w)
    return SourcePosterior(lp - logsumexp(lp), grid)


def gaussian_loglik(m, f, sigma: float):
    """Log-density of reading m under N(f, sigma^2), floored at LOGLIK_FLOOR.

    m and f broadcast against each other. This is the one measurement model:
    the filter's updates and the planner's hypothetical updates both use it.
    The residual and the density are each allocated once and updated in
    place, in the order of max(-0.5 * resid * resid - log(sigma sqrt(2 pi)),
    LOGLIK_FLOOR) with resid = (m - f) / sigma.
    """
    resid = np.asarray(np.subtract(m, f))
    resid /= sigma
    ll = np.asarray(-0.5 * resid)
    ll *= resid
    ll -= np.log(sigma * np.sqrt(2.0 * np.pi))
    return np.maximum(ll, LOGLIK_FLOOR, out=ll)


def loglik_grid(record: MeasurementRecord, grid: GridSpec, params: PlumeParams) -> np.ndarray:
    """Floored log-likelihood of one record against every source hypothesis, (I, J)."""
    f = concentration_at_sources((record.x, record.y), grid, params)
    return gaussian_loglik(record.value, f, params.noise_sigma)


def posterior_update(
    post: SourcePosterior, records, params: PlumeParams
) -> SourcePosterior:
    """Condition the posterior on a batch of measurement records.

    Returns a new posterior; the input is untouched. Raises AllMassLost when
    some record's likelihood floors out on every hypothesis at once.
    """
    records = list(records)
    if not records:
        return post
    total = np.array(post.log_probs, dtype=float, copy=True)
    for rec in records:
        ll = loglik_grid(rec, post.grid, params)
        if np.all(ll <= LOGLIK_FLOOR):
            raise AllMassLost(
                f"measurement {rec.value!r} at ({rec.x}, {rec.y}) is impossible "
                "under every source hypothesis"
            )
        total += ll
    norm = logsumexp(total)
    if not np.isfinite(norm):
        raise AllMassLost("no posterior mass survived the update")
    return SourcePosterior(total - norm, post.grid)


def info_gain_bits(post: SourcePosterior, reference: SourcePosterior) -> float:
    """KL divergence (bits) of the posterior from a reference distribution.

    The convention 0 * log(0/q) = 0 applies; mass on cells where the
    reference has none is an error, not infinity.
    """
    if post.grid != reference.grid:
        raise ValueError("posterior and reference are on different grids")
    p = post.probs()
    support = p > 0.0
    if np.any(np.isneginf(reference.log_probs[support])):
        raise UnsupportedReference(
            "posterior has mass outside the reference's support"
        )
    diff = post.log_probs[support] - reference.log_probs[support]
    return float(np.sum(p[support] * diff) / LOG_2)


def map_estimate(post: SourcePosterior) -> tuple[tuple[int, int], tuple[float, float]]:
    """Highest-probability cell; exact ties go to the lowest row-major index."""
    flat = int(np.argmax(post.log_probs))
    ix, iy = divmod(flat, post.grid.j_cells)
    return (ix, iy), post.grid.src_cell_center(flat)


def hpd_region(post: SourcePosterior, mass: float) -> set[int]:
    """Smallest set of cells (flat indices) holding at least the given mass.

    Cells enter in descending probability; equal probabilities enter in
    row-major order so the result is deterministic.
    """
    if not 0.0 < mass <= 1.0:
        raise ValueError("mass must be in (0, 1]")
    p = post.probs().ravel()
    order = np.argsort(-p, kind="stable")
    csum = np.cumsum(p[order])
    # tolerance so that e.g. ceil(0.95 * N) cells of a uniform grid qualify
    k = int(np.searchsorted(csum, mass - 1e-12, side="left"))
    k = min(k, p.size - 1)
    return {int(i) for i in order[: k + 1]}


def posterior_summary(post: SourcePosterior, reference: SourcePosterior) -> dict:
    """MAP cell/location, info gain, and 95% HPD size as a JSON-ready dict."""
    (ix, iy), (x, y) = map_estimate(post)
    return {
        "map_cell": [ix, iy],
        "map_xy": [x, y],
        "ig_bits": info_gain_bits(post, reference),
        "hpd95_cells": len(hpd_region(post, 0.95)),
    }
