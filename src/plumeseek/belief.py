"""Grid Bayes filter over source-location hypotheses.

The posterior lives on the source grid in natural-log space and is only
exponentiated for readouts. Updates accept batches of measurement records
and are order invariant because log-likelihoods add.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# `concentration` is not called here; perfbench's tracer wraps it under this name.
from .field import (
    GridSpec, OffsetKernel, PlumeParams, check_number, concentration, concentration_at_sources
)

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
        # row-major, so info_gain_bits's full-array and masked sums take one order
        lp = np.ascontiguousarray(self.log_probs, dtype=float)
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

    A full reduction (axis None) works on scalars: a.max(), a count and
    .sum(), which sums in the order SciPy's reduction over every axis does.
    An axis reduction keeps the reduced axes so they broadcast against a.
    exp(a - max) is one temporary, computed in place; the maxima are zeroed
    after the exp, which is SciPy's exp(-inf) where max is finite. Where it
    is not, the result is the direct sum in both.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    reduce = {} if axis is None else {"axis": axis, "keepdims": True}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(**reduce)
        is_max = a == a_max
        count = np.count_nonzero(is_max, **reduce)
        shifted = np.subtract(a, a_max)
        np.exp(shifted, out=shifted)
        np.copyto(shifted, 0.0, where=is_max)
        # SciPy keeps a rest of 0 as is rather than divide it; unweighted, that
        # is rest / count, as count is 0 only where max is NaN, and rest with it
        rest = shifted.sum(**reduce) / count
        out = np.log1p(rest) + np.log(count) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(**reduce)))
    if axis is None:
        out = np.reshape(out, (1,) * a.ndim) if keepdims else out
    elif not keepdims:
        out = np.squeeze(out, axis=axis)
    return out[()] if np.ndim(out) == 0 else out


def uniform_posterior(grid: GridSpec) -> SourcePosterior:
    """Equal probability on every source cell: -log(n_src_cells) each, exactly."""
    # a read-only view of one 1.0, so no grid-sized array of ones is allocated
    return posterior_from_weights(grid, np.broadcast_to(1.0, (grid.i_cells, grid.j_cells)))


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


def _window_loglik(
    record: MeasurementRecord,
    grid: GridSpec,
    params: PlumeParams,
    kernel: OffsetKernel | None,
) -> tuple[np.ndarray, slice, slice]:
    """(ll, rows, cols): one record's floored log-likelihood on the source cells [rows, cols].

    The one window rule. A reading at a measurement-cell centre of an exact
    lattice takes f from the kernel's table (OffsetKernel.source_window), and
    ll covers only the cells where that f can be non-zero: every other cell
    has the one value gaussian_loglik(m, 0.0). Any other reading, or no
    kernel, takes the closed form on every cell. The caller checks kernel.
    """
    window = None if kernel is None else kernel.source_window(record.x, record.y)
    if window is None:
        f = concentration_at_sources((record.x, record.y), grid, params)
        return gaussian_loglik(record.value, f, params.noise_sigma), slice(None), slice(None)
    f, rows, cols = window
    return gaussian_loglik(record.value, f[rows, cols], params.noise_sigma), rows, cols


def posterior_update(
    post: SourcePosterior, records, params: PlumeParams, kernel: OffsetKernel | None = None
) -> SourcePosterior:
    """Condition the posterior on a batch of measurement records.

    Returns a new posterior; the input is untouched. Raises AllMassLost when
    some record's likelihood floors out on every hypothesis at once. kernel
    changes no bit of the result: each record's log-likelihood is added on
    its window only (see _window_loglik), and every cell off the window gets
    the record's off-window value, gaussian_loglik(m, 0.0), so each cell sums
    its closed-form log-likelihoods in record order.
    """
    records = list(records)
    if not records:
        return post
    total = np.array(post.log_probs, dtype=float, copy=True)
    floors = None
    if kernel is not None:
        kernel.check(post.grid, params)
        values = np.array([rec.value for rec in records], dtype=float)
        floors = gaussian_loglik(values, 0.0, params.noise_sigma)
    for k, rec in enumerate(records):
        ll, rows, cols = _window_loglik(rec, post.grid, params, kernel)
        partial = ll.size < total.size  # cells off the window hold floors[k]
        floored = ll.size == 0 or ll.max() <= LOGLIK_FLOOR
        if floored and (not partial or floors[k] <= LOGLIK_FLOOR):
            raise AllMassLost(
                f"measurement {rec.value!r} at ({rec.x}, {rec.y}) is impossible "
                "under every source hypothesis"
            )
        if partial:
            inside = total[rows, cols] + ll
            total += floors[k]
            total[rows, cols] = inside
        else:
            total += ll
    norm = logsumexp(total)
    if not np.isfinite(norm):
        raise AllMassLost("no posterior mass survived the update")
    return SourcePosterior(total - norm, post.grid)


def check_reference(post: SourcePosterior, reference: SourcePosterior) -> None:
    """Raise ValueError unless the reference is on the posterior's grid."""
    if post.grid != reference.grid:
        raise ValueError("posterior and reference are on different grids")


def info_gain_bits(post: SourcePosterior, reference: SourcePosterior) -> float:
    """KL divergence (bits) of the posterior from a reference distribution.

    The convention 0 * log(0/q) = 0 applies; mass on cells where the
    reference has none is an error, not infinity. Where p > 0 on every cell
    the sums run over the full arrays, which hold the masked values in the
    same order, so the result is the same.
    """
    check_reference(post, reference)
    p = post.probs()
    lp, ref_lp = post.log_probs, reference.log_probs
    support = p > 0.0
    if not support.all():
        p, lp, ref_lp = p[support], lp[support], ref_lp[support]
    if np.any(np.isneginf(ref_lp)):
        raise UnsupportedReference(
            "posterior has mass outside the reference's support"
        )
    return float(np.sum(p * (lp - ref_lp)) / LOG_2)


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
    check_number("mass", mass, 0.0, 1.0, above=True)
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
