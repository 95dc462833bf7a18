"""Sensor-placement scoring and next-measurement selection.

Two scoring tiers trade fidelity for speed: exact expected information
gain via Gauss-Hermite quadrature over hypothetical readings, and a
squared-SNR surrogate whose full map is one zero-padded FFT
cross-correlation instead of a quadruple loop over measurement cells x
source cells.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .belief import LOG_2, SourcePosterior, check_reference, gaussian_loglik, logsumexp
from .field import (
    GridSpec,
    KernelGridMismatch,
    OffsetKernel,
    PlumeParams,
    _exact_axis,
    check_number,
    concentration,
    concentration_at_sources,
    squared_snr_kernel,
)

TIER_EXACT = "exact"
TIER_SNR_FFT = "snr-fft"
TIERS = (TIER_EXACT, TIER_SNR_FFT)


@dataclass(frozen=True)
class CostModel:
    """Movement cost = 1 + quad_coeff * distance^2: one move's fixed cost is the unit of cost."""

    quad_coeff: float = 0.0

    def __post_init__(self):
        check_number("quad_coeff", self.quad_coeff, low=0.0)


@dataclass(frozen=True)
class ScoreMap:
    """Per-measurement-cell scores in bits, (a_cells, b_cells), on the posterior's grid."""

    values: np.ndarray
    grid: GridSpec


def movement_cost(cm: CostModel, frm, to) -> np.ndarray:
    """Cost of relocating from frm to to; each may be a point or an array of points.

    frm and to broadcast, so one call prices a whole team's moves, one per row.
    """
    frm = np.asarray(frm, dtype=float)
    to = np.asarray(to, dtype=float)
    d2 = np.sum((to - frm) ** 2, axis=-1)
    return 1.0 + cm.quad_coeff * d2


def _outer_cost(cm: CostModel, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """1 + quad_coeff * (dx^2 + dy^2) for every (dx, dy) pair, built in place in that order."""
    cost = (dx**2)[:, None] + (dy**2)[None, :]
    cost *= cm.quad_coeff
    cost += 1.0
    return cost


def _centre_offsets(centres: np.ndarray) -> np.ndarray | None:
    """Centre differences by index offset t = 1 - n .. n - 1, or None if one is not exact.

    Entry n - 1 + t is centres[t] - centres[0] (centres[0] - centres[-t] for
    t < 0, its exact negation). Returned only when, as _exact_axis checks the
    kernel's offsets, centres[k + t] - centres[k] is that value bit for bit
    for every pair, so the difference of two centres depends on t alone.
    """
    n = centres.size
    d = centres - centres[0]
    off = np.concatenate([-d[:0:-1], d])
    return off if _exact_axis(centres, centres, off, 1, 1, 1 - n) else None


@functools.lru_cache(maxsize=4)
def _cost_table(cm: CostModel, grid: GridSpec) -> np.ndarray | None:
    """The read-only cost of every move between centres of (cm, grid), (2A - 1, 2B - 1), or None.

    Entry (A - 1 + tx, B - 1 + ty) is the cost of a move tx cells along x
    and ty along y, by _outer_cost over the exact centre differences, so a
    view of it holds movement_cost_map's bits. Tabulated once; None when a
    grid's centre differences are not translation-exact (_centre_offsets).
    """
    off_x = _centre_offsets(grid.meas_x_centers())
    off_y = _centre_offsets(grid.meas_y_centers())
    if off_x is None or off_y is None:
        return None
    table = _outer_cost(cm, off_x, off_y)
    table.setflags(write=False)
    return table


def movement_cost_map(cm: CostModel, grid: GridSpec, frm) -> np.ndarray:
    """Cost of relocating from frm to every measurement cell center, (a_cells, b_cells).

    Equal to movement_cost(cm, frm, grid.meas_centers()), bit for bit. From
    the centre of measurement cell (ix, iy) exactly (GridSpec.meas_cell_index)
    on a grid with a cost table, it is the table's read-only view
    table[A - 1 - ix : 2A - 1 - ix, B - 1 - iy : 2B - 1 - iy]; from anywhere
    else, as a random start, or on any other grid, it is a new array built by
    _outer_cost from the distances to the centre axes.
    """
    x, y = np.asarray(frm, dtype=float)
    cell = grid.meas_cell_index(x, y)
    table = None if cell is None else _cost_table(cm, grid)
    if table is None:
        return _outer_cost(cm, grid.meas_x_centers() - x, grid.meas_y_centers() - y)
    x0, y0 = grid.a_cells - 1 - cell[0], grid.b_cells - 1 - cell[1]
    return table[x0 : x0 + grid.a_cells, y0 : y0 + grid.b_cells]


def eig_exact(
    post: SourcePosterior,
    candidate,
    params: PlumeParams,
    n_nodes: int = 16,
    reference: SourcePosterior | None = None,
) -> float:
    """Expected info gain of measuring at candidate, quadrature over readings.

    The expectation, over the predictive density of the reading, of the KL
    divergence of the updated posterior from reference. That density is a
    Gaussian mixture with one component per source hypothesis; each
    component is integrated with n_nodes Gauss-Hermite nodes. Each
    hypothetical update is posterior_update's: same log-likelihood, same
    floor. reference defaults to post itself, which makes the value the
    mutual information of the next reading and the source location; another
    reference adds KL(post || reference), and one on another grid raises
    check_reference's ValueError.
    """
    if reference is None:
        reference = post
    check_reference(post, reference)
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    weights = weights / np.sqrt(np.pi)  # normalize to a probability average
    f = concentration_at_sources(candidate, post.grid, params).ravel()
    lp = post.log_probs.ravel()
    p = post.probs().ravel()
    live = p > 0.0  # components with no mass contribute nothing
    m = (f[live, None] + np.sqrt(2.0) * params.noise_sigma * nodes[None, :]).ravel()
    new_lp = lp[None, :] + gaussian_loglik(m[:, None], f[None, :], params.noise_sigma)
    new_lp -= logsumexp(new_lp, axis=1)
    p_new = np.exp(new_lp)
    with np.errstate(invalid="ignore"):  # zero-mass cells hit 0 * -inf, masked out
        terms = np.where(p_new > 0.0, p_new * (new_lp - reference.log_probs.ravel()), 0.0)
    ig = (terms.sum(axis=1) / LOG_2).reshape(-1, n_nodes)
    return float(p[live] @ (ig @ weights))


def snr_score_map_bruteforce(post: SourcePosterior, params: PlumeParams) -> ScoreMap:
    """Squared-SNR score for every measurement cell by direct enumeration.

    Work scales with a_cells * b_cells * i_cells * j_cells; blocks of 256
    measurement cells bound the temporary arrays, not the arithmetic.
    """
    grid, chunk = post.grid, 256
    centers = grid.meas_centers().reshape(-1, 2)
    src = grid.src_centers().reshape(-1, 2)
    p = post.probs().ravel()
    out = np.empty(centers.shape[0])
    inv = 1.0 / (2.0 * params.noise_sigma**2 * LOG_2)
    for lo in range(0, centers.shape[0], chunk):
        block = centers[lo : lo + chunk]
        f = concentration(block[:, None, :], src[None, :, :], params)
        out[lo : lo + block.shape[0]] = (f * f) @ p * inv
    return ScoreMap(out.reshape(grid.a_cells, grid.b_cells), grid)


def snr_score_map_fft(
    post: SourcePosterior,
    kernel: OffsetKernel,
    grid: GridSpec | None = None,
    params: PlumeParams | None = None,
) -> ScoreMap:
    """Squared-SNR score in bits for every measurement cell via FFT cross-correlation.

    OffsetKernel.correlate computes the map in nats (squared_snr_kernel says
    why the FFT's wraparound never reaches it); this clamps the FFT roundoff
    that grazes below zero and converts to bits. A kernel tabulated for
    another grid, or for another plume than params when given, raises
    KernelGridMismatch.
    """
    if grid is None:
        grid = kernel.grid
    kernel.check(grid, params)
    if post.grid != grid:
        raise KernelGridMismatch("posterior is on another grid than the kernel")
    vals = np.maximum(kernel.correlate(post.probs()), 0.0) / LOG_2
    return ScoreMap(vals, grid)


def compute_score_map(
    post: SourcePosterior,
    params: PlumeParams,
    tier: str,
    n_nodes: int = 16,
    kernel: OffsetKernel | None = None,
) -> ScoreMap:
    """Score every measurement cell of the posterior's grid with the requested tier.

    The exact tier scores each cell by eig_exact against the posterior
    itself: the mutual information of the next reading there.
    """
    grid = post.grid
    if tier == TIER_SNR_FFT:
        if kernel is None:
            kernel = squared_snr_kernel(params, grid)
        return snr_score_map_fft(post, kernel, grid, params)
    if tier == TIER_EXACT:
        centers = grid.meas_centers().reshape(-1, 2)
        vals = [eig_exact(post, c, params, n_nodes) for c in centers]
        return ScoreMap(np.array(vals).reshape(grid.a_cells, grid.b_cells), grid)
    raise ValueError(f"unknown planner tier {tier!r}")


def select_next(scores: ScoreMap, cm: CostModel, agent_pos) -> tuple[float, float]:
    """Measurement cell center maximizing score / movement_cost_map.

    Exact ratio ties resolve to the lowest row-major cell index, so selection
    is deterministic.
    """
    grid = scores.grid
    best = int(np.argmax(scores.values / movement_cost_map(cm, grid, agent_pos)))
    return grid.meas_cell_center(best)
