"""Sensor-placement scoring and next-measurement selection.

Three scoring tiers trade fidelity for speed: exact expected information
gain via Gauss-Hermite quadrature over hypothetical readings, a single
update at the expected reading, and a squared-SNR surrogate whose full map
is one zero-padded FFT cross-correlation instead of a quadruple loop over
measurement cells x source cells.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .belief import LOG_2, SourcePosterior, gaussian_loglik, logsumexp, uniform_posterior
from .field import (
    GridSpec,
    KernelGridMismatch,
    OffsetKernel,
    PlumeParams,
    concentration,
    concentration_at_sources,
    is_integer,
    squared_snr_kernel,
)

TIER_EXACT = "exact"
TIER_EXPECTED = "expected-measurement"
TIER_SNR_FFT = "snr-fft"
TIER_SNR_BRUTE = "snr-brute"  # tags snr_score_map_bruteforce's maps; not a run tier
TIERS = (TIER_EXACT, TIER_EXPECTED, TIER_SNR_FFT)


@dataclass(frozen=True)
class CostModel:
    """Movement cost = overhead + quad_coeff * distance^2."""

    overhead: float = 1.0
    quad_coeff: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.overhead < np.inf:
            raise ValueError("overhead must be finite and > 0 so cost ratios stay finite")
        if not 0.0 <= self.quad_coeff < np.inf:
            raise ValueError("quad_coeff must be finite and >= 0")


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite node count for averaging over hypothetical readings."""

    n_nodes: int = 16

    def __post_init__(self):
        if not is_integer(self.n_nodes) or self.n_nodes < 1:
            raise ValueError("quadrature n_nodes must be an integer >= 1")


@dataclass(frozen=True)
class ScoreMap:
    """Per-measurement-cell scores in bits, (a_cells, b_cells), plus tier tag."""

    values: np.ndarray
    tier: str
    grid: GridSpec


def movement_cost(cm: CostModel, frm, to) -> np.ndarray:
    """Cost of relocating from frm to to; to may be an array of points."""
    frm = np.asarray(frm, dtype=float)
    to = np.asarray(to, dtype=float)
    d2 = np.sum((to - frm) ** 2, axis=-1)
    return cm.overhead + cm.quad_coeff * d2


def movement_cost_map(cm: CostModel, grid: GridSpec, frm) -> np.ndarray:
    """Cost of relocating from frm to every measurement cell center, (a_cells, b_cells).

    Equal to movement_cost(cm, frm, grid.meas_centers()), bit for bit, from
    the squared x and y distances to the center axes.
    """
    x, y = np.asarray(frm, dtype=float)
    dx2 = (grid.meas_x_centers() - x) ** 2
    dy2 = (grid.meas_y_centers() - y) ** 2
    return cm.overhead + cm.quad_coeff * (dx2[:, None] + dy2[None, :])


def _hypothetical_ig_bits(
    post: SourcePosterior,
    f: np.ndarray,
    m_values: np.ndarray,
    params: PlumeParams,
    reference: SourcePosterior,
) -> np.ndarray:
    """Info gain (bits) vs reference after one reading m with mean f, per m.

    f holds the candidate's mean concentration per source cell, row-major.
    The update is posterior_update's: same log-likelihood, same floor.
    """
    lp = post.log_probs.ravel()
    ref_lp = reference.log_probs.ravel()
    ll = gaussian_loglik(m_values[:, None], f[None, :], params.noise_sigma)
    new_lp = lp[None, :] + ll
    new_lp -= logsumexp(new_lp, axis=1, keepdims=True)
    p = np.exp(new_lp)
    with np.errstate(invalid="ignore"):  # zero-mass cells hit 0 * -inf, masked out
        terms = np.where(p > 0.0, p * (new_lp - ref_lp[None, :]), 0.0)
    return terms.sum(axis=1) / LOG_2


def eig_exact(
    post: SourcePosterior,
    candidate,
    params: PlumeParams,
    quad: QuadratureSpec = QuadratureSpec(),
    reference: SourcePosterior | None = None,
) -> float:
    """Expected info gain of measuring at candidate, quadrature over readings.

    The predictive density of the reading is a Gaussian mixture with one
    component per source hypothesis; each component is integrated with
    Gauss-Hermite nodes. reference defaults to the uniform distribution and
    should be the belief the agent started the episode with.
    """
    if reference is None:
        reference = uniform_posterior(post.grid)
    nodes, weights = hermgauss(quad.n_nodes)
    weights = weights / np.sqrt(np.pi)  # normalize to a probability average
    f = concentration_at_sources(candidate, post.grid, params).ravel()
    p = post.probs().ravel()
    live = p > 0.0  # components with no mass contribute nothing
    m_grid = f[live, None] + np.sqrt(2.0) * params.noise_sigma * nodes[None, :]
    ig = _hypothetical_ig_bits(post, f, m_grid.ravel(), params, reference)
    ig = ig.reshape(-1, quad.n_nodes)
    return float(p[live] @ (ig @ weights))


def eig_at_expected_measurement(
    post: SourcePosterior,
    candidate,
    params: PlumeParams,
    reference: SourcePosterior | None = None,
) -> float:
    """Info gain from a single update at the posterior-mean reading."""
    if reference is None:
        reference = uniform_posterior(post.grid)
    f = concentration_at_sources(candidate, post.grid, params).ravel()
    m_bar = float(post.probs().ravel() @ f)
    ig = _hypothetical_ig_bits(post, f, np.array([m_bar]), params, reference)
    return float(ig[0])


def snr_score_map_bruteforce(
    post: SourcePosterior, params: PlumeParams, grid: GridSpec, chunk: int = 256
) -> ScoreMap:
    """Squared-SNR score for every measurement cell by direct enumeration.

    Work scales with a_cells * b_cells * i_cells * j_cells; chunking bounds
    the temporary arrays, not the arithmetic.
    """
    centers = grid.meas_centers().reshape(-1, 2)
    src = grid.src_centers().reshape(-1, 2)
    p = post.probs().ravel()
    out = np.empty(centers.shape[0])
    inv = 1.0 / (2.0 * params.noise_sigma**2 * LOG_2)
    for lo in range(0, centers.shape[0], chunk):
        block = centers[lo : lo + chunk]
        f = concentration(block[:, None, :], src[None, :, :], params)
        out[lo : lo + block.shape[0]] = (f * f) @ p * inv
    return ScoreMap(out.reshape(grid.a_cells, grid.b_cells), TIER_SNR_BRUTE, grid)


def snr_score_map_fft(
    post: SourcePosterior, kernel: OffsetKernel, grid: GridSpec | None = None
) -> ScoreMap:
    """Squared-SNR score in bits for every measurement cell via FFT cross-correlation.

    OffsetKernel.correlate computes the map in nats (squared_snr_kernel says
    why the FFT's wraparound never reaches it); this clamps the FFT roundoff
    that grazes below zero and converts to bits.
    """
    if grid is None:
        grid = kernel.grid
    if kernel.grid != grid or post.grid != grid:
        raise KernelGridMismatch("kernel was tabulated for a different grid")
    vals = np.maximum(kernel.correlate(post.probs()), 0.0) / LOG_2
    return ScoreMap(vals, TIER_SNR_FFT, grid)


def compute_score_map(
    post: SourcePosterior,
    params: PlumeParams,
    grid: GridSpec,
    tier: str,
    quad: QuadratureSpec = QuadratureSpec(),
    reference: SourcePosterior | None = None,
    kernel: OffsetKernel | None = None,
) -> ScoreMap:
    """Score every measurement cell with the requested tier."""
    if tier == TIER_SNR_FFT:
        if kernel is None:
            kernel = squared_snr_kernel(params, grid)
        return snr_score_map_fft(post, kernel, grid)
    if tier in (TIER_EXACT, TIER_EXPECTED):
        centers = grid.meas_centers().reshape(-1, 2)
        if reference is None:
            reference = uniform_posterior(post.grid)
        if tier == TIER_EXACT:
            vals = [eig_exact(post, c, params, quad, reference) for c in centers]
        else:
            vals = [eig_at_expected_measurement(post, c, params, reference) for c in centers]
        return ScoreMap(np.array(vals).reshape(grid.a_cells, grid.b_cells), tier, grid)
    raise ValueError(f"unknown planner tier {tier!r}")


def select_next(scores: ScoreMap, cm: CostModel, agent_pos) -> tuple[float, float]:
    """Measurement cell center maximizing score / movement cost.

    Exact ratio ties resolve to the lowest row-major cell index, so selection
    is deterministic.
    """
    ratio = scores.values / movement_cost_map(cm, scores.grid, agent_pos)
    best = int(np.argmax(ratio))  # first occurrence wins ties
    return scores.grid.meas_cell_center(best)
