"""Scoring tiers, the FFT score map, and cost-benefit selection."""
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from oracles import snr_score_bruteforce
from scipy.fft import next_fast_len

from plumeseek.belief import (
    MeasurementRecord,
    SourcePosterior,
    info_gain_bits,
    posterior_from_weights,
    posterior_update,
    uniform_posterior,
)
from plumeseek.config import load_config
from plumeseek.field import (
    ADVECTED,
    BLOB,
    GridSpec,
    KernelGridMismatch,
    PlumeParams,
    concentration,
    squared_snr_kernel,
)
from plumeseek.planner import (
    TIER_EXACT,
    TIER_EXPECTED,
    TIER_SNR_FFT,
    CostModel,
    QuadratureSpec,
    ScoreMap,
    compute_score_map,
    eig_at_expected_measurement,
    eig_exact,
    movement_cost,
    movement_cost_map,
    select_next,
    snr_score_map_bruteforce,
    snr_score_map_fft,
)

LOG2 = math.log(2.0)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def grid(n=8, world=None):
    world = float(n) if world is None else world
    return GridSpec(0.0, world, 0.0, world, n, n, n, n)


def blob(strength=1.0, length_scale=1.0, noise_sigma=1.0):
    return PlumeParams(
        kind=BLOB, strength=strength, length_scale=length_scale, noise_sigma=noise_sigma
    )


def point_mass(g, flat):
    lp = np.full((g.i_cells, g.j_cells), -np.inf)
    lp.ravel()[flat] = 0.0
    return SourcePosterior(lp, g)


def eig_loop_oracle(post, candidate, params, reference, n_nodes):
    """Plain linear-space loops: the vectorized log-space path must match."""
    nodes, weights = hermgauss(n_nodes)
    weights = weights / math.sqrt(math.pi)
    p = post.probs().ravel()
    ref = reference.probs().ravel()
    f = concentration(np.asarray(candidate, float), post.grid.src_centers(), params).ravel()
    total = 0.0
    for s in range(p.size):
        if p[s] == 0.0:
            continue
        for xi, wk in zip(nodes, weights):
            m = f[s] + math.sqrt(2.0) * params.noise_sigma * xi
            like = np.exp(-0.5 * ((m - f) / params.noise_sigma) ** 2)
            hypo = p * like
            hypo = hypo / hypo.sum()
            mask = hypo > 0.0
            kl = float(np.sum(hypo[mask] * np.log2(hypo[mask] / ref[mask])))
            total += p[s] * wk * kl
    return total


# -- cost model -----------------------------------------------------------------


def test_movement_cost_examples():
    assert movement_cost(CostModel(1.0, 0.0), (0, 0), (5, 5)) == 1.0
    assert movement_cost(CostModel(0.5, 2.0), (0.0, 0.0), (3.0, 0.0)) == 18.5
    got = movement_cost(CostModel(1.0, 1.0), (1.0, 1.0), np.array([[1.0, 1.0], [4.0, 5.0]]))
    assert np.allclose(got, [1.0, 26.0])


def select_next_oracle(scores, cm, agent_pos):
    """select_next written as movement_cost over every measurement center."""
    centers = scores.grid.meas_centers().reshape(-1, 2)
    ratio = scores.values.ravel() / movement_cost(cm, np.asarray(agent_pos, float), centers)
    return scores.grid.meas_cell_center(int(np.argmax(ratio)))


def test_movement_cost_map_equals_point_array_oracle():
    rng = np.random.default_rng(3)
    g = GridSpec(0.0, 16.0, 0.0, 12.0, 16, 12, 8, 6)
    cm = CostModel(overhead=0.7, quad_coeff=0.03)
    for frm in [tuple(rng.uniform(0.0, 16.0, 2)) for _ in range(5)] + [(2.5, 3.5)]:
        want = movement_cost(cm, frm, g.meas_centers())
        assert np.array_equal(movement_cost_map(cm, g, frm), want)


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(0.0, 1.0)
    with pytest.raises(ValueError):
        CostModel(1.0, -0.5)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(0)


# -- squared-SNR scores -----------------------------------------------------------


def test_snr_score_hand_value_on_uniform_2x2():
    # tiny length scale: only the sensed cell contributes, f = strength there
    g = grid(2)
    p = blob(length_scale=0.05)
    got = snr_score_bruteforce(uniform_posterior(g), (0.5, 0.5), p)
    assert got == pytest.approx(0.25 * 0.5 / LOG2, rel=1e-12)


def test_snr_map_bruteforce_matches_single_candidate_calls():
    rng = np.random.default_rng(2)
    g = grid(6)
    p = blob(length_scale=1.5, noise_sigma=0.5)
    post = posterior_from_weights(g, rng.random(36) + 0.01)
    smap = snr_score_map_bruteforce(post, p, g, chunk=7)  # force ragged chunks
    for flat in (0, 13, 35):
        want = snr_score_bruteforce(post, g.meas_cell_center(flat), p)
        assert smap.values.ravel()[flat] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "a,b,i,j",
    [(16, 16, 16, 16), (16, 12, 8, 6), (8, 6, 16, 12), (12, 16, 6, 8)],
)
def test_fft_map_matches_bruteforce(a, b, i, j):
    rng = np.random.default_rng(a * 1000 + b * 100 + i * 10 + j)
    g = GridSpec(0.0, 16.0, 0.0, 12.0, a, b, i, j)
    cases = [
        blob(length_scale=2.5, noise_sigma=0.5),
        PlumeParams(
            kind=ADVECTED, wind=(1.0, 0.4), sigma0=1.2, spread_rate=0.3, noise_sigma=0.5
        ),
    ]
    for params in cases:
        post = posterior_from_weights(g, rng.random(g.n_src_cells) + 1e-3)
        fft = snr_score_map_fft(post, squared_snr_kernel(params, g))
        brute = snr_score_map_bruteforce(post, params, g)
        assert fft.values.shape == (a, b)
        scale = brute.values.max()
        assert np.max(np.abs(fft.values - brute.values)) <= 1e-9 * scale


def _fft_oracle_cases():
    full_scale = load_config(CONFIGS / "full_scale_advected.json")
    blob_p = blob(length_scale=2.5, noise_sigma=0.5)
    adv_p = PlumeParams(
        kind=ADVECTED, wind=(1.0, 0.4), sigma0=1.2, spread_rate=0.3, noise_sigma=0.5
    )
    return [
        (GridSpec(0.0, 16.0, 0.0, 12.0, 16, 12, 8, 6), blob_p),  # measurement:source 1:2
        (GridSpec(0.0, 16.0, 0.0, 12.0, 16, 12, 8, 6), adv_p),
        (GridSpec(0.0, 16.0, 0.0, 12.0, 8, 6, 16, 12), blob_p),  # measurement:source 2:1
        (GridSpec(0.0, 16.0, 0.0, 12.0, 8, 6, 16, 12), adv_p),
        (GridSpec(0.0, 9.0, 0.0, 7.0, 9, 7, 9, 7), adv_p),  # odd counts
        (GridSpec(0.0, 15.0, 0.0, 9.0, 5, 9, 15, 3), blob_p),  # odd counts, 3:1 and 1:3
        (full_scale.grid, full_scale.plume),
    ]


def _irfft2_map(post, kernel, fft_shape):
    """Score map from a plain rfft2/irfft2 convolution at fft_shape."""
    g = post.grid
    qx, qy = kernel.stride_src_x, kernel.stride_src_y
    px, py = kernel.stride_meas_x, kernel.stride_meas_y
    up = np.zeros((qx * (g.i_cells - 1) + 1, qy * (g.j_cells - 1) + 1))
    up[::qx, ::qy] = post.probs()
    conv = np.fft.irfft2(
        np.fft.rfft2(up, s=fft_shape) * np.fft.rfft2(kernel.values, s=fft_shape), s=fft_shape
    )
    x0, y0 = -kernel.tx0, -kernel.ty0
    want = conv[x0 : x0 + px * (g.a_cells - 1) + 1 : px, y0 : y0 + py * (g.b_cells - 1) + 1 : py]
    return np.maximum(want, 0.0) / LOG2


def test_fft_map_with_cached_spectrum_equals_full_irfft2():
    # the score map from the kernel's cached transposed spectrum and the
    # transposed, column-cropped inverse must be the uncached irfft2
    # convolution at the smallest fast size that holds the kernel, bit for bit
    rng = np.random.default_rng(5)
    for g, params in _fft_oracle_cases():
        kernel = squared_snr_kernel(params, g)
        post = posterior_from_weights(g, rng.random(g.n_src_cells) + 1e-3)
        kx, ky = kernel.values.shape
        fft_shape = (next_fast_len(kx, real=True), next_fast_len(ky, real=True))
        assert kernel.fft_shape == fft_shape
        want = _irfft2_map(post, kernel, fft_shape)
        assert np.array_equal(snr_score_map_fft(post, kernel).values, want)


def test_alias_free_fft_equals_linear_convolution():
    # the circular convolution at fft_shape wraps only onto offsets no
    # measurement center samples, so the map is the full-length (linear,
    # wraparound-free) convolution's up to FFT roundoff
    rng = np.random.default_rng(5)
    for g, params in _fft_oracle_cases():
        kernel = squared_snr_kernel(params, g)
        post = posterior_from_weights(g, rng.random(g.n_src_cells) + 1e-3)
        qx, qy = kernel.stride_src_x, kernel.stride_src_y
        kx, ky = kernel.values.shape
        linear_shape = (
            next_fast_len(kx + qx * (g.i_cells - 1), real=True),
            next_fast_len(ky + qy * (g.j_cells - 1), real=True),
        )
        want = _irfft2_map(post, kernel, linear_shape)
        got = snr_score_map_fft(post, kernel).values
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * want.max())


@pytest.mark.parametrize(
    "g",
    [
        GridSpec(0.0, 16.0, 0.0, 12.0, 16, 12, 8, 6),  # measurement:source 1:2
        GridSpec(0.0, 16.0, 0.0, 12.0, 8, 6, 16, 12),  # measurement:source 2:1
        GridSpec(0.0, 9.0, 0.0, 7.0, 9, 7, 9, 7),  # odd counts
        GridSpec(0.0, 15.0, 0.0, 9.0, 5, 9, 15, 3),  # odd counts, 3:1 and 1:3
    ],
)
def test_alias_free_fft_with_heavy_tails_and_corner_mass_matches_bruteforce(g):
    # a kernel far wider than the world keeps its tails large at every
    # offset, and mass in the corner cells puts the widest offsets into
    # play, so any wraparound onto a sampled offset would show
    params = blob(length_scale=500.0, noise_sigma=0.5)
    kernel = squared_snr_kernel(params, g)
    corners = [0, g.j_cells - 1, (g.i_cells - 1) * g.j_cells, g.n_src_cells - 1]
    for weights in [*([c] for c in corners), corners]:
        w = np.zeros(g.n_src_cells)
        w[weights] = 1.0
        post = posterior_from_weights(g, w)
        got = snr_score_map_fft(post, kernel).values
        want = snr_score_map_bruteforce(post, params, g).values
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * want.max())


def test_fft_map_on_point_mass_reproduces_kernel_slice():
    g = grid(9)
    params = blob(length_scale=1.8, noise_sigma=0.7)
    src_flat = 31
    post = point_mass(g, src_flat)
    fft = snr_score_map_fft(post, squared_snr_kernel(params, g))
    src = np.asarray(g.src_cell_center(src_flat))
    meas = g.meas_centers().reshape(-1, 2)
    f = concentration(meas, src, params)
    want = (f * f) / (2.0 * params.noise_sigma**2) / LOG2
    assert np.allclose(fft.values.ravel(), want, rtol=1e-9, atol=1e-15)


def test_fft_map_zero_strength_world_scores_zero():
    g = grid(5)
    params = blob(strength=0.0)
    fft = snr_score_map_fft(uniform_posterior(g), squared_snr_kernel(params, g))
    assert np.all(fft.values == 0.0)


def test_fft_map_rejects_mismatched_posterior_grid():
    kernel = squared_snr_kernel(blob(), grid(8))
    with pytest.raises(KernelGridMismatch):
        snr_score_map_fft(uniform_posterior(grid(4)), kernel)


def test_fft_map_never_negative():
    rng = np.random.default_rng(8)
    g = grid(12)
    params = blob(length_scale=0.3, noise_sigma=0.2)  # near-singular kernel
    for _ in range(5):
        post = posterior_from_weights(g, rng.random(g.n_src_cells))
        fft = snr_score_map_fft(post, squared_snr_kernel(params, g))
        assert np.all(fft.values >= 0.0)


# -- expected information gain ------------------------------------------------------


def test_eig_exact_matches_loop_oracle():
    rng = np.random.default_rng(4)
    g = grid(3)
    params = blob(length_scale=1.0, noise_sigma=0.7)
    reference = uniform_posterior(g)
    for _ in range(4):
        weights = rng.random(9) + 0.02
        weights[int(rng.integers(9))] = 0.0
        post = posterior_from_weights(g, weights)
        candidate = rng.uniform(0, 3, 2)
        want = eig_loop_oracle(post, candidate, params, reference, 16)
        got = eig_exact(post, candidate, params, QuadratureSpec(16), reference)
        assert got == pytest.approx(want, rel=1e-10)


def test_eig_exact_quadrature_is_converged_at_default_nodes():
    rng = np.random.default_rng(6)
    g = grid(8)
    params = blob(noise_sigma=0.5)
    post = posterior_from_weights(g, rng.random(64) + 0.1)
    c = g.meas_cell_center(36)
    e16 = eig_exact(post, c, params, QuadratureSpec(16))
    e64 = eig_exact(post, c, params, QuadratureSpec(64))
    assert e16 == pytest.approx(e64, rel=1e-5)


def test_eig_exact_nonnegative_against_own_posterior():
    rng = np.random.default_rng(10)
    g = grid(4)
    params = blob(noise_sigma=0.6)
    for _ in range(10):
        post = posterior_from_weights(g, rng.random(16) + 1e-3)
        c = rng.uniform(0, 4, 2)
        assert eig_exact(post, c, params, QuadratureSpec(12), post) >= -1e-10


def test_eig_exact_zero_when_world_is_silent():
    rng = np.random.default_rng(12)
    g = grid(4)
    post = posterior_from_weights(g, rng.random(16) + 0.05)
    got = eig_exact(post, (1.0, 2.0), blob(strength=0.0), QuadratureSpec(8), post)
    assert abs(got) <= 1e-12


def test_eig_expected_measurement_on_point_mass_gives_full_bits():
    # the posterior is already decided, and the expected reading confirms it:
    # the gain over a uniform start is the full log2(cells)
    g = grid(4)
    post = point_mass(g, 6)
    params = blob(noise_sigma=0.5)
    for candidate in ((0.5, 0.5), (3.1, 2.2)):
        got = eig_at_expected_measurement(post, candidate, params)
        assert got == pytest.approx(4.0, abs=1e-9)


def test_eig_weak_signal_matches_snr_surrogate_within_5_percent():
    g = grid(8)
    params = blob(strength=0.01, length_scale=0.4, noise_sigma=1.0)
    post = uniform_posterior(g)
    for flat in (0, 9, 27, 36, 63):
        c = g.meas_cell_center(flat)
        e = eig_exact(post, c, params, QuadratureSpec(16), post)
        s = snr_score_bruteforce(post, c, params)
        assert e > 0
        assert abs(e - s) / e <= 0.05


# -- dispatch and selection -----------------------------------------------------------


def test_compute_score_map_tiers_and_shapes():
    rng = np.random.default_rng(14)
    g = grid(4)
    params = blob(noise_sigma=0.5)
    post = posterior_from_weights(g, rng.random(16) + 0.1)
    for tier in (TIER_EXACT, TIER_EXPECTED, TIER_SNR_FFT):
        smap = compute_score_map(post, params, g, tier, QuadratureSpec(8))
        assert smap.tier == tier
        assert smap.values.shape == (4, 4)
        assert np.all(np.isfinite(smap.values))
    with pytest.raises(ValueError):
        compute_score_map(post, params, g, "psychic")


def test_compute_score_map_exact_matches_direct_calls():
    rng = np.random.default_rng(15)
    g = grid(3)
    params = blob(noise_sigma=0.8)
    post = posterior_from_weights(g, rng.random(9) + 0.1)
    reference = uniform_posterior(g)
    smap = compute_score_map(post, params, g, TIER_EXACT, QuadratureSpec(8), reference)
    for flat in (0, 4, 8):
        want = eig_exact(post, g.meas_cell_center(flat), params, QuadratureSpec(8), reference)
        assert smap.values.ravel()[flat] == want


def test_select_next_prefers_cheap_nearby_cell():
    g = GridSpec(0.0, 4.0, 0.0, 1.0, 2, 1, 2, 1)
    scores = ScoreMap(np.array([[4.0], [1.0]]), TIER_SNR_FFT, g)
    cm = CostModel(overhead=1.0, quad_coeff=1.0)
    # from (3, 0.5): far cell nets 4/5, staying nets 1/1
    assert select_next(scores, cm, (3.0, 0.5)) == (3.0, 0.5)
    # with free movement the higher score wins
    assert select_next(scores, CostModel(1.0, 0.0), (3.0, 0.5)) == (1.0, 0.5)


def test_select_next_tie_goes_to_lowest_row_major_cell():
    g = GridSpec(0.0, 4.0, 0.0, 1.0, 2, 1, 2, 1)
    scores = ScoreMap(np.array([[2.0], [2.0]]), TIER_SNR_FFT, g)
    cm = CostModel(overhead=1.0, quad_coeff=1.0)
    assert select_next(scores, cm, (2.0, 0.5)) == (1.0, 0.5)  # equidistant tie


def test_select_next_equals_movement_cost_oracle():
    rng = np.random.default_rng(17)
    g = GridSpec(0.0, 16.0, 0.0, 12.0, 16, 12, 8, 6)
    cm = CostModel(overhead=0.7, quad_coeff=0.03)
    vals = rng.random((16, 12))
    for _ in range(20):
        pos = rng.uniform((0.0, 0.0), (16.0, 12.0))
        scores = ScoreMap(vals, TIER_SNR_FFT, g)
        assert select_next(scores, cm, pos) == select_next_oracle(scores, cm, pos)
    # exact tie: equal scores at cells mirrored about the agent
    tied = np.zeros((16, 12))
    tied[3, 5] = tied[9, 5] = 1.0
    scores = ScoreMap(tied, TIER_SNR_FFT, g)
    pos = (6.5, 5.5)
    assert select_next(scores, cm, pos) == select_next_oracle(scores, cm, pos) == (3.5, 5.5)


def test_select_next_is_scale_invariant():
    rng = np.random.default_rng(16)
    g = grid(6)
    cm = CostModel(overhead=0.7, quad_coeff=0.03)
    vals = rng.random((6, 6))
    pos = rng.uniform(0, 6, 2)
    a = select_next(ScoreMap(vals, TIER_SNR_FFT, g), cm, pos)
    b = select_next(ScoreMap(vals * 123.456, TIER_SNR_FFT, g), cm, pos)
    assert a == b


def test_select_next_all_equal_scores_picks_nearest():
    g = grid(5)
    scores = ScoreMap(np.ones((5, 5)), TIER_SNR_FFT, g)
    cm = CostModel(overhead=1.0, quad_coeff=2.0)
    assert select_next(scores, cm, (3.4, 1.7)) == (3.5, 1.5)


@pytest.mark.parametrize("noise_sigma", [0.3, 0.01])  # 0.01: far cells hit the floor
def test_expected_measurement_ig_is_the_filter_update(noise_sigma):
    g = grid(8)
    params = blob(length_scale=1.5, noise_sigma=noise_sigma)
    rng = np.random.default_rng(4)
    post = posterior_from_weights(g, rng.random(g.n_src_cells) + 0.05)
    reference = uniform_posterior(g)
    for x, y in [(1.5, 2.5), (4.5, 4.5), (7.5, 0.5)]:
        f = concentration(np.array([x, y]), g.src_centers(), params)
        m_bar = float(post.probs().ravel() @ f.ravel())
        updated = posterior_update(post, [MeasurementRecord(x, y, m_bar)], params)
        want = info_gain_bits(updated, reference)
        got = eig_at_expected_measurement(post, (x, y), params, reference)
        assert got == pytest.approx(want, rel=1e-12)
