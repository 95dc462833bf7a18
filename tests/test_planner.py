"""Scoring tiers, the FFT score map, and cost-benefit selection."""
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from oracles import overhead_pick, same_bits, snr_score_bruteforce
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
    TIER_SNR_FFT,
    TIERS,
    CostModel,
    ScoreMap,
    compute_score_map,
    cost_table,
    cost_window,
    eig_exact,
    movement_cost,
    movement_cost_map,
    select_next,
    snr_score_map_bruteforce,
    snr_score_map_fft,
    weight_table,
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
    assert movement_cost(CostModel(0.0), (0, 0), (5, 5)) == 1.0
    assert movement_cost(CostModel(2.0), (0.0, 0.0), (3.0, 0.0)) == 19.0
    got = movement_cost(CostModel(1.0), (1.0, 1.0), np.array([[1.0, 1.0], [4.0, 5.0]]))
    assert np.allclose(got, [1.0, 26.0])


def select_next_oracle(scores, cm, agent_pos):
    """select_next written as movement_cost over every measurement center."""
    centers = scores.grid.meas_centers().reshape(-1, 2)
    ratio = scores.values.ravel() / movement_cost(cm, np.asarray(agent_pos, float), centers)
    return scores.grid.meas_cell_center(int(np.argmax(ratio)))


def test_movement_cost_map_equals_point_array_oracle():
    rng = np.random.default_rng(3)
    g = GridSpec(0.0, 16.0, 0.0, 12.0, 16, 12, 8, 6)
    cm = CostModel(quad_coeff=0.03)
    for frm in [tuple(rng.uniform(0.0, 16.0, 2)) for _ in range(5)] + [(2.5, 3.5)]:
        want = movement_cost(cm, frm, g.meas_centers())
        assert np.array_equal(movement_cost_map(cm, g, frm), want)


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(-0.5)
    with pytest.raises(ValueError):
        CostModel(float("nan"))


def test_quadrature_spec_validation():
    # a config's planner.quad_nodes: 0 exits 2 at load (test_config_cli.BAD_VALUES)
    with pytest.raises(ValueError):
        eig_exact(uniform_posterior(grid(2)), (0.5, 0.5), blob(), 0)


# -- squared-SNR scores -----------------------------------------------------------


def test_snr_score_hand_value_on_uniform_2x2():
    # tiny length scale: only the sensed cell contributes, f = strength there
    g = grid(2)
    p = blob(length_scale=0.05)
    got = snr_score_bruteforce(uniform_posterior(g), (0.5, 0.5), p)
    assert got == pytest.approx(0.25 * 0.5 / LOG2, rel=1e-12)


def test_snr_map_bruteforce_matches_single_candidate_calls():
    rng = np.random.default_rng(2)
    g = grid(17)  # 289 cells: one full block of 256 and a ragged one of 33
    p = blob(length_scale=1.5, noise_sigma=0.5)
    post = posterior_from_weights(g, rng.random(289) + 0.01)
    smap = snr_score_map_bruteforce(post, p)
    assert smap.grid is post.grid
    for flat in (0, 13, 255, 256, 288):
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
        brute = snr_score_map_bruteforce(post, params)
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
    x0, y0 = qx * (g.i_cells - 1), qy * (g.j_cells - 1)
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
        want = snr_score_map_bruteforce(post, params).values
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * want.max())


def test_every_kernel_the_lattice_accepts_gives_a_finite_score_map():
    # a flat plume on 64 x 64: 127 x 127 offsets, transformed at 128 x 128.
    # A peak times the 127^2 lattice cells can be finite while the inverse
    # transform's sum over 128^2 overflows, so the rule counts the FFT cells.
    g = grid(64)
    fm = float(np.finfo(float).max)
    w = np.zeros(g.n_src_cells)
    w[g.n_src_cells // 2 + 32] = 1.0
    post = posterior_from_weights(g, w)
    for n_cells, accepted in [(128 * 128, True), (127 * 127, False)]:
        strength = math.sqrt(2.0) * math.sqrt(fm / (1.001 * n_cells))  # peak fm / 1.001 n_cells
        params = blob(strength=strength, length_scale=1e6)
        if not accepted:
            with pytest.raises(ValueError, match="plume.strength"):
                squared_snr_kernel(params, g)
            continue
        smap = snr_score_map_fft(post, squared_snr_kernel(params, g))
        assert np.isfinite(smap.values).all() and smap.values.max() > 0.9 * fm / n_cells / LOG2


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


def test_score_map_refuses_a_kernel_for_another_plume_or_grid():
    g, params = grid(8), blob(length_scale=1.0)
    post = uniform_posterior(g)
    other_plume, other_grid = blob(length_scale=4.0), grid(4)
    for kernel in (squared_snr_kernel(other_plume, g), squared_snr_kernel(params, other_grid)):
        with pytest.raises(KernelGridMismatch):
            compute_score_map(post, params, TIER_SNR_FFT, kernel=kernel)
        with pytest.raises(KernelGridMismatch):
            snr_score_map_fft(post, kernel, g, params)


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
        got = eig_exact(post, candidate, params, 16, reference)
        assert got == pytest.approx(want, rel=1e-10)


def test_eig_exact_quadrature_is_converged_at_default_nodes():
    rng = np.random.default_rng(6)
    g = grid(8)
    params = blob(noise_sigma=0.5)
    post = posterior_from_weights(g, rng.random(64) + 0.1)
    c = g.meas_cell_center(36)
    e16 = eig_exact(post, c, params, 16)
    e64 = eig_exact(post, c, params, 64)
    assert e16 == pytest.approx(e64, rel=1e-5)


def test_eig_exact_nonnegative_against_own_posterior():
    rng = np.random.default_rng(10)
    g = grid(4)
    params = blob(noise_sigma=0.6)
    for _ in range(10):
        post = posterior_from_weights(g, rng.random(16) + 1e-3)
        c = rng.uniform(0, 4, 2)
        assert eig_exact(post, c, params, 12, post) >= -1e-10


def test_eig_exact_zero_when_world_is_silent():
    rng = np.random.default_rng(12)
    g = grid(4)
    post = posterior_from_weights(g, rng.random(16) + 0.05)
    got = eig_exact(post, (1.0, 2.0), blob(strength=0.0), 8, post)
    assert abs(got) <= 1e-12


def test_eig_exact_on_point_mass_gives_full_bits():
    # the posterior is already decided, and a point mass stays one under every
    # reading: the gain over a uniform start is the full log2(cells), and the
    # next reading, against the posterior itself (the default), teaches nothing
    g = grid(4)
    post = point_mass(g, 6)
    params = blob(noise_sigma=0.5)
    for candidate in ((0.5, 0.5), (3.1, 2.2)):
        got = eig_exact(post, candidate, params, 16, uniform_posterior(g))
        assert got == pytest.approx(4.0, abs=1e-9)
        assert eig_exact(post, candidate, params) == 0.0


# the same cell count over another world, and another cell count
@pytest.mark.parametrize("other", [grid(4, world=8.0), grid(5)])
def test_eig_tiers_refuse_a_reference_on_another_grid(other):
    g = grid(4)
    post, params, reference = uniform_posterior(g), blob(), uniform_posterior(other)
    with pytest.raises(ValueError, match="posterior and reference are on different grids"):
        eig_exact(post, (0.5, 0.5), params, 4, reference)


def test_eig_weak_signal_matches_snr_surrogate_within_5_percent():
    g = grid(8)
    params = blob(strength=0.01, length_scale=0.4, noise_sigma=1.0)
    post = uniform_posterior(g)
    for flat in (0, 9, 27, 36, 63):
        c = g.meas_cell_center(flat)
        e = eig_exact(post, c, params, 16, post)
        s = snr_score_bruteforce(post, c, params)
        assert e > 0
        assert abs(e - s) / e <= 0.05


# -- dispatch and selection -----------------------------------------------------------


def test_compute_score_map_tiers_and_shapes():
    rng = np.random.default_rng(14)
    g = grid(4)
    params = blob(noise_sigma=0.5)
    post = posterior_from_weights(g, rng.random(16) + 0.1)
    for tier in TIERS:
        smap = compute_score_map(post, params, tier, 8)
        assert smap.grid is post.grid
        assert smap.values.shape == (4, 4)
        assert np.all(np.isfinite(smap.values))
    with pytest.raises(ValueError):
        compute_score_map(post, params, "psychic")


def test_compute_score_map_exact_matches_direct_calls():
    rng = np.random.default_rng(15)
    g = grid(3)
    params = blob(noise_sigma=0.8)
    post = posterior_from_weights(g, rng.random(9) + 0.1)
    smap = compute_score_map(post, params, TIER_EXACT, 8)
    for flat in (0, 4, 8):
        want = eig_exact(post, g.meas_cell_center(flat), params, 8, post)
        assert smap.values.ravel()[flat] == want


def test_exact_score_map_is_the_mutual_information_of_the_next_reading():
    # scored against the posterior itself, not the prior: a uniform reference
    # would add info_gain_bits(post, uniform), the bits already learned, to
    # every cell, and select_next divides that constant by each cell's cost
    rng = np.random.default_rng(18)
    g = grid(4)
    params = blob(length_scale=1.2, noise_sigma=0.4)
    weights = rng.random(g.n_src_cells) + 0.02
    weights[5] = 6.0
    post = posterior_from_weights(g, weights)
    uniform = uniform_posterior(g)
    learned = info_gain_bits(post, uniform)
    assert learned > 0.1
    smap = compute_score_map(post, params, TIER_EXACT, 32)
    for flat in range(g.n_meas_cells):
        c = g.meas_cell_center(flat)
        assert smap.values.ravel()[flat] == eig_exact(post, c, params, 32, post)
        # equal up to the quadrature's error in E[updated posterior] = post
        against_uniform = eig_exact(post, c, params, 32, uniform)
        assert against_uniform - smap.values.ravel()[flat] == pytest.approx(learned, abs=1e-7)


def test_select_next_prefers_cheap_nearby_cell():
    g = GridSpec(0.0, 4.0, 0.0, 1.0, 2, 1, 2, 1)
    scores = ScoreMap(np.array([[4.0], [1.0]]), g)
    cm = CostModel(quad_coeff=1.0)
    # from (3, 0.5): far cell nets 4/5, staying nets 1/1
    assert select_next(scores, cm, (3.0, 0.5)) == (3.0, 0.5)
    # with free movement the higher score wins
    assert select_next(scores, CostModel(0.0), (3.0, 0.5)) == (1.0, 0.5)


def test_select_next_tie_goes_to_lowest_row_major_cell():
    g = GridSpec(0.0, 4.0, 0.0, 1.0, 2, 1, 2, 1)
    scores = ScoreMap(np.array([[2.0], [2.0]]), g)
    cm = CostModel(quad_coeff=1.0)
    assert select_next(scores, cm, (2.0, 0.5)) == (1.0, 0.5)  # equidistant tie


def test_select_next_equals_movement_cost_oracle():
    rng = np.random.default_rng(17)
    g = GridSpec(0.0, 16.0, 0.0, 12.0, 16, 12, 8, 6)
    cm = CostModel(quad_coeff=0.03)
    vals = rng.random((16, 12))
    for _ in range(20):
        pos = rng.uniform((0.0, 0.0), (16.0, 12.0))
        scores = ScoreMap(vals, g)
        assert select_next(scores, cm, pos) == select_next_oracle(scores, cm, pos)
    # exact tie: equal scores at cells mirrored about the agent
    tied = np.zeros((16, 12))
    tied[3, 5] = tied[9, 5] = 1.0
    scores = ScoreMap(tied, g)
    pos = (6.5, 5.5)
    assert select_next(scores, cm, pos) == select_next_oracle(scores, cm, pos) == (3.5, 5.5)


def test_select_next_is_scale_invariant():
    rng = np.random.default_rng(16)
    g = grid(6)
    cm = CostModel(quad_coeff=0.03)
    vals = rng.random((6, 6))
    pos = rng.uniform(0, 6, 2)
    a = select_next(ScoreMap(vals, g), cm, pos)
    b = select_next(ScoreMap(vals * 123.456, g), cm, pos)
    assert a == b


# (overhead, quad_coeff) of a move cost overhead + quad_coeff * d^2
OVERHEAD_COSTS = [(0.7, 0.03), (1e-3, 0.5), (250.0, 0.01), (3.0, 0.0), (1.0, 2.0)]


@pytest.mark.parametrize("seed", range(4))
def test_a_fixed_cost_other_than_1_only_rescales_the_quadratic_term(seed):
    # score / (o + q d^2) = (score / o) / (1 + (q / o) d^2): the same pick
    rng = np.random.default_rng(seed)
    g = GridSpec(0.0, 16.0, 0.0, 12.0, 16, 12, 8, 6)
    scores = ScoreMap(rng.random((16, 12)), g)
    for overhead, quad_coeff in OVERHEAD_COSTS:
        cm = CostModel(quad_coeff=quad_coeff / overhead)
        for pos in rng.uniform((0.0, 0.0), (16.0, 12.0), size=(10, 2)):
            assert select_next(scores, cm, pos) == overhead_pick(scores, overhead, quad_coeff, pos)


# grids whose centre differences are exact, with measurement:source pitch
# ratios (and measurement x:y pitch ratios) 1:1, 1:2 and 2:3
EXACT_GRIDS = [
    GridSpec(0.0, 16.0, 0.0, 12.0, 16, 12, 16, 12),
    GridSpec(0.0, 8.0, 0.0, 20.0, 8, 10, 4, 5),
    GridSpec(-4.0, 8.0, 2.0, 20.0, 6, 6, 4, 4),
]
RATIOS = ["1:1", "1:2", "2:3"]


@pytest.mark.parametrize("g,ratio", zip(EXACT_GRIDS, RATIOS), ids=RATIOS)
def test_cost_table_window_is_the_cost_map_at_every_centre(g, ratio):
    a, b = map(float, ratio.split(":"))
    assert g.meas_dx / g.src_dx == g.meas_dx / g.meas_dy == a / b
    for quad_coeff in (0.0, 0.03, 7.5):
        cm = CostModel(quad_coeff=quad_coeff)
        table = cost_table(cm, g)
        assert table.shape == (2 * g.a_cells - 1, 2 * g.b_cells - 1)
        assert not table.flags.writeable and cost_table(cm, g) is table  # tabulated once
        weights = weight_table(cm, g)
        for flat in range(g.n_meas_cells):
            pos = g.meas_cell_center(flat)
            want = movement_cost_map(cm, g, pos)
            assert same_bits(cost_window(table, g, pos), want)
            assert same_bits(cost_window(weights, g, pos), 1.0 / want)
        assert cost_window(table, g, (pos[0] + 0.25, pos[1])) is None  # off the centres


def test_cost_table_is_none_where_centre_differences_are_not_translation_exact():
    # from x_min -3.7 the centres' differences round apart: the cost map serves
    g = GridSpec(-3.7, 12.3, 0.0, 12.0, 16, 12, 8, 6)
    cx = g.meas_x_centers().tolist()
    assert len({cx[k + 1] - cx[k] for k in range(15)}) > 1  # one pitch, two differences
    cm = CostModel(quad_coeff=0.03)
    assert cost_table(cm, g) is None and weight_table(cm, g) is None
    assert cost_window(cost_table(cm, g), g, g.meas_cell_center(5)) is None
    vals = np.random.default_rng(5).random((16, 12))
    for flat in range(g.n_meas_cells):
        pos = g.meas_cell_center(flat)
        scores = ScoreMap(vals, g)
        assert select_next(scores, cm, pos) == select_next_oracle(scores, cm, pos)


def cost_map_pick(scores, cm, pos):
    """select_next through movement_cost_map alone: the first argmax of score / cost."""
    ratio = scores.values / movement_cost_map(cm, scores.grid, pos)
    return scores.grid.meas_cell_center(int(np.argmax(ratio)))


@pytest.mark.parametrize("g", EXACT_GRIDS, ids=RATIOS)
def test_select_next_from_a_centre_picks_the_cost_map_cell_with_planted_ties(g):
    rng = np.random.default_rng(29)
    cm = CostModel(quad_coeff=0.05)
    for _ in range(30):
        vals = rng.random((g.a_cells, g.b_cells))
        ix, iy = rng.integers(g.a_cells), rng.integers(g.b_cells)
        pos = (float(g.meas_x_centers()[ix]), float(g.meas_y_centers()[iy]))
        # equal scores at cells mirrored about the agent tie exactly in ratio,
        # as do several copies of the top score at the agent's own distance
        top = vals.max() + 1.0
        for dx, dy in ((1, 0), (0, 1), (2, 2)):
            for sx, sy in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                a, b = ix + sx * dx, iy + sy * dy
                if 0 <= a < g.a_cells and 0 <= b < g.b_cells:
                    vals[a, b] = top
        scores = ScoreMap(vals, g)
        want = cost_map_pick(scores, cm, pos)
        assert select_next(scores, cm, pos) == want == select_next_oracle(scores, cm, pos)
        assert select_next(ScoreMap(np.ones_like(vals), g), cm, pos) == pos  # staying is cheapest


def test_select_next_all_equal_scores_picks_nearest():
    g = grid(5)
    scores = ScoreMap(np.ones((5, 5)), g)
    cm = CostModel(quad_coeff=2.0)
    assert select_next(scores, cm, (3.4, 1.7)) == (3.5, 1.5)


@pytest.mark.parametrize("noise_sigma", [0.3, 0.01])  # 0.01: far cells hit the floor
def test_eig_exact_hypothetical_update_is_the_filter_update(noise_sigma):
    # one node reads each source hypothesis's mean f_k: the exact tier's gain is
    # then sum_k p_k * info_gain_bits(posterior_update(post, f_k)), floor included
    g = grid(8)
    params = blob(length_scale=1.5, noise_sigma=noise_sigma)
    rng = np.random.default_rng(4)
    post = posterior_from_weights(g, rng.random(g.n_src_cells) + 0.05)
    reference = uniform_posterior(g)
    p = post.probs().ravel()
    for x, y in [(1.5, 2.5), (4.5, 4.5), (7.5, 0.5)]:
        f = concentration(np.array([x, y]), g.src_centers(), params).ravel()
        want = sum(
            p_k * info_gain_bits(
                posterior_update(post, [MeasurementRecord(x, y, float(f_k))], params),
                reference,
            )
            for p_k, f_k in zip(p, f)
        )
        got = eig_exact(post, (x, y), params, 1, reference)
        assert got == pytest.approx(want, rel=1e-12)
