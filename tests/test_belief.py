"""Grid Bayes filter: updates, information gain, and readouts."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    masked_info_gain_bits,
    per_reading_fold,
    plain_gaussian_loglik,
    plain_loglik_grid,
    same_bits,
)
from scipy.stats import norm

from plumeseek.belief import (
    AllMassLost,
    LOGLIK_FLOOR,
    MeasurementRecord,
    SourcePosterior,
    UnsupportedReference,
    gaussian_loglik,
    hpd_region,
    info_gain_bits,
    loglik_grid,
    logsumexp,
    map_estimate,
    posterior_from_weights,
    posterior_update,
    uniform_posterior,
)
from plumeseek.field import (
    ADVECTED,
    BLOB,
    GridSpec,
    KernelGridMismatch,
    PlumeParams,
    concentration,
    squared_snr_kernel,
)


def grid(n=2, world=None):
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


# -- construction and validation ----------------------------------------------


def test_posterior_rejects_wrong_shape_and_unnormalized():
    g = grid(2)
    with pytest.raises(ValueError):
        SourcePosterior(np.zeros((3, 2)), g)
    with pytest.raises(ValueError):
        SourcePosterior(np.zeros((2, 2)), g)  # sums to 4, not 1


def test_uniform_posterior_probs():
    post = uniform_posterior(grid(4))
    assert np.allclose(post.probs(), 1 / 16, rtol=0, atol=1e-15)


def test_posterior_from_weights_normalizes_and_allows_zeros():
    g = grid(2)
    post = posterior_from_weights(g, [2.0, 0.0, 1.0, 1.0])
    assert np.allclose(post.probs().ravel(), [0.5, 0.0, 0.25, 0.25])
    with pytest.raises(ValueError):
        posterior_from_weights(g, [1.0, -0.1, 0.0, 0.0])
    with pytest.raises(ValueError):
        posterior_from_weights(g, [0.0, 0.0, 0.0, 0.0])


# -- likelihoods ----------------------------------------------------------------


def test_log_likelihood_two_sigma_residual():
    # reading 2 sigma above the mean concentration of zero-distance source
    p = blob()
    got = gaussian_loglik(3.0, concentration((0.0, 0.0), (0.0, 0.0), p), p.noise_sigma)
    assert got == pytest.approx(-2.0 - math.log(math.sqrt(2 * math.pi)), rel=1e-15)


def test_log_likelihood_matches_gaussian_density():
    rng = np.random.default_rng(5)
    p = blob(strength=1.4, length_scale=2.0, noise_sigma=0.7)
    for _ in range(25):
        loc = rng.uniform(-3, 3, 2)
        src = rng.uniform(-3, 3, 2)
        m = rng.normal(0, 2)
        f = float(concentration(loc, src, p))
        want = norm.logpdf(m, loc=f, scale=p.noise_sigma)
        got = gaussian_loglik(m, concentration(loc, src, p), p.noise_sigma)
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "g",
    [
        GridSpec(0.0, 12.0, 0.0, 6.0, 12, 6, 12, 6),
        GridSpec(0.0, 16.0, 0.0, 12.0, 16, 12, 8, 6),  # measurement:source pitch 1:2
    ],
)
@pytest.mark.parametrize(
    "params",
    [
        blob(strength=1.3, length_scale=1.7, noise_sigma=0.4),
        blob(strength=0.0),
        PlumeParams(
            kind=ADVECTED,
            strength=1.7,
            wind=(1.0, 0.3),
            sigma0=0.8,
            spread_rate=0.25,
            noise_sigma=0.3,
        ),
        PlumeParams(kind=ADVECTED, strength=0.0, wind=(0.0, -2.0)),
    ],
)
def test_loglik_grid_equals_plain_formula_oracle(g, params):
    # the in-place likelihood must give the plain closed forms' bits, on and
    # off the lattice, outside the world, and where readings hit the floor
    rng = np.random.default_rng(21)
    on_lattice = [g.meas_cell_center(int(c)) for c in rng.integers(g.n_meas_cells, size=4)]
    off_lattice = [tuple(rng.uniform(0.0, 12.0, 2)) for _ in range(4)]
    outside = [(-3.0, 20.0), (40.0, -0.5)]
    values = [0.0, 0.37, -1.2, 30.0]
    for k, (x, y) in enumerate(on_lattice + off_lattice + outside):
        rec = MeasurementRecord(float(x), float(y), values[k % len(values)])
        got = loglik_grid(rec, g, params)
        assert got.shape == (g.i_cells, g.j_cells)
        assert np.array_equal(got, plain_loglik_grid(rec, g, params))


def update_outcome(post, batch, params, kernel=None):
    """The updated posterior, or the AllMassLost message."""
    try:
        return posterior_update(post, batch, params, kernel)
    except AllMassLost as exc:
        return str(exc)


@pytest.mark.parametrize(
    "g",
    [
        GridSpec(0.0, 12.0, 0.0, 6.0, 12, 6, 12, 6),
        GridSpec(0.0, 16.0, 0.0, 12.0, 16, 12, 8, 6),  # measurement:source pitch 1:2
        GridSpec(0.1, 1.3, 0.1, 0.7, 12, 6, 12, 6),  # pitch 0.1: an inexact lattice
    ],
)
@pytest.mark.parametrize(
    "params",
    [
        blob(strength=1.3, length_scale=1.7, noise_sigma=0.4),
        blob(length_scale=0.3, noise_sigma=0.4),  # f is non-zero on a small box
        blob(strength=0.0),  # an empty non-zero box
        PlumeParams(
            kind=ADVECTED,
            strength=1.7,
            wind=(1.0, 0.3),
            sigma0=0.8,
            spread_rate=0.25,
            noise_sigma=0.3,
        ),
        PlumeParams(kind=ADVECTED, strength=0.0, wind=(0.0, -2.0)),
    ],
)
def test_kernel_likelihood_and_update_equal_the_closed_form_bit_for_bit(g, params):
    # oracle for the on-lattice likelihood: passing the kernel changes no
    # bit, at every measurement-cell centre, off the lattice and outside the
    # world, where readings hit the floor, and where every cell floors
    kernel = squared_snr_kernel(params, g)
    rng = np.random.default_rng(23)
    values = [0.0, 0.37, -1.2, 30.0]
    on = [g.meas_cell_center(c) for c in range(g.n_meas_cells)]
    width, height = g.x_max - g.x_min, g.y_max - g.y_min
    off = [(g.x_min + width * u, g.y_min + height * v) for u, v in rng.random((8, 2))]
    off += [(g.x_min - width, g.y_max + 2.0 * height)]
    records = [
        MeasurementRecord(float(x), float(y), values[k % len(values)], step=k)
        for k, (x, y) in enumerate(on + off)
    ]
    for rec in records:
        assert same_bits(loglik_grid(rec, g, params, kernel), loglik_grid(rec, g, params))
    order = rng.permutation(len(records))
    batches = [[records[k] for k in order[lo : lo + 5]] for lo in range(0, len(order), 5)]
    batches.append([records[0], MeasurementRecord(*on[-1], 1e6)])  # floors every cell
    fast = slow = posterior_from_weights(g, rng.random(g.n_src_cells) + 0.05)
    for batch in batches:
        got = update_outcome(fast, batch, params, kernel)
        want = update_outcome(slow, batch, params)
        if isinstance(want, str):
            assert got == want  # AllMassLost alike, and the chains keep their posteriors
            continue
        assert same_bits(got.log_probs, want.log_probs)
        fast, slow = got, want
    assert isinstance(want, str)


def fold_outcome(post, batch, params, kernel):
    """per_reading_fold's posterior, or its AllMassLost message."""
    try:
        return per_reading_fold(post, batch, params, kernel)
    except AllMassLost as exc:
        return str(exc)


def window_kind(kernel, rec):
    """How much of the source grid the record's likelihood window covers."""
    window = kernel.source_window(rec.x, rec.y)
    if window is None:
        return "closed form"
    f, rows, cols = window
    cells = f[rows, cols].size
    return "whole grid" if cells == kernel.grid.n_src_cells else "empty" if not cells else "part"


def test_window_fold_equals_the_per_reading_fold():
    # oracle for posterior_update's fold: each reading added on its window
    # only, the off-window value everywhere else, against one full-grid
    # loglik_grid per reading; AllMassLost alike, message included
    rng = np.random.default_rng(41)
    desk = GridSpec()  # 64 x 64: the blob reaches every source cell
    desk_plume = blob(length_scale=1.815, noise_sigma=0.5)
    small = GridSpec(0.0, 16.0, 0.0, 8.0, 16, 8, 16, 8)
    small_plume = PlumeParams(
        kind=ADVECTED, strength=1.7, wind=(1.0, 0.3), sigma0=0.8, spread_rate=0.25,
        noise_sigma=0.3,
    )
    # one row, wind along it: f is 100 on every source upwind of a reading, else 0
    row = GridSpec(0.0, 8.0, 0.0, 1.0, 8, 1, 4, 1)
    row_plume = PlumeParams(kind=ADVECTED, strength=100.0, wind=(1.0, 0.0))
    cases = []
    for g, params in ((desk, desk_plume), (small, small_plume)):
        source = g.src_cell_center(int(rng.integers(g.n_src_cells)))
        on = [g.meas_cell_center(int(c)) for c in rng.integers(g.n_meas_cells, size=12)]
        off = [(g.x_max * u, g.y_max * v) for u, v in rng.random((6, 2))]  # off the lattice
        records = [
            MeasurementRecord(float(x), float(y), float(concentration((x, y), source, params))
                              + params.noise_sigma * float(rng.standard_normal()))
            for x, y in on + off
        ]
        order = rng.permutation(len(records))
        mixed = [[records[k] for k in order[lo : lo + 5]] for lo in range(0, len(order), 5)]
        cases.append((g, params, [records[:12], records[12:], *mixed]))
    upwind, part, whole = ((x, 0.5) for x in (0.5, 4.5, 7.5))
    cases.append((row, row_plume, [
        [MeasurementRecord(*upwind, -30.0), MeasurementRecord(*upwind, 2.0)],  # empty windows
        # every window cell floors, the cells off it do not: possible
        [MeasurementRecord(*part, -30.0), MeasurementRecord(*part, 100.5)],
        # the window is the whole grid, and every cell floors: impossible
        [MeasurementRecord(*part, 100.0), MeasurementRecord(*whole, -30.0)],
        # the first impossible reading is the one named
        [MeasurementRecord(*part, 99.0), MeasurementRecord(*upwind, 1e6),
         MeasurementRecord(*whole, -30.0)],
        [MeasurementRecord(*whole, 101.0), MeasurementRecord(*part, 0.3)],
    ]))
    kinds, raised = set(), 0
    for g, params, batches in cases:
        kernel = squared_snr_kernel(params, g)
        fast = slow = posterior_from_weights(g, rng.random(g.n_src_cells) + 0.05)
        for batch in batches:
            kinds.update(window_kind(kernel, rec) for rec in batch)
            got = update_outcome(fast, batch, params, kernel)
            want = fold_outcome(slow, batch, params, kernel)
            if isinstance(want, str):
                assert got == want
                raised += 1
                continue
            assert same_bits(got.log_probs, want.log_probs)
            fast, slow = got, want
    assert kinds == {"closed form", "whole grid", "part", "empty"}
    assert raised == 2


def test_kernel_for_another_grid_or_plume_is_refused():
    g = GridSpec(0.0, 12.0, 0.0, 6.0, 12, 6, 12, 6)
    params = blob(noise_sigma=0.4)
    rec = MeasurementRecord(*g.meas_cell_center(7), 0.5)
    post = uniform_posterior(g)
    for kernel in (squared_snr_kernel(blob(noise_sigma=0.5), g),
                   squared_snr_kernel(params, GridSpec(0.0, 12.0, 0.0, 6.0, 12, 6, 6, 6))):
        with pytest.raises(KernelGridMismatch):
            loglik_grid(rec, g, params, kernel)
        with pytest.raises(KernelGridMismatch):
            posterior_update(post, [rec], params, kernel)


def test_gaussian_loglik_equals_plain_formula_on_scalars_and_broadcasts():
    rng = np.random.default_rng(8)
    m = rng.normal(0.0, 3.0, (5, 1))
    f = rng.uniform(0.0, 2.0, (1, 7))
    for args in ((m, f, 0.4), (m, f, 0.01), (1.25, 0.5, 0.3), (40.0, f, 0.5)):
        assert np.array_equal(gaussian_loglik(*args), plain_gaussian_loglik(*args))
    assert float(gaussian_loglik(1.25, 0.5, 0.3)) == float(plain_gaussian_loglik(1.25, 0.5, 0.3))


# -- posterior updates ----------------------------------------------------------


def test_two_by_two_update_hand_computed():
    # length scale far below the pitch, so the reading's mean is 1 at the
    # sensed cell and ~0 elsewhere; a reading of exactly 1 then scores
    # residual 0 at that cell and residual 1 at the other three
    g = grid(2)
    p = blob(length_scale=0.1)
    rec = MeasurementRecord(x=0.5, y=0.5, value=1.0)
    post = posterior_update(uniform_posterior(g), [rec], p)
    z = 1.0 + 3.0 * math.exp(-0.5)
    want = np.array([1.0, math.exp(-0.5), math.exp(-0.5), math.exp(-0.5)]) / z
    assert np.allclose(post.probs().ravel(), want, rtol=1e-9, atol=0)


def test_update_with_no_records_returns_input():
    post = uniform_posterior(grid(3))
    assert posterior_update(post, [], blob()) is post


def test_uninformative_measurement_leaves_posterior_unchanged():
    # zero strength: every hypothesis predicts the same reading distribution
    g = grid(4)
    start = posterior_from_weights(g, np.arange(1.0, 17.0))
    rec = MeasurementRecord(x=1.3, y=2.2, value=0.4)
    post = posterior_update(start, [rec], blob(strength=0.0))
    assert np.allclose(post.probs(), start.probs(), rtol=0, atol=1e-15)


def test_batch_equals_sequential_and_order_invariant():
    rng = np.random.default_rng(9)
    g = grid(5, world=5.0)
    p = blob(length_scale=1.2, noise_sigma=0.6)
    records = [
        MeasurementRecord(
            x=float(rng.uniform(0, 5)), y=float(rng.uniform(0, 5)), value=float(rng.normal())
        )
        for _ in range(6)
    ]
    batch = posterior_update(uniform_posterior(g), records, p)
    seq = uniform_posterior(g)
    for rec in records:
        seq = posterior_update(seq, [rec], p)
    assert np.allclose(batch.log_probs, seq.log_probs, rtol=0, atol=1e-12)
    shuffled = posterior_update(uniform_posterior(g), records[::-1], p)
    assert np.allclose(batch.log_probs, shuffled.log_probs, rtol=0, atol=1e-12)


@st.composite
def prior_records_plume(draw):
    """A small grid's prior (zeros allowed), 1-4 readings on it and a blob plume."""
    n = draw(st.integers(1, 5))
    g = grid(n)
    unit = st.floats(0.0, 1.0, allow_nan=False)
    weights = draw(st.lists(unit, min_size=n * n, max_size=n * n).filter(any))
    coord = st.floats(0.0, float(n), allow_nan=False)
    records = [
        MeasurementRecord(
            x=draw(coord), y=draw(coord), value=draw(st.floats(-1.0, 3.0)), step=t, agent_id=t % 2
        )
        for t in range(draw(st.integers(1, 4)))
    ]
    # |reading - prediction| <= 30 sigma: every log-likelihood stays above the floor
    plume = blob(
        strength=draw(st.floats(0.0, 2.0)),
        length_scale=draw(st.floats(0.2, 3.0)),
        noise_sigma=draw(st.floats(0.1, 2.0)),
    )
    return posterior_from_weights(g, np.array(weights)), records, plume


@settings(max_examples=50, derandomize=True, deadline=None)
@given(prior_records_plume())
def test_update_normalised_and_order_free_property(case):
    prior, records, plume = case
    post = posterior_update(prior, records, plume)
    assert math.isclose(post.probs().sum(), 1.0, rel_tol=0.0, abs_tol=1e-12)
    assert abs(logsumexp(post.log_probs)) <= 1e-12
    backwards = posterior_update(prior, records[::-1], plume)
    assert np.allclose(post.log_probs, backwards.log_probs, rtol=0.0, atol=1e-9)


def test_update_matches_linear_space_bayes():
    rng = np.random.default_rng(13)
    for trial in range(30):
        n = int(rng.integers(2, 9))
        g = grid(n, world=float(n))
        kind = BLOB if trial % 2 == 0 else ADVECTED
        if kind == BLOB:
            p = blob(length_scale=float(rng.uniform(0.5, 3)), noise_sigma=float(rng.uniform(0.4, 1.5)))
        else:
            p = PlumeParams(
                kind=ADVECTED,
                wind=(float(rng.uniform(0.2, 1)), float(rng.uniform(-1, 1))),
                sigma0=float(rng.uniform(0.5, 2)),
                spread_rate=float(rng.uniform(0, 0.5)),
                noise_sigma=float(rng.uniform(0.4, 1.5)),
            )
        weights = rng.random(g.n_src_cells)
        weights[rng.integers(g.n_src_cells)] = 0.0  # keep a dead cell in play
        start = posterior_from_weights(g, weights)
        records = [
            MeasurementRecord(
                x=float(rng.uniform(0, n)), y=float(rng.uniform(0, n)), value=float(rng.normal(0, 1))
            )
            for _ in range(int(rng.integers(1, 5)))
        ]
        post = posterior_update(start, records, p)

        # independent linear-space path
        ref = start.probs().ravel().copy()
        for rec in records:
            f = concentration(np.array([rec.x, rec.y]), g.src_centers(), p).ravel()
            like = np.exp(-0.5 * ((rec.value - f) / p.noise_sigma) ** 2)
            ref *= like
            ref /= ref.sum()
        assert np.allclose(post.probs().ravel(), ref, rtol=0, atol=1e-10)


def test_normalization_holds_after_many_updates():
    from scipy.special import logsumexp

    rng = np.random.default_rng(21)
    g = grid(6, world=6.0)
    p = blob(noise_sigma=0.5)
    post = uniform_posterior(g)
    for _ in range(40):
        rec = MeasurementRecord(
            x=float(rng.uniform(0, 6)), y=float(rng.uniform(0, 6)), value=float(rng.normal())
        )
        post = posterior_update(post, [rec], p)
        assert abs(logsumexp(post.log_probs)) <= 1e-12


def _logsumexp_cases():
    rng = np.random.default_rng(37)
    for k in range(60):
        shape = [(1,), (9,), (4, 5), (16, 16), (3, 1)][k % 5]
        a = rng.normal(scale=[1.0, 40.0, 900.0][(k // 6) % 3], size=shape)
        kind = k % 6
        if kind == 1:
            a[a > 0.3] = a.max()  # several tied maxima
        elif kind == 2:
            a[rng.random(shape) < 0.4] = -np.inf
        elif kind == 3:
            a[:] = -np.inf
        elif kind == 4:
            a.flat[-1] = np.inf
        elif kind == 5:
            a = np.round(a)  # ties below the maximum too
        yield a
    # full-scale sizes, so that the sums run through pairwise-summation blocks
    yield rng.normal(scale=300.0, size=(512, 256))
    big = rng.normal(scale=30.0, size=(512, 256))
    big[rng.random(big.shape) < 0.3] = -np.inf
    yield big
    yield np.round(rng.normal(scale=5.0, size=(64, 4096)))  # tied maxima in every row
    # a concentrated desk posterior: 1200 readings around the source leave
    # almost every cell at probability 0
    g, plume = GridSpec(), blob(length_scale=1.815, noise_sigma=0.5)
    source = g.src_cell_center(2080)
    cells = [g.meas_cell_center(2080 + 64 * dx + dy) for dx, dy in rng.integers(-2, 3, (1200, 2))]
    records = [
        MeasurementRecord(x, y, float(concentration((x, y), source, plume)) + 0.5 * z)
        for (x, y), z in zip(cells, rng.standard_normal(len(cells)))
    ]
    desk = posterior_update(uniform_posterior(g), records, plume, squared_snr_kernel(plume, g))
    assert np.count_nonzero(desk.probs()) < 100
    yield desk.log_probs


@pytest.mark.parametrize(
    "kwargs", [{}, {"axis": 0}, {"axis": -1}, {"axis": 1, "keepdims": True}, {"keepdims": True}]
)
def test_logsumexp_equals_scipy(kwargs):
    from scipy.special import logsumexp as scipy_logsumexp

    for a in _logsumexp_cases():
        if kwargs.get("axis") == 1 and a.ndim < 2:
            continue
        with np.errstate(all="ignore"):
            want = scipy_logsumexp(a, **kwargs)
        got = logsumexp(a, **kwargs)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
    # a full reduction is a NumPy scalar, or all ones in shape with keepdims
    assert type(logsumexp(np.zeros((2, 2)))) is np.float64
    kept = logsumexp(np.zeros((2, 2)), keepdims=True)
    assert type(kept) is np.ndarray and kept.shape == (1, 1)


def test_impossible_measurement_raises():
    g = grid(3)
    p = blob(noise_sigma=0.01)
    rec = MeasurementRecord(x=1.0, y=1.0, value=1e6)  # ~1e8 sigma residual
    with pytest.raises(AllMassLost):
        posterior_update(uniform_posterior(g), [rec], p)


def test_extreme_but_survivable_measurement_keeps_mass():
    # one cell stays within the likelihood floor, the rest are clamped
    g = GridSpec(0.0, 40.0, 0.0, 1.0, 40, 1, 40, 1)
    p = blob(length_scale=0.2, noise_sigma=0.02)
    rec = MeasurementRecord(x=0.5, y=0.5, value=1.0)  # dead-on at cell 0 only
    post = posterior_update(uniform_posterior(g), [rec], p)
    probs = post.probs().ravel()
    assert probs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.isfinite(post.log_probs).all() or np.all(post.log_probs[1:] <= LOGLIK_FLOOR / 2)


# -- information gain -----------------------------------------------------------


def test_info_gain_zero_against_itself():
    rng = np.random.default_rng(3)
    g = grid(4)
    post = posterior_from_weights(g, rng.random(16) + 0.05)
    assert info_gain_bits(post, post) == 0.0


def test_info_gain_point_mass_vs_uniform_is_log2_n():
    for n, bits in ((2, 2.0), (4, 4.0)):
        g = grid(n)
        assert info_gain_bits(point_mass(g, 1), uniform_posterior(g)) == pytest.approx(
            bits, abs=1e-12
        )


def test_info_gain_uses_zero_times_log_zero_convention():
    g = grid(2)
    post = posterior_from_weights(g, [1.0, 1.0, 0.0, 0.0])
    ig = info_gain_bits(post, uniform_posterior(g))
    assert ig == pytest.approx(1.0, abs=1e-12)  # halving the support gains one bit


def test_info_gain_rejects_mass_outside_reference_support():
    g = grid(2)
    reference = posterior_from_weights(g, [1.0, 1.0, 0.0, 0.0])
    post = uniform_posterior(g)
    with pytest.raises(UnsupportedReference):
        info_gain_bits(post, reference)
    # but a posterior inside the support is fine
    inside = posterior_from_weights(g, [3.0, 1.0, 0.0, 0.0])
    assert info_gain_bits(inside, reference) >= 0.0


@pytest.mark.parametrize("side", [5, 64])
def test_info_gain_equals_masked_formula(side):
    # the full-support path sums the full arrays; the masked sum is the oracle
    rng = np.random.default_rng(29)
    g = grid(side, world=float(side))
    for zeros in (0.0, 0.3, 0.9):
        for _ in range(5):
            w = rng.random(g.n_src_cells) * np.exp(rng.normal(scale=20.0, size=g.n_src_cells))
            w[rng.random(w.size) < zeros] = 0.0
            w[0] = 1.0
            post = posterior_from_weights(g, w)
            assert np.all(post.probs() > 0.0) == (zeros == 0.0)
            ref = posterior_from_weights(g, rng.random(g.n_src_cells) + 1e-3)
            assert info_gain_bits(post, ref) == masked_info_gain_bits(post, ref)
            assert info_gain_bits(post, post) == masked_info_gain_bits(post, post) == 0.0
            holes = posterior_from_weights(g, np.where(w > 0.0, 0.0, 1.0) + np.eye(1, w.size)[0])
            with pytest.raises(UnsupportedReference):  # full or partial support alike
                info_gain_bits(post, holes)


def test_info_gain_nonnegative_for_random_pairs():
    rng = np.random.default_rng(17)
    g = grid(5, world=5.0)
    for _ in range(50):
        post = posterior_from_weights(g, rng.random(25) + 1e-6)
        ref = posterior_from_weights(g, rng.random(25) + 1e-6)
        assert info_gain_bits(post, ref) >= -1e-12


def test_info_gain_requires_matching_grids():
    with pytest.raises(ValueError):
        info_gain_bits(uniform_posterior(grid(2)), uniform_posterior(grid(3)))


# -- readouts -------------------------------------------------------------------


def test_map_estimate_location_and_tie_break():
    g = grid(2)
    post = posterior_from_weights(g, [0.1, 0.2, 0.6, 0.1])
    cell, xy = map_estimate(post)
    assert cell == (1, 0)
    assert xy == (1.5, 0.5)
    tied = posterior_from_weights(g, [0.3, 0.3, 0.3, 0.1])
    assert map_estimate(tied)[0] == (0, 0)  # lowest row-major index wins


def test_hpd_region_hand_case():
    g = grid(2)
    post = posterior_from_weights(g, [0.5, 0.3, 0.15, 0.05])
    assert hpd_region(post, 0.9) == {0, 1, 2}
    assert hpd_region(post, 0.5) == {0}
    assert hpd_region(post, 1.0) == {0, 1, 2, 3}


def test_hpd_region_uniform_takes_ceil_of_mass():
    for n, mass, want in ((4, 0.95, 16), (4, 0.5, 8), (5, 0.95, 24)):
        g = grid(n)
        assert len(hpd_region(uniform_posterior(g), mass)) == want


def test_hpd_region_ties_resolve_row_major():
    g = grid(2)
    post = uniform_posterior(g)
    assert hpd_region(post, 0.5) == {0, 1}


def test_hpd_region_validates_mass():
    post = uniform_posterior(grid(2))
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            hpd_region(post, bad)
