"""Concentration models, grid geometry, and the offset kernel."""
import math

import numpy as np
import pytest
from oracles import plain_concentration

from plumeseek.field import (
    ADVECTED,
    BLOB,
    GridSpec,
    KernelGridMismatch,
    PlumeParams,
    concentration,
    concentration_at_sources,
    next_fast_len,
    snr_area_fraction,
    squared_snr_kernel,
)


def blob(strength=1.0, length_scale=1.0, noise_sigma=1.0):
    return PlumeParams(
        kind=BLOB, strength=strength, length_scale=length_scale, noise_sigma=noise_sigma
    )


def advected(wind=(1.0, 0.0), sigma0=1.0, spread_rate=0.5, noise_sigma=1.0, strength=1.0):
    return PlumeParams(
        kind=ADVECTED,
        strength=strength,
        wind=wind,
        sigma0=sigma0,
        spread_rate=spread_rate,
        noise_sigma=noise_sigma,
    )


# -- GridSpec ---------------------------------------------------------------


def test_grid_pitches_and_counts():
    g = GridSpec(0.0, 8.0, -2.0, 2.0, 4, 8, 2, 4)
    assert g.meas_dx == 2.0 and g.meas_dy == 0.5
    assert g.src_dx == 4.0 and g.src_dy == 1.0
    assert g.n_meas_cells == 32 and g.n_src_cells == 8
    assert g.center == (4.0, 0.0)
    assert g.diagonal == pytest.approx(math.hypot(8.0, 4.0))


def test_grid_cell_centers_are_offset_half_pitch():
    g = GridSpec(0.0, 4.0, 0.0, 4.0, 4, 4, 2, 2)
    assert list(g.meas_x_centers()) == [0.5, 1.5, 2.5, 3.5]
    assert list(g.src_y_centers()) == [1.0, 3.0]
    # row-major flattening: flat = ix * n_cols + iy
    assert g.meas_cell_center(0) == (0.5, 0.5)
    assert g.meas_cell_center(1) == (0.5, 1.5)
    assert g.meas_cell_center(4) == (1.5, 0.5)
    assert g.src_cell_center(3) == (3.0, 3.0)


def test_grid_centers_arrays_match_flat_indexing():
    g = GridSpec(-1.0, 3.0, 2.0, 8.0, 3, 5, 4, 2)
    mc = g.meas_centers()
    assert mc.shape == (3, 5, 2)
    for flat in range(g.n_meas_cells):
        ix, iy = divmod(flat, g.b_cells)
        assert tuple(mc[ix, iy]) == g.meas_cell_center(flat)
    sc = g.src_centers()
    assert sc.shape == (4, 2, 2)
    for flat in range(g.n_src_cells):
        ix, iy = divmod(flat, g.j_cells)
        assert tuple(sc[ix, iy]) == g.src_cell_center(flat)


def test_grid_rejects_bad_extent_and_counts():
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.0, 0.0, 1.0, 2, 2, 2, 2)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 1.0, 0.0, 2, 2, 2, 2)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 0.0, 1.0, 0, 2, 2, 2)
    for bad in (2.0, True, "2"):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2, 2, bad)
    assert GridSpec(0.0, 1.0, 0.0, 1.0, np.int64(2), 2, 2, 2).a_cells == 2


def test_grid_flat_index_out_of_range():
    g = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2, 2, 2)
    with pytest.raises(IndexError):
        g.meas_cell_center(4)
    with pytest.raises(IndexError):
        g.src_cell_center(-5)


# -- PlumeParams validation ---------------------------------------------------


def test_plume_params_validation():
    with pytest.raises(ValueError):
        PlumeParams(kind="volcano")
    with pytest.raises(ValueError):
        PlumeParams(kind=BLOB, strength=-1.0)
    with pytest.raises(ValueError):
        PlumeParams(kind=BLOB, length_scale=0.0)
    with pytest.raises(ValueError):
        PlumeParams(kind=BLOB, noise_sigma=0.0)
    with pytest.raises(ValueError):
        PlumeParams(kind=ADVECTED, wind=(0.0, 0.0))
    with pytest.raises(ValueError):
        PlumeParams(kind=ADVECTED, wind=(1.0, 0.0), sigma0=0.0)
    with pytest.raises(ValueError):
        PlumeParams(kind=ADVECTED, wind=(1.0, 0.0), spread_rate=-0.1)
    # zero strength is legal: a silent world is a valid limiting case
    PlumeParams(kind=BLOB, strength=0.0)


# -- isotropic blob -----------------------------------------------------------


def test_blob_value_one_length_scale_out():
    f = concentration((1.0, 0.0), (0.0, 0.0), blob())
    assert f == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_blob_peak_equals_strength():
    p = blob(strength=2.5, length_scale=0.7)
    assert concentration((3.0, -1.0), (3.0, -1.0), p) == 2.5
    # and nothing on a fine grid exceeds it
    xs = np.linspace(-2, 2, 101)
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    f = concentration(pts, (0.0, 0.0), p)
    assert f.max() == 2.5
    assert np.all(f <= 2.5)


def test_blob_radial_symmetry_and_monotone_decay():
    p = blob(length_scale=1.3)
    angles = np.linspace(0, 2 * np.pi, 17)
    ring = np.stack([2.0 * np.cos(angles), 2.0 * np.sin(angles)], axis=-1)
    f = concentration(ring, (0.0, 0.0), p)
    assert np.allclose(f, f[0], rtol=1e-12)
    radii = np.linspace(0, 5, 50)
    line = np.stack([radii, np.zeros_like(radii)], axis=-1)
    g = concentration(line, (0.0, 0.0), p)
    assert np.all(np.diff(g) < 0)


def test_blob_zero_strength_is_silent():
    p = blob(strength=0.0)
    pts = np.random.default_rng(0).uniform(-5, 5, size=(20, 2))
    assert np.all(concentration(pts, (1.0, 2.0), p) == 0.0)


# -- advected plume -----------------------------------------------------------


def test_advected_no_signal_upwind_or_abeam():
    p = advected(wind=(2.0, 0.0))
    assert concentration((-0.5, 0.0), (0.0, 0.0), p) == 0.0
    assert concentration((0.0, 0.0), (0.0, 0.0), p) == 0.0  # at the source itself
    assert concentration((0.0, 3.0), (0.0, 0.0), p) == 0.0  # exactly abeam
    assert concentration((1e-9, 0.0), (0.0, 0.0), p) > 0.0


def test_advected_centerline_dilution():
    # on the centerline the value is strength * sigma0 / width(downwind)
    p = advected(wind=(3.0, 0.0), sigma0=1.0, spread_rate=0.5, strength=2.0)
    f = concentration((3.0, 0.0), (0.0, 0.0), p)
    assert f == pytest.approx(2.0 * 1.0 / (1.0 + 0.5 * 3.0), rel=1e-15)


def test_advected_crosswind_gaussian_profile():
    p = advected(wind=(1.0, 0.0), sigma0=1.0, spread_rate=0.5)
    width = 1.0 + 0.5 * 3.0
    center = concentration((3.0, 0.0), (0.0, 0.0), p)
    off = concentration((3.0, 4.0), (0.0, 0.0), p)
    assert off == pytest.approx(center * math.exp(-(4.0**2) / (2 * width**2)), rel=1e-14)
    # symmetric across the centerline
    assert off == concentration((3.0, -4.0), (0.0, 0.0), p)


def test_advected_wind_direction_rotates_the_plume():
    # rotating the wind by 90 degrees rotates the whole field with it
    p_x = advected(wind=(1.5, 0.0))
    p_y = advected(wind=(0.0, 1.5))
    pts = np.random.default_rng(1).uniform(-4, 4, size=(50, 2))
    rotated = np.stack([-pts[:, 1], pts[:, 0]], axis=-1)  # (x,y) -> (-y,x)
    f_x = concentration(pts, (0.0, 0.0), p_x)
    f_y = concentration(rotated, (0.0, 0.0), p_y)
    assert np.allclose(f_x, f_y, rtol=1e-12, atol=0)


def test_advected_wind_magnitude_does_not_change_shape():
    # only the direction matters to the concentration pattern
    pts = np.random.default_rng(2).uniform(-4, 4, size=(30, 2))
    f1 = concentration(pts, (0.0, 0.0), advected(wind=(0.3, 0.4)))
    f2 = concentration(pts, (0.0, 0.0), advected(wind=(3.0, 4.0)))
    assert np.array_equal(f1, f2)


# -- translation invariance ---------------------------------------------------


def test_translation_invariance_exact_on_dyadic_shifts():
    # dyadic coordinates add and subtract without rounding, so equality is exact
    for params in (blob(length_scale=1.5), advected(wind=(1.0, -0.5))):
        loc = np.array([0.5, -1.25])
        src = np.array([3.75, 2.5])
        for shift in (np.array([16.25, -4.5]), np.array([-0.125, 8.0])):
            assert concentration(loc + shift, src + shift, params) == concentration(
                loc, src, params
            )


def test_translation_invariance_for_random_shifts():
    rng = np.random.default_rng(7)
    for params in (blob(), advected(wind=(0.8, 0.6), spread_rate=0.2)):
        for _ in range(20):
            loc = rng.uniform(-5, 5, 2)
            src = rng.uniform(-5, 5, 2)
            shift = rng.uniform(-100, 100, 2)
            a = concentration(loc, src, params)
            b = concentration(loc + shift, src + shift, params)
            assert b == pytest.approx(a, rel=1e-9, abs=1e-300)


def test_concentration_broadcasts_over_point_arrays():
    p = blob()
    locs = np.zeros((4, 1, 2))
    srcs = np.zeros((1, 3, 2))
    assert concentration(locs, srcs, p).shape == (4, 3)


@pytest.mark.parametrize(
    "g",
    [
        GridSpec(0.0, 12.0, 0.0, 6.0, 12, 6, 12, 6),
        GridSpec(0.0, 8.0, 0.0, 8.0, 8, 8, 4, 4),  # source pitch twice the measurement pitch
    ],
)
@pytest.mark.parametrize(
    "params",
    [
        blob(length_scale=1.7),
        advected(wind=(1.0, 0.3)),
        # the eight compass directions, axis-aligned ones included
        *(
            advected(wind=w)
            for w in [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
        ),
    ],
)
def test_concentration_at_sources_equals_point_array_oracle(g, params):
    rng = np.random.default_rng(12)
    on_lattice = [g.meas_cell_center(int(c)) for c in rng.integers(g.n_meas_cells, size=4)]
    off_lattice = [tuple(rng.uniform(0.0, 8.0, 2)) for _ in range(4)]
    # on a source center: down == 0 there, which is upwind
    on_source = [g.src_cell_center(int(c)) for c in (0, g.n_src_cells // 2 + 1)]
    cx, cy = g.center
    outside = [
        (g.x_min - 3.0, cy),
        (g.x_max + 3.0, cy),
        (cx, g.y_min - 3.0),
        (cx, g.y_max + 3.0),
        (g.x_min - 3.0, g.y_max + 3.0),
        (g.x_max + 3.0, g.y_min - 3.0),
        (-3.0, 20.0),
    ]
    for loc in on_lattice + off_lattice + on_source + outside:
        want = concentration(np.asarray(loc), g.src_centers(), params)
        got = concentration_at_sources(loc, g, params)
        assert np.array_equal(got, want)
        assert np.array_equal(got, plain_concentration(np.asarray(loc), g.src_centers(), params))


@pytest.mark.parametrize(
    "params",
    [
        blob(strength=1.3, length_scale=1.7),
        blob(strength=0.0),
        advected(wind=(1.0, 0.3), sigma0=0.8, spread_rate=0.25, strength=1.7),
        advected(wind=(-0.5, 2.0), spread_rate=0.0, strength=0.3),
    ],
)
def test_concentration_equals_plain_formula_oracle(params):
    # the in-place closed forms give the plain expressions' bits for point
    # arrays, broadcast pairs and single points (upwind and abeam included)
    rng = np.random.default_rng(4)
    locs = rng.uniform(-6.0, 6.0, (9, 1, 2))
    srcs = rng.uniform(-6.0, 6.0, (1, 5, 2))
    assert np.array_equal(concentration(locs, srcs, params), plain_concentration(locs, srcs, params))
    for loc, src in (((1.5, -0.25), (0.0, 0.0)), ((0.0, 3.0), (0.0, 0.0)), ((-2.0, 1.0), (1.0, 1.0))):
        got = concentration(loc, src, params)
        assert np.shape(got) == ()
        assert float(got) == float(plain_concentration(loc, src, params))


# -- footprint summary --------------------------------------------------------


def test_snr_area_fraction_hand_counted():
    # source at the domain center (4, 4); cells whose center lies within
    # sqrt(2 ln(1/0.6)) ~ 1.0108 of it read f/sigma > 1: exactly the four
    # centers at distance sqrt(0.5)
    g = GridSpec(0.0, 8.0, 0.0, 8.0, 8, 8, 8, 8)
    p = blob(length_scale=1.0, noise_sigma=0.6)
    assert snr_area_fraction(p, g) == pytest.approx(4 / 64)


def test_snr_area_fraction_monotone_in_threshold():
    g = GridSpec(0.0, 16.0, 0.0, 16.0, 16, 16, 16, 16)
    p = blob(length_scale=2.0, noise_sigma=0.25)
    fractions = [snr_area_fraction(p, g, thr) for thr in (0.5, 1.0, 2.0, 3.0)]
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))
    assert fractions[0] > 0


def test_snr_area_fraction_zero_when_noise_swamps_signal():
    g = GridSpec(0.0, 8.0, 0.0, 8.0, 8, 8, 8, 8)
    assert snr_area_fraction(blob(noise_sigma=50.0), g) == 0.0


# -- offset kernel ------------------------------------------------------------


def test_kernel_center_and_one_cell_out_values():
    g = GridSpec(0.0, 8.0, 0.0, 8.0, 8, 8, 8, 8)
    k = squared_snr_kernel(blob(), g)
    # same-resolution grids share centers, so zero offset is on the lattice
    assert k.values[-k.tx0, -k.ty0] == 0.5  # strength^2 / (2 sigma^2)
    one_out = k.values[-k.tx0 + 1, -k.ty0]
    assert one_out == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-15)


def test_kernel_covers_every_measurement_source_pair():
    rng = np.random.default_rng(11)
    cases = [
        (GridSpec(0.0, 12.0, 0.0, 6.0, 12, 6, 6, 12), blob(length_scale=1.7, noise_sigma=0.4)),
        (GridSpec(0.0, 10.0, 0.0, 10.0, 5, 10, 10, 4), advected(wind=(1.0, 0.3))),
    ]
    for g, params in cases:
        k = squared_snr_kernel(params, g)
        meas = g.meas_centers().reshape(-1, 2)
        src = g.src_centers().reshape(-1, 2)
        for _ in range(200):
            a = int(rng.integers(meas.shape[0]))
            s = int(rng.integers(src.shape[0]))
            am, bm = divmod(a, g.b_cells)
            i_s, j_s = divmod(s, g.j_cells)
            tx = k.stride_meas_x * am - k.stride_src_x * i_s
            ty = k.stride_meas_y * bm - k.stride_src_y * j_s
            got = k.values[tx - k.tx0, ty - k.ty0]
            f = concentration(meas[a], src[s], params)
            want = f * f / (2.0 * params.noise_sigma**2)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_kernel_offset_coordinates_match_strides():
    g = GridSpec(0.0, 8.0, 0.0, 8.0, 8, 8, 4, 4)  # source grid twice as coarse
    k = squared_snr_kernel(blob(), g)
    assert (k.stride_meas_x, k.stride_src_x) == (1, 2)
    # offset between measurement cell 0 and source cell 0 along x
    t = k.stride_meas_x * 0 - k.stride_src_x * 0
    offset = t * k.pitch_x + k.shift_x
    assert offset == pytest.approx(g.meas_x_centers()[0] - g.src_x_centers()[0])


@pytest.mark.parametrize(
    "g,params",
    [
        (GridSpec(0.0, 12.0, 0.0, 6.0, 12, 6, 6, 12), blob(length_scale=1.7, noise_sigma=0.4)),
        (GridSpec(0.0, 15.0, 0.0, 9.0, 5, 9, 15, 3), advected(wind=(1.0, 0.3))),
    ],
)
def test_kernel_spectrum_is_transposed_rfft2(g, params):
    k = squared_snr_kernel(params, g)
    want = np.fft.rfft2(k.values, s=k.fft_shape).T
    assert k.spectrum.dtype == np.complex128 and k.spectrum.flags.c_contiguous
    assert np.array_equal(k.spectrum, want)


def test_kernel_zero_strength_is_all_zero():
    g = GridSpec(0.0, 4.0, 0.0, 4.0, 4, 4, 4, 4)
    k = squared_snr_kernel(blob(strength=0.0), g)
    assert np.all(k.values == 0.0)


def test_next_fast_len_equals_scipy():
    from scipy.fft import next_fast_len as scipy_next_fast_len

    for n in range(1, 30001):
        assert next_fast_len(n) == scipy_next_fast_len(n, real=True), n


def test_kernel_rejects_incommensurate_pitches():
    # 4099 and 4096 are coprime, so the pitch ratio needs a denominator
    # larger than the lattice allows
    g = GridSpec(0.0, 1.0, 0.0, 1.0, 4099, 1, 4096, 1)
    with pytest.raises(KernelGridMismatch):
        squared_snr_kernel(blob(), g)
