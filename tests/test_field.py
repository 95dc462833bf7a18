"""Concentration models, grid geometry, and the offset kernel."""
import math
import pickle
import re

import numpy as np
import pytest
from oracles import fraction_strides, plain_concentration, same_bits

from plumeseek.field import (
    ADVECTED,
    BLOB,
    GridSpec,
    KernelGridMismatch,
    PlumeParams,
    _exact_axis,
    check_values,
    concentration,
    concentration_at_sources,
    next_fast_len,
    offset_lattice,
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


def test_grid_center_axes_are_computed_once_read_only_and_survive_pickle():
    # every caller shares the axes, so none may write them; --threads ships
    # grids to worker processes by pickle
    g = GridSpec(-1.0, 3.0, 2.0, 8.0, 3, 5, 4, 2)
    names = ("meas_x_centers", "meas_y_centers", "src_x_centers", "src_y_centers")
    for name in names:
        axis = getattr(g, name)
        assert axis() is axis()
        with pytest.raises(ValueError):
            axis()[0] = 0.0
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and hash(copy) == hash(g)
    for name in names:
        axis = getattr(copy, name)()
        assert same_bits(axis, getattr(g, name)()) and not axis.flags.writeable


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


@pytest.mark.parametrize(
    "kwargs,names",
    [
        ({"length_scale": 1e-170}, ["length_scale"]),  # 2 w^2 underflows to 0
        ({"length_scale": 1e300}, ["length_scale"]),  # 2 w^2 overflows
        ({"noise_sigma": 1e300}, ["noise_sigma"]),
        ({"noise_sigma": 1e-170}, ["noise_sigma"]),
        ({"kind": ADVECTED, "wind": (1.0, 0.0), "sigma0": 1e-170}, ["sigma0"]),
        ({"strength": 1e200}, ["strength", "noise_sigma"]),  # the kernel peak overflows
        ({"strength": 1e150, "noise_sigma": 1e-10}, ["strength", "noise_sigma"]),
    ],
)
def test_plume_params_refuse_widths_and_peaks_out_of_float_range(kwargs, names):
    with pytest.raises(ValueError) as exc:
        PlumeParams(**kwargs)
    assert all(name in str(exc.value) for name in names)


def test_plume_params_keep_the_float_range_edges_that_compute():
    # a tiny width still leaves 2 w^2 > 0, and a tiny strength a kernel peak of 0
    p = PlumeParams(length_scale=1e-150, noise_sigma=1e150, strength=5e-324)
    k = squared_snr_kernel(p, GridSpec(0.0, 4.0, 0.0, 4.0, 4, 4, 4, 4))
    assert np.all(np.isfinite(k.values))


def test_check_values_returns_the_entries_unchanged_as_a_tuple():
    assert check_values("w", [1, 2.5]) == (1, 2.5)
    assert [type(v) for v in check_values("w", [1, 2.5])] == [int, float]  # echoes keep ints
    assert check_values("w", (), low=1) == ()
    assert check_values("w", np.arange(3.0), length=3, low=0.0) == (0.0, 1.0, 2.0)
    assert check_values("w", [1, 2], integer=True, low=1, high=2) == (1, 2)


@pytest.mark.parametrize(
    "values,kwargs,error",
    [
        ("12", {}, "w must be a list of numbers, got '12'"),  # a string is not a list of digits
        (3.0, {}, "w must be a list of numbers, got 3.0"),
        (np.float64(3.0), {}, "w must be a list of numbers"),
        (np.ones((2, 2)), {}, "w must be a list of numbers"),
        ({"x": 1}, {}, "w must be a list of numbers"),
        ([1.0], {"length": 2}, "w must list 2 values, got 1"),
        ([1.0, 2.0, 3.0], {"length": 2}, "w must list 2 values, got 3"),
        ([1.0, "2"], {}, "w must be a finite number, got '2'"),
        ([1.0, float("inf")], {}, "w must be a finite number"),
        ([1, 2.5], {"integer": True}, "w must be an integer, got 2.5"),
        ([1, 0], {"low": 1}, "w must be a finite number >= 1, got 0"),
    ],
)
def test_check_values_refuses_what_is_not_a_list_of_valid_numbers(values, kwargs, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        check_values("w", values, **kwargs)


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
    # the closed forms give the plain expressions' bits for point arrays,
    # broadcast pairs and single points (upwind and abeam included)
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
    x0, y0 = k.stride_src_x * (g.i_cells - 1), k.stride_src_y * (g.j_cells - 1)
    assert k.values[x0, y0] == 0.5  # strength^2 / (2 sigma^2)
    one_out = k.values[x0 + 1, y0]
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
            got = k.values[tx + k.stride_src_x * (g.i_cells - 1),
                           ty + k.stride_src_y * (g.j_cells - 1)]
            f = concentration(meas[a], src[s], params)
            want = f * f / (2.0 * params.noise_sigma**2)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_kernel_offset_coordinates_match_strides():
    g = GridSpec(0.0, 8.0, 0.0, 8.0, 8, 8, 4, 4)  # source grid twice as coarse
    k = squared_snr_kernel(blob(), g)
    assert (k.stride_meas_x, k.stride_src_x) == (1, 2)


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


@pytest.mark.parametrize(
    "g",
    [
        GridSpec(0.0, 12.0, 0.0, 6.0, 12, 6, 12, 6),
        GridSpec(0.0, 16.0, 0.0, 12.0, 16, 12, 8, 6),  # measurement:source pitch 1:2
        GridSpec(0.0, 12.0, 0.0, 12.0, 6, 12, 12, 4),  # 2:1 in x, 1:3 in y
    ],
)
@pytest.mark.parametrize(
    "params",
    [
        blob(length_scale=0.3),  # f's non-zero box is a small part of the table
        blob(strength=1.3, length_scale=1.7),
        blob(strength=0.0),  # no non-zero cell at all
        advected(wind=(1.0, 0.3)),
        advected(wind=(-0.5, -2.0), spread_rate=0.0),
    ],
)
def test_kernel_source_window_is_the_closed_form_bit_for_bit(g, params):
    k = squared_snr_kernel(params, g)
    assert k.exact
    assert (k.f_box == (0, 0, 0, 0)) == (params.strength == 0.0)
    for flat in range(g.n_meas_cells):
        x, y = g.meas_cell_center(flat)
        window, rows, cols = k.source_window(x, y)
        want = concentration_at_sources((x, y), g, params)
        assert same_bits(window, want)
        outside = np.ones(want.shape, dtype=bool)
        outside[rows, cols] = False
        assert not want[outside].any()


def test_kernel_source_window_is_none_off_the_lattice():
    g = GridSpec(0.0, 12.0, 0.0, 6.0, 12, 6, 12, 6)
    k = squared_snr_kernel(blob(), g)
    for x, y in [(0.5, 0.25), (0.25, 0.5), (12.5, 0.5), (-0.5, 0.5), (0.5, 6.5),
                 (math.nan, 0.5), (0.5, -math.inf), (math.nextafter(0.5, 1.0), 0.5)]:
        assert k.source_window(x, y) is None
    for c in g.meas_y_centers().tolist():  # one ulp off every centre, either side, either axis
        for d in (-math.inf, math.inf):
            assert k.source_window(math.nextafter(c, d), c) is None
            assert k.source_window(c, math.nextafter(c, d)) is None
    # pitch 0.1 from x_min 0.1: centre differences round off the lattice offsets
    inexact = GridSpec(0.1, 1.3, 0.1, 0.7, 12, 6, 12, 6)
    k = squared_snr_kernel(blob(length_scale=0.2), inexact)
    assert not k.exact
    for flat in range(inexact.n_meas_cells):
        assert k.source_window(*inexact.meas_cell_center(flat)) is None


def searchsorted_cell(v, centres):
    """The centre lookup source_window made before the dict: searchsorted, then equality."""
    im = int(np.searchsorted(centres, v))
    return im if im < centres.size and centres[im] == v else None


def test_meas_cell_index_finds_what_searchsorted_found():
    # centres -2 .. 2 in x include 0.0 exactly: -0.0 finds it, as it did
    g = GridSpec(-2.5, 2.5, -1.0, 5.0, 5, 3, 5, 3)
    cx, cy = g.meas_x_centers(), g.meas_y_centers()
    assert 0.0 in cx.tolist()
    values = [*cx.tolist(), 0.0, -0.0, math.nan, math.inf, -math.inf, 1.7, 2.5]
    values += [math.nextafter(c, d) for c in cx.tolist() for d in (-math.inf, math.inf)]
    for x in values:
        for y in [cy[1], math.nextafter(cy[1], 9.0), math.nan]:
            want = searchsorted_cell(x, cx), searchsorted_cell(y, cy)
            got = g.meas_cell_index(x, y)
            assert got == (None if None in want else want), (x, y)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_kernel_source_window_at_a_signed_zero_centre_is_the_closed_form(zero):
    g = GridSpec(-2.5, 2.5, -2.5, 2.5, 5, 5, 5, 5)  # a centre at 0.0 on both axes
    for params in (blob(length_scale=0.8), advected(wind=(1.0, 0.5))):
        k = squared_snr_kernel(params, g)
        assert k.exact
        for x, y in [(zero, zero), (zero, 1.0), (-2.0, zero)]:
            window, rows, cols = k.source_window(x, y)
            assert same_bits(window, concentration_at_sources((x, y), g, params))


def test_advected_kernel_stores_f_reversed_with_its_upwind_half_zero():
    # wind along +x: a source downwind of the sensor (offset x <= 0) reads nothing
    g = GridSpec(0.0, 12.0, 0.0, 6.0, 12, 6, 24, 9)  # strides 2:1 in x, 3:2 in y
    params = advected(wind=(1.0, 0.0), spread_rate=0.2)
    k = squared_snr_kernel(params, g)
    (px, qx), (py, qy), _ = offset_lattice(g, params)
    tx = px * (g.a_cells - 1) - np.arange(k.f.shape[0])  # stored row u holds offset tx
    ty = py * (g.b_cells - 1) - np.arange(k.f.shape[1])
    off_x = tx * (g.meas_dx / px) + 0.5 * (g.meas_dx - g.src_dx)
    off_y = ty * (g.meas_dy / py) + 0.5 * (g.meas_dy - g.src_dy)
    offsets = np.stack(np.meshgrid(off_x, off_y, indexing="ij"), axis=-1)
    assert same_bits(k.f, plain_concentration(offsets, (0.0, 0.0), params))
    assert not k.f[off_x <= 0.0].any() and k.f[off_x > 0.0].any()
    x0, x1, y0, y1 = k.f_box
    nz_x = np.flatnonzero(k.f.any(axis=1))
    nz_y = np.flatnonzero(k.f.any(axis=0))
    assert (x0, x1, y0, y1) == (nz_x[0], nz_x[-1] + 1, nz_y[0], nz_y[-1] + 1)
    assert x0 == 0 and x1 == np.count_nonzero(off_x > 0.0)  # the upwind half is cut off
    outside = np.ones(k.f.shape, dtype=bool)
    outside[x0:x1, y0:y1] = False
    assert not k.f[outside].any()
    # values keeps the ascending orientation its spectrum is taken in
    assert same_bits(k.values, (k.f * k.f)[::-1, ::-1] / (2.0 * params.noise_sigma**2))


def exact_axis_oneshot(meas, src, off, p, q, t0):
    """_exact_axis's rule over every pair at once, with no row chunks."""
    t = p * np.arange(meas.size)[:, None] - q * np.arange(src.size)[None, :] - t0
    return np.array_equal((meas[:, None] - src[None, :]).view(np.int64), off[t].view(np.int64))


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2)], ids=["cost-table", "kernel"])
def test_exact_axis_checks_every_row_chunk(p, q):
    # 140 measurement centres of pitch 1 span three 64-row chunks; the sources
    # have pitch q, and every difference is a dyadic value, so exact
    n_meas, n_src = 140, 140 // q
    meas = np.arange(n_meas) + 0.5
    src = q * np.arange(n_src) + 0.5 * q
    t0 = -q * (n_src - 1)
    off = np.arange(t0, p * (n_meas - 1) + 1) + 0.5 - 0.5 * q  # off[t - t0] = t + 0.5 - q/2
    assert _exact_axis(meas, src, off, p, q, t0) and exact_axis_oneshot(meas, src, off, p, q, t0)
    t = p * np.arange(n_meas)[:, None] - q * np.arange(n_src)[None, :] - t0
    first_reader = [int(np.flatnonzero((t == k).any(axis=1))[0]) for k in range(off.size)]
    for first_row in (64, 128):  # an offset that only rows from first_row on read
        idx = first_reader.index(first_row)
        bumped = off.copy()
        bumped[idx] = np.nextafter(bumped[idx], np.inf)  # one ulp
        assert _exact_axis(meas[:first_row], src, bumped, p, q, t0)  # the rows above miss it
        assert not exact_axis_oneshot(meas, src, bumped, p, q, t0)
        assert not _exact_axis(meas, src, bumped, p, q, t0)


def test_next_fast_len_equals_scipy():
    from scipy.fft import next_fast_len as scipy_next_fast_len

    for n in range(1, 30001):
        assert next_fast_len(n) == scipy_next_fast_len(n, real=True), n


def test_lattice_strides_equal_the_float_pitch_ratio_rule():
    # the cell counts fix the pitch ratio n_src / n_meas exactly; the float
    # rule reached the same strides, and refused the same grids, from the pitches
    counts = [*range(1, 41), 63, 64, 127, 128, 255, 256, 512, 4095, 4096, 4097, 4099, 8192, 9000]
    extents = [(0.0, 1.0), (0.0, 64.0), (0.1, 1.3), (-3.7, 512.0), (0.0, 1e-3), (5.0, 7.3)]
    for x_min, x_max in extents:
        for n_meas in counts:
            for n_src in counts:
                g = GridSpec(x_min, x_max, 0.0, 1.0, n_meas, 1, n_src, 1)
                want = fraction_strides(g.meas_dx, g.src_dx)
                try:
                    got = offset_lattice(g, blob())[0]
                except KernelGridMismatch:
                    got = None
                assert got == want, (x_min, x_max, n_meas, n_src)


def test_offset_lattice_refuses_a_kernel_sum_that_overflows():
    # peak 5e307 nats: finite, but not times the 15 x 15 lattice
    g = GridSpec(0.0, 8.0, 0.0, 8.0, 8, 8, 8, 8)
    with pytest.raises(ValueError, match="plume.strength.*plume.noise_sigma"):
        squared_snr_kernel(blob(strength=1e154, length_scale=3.0), g)
    k = squared_snr_kernel(blob(strength=1e153, length_scale=3.0), g)
    assert np.isfinite(k.spectrum).all()


def test_kernel_rejects_incommensurate_pitches():
    # 4099 and 4096 are coprime, so the pitch ratio needs a denominator
    # larger than the lattice allows
    g = GridSpec(0.0, 1.0, 0.0, 1.0, 4099, 1, 4096, 1)
    with pytest.raises(KernelGridMismatch):
        squared_snr_kernel(blob(), g)
