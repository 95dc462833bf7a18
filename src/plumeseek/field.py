"""Plume concentration models and grid geometry.

A stationary source at (xs, ys) produces a deterministic mean concentration
field f(x, y). Sensors read f plus Gaussian noise. Everything downstream
(likelihoods, score maps) is built on top of the two model shapes here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from numbers import Integral, Real

import numpy as np

BLOB = "isotropic-blob"
ADVECTED = "advected-plume"

# The offset lattice embeds one source pitch as at most this many fine steps.
_MAX_SRC_STRIDE = 4096
_FLOAT_MAX = float(np.finfo(float).max)  # a Python float: exact against huge ints


class KernelGridMismatch(ValueError):
    """Raised when a kernel's offset lattice cannot serve the requested grids."""


def check_number(name: str, value, low=-np.inf, high=np.inf, above=False, integer=False):
    """value if it is a valid setting, else raise a ValueError that names the setting.

    The one rule behind every numeric setting: an Integral (integer=True) or
    a Real, never a bool (JSON's true/false) or a string, finite, and in
    [low, high], or in (low, high] when above is set. NumPy numbers pass.
    """
    if (
        isinstance(value, Integral if integer else Real) and not isinstance(value, bool)
        and abs(value) <= _FLOAT_MAX  # false for NaN, +-inf and ints too large for a float
        and (low < value if above else low <= value) and value <= high
    ):
        return value
    bounds = [f"{'>' if above else '>='} {low}"] if low > -np.inf else []
    bounds += [f"<= {high}"] if high < np.inf else []
    rule = " ".join(["an integer" if integer else "a finite number", " and ".join(bounds)])
    raise ValueError(f"{name} must be {rule.rstrip()}, got {value!r}")


def check_values(name: str, values, length=None, **rule) -> tuple:
    """The entries of a valid list setting as a tuple, else raise a ValueError naming the setting.

    The one rule behind every list-valued setting: a tuple, list or 1-D
    array, never a string or a scalar, with exactly length entries when
    length is given, each entry passing check_number(name, entry, **rule).
    Entries are returned unchanged, so an echoed config keeps its integers.
    """
    array = isinstance(values, np.ndarray) and values.ndim == 1
    if not (array or isinstance(values, (tuple, list))):
        raise ValueError(f"{name} must be a list of numbers, got {values!r}")
    if length is not None and len(values) != length:
        raise ValueError(f"{name} must list {length} values, got {len(values)}")
    return tuple(check_number(name, value, **rule) for value in values)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular world with two uniform cell grids laid over it.

    The measurement grid (a_cells x b_cells) enumerates candidate sensing
    locations; the source grid (i_cells x j_cells) enumerates source
    hypotheses. Arrays over either grid are indexed [ix, iy] and flattened
    row-major, so flat index = ix * n_cols + iy. Cell centers sit at
    x_min + (ix + 0.5) * dx.
    """

    x_min: float = 0.0
    x_max: float = 64.0
    y_min: float = 0.0
    y_max: float = 64.0
    a_cells: int = 64
    b_cells: int = 64
    i_cells: int = 64
    j_cells: int = 64

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max"):
            check_number(name, getattr(self, name))
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid extent must be positive in both axes")
        if not self.diagonal * self.diagonal < np.inf:  # every squared distance stays finite
            raise ValueError(
                f"grid x_min, x_max, y_min and y_max must keep the squared diagonal finite, "
                f"got x {self.x_min!r}..{self.x_max!r} and y {self.y_min!r}..{self.y_max!r}"
            )
        for name in ("a_cells", "b_cells", "i_cells", "j_cells"):
            check_number(name, getattr(self, name), low=1, integer=True)

    # -- pitches ------------------------------------------------------------

    @property
    def meas_dx(self) -> float:
        return (self.x_max - self.x_min) / self.a_cells

    @property
    def meas_dy(self) -> float:
        return (self.y_max - self.y_min) / self.b_cells

    @property
    def src_dx(self) -> float:
        return (self.x_max - self.x_min) / self.i_cells

    @property
    def src_dy(self) -> float:
        return (self.y_max - self.y_min) / self.j_cells

    @property
    def diagonal(self) -> float:
        return float(np.hypot(self.x_max - self.x_min, self.y_max - self.y_min))

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    # -- cell centers ---------------------------------------------------------

    @cached_property
    def _center_axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The measurement x, y and source x, y center axes, computed once, read-only."""
        axes = tuple(
            lo + (np.arange(n) + 0.5) * pitch
            for lo, n, pitch in (
                (self.x_min, self.a_cells, self.meas_dx),
                (self.y_min, self.b_cells, self.meas_dy),
                (self.x_min, self.i_cells, self.src_dx),
                (self.y_min, self.j_cells, self.src_dy),
            )
        )
        for axis in axes:
            axis.setflags(write=False)
        return axes

    @cached_property
    def _center_index(self) -> tuple[dict, dict]:
        """Measurement x and y centre value -> its column; the first of equal centres wins."""
        return tuple(
            dict(zip(axis[::-1].tolist(), range(axis.size - 1, -1, -1)))
            for axis in self._center_axes[:2]
        )

    def __getstate__(self):
        # a pickled grid carries its settings only; unpickled arrays would be writable
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def meas_x_centers(self) -> np.ndarray:
        return self._center_axes[0]

    def meas_y_centers(self) -> np.ndarray:
        return self._center_axes[1]

    def src_x_centers(self) -> np.ndarray:
        return self._center_axes[2]

    def src_y_centers(self) -> np.ndarray:
        return self._center_axes[3]

    def meas_centers(self) -> np.ndarray:
        """All measurement cell centers, shape (a_cells, b_cells, 2)."""
        xx, yy = np.meshgrid(self.meas_x_centers(), self.meas_y_centers(), indexing="ij")
        return np.stack([xx, yy], axis=-1)

    def src_centers(self) -> np.ndarray:
        """All source cell centers, shape (i_cells, j_cells, 2)."""
        xx, yy = np.meshgrid(self.src_x_centers(), self.src_y_centers(), indexing="ij")
        return np.stack([xx, yy], axis=-1)

    def meas_cell_index(self, x, y) -> tuple[int, int] | None:
        """(ix, iy) of the measurement cell centred at (x, y) exactly, else None.

        A dict lookup on the centre values: a value equal to a centre finds
        it (-0.0 finds a 0.0 centre), and NaN or any other value finds none.
        """
        ix = self._center_index[0].get(float(x))
        iy = self._center_index[1].get(float(y))
        return None if ix is None or iy is None else (ix, iy)

    def meas_cell_center(self, flat_index: int) -> tuple[float, float]:
        ix, iy = divmod(int(flat_index), self.b_cells)
        if not (0 <= ix < self.a_cells):
            raise IndexError(f"measurement cell {flat_index} out of range")
        return (float(self.meas_x_centers()[ix]), float(self.meas_y_centers()[iy]))

    def src_cell_center(self, flat_index: int) -> tuple[float, float]:
        ix, iy = divmod(int(flat_index), self.j_cells)
        if not (0 <= ix < self.i_cells):
            raise IndexError(f"source cell {flat_index} out of range")
        return (float(self.src_x_centers()[ix]), float(self.src_y_centers()[iy]))

    @property
    def n_src_cells(self) -> int:
        return self.i_cells * self.j_cells

    @property
    def n_meas_cells(self) -> int:
        return self.a_cells * self.b_cells


@dataclass(frozen=True)
class PlumeParams:
    """Shape parameters for a concentration model plus sensor noise.

    kind selects the model. The isotropic blob uses strength and
    length_scale only. The advected plume uses wind, sigma0 and
    spread_rate; its cross-wind width grows linearly with downwind
    distance and there is no upwind signal at all. Every field is checked
    whatever the kind; kind adds only that an advected wind is nonzero.
    2 w^2 must be a positive finite float for each width w (length_scale,
    sigma0, noise_sigma), and the kernel peak strength^2 / (2 noise_sigma^2)
    finite, so no closed form divides by 0 or overflows.
    """

    kind: str = BLOB
    strength: float = 1.0          # peak emission, normalizes max f
    length_scale: float = 1.0      # blob radius scale
    wind: tuple[float, float] = (0.0, 0.0)
    sigma0: float = 1.0            # advected: width at the source
    spread_rate: float = 0.0       # advected: width growth per unit downwind
    noise_sigma: float = 1.0       # sensor noise stdev

    def __post_init__(self):
        if self.kind not in (BLOB, ADVECTED):
            raise ValueError(f"unknown plume kind {self.kind!r}")
        for name in ("strength", "spread_rate"):
            check_number(name, getattr(self, name), low=0.0)
        for name in ("length_scale", "sigma0", "noise_sigma"):
            w = float(check_number(name, getattr(self, name), low=0.0, above=True))
            if not 0.0 < 2.0 * w * w < np.inf:  # a closed form divides by it
                raise ValueError(f"{name} must keep 2 {name}^2 a positive finite float, got {w!r}")
        if not self.kernel_peak < np.inf:
            raise ValueError(
                f"strength^2 / (2 noise_sigma^2) must be finite, got strength "
                f"{float(self.strength)!r} and noise_sigma {float(self.noise_sigma)!r}"
            )
        wx, wy = (float(w) for w in check_values("wind", self.wind, length=2))
        object.__setattr__(self, "wind", (wx, wy))
        if self.kind == ADVECTED and wx == 0.0 and wy == 0.0:
            raise ValueError("advected plume needs a nonzero wind vector")

    @property
    def kernel_peak(self) -> float:
        """The squared-SNR kernel's peak strength^2 / (2 noise_sigma^2), in nats."""
        s, sigma = float(self.strength), float(self.noise_sigma)
        return s * s / (2.0 * sigma * sigma)


def _concentration_at_offset(dx, dy, params: PlumeParams):
    """Mean concentration for displacement (sensor - source). Vectorized."""
    if params.kind == BLOB:
        r2 = dx * dx + dy * dy
        return params.strength * np.exp(-r2 / (2.0 * params.length_scale**2))
    # Advected: rotate into the wind frame; the signal is 0 upwind (down <= 0)
    # and its cross-wind width grows linearly downwind.
    wx, wy = params.wind
    wnorm = float(np.hypot(wx, wy))
    ux, uy = wx / wnorm, wy / wnorm
    down = dx * ux + dy * uy
    cross = -dx * uy + dy * ux
    width = params.sigma0 + params.spread_rate * np.maximum(down, 0.0)
    shape = params.strength * (params.sigma0 / width) * np.exp(
        -(cross * cross) / (2.0 * width * width)
    )
    return np.where(down > 0.0, shape, 0.0)


def concentration(loc, source, params: PlumeParams):
    """Mean concentration read at loc for a source at source.

    loc and source are points or arrays of points with the coordinate pair on
    the last axis; they broadcast against each other. Depends only on the
    displacement loc - source, so the field is translation invariant.
    """
    loc = np.asarray(loc, dtype=float)
    source = np.asarray(source, dtype=float)
    offset = loc - source
    return _concentration_at_offset(offset[..., 0], offset[..., 1], params)


def concentration_at_sources(loc, grid: GridSpec, params: PlumeParams) -> np.ndarray:
    """Mean concentration read at loc for a source at every source-cell center, (I, J).

    Equal to concentration(loc, grid.src_centers(), params), bit for bit, but
    builds the displacements from the two center axes instead of an (I, J, 2)
    array of points.
    """
    x, y = np.asarray(loc, dtype=float)
    dx = (x - grid.src_x_centers())[:, None]
    dy = (y - grid.src_y_centers())[None, :]
    return _concentration_at_offset(dx, dy, params)


def snr_area_fraction(params: PlumeParams, grid: GridSpec, threshold: float = 1.0) -> float:
    """Fraction of measurement cells where f / noise_sigma exceeds threshold.

    Evaluated for a source placed at the domain center; summarizes how much
    of the search area a single well-placed sensor reading can see.
    """
    f = concentration(grid.meas_centers(), np.array(grid.center), params)
    return float(np.count_nonzero(f / params.noise_sigma > threshold)) / grid.n_meas_cells


def _axis_strides(n_src: int, n_meas: int) -> tuple[int, int]:
    """Strides (p, q) with meas_pitch/src_pitch == p/q in lowest terms, else raise.

    Two grids over one extent have pitch ratio n_src/n_meas exactly.
    """
    d = math.gcd(n_src, n_meas)
    p, q = n_src // d, n_meas // d
    if q > _MAX_SRC_STRIDE:
        raise KernelGridMismatch(
            f"measurement/source pitch ratio {p}/{q} needs a source stride above "
            f"{_MAX_SRC_STRIDE}; offset lattice cannot cover all displacements"
        )
    return p, q


def offset_lattice(grid: GridSpec, params: PlumeParams):
    """((px, qx), (py, qy), fft_shape) of the offset lattice serving grid and params, else raise.

    The lattice spans p*(A-1) + q*(I-1) + 1 offsets in x (same in y), and
    correlate reads convolution indices q*(I-1) ... q*(I-1) + p*(A-1) only, so
    a circular convolution at the next fast size wraps nothing it reads.
    Every transform sums at most sx * sy terms no larger than the kernel peak
    (the probabilities sum to 1): ValueError if that product is not finite.
    """
    px, qx = _axis_strides(grid.i_cells, grid.a_cells)
    py, qy = _axis_strides(grid.j_cells, grid.b_cells)
    sx = next_fast_len(px * (grid.a_cells - 1) + qx * (grid.i_cells - 1) + 1)
    sy = next_fast_len(py * (grid.b_cells - 1) + qy * (grid.j_cells - 1) + 1)
    if not params.kernel_peak * (sx * sy) < np.inf:
        raise ValueError(
            f"plume.strength^2 / (2 plume.noise_sigma^2) times the {sx}x{sy} offset-lattice "
            f"FFT cells must be finite, got strength {float(params.strength)!r} and "
            f"noise_sigma {float(params.noise_sigma)!r}"
        )
    return (px, qx), (py, qy), (sx, sy)


@dataclass(frozen=True)
class OffsetKernel:
    """Squared-SNR kernel tabulated on the lattice of sensor-source offsets.

    values[tx + qx * (I - 1), ty + qy * (J - 1)] holds f(offset)^2 / (2 sigma^2)
    in nats at the x offset tx * (grid.meas_dx / px) + (grid.meas_dx - grid.src_dx) / 2
    (same in y), where tx = px * ix - qx * is for measurement column ix and
    source column is, px = stride_meas_x, qx = stride_src_x and I = i_cells:
    the origin tx = 0 sits at qx * (I - 1) (qy * (J - 1) in y). Strides
    record how each grid embeds into the common fine lattice. fft_shape (sx,
    sy) is the smallest alias-free fast FFT size (see offset_lattice), and
    spectrum is the transposed spectrum of values at that size,
    rfft2(values, s=fft_shape).T, a contiguous (sy // 2 + 1, sx) array (see
    transposed_rfft2), computed once so correlate does not redo it.

    f is the plume's mean concentration on the same lattice, values before
    squaring, stored reversed on both axes: f[px * (A - 1) - tx, ...] holds
    the offset tx, so measurement column ix meets source column is at
    px * (A - 1 - ix) + qx * is (A = a_cells; the same in y), and each
    reading's window is a forward view with source stride qx. params is the
    plume f was tabulated for. f_box (x0, x1, y0, y1) bounds the stored f's
    non-zero cells, half-open; (0, 0, 0, 0) when there are none. exact is
    true when every lattice offset, as squared_snr_kernel computes it, is
    meas_x_centers()[ix] - src_x_centers()[is] (and the same in y), bit for
    bit, for every measurement/source pair; only then does source_window
    read f.
    """

    values: np.ndarray
    stride_meas_x: int
    stride_src_x: int
    stride_meas_y: int
    stride_src_y: int
    grid: GridSpec = field(repr=False)
    spectrum: np.ndarray = field(repr=False, compare=False)
    fft_shape: tuple[int, int] = field(repr=False, compare=False)
    f: np.ndarray = field(repr=False, compare=False)
    params: PlumeParams = field(repr=False)
    f_box: tuple[int, int, int, int] = field(repr=False, compare=False)
    exact: bool = field(repr=False, compare=False)

    def check(self, grid: GridSpec, params: PlumeParams | None = None) -> None:
        """Raise KernelGridMismatch unless tabulated for grid and, when given, params."""
        if self.grid != grid or (params is not None and self.params != params):
            raise KernelGridMismatch("kernel was tabulated for another grid or plume")

    def correlate(self, probs: np.ndarray) -> np.ndarray:
        """Squared-SNR score in nats at every measurement cell, (a_cells, b_cells).

        probs, the posterior on the source grid, is embedded on the fine
        lattice, circularly convolved with values at fft_shape and sampled at
        the measurement centers, column im at p * im + q * (n_src - 1), the
        kernel's origin. The transforms are rfft2 and irfft2's own 1-D
        transforms, transposed as spectrum is, so the result is irfft2's bit
        for bit; the last runs only for the columns the centers read.
        """
        g = self.grid
        qx, qy = self.stride_src_x, self.stride_src_y
        px, py = self.stride_meas_x, self.stride_meas_y
        x0, y0 = qx * (g.i_cells - 1), qy * (g.j_cells - 1)  # the kernel's origin
        up = np.zeros((x0 + 1, y0 + 1))
        up[::qx, ::qy] = probs
        spec = transposed_rfft2(up, self.fft_shape)
        # each grid-sized array is released as soon as the next is built, so
        # the inverse transform does not hold all four at once (peak memory)
        del up
        spec *= self.spectrum
        np.fft.ifft(spec, axis=1, out=spec)
        cols = np.ascontiguousarray(spec[:, x0 : x0 + px * (g.a_cells - 1) + 1 : px].T)
        del spec
        vals = np.fft.irfft(cols, self.fft_shape[1], axis=1)
        return vals[:, y0 : y0 + py * (g.b_cells - 1) + 1 : py]

    def source_window(self, x: float, y: float):
        """f over the source grid for a reading at (x, y), read off the table, or None.

        When (x, y) is a measurement-cell centre exactly (GridSpec.meas_cell_index)
        and the kernel is exact, returns (window, rows, cols). window is an
        (i_cells, j_cells) forward strided view of f equal, bit for bit, to
        concentration_at_sources((x, y), grid, params); it is 0.0 outside
        window[rows, cols], the source cells whose offsets meet f_box. Any
        other reading returns None and takes the closed form.
        """
        if not self.exact:
            return None
        g = self.grid
        cell = g.meas_cell_index(x, y)
        if cell is None:
            return None
        x0, x1, y0, y1 = self.f_box
        xs, rows = _window_axis(cell[0], g.a_cells, self.stride_meas_x, self.stride_src_x,
                                g.i_cells, x0, x1)
        ys, cols = _window_axis(cell[1], g.b_cells, self.stride_meas_y, self.stride_src_y,
                                g.j_cells, y0, y1)
        return self.f[xs, ys], rows, cols


def _window_axis(im: int, n_meas: int, p: int, q: int, n_src: int, lo: int, hi: int):
    """(table slice, source slice) of one axis for a reading at measurement column im.

    Source column s meets im at stored table index b + q*s with
    b = p*(n_meas - 1 - im): the table slice runs over s = 0 .. n_src - 1,
    and the source slice holds the s whose index lies in [lo, hi).
    """
    b = p * (n_meas - 1 - im)
    s_lo = max(0, -((b - lo) // q))
    s_hi = max(s_lo, min(n_src, (hi - 1 - b) // q + 1))
    return slice(b, b + q * (n_src - 1) + 1, q), slice(s_lo, s_hi)


def _exact_axis(meas, src, off, p: int, q: int, t0: int) -> bool:
    """True when off[p*im - q*is - t0] is meas[im] - src[is], bit for bit, for every pair.

    Checked 64 measurement rows at a time, so the temporaries stay bounded.
    """
    cols = q * np.arange(src.size) + t0
    for k in range(0, meas.size, 64):
        t = p * np.arange(k, min(k + 64, meas.size))[:, None] - cols
        diff = meas[k : k + 64, None] - src
        if not np.array_equal(diff.view(np.int64), off[t].view(np.int64)):
            return False
    return True


def next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n (n >= 1): a size the real FFT transforms fast.

    The same sizes as `scipy.fft.next_fast_len(n, real=True)`, searched over
    every 3^b 5^c below the next power of two.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p2 = 1 << (-(-n // p35) - 1).bit_length()  # smallest 2^a with 2^a p35 >= n
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


def transposed_rfft2(a: np.ndarray, fft_shape: tuple[int, int]) -> np.ndarray:
    """rfft2(a, s=fft_shape).T as a contiguous (sy // 2 + 1, sx) complex array.

    The same 1-D transforms as rfft2, in a cache-friendly order: the real
    transform runs over a's own rows only, its result is copied transposed
    into a zero-padded work array, and the complex transform over the
    padded x axis runs in place along that array's contiguous last axis.
    """
    sx, sy = fft_shape
    rows = np.fft.rfft(a, sy, axis=1)
    spec = np.zeros((sy // 2 + 1, sx), dtype=complex)
    spec[:, : a.shape[0]] = rows.T
    return np.fft.fft(spec, axis=1, out=spec)


def squared_snr_kernel(params: PlumeParams, grid: GridSpec) -> OffsetKernel:
    """Tabulate k(d) = f(d)^2 / (2 sigma^2) over every sensor-source offset.

    The lattice spans all displacements (measurement center - source center),
    including sub-pitch shifts, from the most negative, so the origin sits at
    q * (n_src - 1) on each axis. The concentration f on the lattice is kept,
    tabulated in its reversed stored orientation (see OffsetKernel), with its
    non-zero box and its exactness flag, so that on-lattice readings take
    their likelihood from this one evaluation (see source_window).
    """
    (px, qx), (py, qy), fft_shape = offset_lattice(grid, params)
    fine_dx = grid.meas_dx / px
    fine_dy = grid.meas_dy / py
    # displacement = fine_pitch * t + (meas_pitch - src_pitch)/2 with
    # t = p*im - q*is; ranges follow from im in [0, A) and is in [0, I).
    shift_x = 0.5 * (grid.meas_dx - grid.src_dx)
    shift_y = 0.5 * (grid.meas_dy - grid.src_dy)
    tx0 = -qx * (grid.i_cells - 1)
    ty0 = -qy * (grid.j_cells - 1)
    tx = np.arange(tx0, px * (grid.a_cells - 1) + 1)
    ty = np.arange(ty0, py * (grid.b_cells - 1) + 1)
    off_x = tx * fine_dx + shift_x
    off_y = ty * fine_dy + shift_y
    # f in its stored orientation, offsets descending; values ascending
    f = _concentration_at_offset(off_x[::-1, None], off_y[None, ::-1], params)
    ascending = f[::-1, ::-1]
    values = np.multiply(ascending, ascending, out=np.empty(ascending.shape))
    values /= 2.0 * params.noise_sigma**2
    nz_x = np.flatnonzero(f.any(axis=1))
    nz_y = np.flatnonzero(f.any(axis=0))
    f_box = (0, 0, 0, 0)
    if nz_x.size:
        f_box = (int(nz_x[0]), int(nz_x[-1]) + 1, int(nz_y[0]), int(nz_y[-1]) + 1)
    return OffsetKernel(
        values=values,
        stride_meas_x=px,
        stride_src_x=qx,
        stride_meas_y=py,
        stride_src_y=qy,
        grid=grid,
        spectrum=transposed_rfft2(values, fft_shape),
        fft_shape=fft_shape,
        f=f,
        params=params,
        f_box=f_box,
        exact=_exact_axis(grid.meas_x_centers(), grid.src_x_centers(), off_x, px, qx, tx0)
        and _exact_axis(grid.meas_y_centers(), grid.src_y_centers(), off_y, py, qy, ty0),
    )
