"""Plume concentration models and grid geometry.

A stationary source at (xs, ys) produces a deterministic mean concentration
field f(x, y). Sensors read f plus Gaussian noise. Everything downstream
(likelihoods, score maps) is built on top of the two model shapes here.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral

import numpy as np

BLOB = "isotropic-blob"
ADVECTED = "advected-plume"

# Commensurability check for the measurement/source lattices: the pitch ratio
# must be a small rational or the offset lattice cannot cover all pairs.
_MAX_PITCH_DENOMINATOR = 4096
_PITCH_RTOL = 1e-9


class KernelGridMismatch(ValueError):
    """Raised when a kernel's offset lattice cannot serve the requested grids."""


def is_integer(value) -> bool:
    """True for an integer value that is not a bool.

    The check behind every integer setting: a float such as 16.0 and JSON's
    true/false are rejected, NumPy integers are accepted.
    """
    return isinstance(value, Integral) and not isinstance(value, bool)


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
        if not np.all(np.isfinite((self.x_min, self.x_max, self.y_min, self.y_max))):
            raise ValueError("grid extent must be finite")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid extent must be positive in both axes")
        for n in (self.a_cells, self.b_cells, self.i_cells, self.j_cells):
            if not is_integer(n) or n < 1:
                raise ValueError("cell counts must be positive integers")

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

    def meas_x_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.a_cells) + 0.5) * self.meas_dx

    def meas_y_centers(self) -> np.ndarray:
        return self.y_min + (np.arange(self.b_cells) + 0.5) * self.meas_dy

    def src_x_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.i_cells) + 0.5) * self.src_dx

    def src_y_centers(self) -> np.ndarray:
        return self.y_min + (np.arange(self.j_cells) + 0.5) * self.src_dy

    def meas_centers(self) -> np.ndarray:
        """All measurement cell centers, shape (a_cells, b_cells, 2)."""
        xx, yy = np.meshgrid(self.meas_x_centers(), self.meas_y_centers(), indexing="ij")
        return np.stack([xx, yy], axis=-1)

    def src_centers(self) -> np.ndarray:
        """All source cell centers, shape (i_cells, j_cells, 2)."""
        xx, yy = np.meshgrid(self.src_x_centers(), self.src_y_centers(), indexing="ij")
        return np.stack([xx, yy], axis=-1)

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
    distance and there is no upwind signal at all.
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
        if not 0.0 <= self.strength < np.inf:
            raise ValueError("strength must be finite and >= 0")
        if not 0.0 < self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and > 0")
        wx, wy = self.wind
        object.__setattr__(self, "wind", (float(wx), float(wy)))
        if self.kind == BLOB and not 0.0 < self.length_scale < np.inf:
            raise ValueError("length_scale must be finite and > 0")
        if self.kind == ADVECTED:
            if not 0.0 < self.sigma0 < np.inf:
                raise ValueError("sigma0 must be finite and > 0")
            if not 0.0 <= self.spread_rate < np.inf:
                raise ValueError("spread_rate must be finite and >= 0")
            if not np.all(np.isfinite(self.wind)):
                raise ValueError("wind must be finite")
            if wx == 0.0 and wy == 0.0:
                raise ValueError("advected plume needs a nonzero wind vector")


def _wind_unit(params: PlumeParams) -> tuple[float, float]:
    """Unit vector (ux, uy) along an advected plume's wind."""
    wx, wy = params.wind
    wnorm = float(np.hypot(wx, wy))
    return wx / wnorm, wy / wnorm


def _concentration_at_offset(dx, dy, params: PlumeParams):
    """Mean concentration for displacement (sensor - source). Vectorized.

    Each broadcast-size intermediate is allocated once and then updated in
    place. Every step keeps the closed form's operands and grouping (a
    product only swaps its two factors, which is exact), so the result is
    the same to the last bit as the plain expression.
    """
    dx = np.asarray(dx, dtype=float)
    dy = np.asarray(dy, dtype=float)
    if params.kind == BLOB:
        # strength * exp(-(dx^2 + dy^2) / (2 length_scale^2))
        r2 = np.asarray(dx * dx + dy * dy)  # asarray: a 0-d array, not a scalar, for points
        np.negative(r2, out=r2)
        r2 /= 2.0 * params.length_scale**2
        np.exp(r2, out=r2)
        r2 *= params.strength
        return r2
    # Advected: rotate into the wind frame; downwind component must be > 0.
    # width = sigma0 + spread_rate * max(down, 0)
    # f = strength * (sigma0 / width) * exp(-cross^2 / (2 width width)), 0 upwind
    ux, uy = _wind_unit(params)
    down = np.asarray(dx * ux + dy * uy)
    cross = np.asarray(-dx * uy + dy * ux)
    upwind = ~(down > 0.0)
    width = np.maximum(down, 0.0, out=down)
    width *= params.spread_rate
    width += params.sigma0
    cross *= cross
    np.negative(cross, out=cross)
    den = 2.0 * width
    den *= width
    cross /= den
    np.exp(cross, out=cross)
    shape = np.divide(params.sigma0, width, out=width)
    shape *= params.strength
    shape *= cross
    np.copyto(shape, 0.0, where=upwind)
    return shape


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
    array of points. For the advected plume the closed form runs only on the
    block of source rows holding a cell the sensor is downwind of; every other
    row is upwind and reads the closed form's 0.0. Along a row the downwind
    component dx*ux + dy*uy is monotone in the column, rounding included, so
    its two end columns, computed with the closed form's own expression,
    decide whether the row holds a downwind cell.
    """
    x, y = np.asarray(loc, dtype=float)
    dx = (x - grid.src_x_centers())[:, None]
    dy = (y - grid.src_y_centers())[None, :]
    if params.kind == BLOB:
        return _concentration_at_offset(dx, dy, params)
    ux, uy = _wind_unit(params)
    ends = dx * ux + dy[:, [0, -1]] * uy
    rows = np.flatnonzero((ends > 0.0).any(axis=1))
    out = np.zeros((grid.i_cells, grid.j_cells))
    if rows.size:
        lo, hi = rows[0], rows[-1] + 1
        out[lo:hi] = _concentration_at_offset(dx[lo:hi], dy, params)
    return out


def snr_area_fraction(params: PlumeParams, grid: GridSpec, threshold: float = 1.0) -> float:
    """Fraction of measurement cells where f / noise_sigma exceeds threshold.

    Evaluated for a source placed at the domain center; summarizes how much
    of the search area a single well-placed sensor reading can see.
    """
    f = concentration(grid.meas_centers(), np.array(grid.center), params)
    return float(np.count_nonzero(f / params.noise_sigma > threshold)) / grid.n_meas_cells


def _axis_strides(meas_pitch: float, src_pitch: float) -> tuple[int, int]:
    """Integer strides (p, q) with meas_pitch/src_pitch == p/q, else raise."""
    ratio = meas_pitch / src_pitch
    frac = Fraction(ratio).limit_denominator(_MAX_PITCH_DENOMINATOR)
    if frac.numerator <= 0 or abs(float(frac) - ratio) > _PITCH_RTOL * ratio:
        raise KernelGridMismatch(
            f"measurement/source pitch ratio {ratio} is not a small rational; "
            "offset lattice cannot cover all displacements"
        )
    return frac.numerator, frac.denominator


@dataclass(frozen=True)
class OffsetKernel:
    """Squared-SNR kernel tabulated on the lattice of sensor-source offsets.

    values[tx - tx0, ty - ty0] holds f(offset)^2 / (2 sigma^2) in nats at the
    x offset tx * pitch_x + shift_x (same per axis in y), where
    tx = stride_meas_x * ix - stride_src_x * is for measurement column ix and
    source column is. Strides record how each grid embeds into the common
    fine lattice. fft_shape (sx, sy) is the smallest alias-free fast FFT
    size (see squared_snr_kernel), and spectrum is the transposed spectrum
    of values at that size, rfft2(values, s=fft_shape).T, a contiguous
    (sy // 2 + 1, sx) array (see transposed_rfft2), computed once so
    correlate does not redo it.
    """

    values: np.ndarray
    tx0: int
    ty0: int
    pitch_x: float
    pitch_y: float
    shift_x: float
    shift_y: float
    stride_meas_x: int
    stride_src_x: int
    stride_meas_y: int
    stride_src_y: int
    grid: GridSpec = field(repr=False)
    spectrum: np.ndarray = field(repr=False, compare=False)
    fft_shape: tuple[int, int] = field(repr=False, compare=False)

    def correlate(self, probs: np.ndarray) -> np.ndarray:
        """Squared-SNR score in nats at every measurement cell, (a_cells, b_cells).

        probs, the posterior on the source grid, is embedded on the fine
        lattice, circularly convolved with values at fft_shape and sampled at
        the measurement centers. The transforms are rfft2 and irfft2's own
        1-D transforms, transposed as spectrum is, so the result is irfft2's
        bit for bit; the last runs only for the columns the centers read.
        """
        g = self.grid
        qx, qy = self.stride_src_x, self.stride_src_y
        px, py = self.stride_meas_x, self.stride_meas_y
        up = np.zeros((qx * (g.i_cells - 1) + 1, qy * (g.j_cells - 1) + 1))
        up[::qx, ::qy] = probs
        spec = transposed_rfft2(up, self.fft_shape)
        spec *= self.spectrum
        np.fft.ifft(spec, axis=1, out=spec)
        # measurement column im reads convolution index p*im - tx0
        x0, y0 = -self.tx0, -self.ty0
        cols = np.ascontiguousarray(spec[:, x0 : x0 + px * (g.a_cells - 1) + 1 : px].T)
        vals = np.fft.irfft(cols, self.fft_shape[1], axis=1)
        return vals[:, y0 : y0 + py * (g.b_cells - 1) + 1 : py]


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
    including sub-pitch shifts when the two grids differ in resolution.
    """
    px, qx = _axis_strides(grid.meas_dx, grid.src_dx)
    py, qy = _axis_strides(grid.meas_dy, grid.src_dy)
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
    f = _concentration_at_offset(off_x[:, None], off_y[None, :], params)
    values = (f * f) / (2.0 * params.noise_sigma**2)
    # correlate embeds the posterior on the fine lattice with the source
    # strides and reads only convolution indices q*(I-1) ... q*(I-1) + p*(A-1).
    # A circular convolution of length N >= len(tx) = p*(A-1) + q*(I-1) + 1
    # wraps only the linear convolution's tail, indices >= N, onto indices
    # < q*(I-1), which no measurement center reads (same in y).
    fft_shape = (next_fast_len(len(tx)), next_fast_len(len(ty)))
    return OffsetKernel(
        values=values,
        tx0=int(tx0),
        ty0=int(ty0),
        pitch_x=fine_dx,
        pitch_y=fine_dy,
        shift_x=shift_x,
        shift_y=shift_y,
        stride_meas_x=px,
        stride_src_x=qx,
        stride_meas_y=py,
        stride_src_y=qy,
        grid=grid,
        spectrum=transposed_rfft2(values, fft_shape),
        fft_shape=fft_shape,
    )
