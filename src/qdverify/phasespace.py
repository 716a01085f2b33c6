"""Phase-space commutator verification on finite grids.

Conventions (vacuum variance 1/4): alpha = x + i p, the Wigner function is
W(alpha) = (2/pi) Tr[rho D(2 alpha) Pi] with Pi the parity operator. It
integrates with the measure dx dp, and the vacuum Wigner maximum is 2/pi.

The commutator witness W_{kk'} is the Wigner-like function of
-i[rho_k, rho_k']. It is computed here two ways:

* fock_commutator: the Wigner transform of the commutator of two Fock-basis
  matrices, taken in Fock space; exact on every grid. The Fock route.
* moyal_commutator: twice the imaginary part of the phase-space star
  product of the two Wigner grids, with the star product evaluated by FFTs
  in a mixed (x-frequency, p) representation where the twist kernel
  factorizes. This is the route for grid inputs.

moyal_witness chooses the grid and the route for a pair of inputs, refuses
a grid too coarse or too small for them, and returns the commutator grid with
the route's dv.Verdict, whose witnesses and thresholds the report writes as
they are.

The literal lattice sums that check both routes, and the route through
the characteristic function, are test oracles, outside the package.

Wigner functions and commutator witnesses are one grid type, WignerGrid.
A Fock-basis operator is its complex (n, n) matrix, cutoff n - 1, as the
state constructors here return it. Grids are uniform, sampled at
x_min + k dx with dx = (x_max - x_min)/nx (the right edge is excluded,
matching the periodic treatment of the spectral route).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi
from typing import Optional, Tuple

import numpy as np

from .dv import CONSISTENT_WITH_ZERO, NONZERO_DISCORD, Verdict
from .errors import (DimMismatch, DomainError, GeometryMismatch, TruncationTail,
                     UnresolvedGrid)
from .linalg import admit_memory, random_density_matrix

CONVENTION_TAG = "vacuum-variance=1/4"

# Admission bound for grid transforms: total population (absolute, for
# non-state operators) in the top two Fock levels must stay below this.
TAIL_TOL = 1e-6

DEFAULT_EXTENT = 6.0
DEFAULT_POINTS = 128

# Complex max(nx, np)^2 arrays alive at once on a Moyal route. The star
# product traces 7 at 96-200 points, and with moyal_witness's resolution
# check of its inputs 9; the rest covers the inputs, a Fock partner's
# transform and FFT work space. The Fock route needs fewer.
MOYAL_GRID_ARRAYS = 24

# floor for calling a commutator grid nonzero when inputs are exact
MOYAL_NUMERICAL_FLOOR = 1e-9

# Top frequencies per grid axis that the resolution check probes. Against
# the Fock route, three bounded the star product's error on every resolved
# pair of a 1111-pair scan; two fell short by up to 1.6x.
RESOLUTION_BANDS = 3


@dataclass(frozen=True)
class GridGeometry:
    """Uniform rectangular phase-space sampling (right edges excluded)."""

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    nx: int
    np: int

    def __post_init__(self):
        if self.nx < 2 or self.np < 2:
            raise DomainError("grid needs at least 2 points per axis")
        if not np.all(np.isfinite([self.x_min, self.x_max, self.p_min, self.p_max,
                                   self.dx, self.dp])):
            raise DomainError("non-finite grid bounds or step")
        if not (self.x_max > self.x_min and self.p_max > self.p_min):
            raise DomainError("empty phase-space extent")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.np

    def xs(self) -> np.ndarray:
        return self.x_min + np.arange(self.nx) * self.dx

    def ps(self) -> np.ndarray:
        return self.p_min + np.arange(self.np) * self.dp


def square_geometry(extent: float = DEFAULT_EXTENT,
                    points: int = DEFAULT_POINTS) -> GridGeometry:
    """Symmetric square geometry [-extent, extent)^2."""
    return GridGeometry(-extent, extent, -extent, extent, points, points)


@dataclass
class WignerGrid:
    """Finite real values of the geometry's shape (else DomainError or
    DimMismatch), and their per-point error, finite and >= 0, when they are
    sampled rather than exact."""

    geometry: GridGeometry
    values: np.ndarray
    value_stderr: Optional[float] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.geometry.nx, self.geometry.np):
            raise DimMismatch(f"values shape {self.values.shape} does not match "
                              f"geometry {self.geometry.nx}x{self.geometry.np}")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("non-finite grid values")
        if self.value_stderr is not None and not 0.0 <= self.value_stderr < np.inf:
            raise DomainError(f"value_stderr {self.value_stderr} is not finite and >= 0")


def fock_state(n: int, cutoff: int) -> np.ndarray:
    m = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    m[n, n] = 1.0
    return m


def pure_state(coeffs, cutoff: int) -> np.ndarray:
    """Density operator of a pure state with the given Fock amplitudes."""
    c = np.zeros(cutoff + 1, dtype=complex)
    c[:len(coeffs)] = np.asarray(coeffs, dtype=complex)
    norm = np.sqrt(np.sum(np.abs(c) ** 2))
    if norm == 0:
        raise DomainError("zero state vector")
    c /= norm
    return np.outer(c, c.conj())


def coherent_state(beta: complex, cutoff: int) -> np.ndarray:
    if beta == 0:
        return fock_state(0, cutoff)
    n = np.arange(cutoff + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, cutoff + 1)))))
    amps = np.exp(-0.5 * abs(beta) ** 2 + n * np.log(complex(beta)) - 0.5 * log_fact)
    return np.outer(amps, amps.conj())


def random_fock_density(cutoff: int, support: int, seed: int) -> np.ndarray:
    """Random density matrix supported on Fock levels 0..support.

    Keeping support at most cutoff - 2 leaves the top two levels empty, so
    the truncation-tail admission check passes exactly.
    """
    if support > cutoff:
        raise DimMismatch("support exceeds cutoff")
    d = support + 1
    m = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    m[:d, :d] = random_density_matrix(d, np.random.default_rng(seed))
    return m


def _fock_series(matrix: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """sum_{mn} matrix[m, n] (-1)^m <n|D(2 (x + i p))|m> over the grid.

    For n <= m, k = m - n, <n|D(beta)|m> = sqrt(n!/m!) (-conj(beta))^k
    e^{-|beta|^2/2} L_n^k(|beta|^2), with L_n^k from its three-term
    recurrence in n, (n+1) L_{n+1} = (2n+1+k-x) L_n - (n+k) L_{n-1}; the
    lower triangle follows from <m|D|n> = (-1)^k conj(<n|D|m>).

    The Laguerre sums depend on the grid point only through x = |beta|^2,
    so they run once per distinct radius and are scattered back to the
    grid before the angular factor (-conj(beta))^k e^{-x/2} is applied. A
    symmetric square grid holds 3.5-10x fewer radii than points (hypot is
    exact under reflection and swap). Working memory is a handful of
    grid-sized arrays, whatever the cutoff.

    A coherence order k whose two diagonals are zero adds only exact zeros,
    so it is skipped. The skip keeps every finite output bit for bit.

    On a huge extent |beta|^2 overflows and the result holds inf or NaN.
    numpy's warnings for that are silenced: the WignerGrid built from the
    result refuses non-finite values.
    """
    size = matrix.shape[0]
    sign = (-1.0) ** np.arange(size)
    orders = [k for k in range(size)
              if matrix.diagonal(-k).any() or matrix.diagonal(k).any()]
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ps = geom.xs(), geom.ps()
        beta = 2.0 * (xs[:, None] + 1j * ps[None, :])
        x = np.abs(beta) ** 2
        radii, where = np.unique(x, return_inverse=True)
        where = where.reshape(x.shape)          # numpy < 2 returns it flat
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, size)))))
        power = np.exp(-0.5 * x) + 0j           # (-conj(beta))^k e^{-x/2}
        out = np.zeros(x.shape, dtype=complex)
        for k in range(max(orders, default=-1) + 1):
            if k:
                power = power * -np.conj(beta)
            if k not in orders:
                continue
            upper = np.zeros(radii.shape, dtype=complex)   # sum_n matrix[n+k, n] ...
            lower = np.zeros(radii.shape, dtype=complex)   # sum_n matrix[n, n+k] ...
            lag_prev, lag = 0.0, np.ones_like(radii)
            for n in range(size - k):
                m = n + k
                coeff = np.exp(0.5 * (log_fact[n] - log_fact[m])) * lag
                upper += (matrix[m, n] * sign[m]) * coeff
                if k:
                    lower += (matrix[n, m] * sign[n]) * coeff
                lag_prev, lag = lag, ((2 * n + 1 + k - radii) * lag - (n + k) * lag_prev) / (n + 1)
            out += power * upper[where]
            if k:
                out += (-1.0) ** k * np.conj(power) * lower[where]
        return out


def _check_tail(m: np.ndarray, name: str) -> None:
    # the absolute diagonal weight in the top two Fock levels
    diag = np.abs(np.diag(m).real)
    tail = float(diag[max(len(m) - 2, 0):].sum()) / max(float(diag.sum()), 1.0)
    if tail > TAIL_TOL:
        raise TruncationTail(
            f"{name}: tail mass {tail:.2e} above {TAIL_TOL:g}; raise the cutoff")


def wigner_from_fock(m: np.ndarray, geom: GridGeometry, name: str = "input") -> WignerGrid:
    """Wigner function of a Fock-basis matrix on a grid.

    Displaced-parity series W(alpha) = (2/pi) sum_{mn} rho_mn (-1)^m
    <n|D(2 alpha)|m>, truncated at the matrix's cutoff. Raises
    TruncationTail, naming the matrix by name, when the top Fock levels
    carry too much weight for the truncation to be trustworthy.
    """
    _check_tail(m, name)
    return WignerGrid(geom, _wigner_values(m, geom))


def _wigner_values(matrix: np.ndarray, geom: GridGeometry) -> np.ndarray:
    # an all-zero matrix, a commuting pair's commutator, is float zeros with no series
    if not matrix.any():
        return np.zeros((geom.nx, geom.np))
    w = (2.0 / pi) * _fock_series(matrix, geom)
    residue = float(np.max(np.abs(w.imag)))
    if residue > 1e-10:
        raise DomainError(f"imaginary residue {residue:g} in Wigner transform; "
                          "operator is far from Hermitian")
    return w.real


def fock_commutator(a: np.ndarray, b: np.ndarray, geom: GridGeometry,
                    names=("a", "b")) -> WignerGrid:
    """Wigner-like function of -i[a, b] from two Fock-basis matrices.

    The commutator lies exactly inside the larger truncation (the smaller
    operator is padded with zeros), so one transform gives it with no star
    product and no aliasing. The tails checked are the inputs', each named
    by names: the commutator's diagonal is not a population.
    """
    _check_tail(a, names[0])
    _check_tail(b, names[1])
    size = max(len(a), len(b))
    ma, mb = (np.pad(m, (0, size - len(m))) for m in (a, b))
    return WignerGrid(geom, _wigner_values(-1j * (ma @ mb - mb @ ma), geom))


def _star_product(f: np.ndarray, g: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """Phase-space star product of two real grids, complex valued.

    Mixed-representation form:

      (f*g)(x,p) = (1/4pi) int dqx dkx e^{i(qx+kx)x}
                     f2(qx, p + kx/4) g2(kx, p - qx/4),

    with f2 the Fourier transform over x only. Both inputs are transformed
    with one FFT each; the p shifts are phase ramps on the p frequencies,
    undone by one inverse FFT along p per x-frequency qx_a. The factor
    e^{i qx_a x} of row a is a roll by a of the kx axis, so the rows
    accumulate in kx and one inverse FFT along x ends the sum: O(n^3 log n)
    time, no interpolation. The grid origin drops out (the star product
    commutes with translations), so no origin phases appear.
    """
    nx = geom.nx
    qx = 2.0 * pi * np.fft.fftfreq(nx, d=geom.dx)
    qp = 2.0 * pi * np.fft.fftfreq(geom.np, d=geom.dp)
    fh = np.fft.fft2(f)
    gh = np.fft.fft2(g)
    ramp = np.exp(1j * np.outer(qx, qp) / 4.0)        # (kx, qp)
    acc = np.zeros(fh.shape, dtype=complex)
    for a in range(nx):
        prod = np.fft.ifft(fh[a] * ramp, axis=1)             # f2(qx_a, p + kx/4)
        prod *= np.fft.ifft(gh * np.conj(ramp[a]), axis=1)   # g2(kx, p - qx_a/4)
        acc[a:] += prod[:nx - a]
        acc[:a] += prod[nx - a:]
    return np.fft.ifft(acc, axis=0) * (pi / nx)


def _require_same_geometry(a, b) -> GridGeometry:
    if a.geometry != b.geometry:
        raise GeometryMismatch(f"{a.geometry} vs {b.geometry}")
    return a.geometry


def moyal_commutator(wk: WignerGrid, wk2: WignerGrid) -> WignerGrid:
    """Wigner-like function of -i[rho_k, rho_k'] from two Wigner grids.

    For Hermitian operators the reversed star product is the complex
    conjugate of the forward one, so the commutator part is twice the
    imaginary part of a single star product.
    """
    geom = _require_same_geometry(wk, wk2)
    with np.errstate(over="ignore", invalid="ignore"):  # WignerGrid refuses non-finite
        star = _star_product(wk.values, wk2.values, geom)
    return WignerGrid(geom, 2.0 * star.imag)


def grid_integral(values: np.ndarray, geom: GridGeometry) -> float:
    """Riemann-sum integral of grid values over phase space."""
    return float(np.sum(values) * geom.dx * geom.dp)


def grid_max_abs(g) -> Tuple[float, Tuple[int, int]]:
    """Largest absolute grid value and its index, first occurrence wins."""
    flat = int(np.argmax(np.abs(g.values)))
    loc = np.unravel_index(flat, g.values.shape)
    return float(np.abs(g.values[loc])), (int(loc[0]), int(loc[1]))


def uncertainty_band(a: WignerGrid, b: WignerGrid) -> float:
    """Conservative bound on the error of the commutator of two grids from
    their value_stderr, an exact grid's taken as 0.

    Uses |sin| <= 1 in the double integral: a uniform per-point error s on
    one input contributes at most (8/pi) A s ||other||_1 with A the box
    area, plus the second-order cross term.
    """
    geom = _require_same_geometry(a, b)
    area = (geom.x_max - geom.x_min) * (geom.p_max - geom.p_min)
    stderr_a, stderr_b = (w.value_stderr or 0.0 for w in (a, b))
    with np.errstate(over="ignore"):    # an overflow reads inf, which moyal_witness refuses
        l1_a, l1_b = (grid_integral(np.abs(w.values), geom) for w in (a, b))
    return (8.0 / pi) * area * (stderr_a * l1_b + stderr_b * l1_a
                                + stderr_a * stderr_b * area)


def _outer_bands(w: WignerGrid) -> WignerGrid:
    """The part of a Wigner grid in the top RESOLUTION_BANDS frequencies of
    either axis; content beyond the grid's band aliases onto these."""
    outer = [np.abs(np.fft.fftfreq(n, 1.0 / n)) > n / 2 - RESOLUTION_BANDS
             for n in w.values.shape]
    spectrum = np.fft.fft2(w.values) * (outer[0][:, None] | outer[1][None, :])
    return WignerGrid(w.geometry, np.fft.ifft2(spectrum).real)


def moyal_witness(a, b, names=("a", "b"), extent: float = DEFAULT_EXTENT,
                  points: int = DEFAULT_POINTS) -> Tuple[WignerGrid, Verdict]:
    """The commutator grid of two inputs, and its Verdict: NONZERO_DISCORD
    when the grid's largest |value| (the first occurrence, at location)
    exceeds the threshold. An input that is not a WignerGrid is a Fock-basis
    matrix, complex (n, n) with cutoff n - 1, taken as it is: its checks are
    the caller's.

    Two Fock matrices are commuted in Fock space on square_geometry(extent,
    points), exactly. Any other pair goes through the star product on the grid
    input's geometry, extent and points unread, a Fock partner transformed
    onto it. The threshold is MOYAL_NUMERICAL_FLOOR, or when either grid has a
    value_stderr the larger of that and uncertainty_band(a, b), and the
    witnesses add the band and whether the largest |value| exceeds it.

    Two grids of different geometry are refused with GeometryMismatch, and a
    band or Fock transform that overflows with DomainError, naming both by
    names. An input is refused, named by names, with TruncationTail for a
    heavy Fock tail, and on the grid route with UnresolvedGrid when its
    largest |W| on the outermost rows and columns exceeds the threshold (a box
    too small) or its outer frequency bands move the commutator by more (too
    coarse). The self-commutator Im(W*W) is no such check: it vanishes for
    any real interpolant, so it reads 0 on odd-sized axes at any resolution.

    The route's memory is admitted once, on the geometry it runs on, before
    anything grid-sized is allocated: MOYAL_GRID_ARRAYS grids must fit in
    physical memory (TooLarge).
    """
    threshold, band = MOYAL_NUMERICAL_FLOOR, None
    grids = [x.geometry for x in (a, b) if isinstance(x, WignerGrid)]
    geom = grids[0] if grids else square_geometry(extent, points)
    if len(grids) == 2 and grids[1] != geom:
        raise GeometryMismatch(f"{names[0]} and {names[1]} are grids of different "
                               f"geometry: {geom} vs {grids[1]}")
    # no array of the route has more than max(nx, np)^2 complex entries
    admit_memory(16 * MOYAL_GRID_ARRAYS * max(geom.nx, geom.np) ** 2,
                 f"a {geom.nx}x{geom.np} grid needs", "the Moyal route")
    try:        # on a huge extent the Fock series overflows
        if not grids:
            comm = fock_commutator(a, b, geom, names)
        else:
            a, b = (x if isinstance(x, WignerGrid) else wigner_from_fock(x, geom, name)
                    for x, name in zip((a, b), names))
    except DomainError as exc:
        raise DomainError(f"{names[0]} and {names[1]}: {exc} on {geom}") from None
    if grids:
        if a.value_stderr is not None or b.value_stderr is not None:
            band = uncertainty_band(a, b)
            if not band < np.inf:       # inf, or NaN from 0 * inf
                raise DomainError(f"{names[0]} and {names[1]}: their uncertainty band is {band}")
            threshold = max(band, threshold)
        comm = moyal_commutator(a, b)
        for name, w, partner in ((names[0], a, b), (names[1], b, a)):
            v = np.abs(w.values)
            edge = float(max(v[[0, -1]].max(), v[:, [0, -1]].max()))
            aliasing = grid_max_abs(moyal_commutator(_outer_bands(w), partner))[0]
            if max(edge, aliasing) > threshold:
                raise UnresolvedGrid(
                    f"{name}: the grid cannot resolve this input (edge value "
                    f"{edge:.3g}, outer-band commutator {aliasing:.3g}, threshold "
                    f"{threshold:.3g}); widen the extent or add points")
    value, loc = grid_max_abs(comm)
    witnesses = {"grid_max_abs": value, "location": loc}
    if band is not None:
        witnesses.update(uncertainty_band=band, significant=bool(value > band))
    return comm, Verdict(NONZERO_DISCORD if value > threshold else CONSISTENT_WITH_ZERO,
                         witnesses, {"grid_max_abs": threshold})
