"""Phase-space commutator verification on finite grids.

Conventions (vacuum variance 1/4): alpha = x + i p, the Wigner function is
W(alpha) = (2/pi) Tr[rho D(2 alpha) Pi] with Pi the parity operator, and
the characteristic function is chi(xi) = Tr[rho D(xi)]. Both integrate
with the measure dx dp, and the vacuum Wigner maximum is 2/pi.

The commutator witness W_{kk'} is the Wigner-like function of
-i[rho_k, rho_k']. It is computed here two ways:

* fock_commutator: the Wigner transform of the commutator of two Fock
  operators, taken in Fock space; exact on every grid. The Fock route.
* moyal_commutator: twice the imaginary part of the phase-space star
  product of the two Wigner grids, with the star product evaluated by FFTs
  in a mixed (x-frequency, p) representation where the twist kernel
  factorizes. This is the route for grid inputs.

moyal_witness decides between the two for a pair of inputs, refuses a
grid too coarse or too small for them, and returns the commutator grid with
the route's dv.Verdict, whose witnesses and thresholds the report writes as
they are.

char_from_fock and the symplectic transforms give the characteristic
route. The literal lattice sums that check both routes are test oracles,
outside the package.

Grids are uniform, sampled at x_min + k dx with dx = (x_max - x_min)/nx
(the right edge is excluded, matching the periodic treatment of the
spectral route).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi
from typing import Tuple

import numpy as np

from .dv import CONSISTENT_WITH_ZERO, NONZERO_DISCORD, Verdict
from .errors import (DimMismatch, DomainError, GeometryMismatch, TooLarge, TruncationTail,
                     UnresolvedGrid)
from .linalg import dag, physical_memory_bytes

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


def _grid_values(values, geom: GridGeometry, dtype, what: str) -> np.ndarray:
    """values as a dtype array of the geometry's shape, all finite.

    Raises DimMismatch on a wrong shape and DomainError("non-finite <what>
    values") otherwise.
    """
    values = np.asarray(values, dtype=dtype)
    if values.shape != (geom.nx, geom.np):
        raise DimMismatch(f"values shape {values.shape} does not "
                          f"match geometry {geom.nx}x{geom.np}")
    if not np.all(np.isfinite(values)):
        raise DomainError(f"non-finite {what} values")
    return values


@dataclass
class WignerGrid:
    geometry: GridGeometry
    values: np.ndarray
    convention: str = CONVENTION_TAG

    def __post_init__(self):
        self.values = _grid_values(self.values, self.geometry, float, "grid")


@dataclass
class CommutatorGrid:
    """Wigner-like function of -i[rho_k, rho_k'] on a grid."""

    geometry: GridGeometry
    values: np.ndarray
    convention: str = CONVENTION_TAG

    def __post_init__(self):
        self.values = _grid_values(self.values, self.geometry, float, "commutator")


@dataclass
class CharGrid:
    """Complex characteristic-function samples on a grid."""

    geometry: GridGeometry
    values: np.ndarray

    def __post_init__(self):
        self.values = _grid_values(self.values, self.geometry, complex,
                                   "characteristic-function")


@dataclass
class FockOperator:
    """Operator on a truncated Fock space, indexed 0..cutoff."""

    cutoff: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = self.cutoff + 1
        if self.matrix.shape != (n, n):
            raise DimMismatch(f"matrix shape {self.matrix.shape} does not "
                              f"match cutoff {self.cutoff}")
        if not np.all(np.isfinite(self.matrix.view(float))):
            raise DomainError("non-finite Fock matrix")

    def tail_mass(self) -> float:
        """Absolute diagonal weight in the top two Fock levels."""
        diag = np.abs(np.diag(self.matrix).real)
        total = max(float(diag.sum()), 1.0)
        return float(diag[max(self.cutoff - 1, 0):].sum()) / total


def fock_state(n: int, cutoff: int) -> FockOperator:
    m = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    m[n, n] = 1.0
    return FockOperator(cutoff, m)


def pure_state(coeffs, cutoff: int) -> FockOperator:
    """Density operator of a pure state with the given Fock amplitudes."""
    c = np.zeros(cutoff + 1, dtype=complex)
    c[:len(coeffs)] = np.asarray(coeffs, dtype=complex)
    norm = np.sqrt(np.sum(np.abs(c) ** 2))
    if norm == 0:
        raise DomainError("zero state vector")
    c /= norm
    return FockOperator(cutoff, np.outer(c, c.conj()))


def coherent_state(beta: complex, cutoff: int) -> FockOperator:
    if beta == 0:
        return fock_state(0, cutoff)
    n = np.arange(cutoff + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, cutoff + 1)))))
    amps = np.exp(-0.5 * abs(beta) ** 2 + n * np.log(complex(beta)) - 0.5 * log_fact)
    return FockOperator(cutoff, np.outer(amps, amps.conj()))


def random_fock_density(cutoff: int, support: int, seed: int) -> FockOperator:
    """Random density matrix supported on Fock levels 0..support.

    Keeping support at most cutoff - 2 leaves the top two levels empty, so
    the truncation-tail admission check passes exactly.
    """
    if support > cutoff:
        raise DimMismatch("support exceeds cutoff")
    rng = np.random.default_rng(seed)
    d = support + 1
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ dag(g)
    rho /= np.trace(rho).real
    m = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    m[:d, :d] = rho
    return FockOperator(cutoff, m)


def _fock_series(matrix: np.ndarray, geom: GridGeometry, scale: float,
                 sign: np.ndarray) -> np.ndarray:
    """sum_{mn} matrix[m, n] sign[m] <n|D(scale * (x + i p))|m> over the grid.

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
    so it is skipped, and an all-zero matrix (the commutator of two
    commuting operators) costs nothing. The skip keeps every finite output
    bit for bit.

    On a huge extent |beta|^2 overflows and the result holds inf or NaN.
    numpy's warnings for that are silenced: every grid type built from the
    result refuses non-finite values.
    """
    size = matrix.shape[0]
    orders = [k for k in range(size)
              if matrix.diagonal(-k).any() or matrix.diagonal(k).any()]
    if not orders:
        return np.zeros((geom.nx, geom.np), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ps = geom.xs(), geom.ps()
        beta = scale * (xs[:, None] + 1j * ps[None, :])
        x = np.abs(beta) ** 2
        radii, where = np.unique(x, return_inverse=True)
        where = where.reshape(x.shape)          # numpy < 2 returns it flat
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, size)))))
        power = np.exp(-0.5 * x) + 0j           # (-conj(beta))^k e^{-x/2}
        out = np.zeros(x.shape, dtype=complex)
        for k in range(orders[-1] + 1):
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


def _check_tail(op: FockOperator) -> None:
    tail = op.tail_mass()
    if tail > TAIL_TOL:
        raise TruncationTail(
            f"tail mass {tail:.2e} above {TAIL_TOL:g}; raise the cutoff")


def wigner_from_fock(op: FockOperator, geom: GridGeometry) -> WignerGrid:
    """Wigner function of a Fock-space operator on a grid.

    Displaced-parity series W(alpha) = (2/pi) sum_{mn} rho_mn (-1)^m
    <n|D(2 alpha)|m>, truncated at the operator's cutoff. Raises
    TruncationTail when the top Fock levels carry too much weight for the
    truncation to be trustworthy.
    """
    _check_tail(op)
    return WignerGrid(geom, _wigner_values(op.matrix, geom))


def _wigner_values(matrix: np.ndarray, geom: GridGeometry) -> np.ndarray:
    parity = (-1.0) ** np.arange(matrix.shape[0])
    w = (2.0 / pi) * _fock_series(matrix, geom, 2.0, parity)
    residue = float(np.max(np.abs(w.imag)))
    if residue > 1e-10:
        raise DomainError(f"imaginary residue {residue:g} in Wigner transform; "
                          "operator is far from Hermitian")
    return w.real


def fock_commutator(a: FockOperator, b: FockOperator,
                    geom: GridGeometry) -> CommutatorGrid:
    """Wigner-like function of -i[a, b] from two Fock-space operators.

    The commutator lies exactly inside the larger truncation (the smaller
    operator is padded with zeros), so one transform gives it with no star
    product and no aliasing. The tails checked are the inputs': the
    commutator's diagonal is not a population.
    """
    _check_tail(a)
    _check_tail(b)
    size = max(a.cutoff, b.cutoff) + 1
    ma, mb = (np.pad(op.matrix, (0, size - op.cutoff - 1)) for op in (a, b))
    return CommutatorGrid(geom, _wigner_values(-1j * (ma @ mb - mb @ ma), geom))


def char_from_fock(op: FockOperator, geom: GridGeometry) -> CharGrid:
    """Characteristic function chi(xi) = Tr[rho D(xi)] on a grid."""
    _check_tail(op)
    chi = _fock_series(op.matrix, geom, 1.0, np.ones(op.cutoff + 1))
    return CharGrid(geom, chi)


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


def admit_moyal(geom: GridGeometry) -> None:
    """Refuse a Moyal route on geom that would need more than physical memory.

    No array of the route has more than max(nx, np)^2 complex entries, and
    at most MOYAL_GRID_ARRAYS of them are alive at once. Raises
    TooLarge; call it before allocating anything grid-sized.
    """
    need = 16 * MOYAL_GRID_ARRAYS * max(geom.nx, geom.np) ** 2
    have = physical_memory_bytes()
    if need > have:
        raise TooLarge(f"a {geom.nx}x{geom.np} grid needs about "
                       f"{need / 2 ** 30:.3g} GiB for the Moyal route; "
                       f"physical memory is {have / 2 ** 30:.3g} GiB")


def _require_same_geometry(a, b) -> GridGeometry:
    if a.geometry != b.geometry:
        raise GeometryMismatch(f"{a.geometry} vs {b.geometry}")
    return a.geometry


def moyal_commutator(wk: WignerGrid, wk2: WignerGrid) -> CommutatorGrid:
    """Wigner-like function of -i[rho_k, rho_k'] from two Wigner grids.

    For Hermitian operators the reversed star product is the complex
    conjugate of the forward one, so the commutator part is twice the
    imaginary part of a single star product.
    """
    geom = _require_same_geometry(wk, wk2)
    with np.errstate(over="ignore", invalid="ignore"):  # CommutatorGrid refuses non-finite
        star = _star_product(wk.values, wk2.values, geom)
    return CommutatorGrid(geom, 2.0 * star.imag)


def _symplectic_transform(values: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """int dx dp values(x, p) e^{2i(p' x - p x')} at every grid point (x', p').

    The kernel separates into e^{2i p' x} dx and e^{-2i p x'} dp, so the
    transform is one triple matrix product; both directions between
    Wigner and characteristic grids are this transform.
    """
    kernel = np.exp(2j * np.outer(geom.ps(), geom.xs()))     # (p, x)
    return ((kernel * geom.dx) @ values @ (kernel.conj() * geom.dp)).T


def char_to_wigner(cg: CharGrid) -> np.ndarray:
    """Wigner values from a characteristic grid by the symplectic transform.

    W(alpha) = (1/pi^2) int d2xi chi(xi) e^{alpha xi* - alpha* xi}; returns
    the real part (the symmetric imaginary residue is discarded).
    """
    w = _symplectic_transform(cg.values, cg.geometry) / (pi * pi)
    return w.real


def wigner_to_char(wg: WignerGrid) -> CharGrid:
    """Characteristic function from a Wigner grid.

    chi(xi) = int d2alpha W(alpha) e^{xi alpha* - xi* alpha}.
    """
    return CharGrid(wg.geometry, _symplectic_transform(wg.values, wg.geometry))


def grid_integral(values: np.ndarray, geom: GridGeometry) -> float:
    """Riemann-sum integral of grid values over phase space."""
    return float(np.sum(values) * geom.dx * geom.dp)


def grid_max_abs(g) -> Tuple[float, Tuple[int, int]]:
    """Largest absolute grid value and its index, first occurrence wins."""
    flat = int(np.argmax(np.abs(g.values)))
    loc = np.unravel_index(flat, g.values.shape)
    return float(np.abs(g.values[loc])), (int(loc[0]), int(loc[1]))


def uncertainty_band(geom: GridGeometry, stderr_a: float, stderr_b: float,
                     l1_a: float, l1_b: float) -> float:
    """Conservative bound on commutator-grid error from input grid noise.

    Uses |sin| <= 1 in the double integral: a uniform per-point error s on
    one input contributes at most (8/pi) A s ||other||_1 with A the box
    area, plus the second-order cross term.
    """
    area = (geom.x_max - geom.x_min) * (geom.p_max - geom.p_min)
    return (8.0 / pi) * area * (stderr_a * l1_b + stderr_b * l1_a
                                + stderr_a * stderr_b * area)


def _outer_bands(w: WignerGrid) -> WignerGrid:
    """The part of a Wigner grid in the top RESOLUTION_BANDS frequencies of
    either axis; content beyond the grid's band aliases onto these."""
    outer = [np.abs(np.fft.fftfreq(n, 1.0 / n)) > n / 2 - RESOLUTION_BANDS
             for n in w.values.shape]
    spectrum = np.fft.fft2(w.values) * (outer[0][:, None] | outer[1][None, :])
    return WignerGrid(w.geometry, np.fft.ifft2(spectrum).real)


def moyal_witness(a, b, geom: GridGeometry, stderr=(None, None),
                  names=("a", "b")) -> Tuple[CommutatorGrid, Verdict]:
    """The commutator grid of two inputs, each a FockOperator or a WignerGrid,
    and its Verdict: NONZERO_DISCORD when the grid's largest |value| (the
    first occurrence, at location) exceeds the threshold.

    Two Fock operators are commuted in Fock space on geom, exactly. Any
    other pair goes through the star product on the grid input's geometry,
    a Fock partner transformed onto it. stderr holds the inputs' per-point
    value errors (None for an exact input); when one is given, the
    threshold is the larger of its uncertainty band and
    MOYAL_NUMERICAL_FLOOR, which is the threshold otherwise, and the
    witnesses add the band and whether the largest |value| exceeds it.

    Two grid inputs of different geometry are refused with GeometryMismatch,
    naming both by names. On the grid route an input is refused with
    UnresolvedGrid, named by names, when its largest |W| on the outermost
    rows and columns exceeds the threshold (a box too small), or when its
    outer frequency bands move the commutator by more than that (a grid too
    coarse). The self-commutator Im(W*W) is no such check: it vanishes for
    any real interpolant, so it reads 0 on odd-sized axes at any resolution.

    The route's memory is admitted once, on the geometry it runs on, before
    anything grid-sized is allocated.
    """
    threshold, band = MOYAL_NUMERICAL_FLOOR, None
    if isinstance(a, FockOperator) and isinstance(b, FockOperator):
        admit_moyal(geom)
        comm = fock_commutator(a, b, geom)
    else:
        geom = (a if isinstance(a, WignerGrid) else b).geometry
        if isinstance(b, WignerGrid) and b.geometry != geom:
            raise GeometryMismatch(f"{names[0]} and {names[1]} are grids of different "
                                   f"geometry: {geom} vs {b.geometry}")
        admit_moyal(geom)
        a, b = (wigner_from_fock(x, geom) if isinstance(x, FockOperator) else x
                for x in (a, b))
        if any(s is not None for s in stderr):
            l1_a, l1_b = (grid_integral(np.abs(w.values), geom) for w in (a, b))
            band = uncertainty_band(geom, stderr[0] or 0.0, stderr[1] or 0.0, l1_a, l1_b)
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
