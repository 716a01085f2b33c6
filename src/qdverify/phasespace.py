"""Phase-space commutator verification on finite grids.

Conventions (vacuum variance 1/4): alpha = x + i p, the Wigner function is
W(alpha) = (2/pi) Tr[rho D(2 alpha) Pi] with Pi the parity operator, and
the characteristic function is chi(xi) = Tr[rho D(xi)]. Both integrate
with the measure dx dp, and the vacuum Wigner maximum is 2/pi.

The commutator witness W_{kk'} is the Wigner-like function of
-i[rho_k, rho_k']. It is computed here three ways:

* moyal_commutator: twice the imaginary part of the phase-space star
  product of the two Wigner grids, with the star product evaluated in a
  mixed (x-frequency, p) representation where the twist kernel factorizes
  into dense transforms. This is the fast route.
* char_commutator: the sine-kernel convolution of the two characteristic
  functions, evaluated literally on the grid lattice.
* moyal_commutator_quadrature: a literal Riemann-sum quadrature of the
  double phase-space integral, kept as a slow reference for cross-checks.

Grids are uniform, sampled at x_min + k dx with dx = (x_max - x_min)/nx
(the right edge is excluded, matching the periodic treatment of the
spectral route).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi
from typing import Tuple

import numpy as np

from .errors import DimMismatch, DomainError, GeometryMismatch, TruncationTail
from .linalg import dag

CONVENTION_TAG = "vacuum-variance=1/4"

# Admission bound for grid transforms: total population (absolute, for
# non-state operators) in the top two Fock levels must stay below this.
TAIL_TOL = 1e-6

DEFAULT_EXTENT = 6.0
DEFAULT_POINTS = 128
DEFAULT_CUTOFF = 12


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
    geometry: GridGeometry
    values: np.ndarray
    convention: str = CONVENTION_TAG

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.geometry.nx, self.geometry.np):
            raise DimMismatch(f"values shape {self.values.shape} does not "
                              f"match geometry {self.geometry.nx}x{self.geometry.np}")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("non-finite grid values")


@dataclass
class CommutatorGrid:
    """Wigner-like function of -i[rho_k, rho_k'] on a grid."""

    geometry: GridGeometry
    values: np.ndarray
    convention: str = CONVENTION_TAG

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.geometry.nx, self.geometry.np):
            raise DimMismatch("values shape does not match geometry")


@dataclass
class CharGrid:
    """Complex characteristic-function samples on a grid."""

    geometry: GridGeometry
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.geometry.nx, self.geometry.np):
            raise DimMismatch("values shape does not match geometry")


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


@lru_cache(maxsize=4)
def _displacement_table(cutoff: int, geom: GridGeometry, scale: float) -> np.ndarray:
    """<n|D(scale * (x + i p))|m> over the grid, shape (nx, np, n, m).

    Matrix elements use the associated-Laguerre closed form; the lower
    triangle follows from D(beta)^dagger = D(-beta). scipy is imported
    here, not at module level, so routes without a Fock transform never
    load it.
    """
    from scipy.special import eval_genlaguerre

    xs, ps = geom.xs(), geom.ps()
    beta = scale * (xs[:, None] + 1j * ps[None, :])
    absb2 = np.abs(beta) ** 2
    gauss = np.exp(-0.5 * absb2)
    size = cutoff + 1
    out = np.empty((geom.nx, geom.np, size, size), dtype=complex)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, size)))))
    for n in range(size):
        for m in range(n, size):
            # n <= m here; <n|D|m> = sqrt(n!/m!) (-conj(beta))^(m-n) e L_n^(m-n)
            pref = np.exp(0.5 * (log_fact[n] - log_fact[m]))
            lag = eval_genlaguerre(n, m - n, absb2)
            val = pref * (-np.conj(beta)) ** (m - n) * gauss * lag
            out[..., n, m] = val
            if m != n:
                out[..., m, n] = (-1.0) ** (m - n) * np.conj(val)
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
    table = _displacement_table(op.cutoff, geom, 2.0)
    parity = (-1.0) ** np.arange(op.cutoff + 1)
    w = (2.0 / pi) * np.einsum("mn,xpnm,m->xp", op.matrix, table, parity)
    residue = float(np.max(np.abs(w.imag)))
    if residue > 1e-10:
        raise DomainError(f"imaginary residue {residue:g} in Wigner transform; "
                          "operator is far from Hermitian")
    return WignerGrid(geom, w.real)


def char_from_fock(op: FockOperator, geom: GridGeometry) -> CharGrid:
    """Characteristic function chi(xi) = Tr[rho D(xi)] on a grid."""
    _check_tail(op)
    table = _displacement_table(op.cutoff, geom, 1.0)
    chi = np.einsum("mn,xpnm->xp", op.matrix, table)
    return CharGrid(geom, chi)


def _star_product(f: np.ndarray, g: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """Phase-space star product of two real grids, complex valued.

    Mixed-representation form:

      (f*g)(x,p) = (1/4pi) int dqx dkx e^{i(qx+kx)x}
                     f2(qx, p + kx/4) g2(kx, p - qx/4),

    with f2 the Fourier transform over x only. The p shifts are evaluated
    spectrally (phase ramps on the p transform), so the whole product
    reduces to dense matrix products; no interpolation is involved.
    """
    xs, ps = geom.xs(), geom.ps()
    nx, npts = geom.nx, geom.np
    dx, dp = geom.dx, geom.dp
    qx = 2.0 * pi * np.fft.fftfreq(nx, d=dx)
    qp = 2.0 * pi * np.fft.fftfreq(npts, d=dp)

    ex = np.exp(-1j * np.outer(qx, xs)) * dx          # (nq, nx)
    f2 = ex @ f
    g2 = ex @ g
    ep = np.exp(-1j * np.outer(qp, ps)) * dp          # (nd, np)
    fh = f2 @ ep.T                                    # full transform (nq, nd)
    gh = g2 @ ep.T

    dqp = 2.0 * pi / (npts * dp)
    recon = np.exp(1j * np.outer(qp, ps)) * (dqp / (2.0 * pi))   # (nd, np)
    plus = (np.exp(1j * np.outer(qp, qx) / 4.0)[:, :, None]
            * recon[:, None, :]).reshape(npts, -1)
    f_shift = (fh @ plus).reshape(nx, nx, npts)       # f2(qx_a, p + kx_c/4)
    minus = (np.exp(-1j * np.outer(qp, qx) / 4.0)[:, :, None]
             * recon[:, None, :]).reshape(npts, -1)
    g_shift = (gh @ minus).reshape(nx, nx, npts)      # g2(kx_c, p - qx_a/4)

    h = f_shift * np.transpose(g_shift, (1, 0, 2))    # (a, c, l)
    ejx = np.exp(1j * np.outer(xs, qx))               # (j, a)
    pair = (ejx[:, :, None] * ejx[:, None, :]).reshape(nx, -1)
    dqx = 2.0 * pi / (nx * dx)
    return (pair @ h.reshape(nx * nx, npts)) * (dqx * dqx / (4.0 * pi))


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
    star = _star_product(wk.values, wk2.values, geom)
    return CommutatorGrid(geom, 2.0 * star.imag)


def char_commutator(chi_k: CharGrid, chi_k2: CharGrid) -> CharGrid:
    """Characteristic function of -i[rho_k, rho_k'].

    Literal lattice evaluation of

      chi_{kk'}(xi) = (2/pi) int d2u chi_k(u) chi_k'(xi - u)
                                sin(u_p xi_x - u_x xi_p),

    where the difference xi - u falls back onto the lattice, so no
    interpolation is needed; samples falling outside the grid are treated
    as zero, which is valid for decaying characteristic functions.
    """
    geom = _require_same_geometry(chi_k, chi_k2)
    xs, ps = geom.xs(), geom.ps()
    nx, npts = geom.nx, geom.np
    # xi - u lands back on the lattice only when the origin is a lattice
    # point; zx, zp locate it
    zx = -geom.x_min / geom.dx
    zp = -geom.p_min / geom.dp
    if abs(zx - round(zx)) > 1e-9 or abs(zp - round(zp)) > 1e-9:
        raise GeometryMismatch("char_commutator needs the phase-space origin "
                               "on the grid lattice")
    zx, zp = int(round(zx)), int(round(zp))
    if not (0 <= zx < nx and 0 <= zp < npts):
        raise GeometryMismatch("char_commutator needs the origin inside the grid")
    a = chi_k.values
    b = chi_k2.values
    pad = np.zeros((2 * nx - 1, 2 * npts - 1), dtype=complex)
    pad[nx - 1 - zx:2 * nx - 1 - zx, npts - 1 - zp:2 * npts - 1 - zp] = b
    # sin(u_p xi_x - u_x xi_p) = sin(u_p xi_x) cos(u_x xi_p)
    #                          - cos(u_p xi_x) sin(u_x xi_p)
    s1 = np.sin(np.outer(xs, ps))                   # [xi_x, u_p]
    c1 = np.cos(np.outer(xs, ps))
    s2 = np.sin(np.outer(ps, xs))                   # [xi_p, u_x]
    c2 = np.cos(np.outer(ps, xs))
    measure = (2.0 / pi) * geom.dx * geom.dp
    out = np.empty((nx, npts), dtype=complex)
    for i in range(nx):
        ea = a * s1[i][None, :]                     # chi_k(u) sin(u_p xi_x)
        eb = a * c1[i][None, :]
        for j in range(npts):
            block = pad[i:i + nx, j:j + npts][::-1, ::-1]
            r1 = np.sum(ea * block, axis=1)         # over u_p
            r2 = np.sum(eb * block, axis=1)
            out[i, j] = r1 @ c2[j] - r2 @ s2[j]
    return CharGrid(geom, measure * out)


def char_to_wigner(cg: CharGrid, out_geom: GridGeometry | None = None) -> np.ndarray:
    """Wigner values from a characteristic grid by the symplectic transform.

    W(alpha) = (1/pi^2) int d2xi chi(xi) e^{alpha xi* - alpha* xi}; returns
    the real part (the symmetric imaginary residue is discarded).
    """
    geom = cg.geometry
    out_geom = out_geom or geom
    xs_in, ps_in = geom.xs(), geom.ps()
    xs_out, ps_out = out_geom.xs(), out_geom.ps()
    f1 = np.exp(2j * np.outer(ps_out, xs_in)) * geom.dx      # (b, ix)
    f2 = np.exp(-2j * np.outer(ps_in, xs_out)) * geom.dp     # (ip, a)
    w = (f1 @ cg.values @ f2).T / (pi * pi)
    return w.real


def wigner_to_char(wg: WignerGrid, out_geom: GridGeometry | None = None) -> CharGrid:
    """Characteristic function from a Wigner grid.

    chi(xi) = int d2alpha W(alpha) e^{xi alpha* - xi* alpha}.
    """
    geom = wg.geometry
    out_geom = out_geom or geom
    xs_in, ps_in = geom.xs(), geom.ps()
    xs_out, ps_out = out_geom.xs(), out_geom.ps()
    g1 = np.exp(2j * np.outer(ps_out, xs_in)) * geom.dx      # (j, a)
    g2 = np.exp(-2j * np.outer(ps_in, xs_out)) * geom.dp     # (b, i)
    chi = (g1 @ wg.values @ g2).T
    return CharGrid(out_geom, chi)


def moyal_commutator_quadrature(wk: WignerGrid, wk2: WignerGrid) -> CommutatorGrid:
    """Literal Riemann-sum quadrature of the commutator double integral.

    Evaluates, on the grid's own lattice,

      W_{kk'}(alpha) = -(8/pi) sum_{u,v} W_k(u) W_k'(v)
                          sin(4 T(alpha,u,v)) du dv,

    where T is the symplectic triangle phase Im(alpha u*) + Im(u v*) +
    Im(v alpha*). This is the change of variables u = alpha + beta/2,
    v = alpha + beta'/2 applied to the sine-kernel double integral, so the
    sum is the literal quadrature of that integral on the lattice. The sum
    is evaluated in factorized form (inner v sum first, reusing the fact
    that alpha - u lands on the difference lattice); the result is
    identical to the naive four-deep loop up to float associativity.
    Cost grows with the fourth power of the grid side; intended for small
    reference grids.
    """
    geom = _require_same_geometry(wk, wk2)
    if abs(geom.dx - geom.dp) > 1e-12 or geom.nx != geom.np:
        raise GeometryMismatch("quadrature reference expects a square grid")
    n = geom.nx
    xs = geom.xs()
    ps = geom.ps()
    h2 = geom.dx * geom.dp
    wa = wk.values
    wb = wk2.values

    # difference lattice alpha - u, spanning (2n-1) points per axis
    wx = np.arange(-(n - 1), n) * geom.dx
    wp = np.arange(-(n - 1), n) * geom.dp
    # inner transform: chi_tab[wx, wp] = sum_v W_k'(v) e^{4i Im(v w*)} dv
    #   Im(v w*) = v_p w_x - v_x w_p  (separable in the two components)
    m1 = np.exp(-4j * np.outer(wp, xs))          # (wp, v_x)
    m2 = np.exp(4j * np.outer(ps, wx))           # (v_p, wx)
    chi_tab = (m1 @ wb @ m2).T * h2              # (wx, wp)

    ux, up = np.meshgrid(xs, ps, indexing="ij")
    out = np.empty((n, n))
    for ia in range(n):
        for ib in range(n):
            ax, ap = xs[ia], ps[ib]
            phase = np.exp(4j * (ap * ux - ax * up))
            ii = ia - np.arange(n) + n - 1
            jj = ib - np.arange(n) + n - 1
            block = chi_tab[np.ix_(ii, jj)]
            acc = np.sum(wa * phase * block) * h2
            out[ia, ib] = -(8.0 / pi) * acc.imag
    return CommutatorGrid(geom, out)


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
