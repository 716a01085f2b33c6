"""Literal phase-space evaluators, kept as references for the fast routes.

The characteristic route: the characteristic function is chi(xi) =
Tr[rho D(xi)], integrating with the measure dx dp as the Wigner function
does. char_from_fock samples it from a Fock-basis matrix, and the symplectic
transforms char_to_wigner and wigner_to_char move between it and Wigner
grids. char_commutator and moyal_commutator_quadrature evaluate the two
commutator integrals by direct lattice sums, O(n^4) in the grid side; they
check qdverify.phasespace's Moyal route, and each other, on small grids.
fock_series_all_orders is the Fock series summed over every coherence
order, zero or not, the reference for phasespace._fock_series, which skips
the zero ones; char_from_fock is built on it.

The module is not named oracles: perfbench/oracles.py takes that module
name in the same test session.
"""
from dataclasses import dataclass
from math import pi

import numpy as np

from qdverify import phasespace as ph
from qdverify.errors import DimMismatch, DomainError, GeometryMismatch, TruncationTail


@dataclass
class CharGrid:
    """Complex characteristic-function samples on a grid."""

    geometry: ph.GridGeometry
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.geometry.nx, self.geometry.np):
            raise DimMismatch(f"values shape {self.values.shape} does not match "
                              f"geometry {self.geometry.nx}x{self.geometry.np}")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("non-finite characteristic-function values")


def char_from_fock(m: np.ndarray, geom: ph.GridGeometry) -> CharGrid:
    """Characteristic function chi(xi) = Tr[rho D(xi)] of a Fock-basis matrix
    on a grid, refused with TruncationTail as phasespace.wigner_from_fock
    refuses."""
    diag = np.abs(np.diag(m).real)
    tail = float(diag[max(len(m) - 2, 0):].sum()) / max(float(diag.sum()), 1.0)
    if tail > ph.TAIL_TOL:
        raise TruncationTail(f"tail mass {tail:.2e} above {ph.TAIL_TOL:g}; raise the cutoff")
    return CharGrid(geom, fock_series_all_orders(m, geom, 1.0, np.ones(len(m))))


def _symplectic_transform(values: np.ndarray, geom: ph.GridGeometry) -> np.ndarray:
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


def wigner_to_char(wg: ph.WignerGrid) -> CharGrid:
    """Characteristic function from a Wigner grid.

    chi(xi) = int d2alpha W(alpha) e^{xi alpha* - xi* alpha}.
    """
    return CharGrid(wg.geometry, _symplectic_transform(wg.values, wg.geometry))


def char_commutator(chi_k: CharGrid, chi_k2: CharGrid) -> CharGrid:
    """Characteristic function of -i[rho_k, rho_k'].

    Literal lattice evaluation of

      chi_{kk'}(xi) = (2/pi) int d2u chi_k(u) chi_k'(xi - u)
                                sin(u_p xi_x - u_x xi_p),

    where the difference xi - u falls back onto the lattice, so no
    interpolation is needed; samples falling outside the grid are treated
    as zero, which is valid for decaying characteristic functions.
    """
    geom = ph._require_same_geometry(chi_k, chi_k2)
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




def moyal_commutator_quadrature(wk: ph.WignerGrid,
                                wk2: ph.WignerGrid) -> ph.WignerGrid:
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
    geom = ph._require_same_geometry(wk, wk2)
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
    return ph.WignerGrid(geom, out)


def fock_series_all_orders(matrix: np.ndarray, geom: ph.GridGeometry, scale: float,
                           sign: np.ndarray) -> np.ndarray:
    """phasespace._fock_series summed over every coherence order, zero or not.

    Skipping a zero order drops only additions of exact zeros, so the two
    agree bit for bit wherever the result is finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ps = geom.xs(), geom.ps()
        beta = scale * (xs[:, None] + 1j * ps[None, :])
        x = np.abs(beta) ** 2
        radii, where = np.unique(x, return_inverse=True)
        where = where.reshape(x.shape)          # numpy < 2 returns it flat
        size = matrix.shape[0]
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, size)))))
        power = np.exp(-0.5 * x) + 0j           # (-conj(beta))^k e^{-x/2}
        out = np.zeros(x.shape, dtype=complex)
        for k in range(size):
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
            power = power * -np.conj(beta)
        return out
