"""Dense complex linear algebra for finite-dimensional bipartite systems.

Matrices are plain complex numpy arrays. The only structured value is
DensityOperator, which checks the physical invariants of one matrix
(Hermitian, unit trace, positive semidefinite) on construction. Every
spectral question goes through the one eigensolver hermitian_eig, which
checks nothing a boundary type has checked already, and every rebuild
V diag(w) V^dagger through EigenDecomposition.reconstruct. All are pure.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DimMismatch, DomainError, TooLarge

# Structural checks (hermiticity, trace) and spectral checks (eigenvalues,
# residuals) use different tolerances, fixed here.
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


def physical_memory_bytes() -> int:
    """Physical memory of the machine, the bound on any one allocation."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def admit_memory(need: int, needs: str, task: str) -> None:
    """Refuse, with TooLarge, a task that needs more than physical memory;
    the message reads "<needs> about <need> GiB for <task>; ...". Call it
    before allocating."""
    have = physical_memory_bytes()
    if need > have:
        raise TooLarge(f"{needs} about {need / 2 ** 30:.3g} GiB for {task}; "
                       f"physical memory is {have / 2 ** 30:.3g} GiB")


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a (..., n, n) stack."""
    return np.conj(np.swapaxes(m, -1, -2))


def hermitian_defect(m: np.ndarray) -> np.ndarray:
    """max |m - m^dagger| of a matrix, or of each matrix in a (..., n, n)
    stack. A difference that overflows reads inf, which fails every
    tolerance, and raises no RuntimeWarning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(m - dag(m)).max(axis=(-2, -1), initial=0.0)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return a @ b - b @ a, for two matrices or two (..., n, n) stacks.

    Raises DimMismatch unless both operands are square with equal shapes.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimMismatch(f"first operand is not square: {a.shape}")
    if a.shape != b.shape:
        raise DimMismatch(f"operand shapes differ: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def frobenius_norm(m: np.ndarray) -> np.ndarray:
    """sqrt of the sum of squared magnitudes of the entries of a matrix, or
    of each matrix in a (..., n, n) stack."""
    return np.sqrt(np.sum(np.abs(np.asarray(m)) ** 2, axis=(-2, -1)))


@dataclass
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix, or of a stack of them.

    eigenvalues (..., n) are real and sorted descending; eigenvectors
    (..., n, n) holds the matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self, w: Optional[np.ndarray] = None) -> np.ndarray:
        """V diag(w) V^dagger, with w (..., n) the eigenvalues by default."""
        v = self.eigenvectors
        w = self.eigenvalues if w is None else w
        return (v * w[..., None, :]) @ dag(v)


def hermitian_eig(m: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of the Hermitian part (m + m^dagger)/2 of a matrix
    or (..., n, n) stack, by LAPACK's eigh, with descending eigenvalues.

    The one eigensolver. Callers pass values that a boundary type
    (DensityOperator, Povm, GaussianState) has checked, or values built
    Hermitian from such. Where eigh does not converge, as it can on finite
    entries far apart in scale, it retries once on each matrix scaled by the
    power of two that brings its largest entry into [1/2, 1), an exact
    scale, so an input eigh decomposes at once keeps its bits. It refuses,
    with DomainError, only a spectrum that comes out non-finite or not at
    all, and names the cause: entries that are not finite, entries so large
    (about 9e307 or more) that the symmetrisation or eigh overflows, or an
    eigh that did not converge on the retry either.
    """
    a = np.asarray(m, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        h = (a + dag(a)) / 2.0
        try:
            w, v = np.linalg.eigh(h)
        except np.linalg.LinAlgError:
            top = np.frexp(np.abs(h).max(axis=(-2, -1), initial=0.0))[1]
            scale = np.ldexp(1.0, np.clip(top, -1021, 1021))
            try:
                w, v = np.linalg.eigh(h / scale[..., None, None])
                w = w * scale[..., None]
            except np.linalg.LinAlgError:
                w = None
    # n eigenvalues to check, not n^2 entries: a NaN passes every < test
    if w is None or not np.isfinite(w).all():
        if not np.isfinite(a).all():
            raise DomainError("matrix has non-finite entries")
        raise DomainError("the eigensolver did not converge" if w is None and np.isfinite(h).all()
                          else "matrix entries overflow the eigensolver")
    return EigenDecomposition(w[..., ::-1], v[..., ::-1])


def degeneracy_gap(e: EigenDecomposition) -> np.ndarray:
    """Minimum pairwise eigenvalue gap of a matrix, or of each matrix in a
    stack; 0 signals degeneracy, and a 1x1 matrix has gap inf."""
    w = np.sort(e.eigenvalues, axis=-1)
    return np.min(np.diff(w, axis=-1), axis=-1, initial=np.inf)


@dataclass
class DensityOperator:
    """Hermitian, unit-trace, PSD matrix, optionally tagged bipartite.

    Construction checks the matrix: square and nonempty (DimMismatch), then
    finite, Hermitian, unit trace and PSD, each within its tolerance
    (DomainError otherwise).

    bipartition, when set, is (dimA, dimB) with the first tensor factor A
    and the second factor B, so index (a, b) maps to row a * dimB + b.
    """

    matrix: np.ndarray
    bipartition: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        shape = np.shape(self.matrix)
        if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
            raise DimMismatch(f"density operator must be square and nonempty: {shape}")
        m = self.matrix = np.asarray(self.matrix, dtype=complex)
        if not np.all(np.isfinite(m)):
            raise DomainError("density operator has non-finite entries")
        herm = hermitian_defect(m)
        if herm > HERMITIAN_TOL:
            raise DomainError(f"density operator not Hermitian: {herm:g}")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainError(f"trace is {tr}, not 1 within {TRACE_TOL:g}")
        lowest = hermitian_eig(m).eigenvalues[-1]
        if lowest < -PSD_TOL:
            raise DomainError(f"negative eigenvalue {lowest:g} below -{PSD_TOL:g}")
        if self.bipartition is not None:
            da, db = self.bipartition
            if da < 1 or db < 1 or da * db != m.shape[0]:
                raise DimMismatch(
                    f"bipartition {da}x{db} does not match dim {m.shape[0]}")
            self.bipartition = (int(da), int(db))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def swap_subsystems(rho: DensityOperator) -> DensityOperator:
    """Exchange the roles of A and B in a bipartite density operator."""
    if rho.bipartition is None:
        raise DimMismatch("density operator carries no bipartition")
    da, db = rho.bipartition
    t = rho.matrix.reshape(da, db, da, db).transpose(1, 0, 3, 2)
    return DensityOperator(t.reshape(da * db, da * db), bipartition=(db, da))


# Seeded generators for test states and measurement fixtures. These take an
# explicit numpy Generator so that no ambient RNG state is touched.

def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (normalized Ginibre product)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ dag(g)
    return rho / np.trace(rho).real
