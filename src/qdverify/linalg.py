"""Dense complex linear algebra for finite-dimensional bipartite systems.

Matrices are plain complex numpy arrays. The only structured value is
DensityOperator, which validates the physical invariants (Hermitian, unit
trace, positive semidefinite) on construction. Every spectral question in
the package goes through hermitian_eig, a checked wrapper over numpy's
LAPACK eigh. All functions are pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DimMismatch, DomainError, MissingBipartition, NotHermitian

# Structural checks (hermiticity, trace) and spectral checks (eigenvalues,
# residuals) use different default tolerances; both are overridable.
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
SPECTRAL_TOL = 1e-10


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(m.T)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return a @ b - b @ a.

    Raises DimMismatch unless both operands are square with equal dims.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"first operand is not square: {a.shape}")
    if a.shape != b.shape:
        raise DimMismatch(f"operand shapes differ: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def frobenius_norm(m: np.ndarray) -> float:
    """sqrt of the sum of squared magnitudes of all entries."""
    return float(np.sqrt(np.sum(np.abs(np.asarray(m)) ** 2)))


@dataclass
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are real and sorted descending; eigenvectors holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dag(v)


def hermitian_eig(m: np.ndarray, herm_tol: float = SPECTRAL_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by LAPACK's eigh.

    The input is symmetrised before the call, and the result is reordered
    to descending eigenvalues. Raises NotHermitian if m is not square, has
    non-finite entries, or max |m - m^dagger| exceeds herm_tol.
    """
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitian(f"not a square matrix: {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NotHermitian("matrix has non-finite entries")
    if np.max(np.abs(a - dag(a))) > herm_tol:
        raise NotHermitian("matrix is not Hermitian within tolerance "
                           f"{herm_tol:g}")
    w, v = np.linalg.eigh((a + dag(a)) / 2.0)
    return EigenDecomposition(w[::-1], v[:, ::-1])


def degeneracy_gap(e: EigenDecomposition) -> float:
    """Minimum pairwise eigenvalue gap; 0 signals degeneracy."""
    w = np.sort(e.eigenvalues)
    if w.size < 2:
        return float("inf")
    return float(np.min(np.diff(w)))


@dataclass
class DensityOperator:
    """Hermitian, unit-trace, PSD matrix, optionally tagged bipartite.

    bipartition, when set, is (dimA, dimB) with the first tensor factor A
    and the second factor B, so index (a, b) maps to row a * dimB + b.
    """

    matrix: np.ndarray
    bipartition: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimMismatch(f"density operator must be square: {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise DomainError("density operator has non-finite entries")
        if self.bipartition is not None:
            da, db = self.bipartition
            if da * db != m.shape[0]:
                raise DimMismatch(
                    f"bipartition {da}x{db} does not match dim {m.shape[0]}")
            self.bipartition = (int(da), int(db))
        herm = np.max(np.abs(m - dag(m)))
        if herm > HERMITIAN_TOL:
            raise NotHermitian(f"density operator not Hermitian: {herm:g}")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainError(f"trace is {tr}, not 1 within {TRACE_TOL:g}")
        w = hermitian_eig(m).eigenvalues
        if w[-1] < -PSD_TOL:
            raise DomainError(f"negative eigenvalue {w[-1]:g} below -{PSD_TOL:g}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def partial_trace(rho: DensityOperator, subsystem: str) -> DensityOperator:
    """Trace out subsystem "A" or "B" of a bipartite density operator."""
    if rho.bipartition is None:
        raise MissingBipartition("density operator carries no bipartition")
    da, db = rho.bipartition
    t = rho.matrix.reshape(da, db, da, db)
    if subsystem == "A":
        reduced = np.einsum("abac->bc", t)
    elif subsystem == "B":
        reduced = np.einsum("abcb->ac", t)
    else:
        raise DomainError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return DensityOperator(reduced)


def swap_subsystems(rho: DensityOperator) -> DensityOperator:
    """Exchange the roles of A and B in a bipartite density operator."""
    if rho.bipartition is None:
        raise MissingBipartition("density operator carries no bipartition")
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


def random_traceless_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian with zero trace, normalized to unit operator norm."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + dag(g)) / 2.0
    h -= np.trace(h).real / dim * np.eye(dim)
    w = hermitian_eig(h).eigenvalues
    top = max(abs(w[0]), abs(w[-1]))
    return h / top if top > 0 else h
