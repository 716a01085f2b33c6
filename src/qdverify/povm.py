"""Informationally complete POVMs and their dual (reconstruction) frames.

An IC-POVM on a d-dimensional system has effects spanning the d^2
dimensional operator space, so outcome probabilities determine the state.
The dual frame {N_k} inverts the measurement map: rho equals the sum of
N_k weighted by the outcome probabilities Tr[M_k rho].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CompletenessFailure, DimMismatch, DomainError,
                     NotInformationallyComplete)
from .linalg import (
    PSD_TOL,
    HERMITIAN_TOL,
    admit_memory,
    dag,
    frobenius_norm,
    hermitian_defect,
    hermitian_eig,
)

# Completeness cutoff on the frame operator's smallest-to-largest eigenvalue ratio.
RANK_CUTOFF = 1e-10

# Scale of the Hermitian perturbations used by random_ic_povm. Large enough
# that the PSD clipping bites, which keeps the effects far from the maximally
# mixed operator and makes conditional-state witnesses sizeable.
PERTURBATION_SCALE = 2.0

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Bloch directions of the qubit SIC tetrahedron.
SIC_QUBIT_DIRECTIONS = np.array([
    [1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
]) / np.sqrt(3.0)


@dataclass
class Povm:
    """PSD effects on a d-dimensional system summing to identity.

    effects is one (K, d, d) complex array with M_k = effects[k]; any
    sequence of K d x d matrices is accepted and stacked.
    """

    dim: int
    effects: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise DimMismatch(f"POVM dimension must be positive, got {self.dim}")
        shape = (self.dim, self.dim)
        for i, e in enumerate(self.effects):     # a ragged list cannot be stacked
            if np.shape(e) != shape:
                raise DimMismatch(f"effect {i} has shape {np.shape(e)}")
        e = self.effects = np.asarray(self.effects, dtype=complex).reshape(-1, *shape)
        # each check names the first effect that fails it; finiteness comes
        # first because a NaN difference passes the Hermitian tolerance
        finite = np.isfinite(e).all(axis=(1, 2))
        if not finite.all():
            raise DomainError(f"effect {np.argmin(finite)} has non-finite entries")
        hermitian = hermitian_defect(e) <= HERMITIAN_TOL
        if not hermitian.all():
            raise DomainError(f"effect {np.argmin(hermitian)} is not Hermitian")
        lowest = hermitian_eig(e).eigenvalues[:, -1]
        if np.any(lowest < -PSD_TOL):
            i = np.argmax(lowest < -PSD_TOL)
            raise DomainError(f"effect {i} has eigenvalue {lowest[i]:g}")
        if frobenius_norm(e.sum(axis=0) - np.eye(self.dim)) > 1e-10:
            raise DomainError("effects do not sum to identity")

    def __len__(self) -> int:
        return len(self.effects)


def hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal (trace inner product) basis of Hermitian dim x dim matrices,
    as a (dim^2, dim, dim) array.

    Order is deterministic: diagonal units first, then the symmetric and
    antisymmetric pair for each i < j, with (i, j) in row-major order.
    """
    i, j = np.triu_indices(dim, k=1)
    sym = dim + 2 * np.arange(i.size)
    diag = np.arange(dim)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    basis = np.zeros((dim * dim, dim, dim), dtype=complex)
    basis[diag, diag, diag] = 1.0
    basis[sym, i, j] = basis[sym, j, i] = inv_sqrt2
    basis[sym + 1, i, j] = -1j * inv_sqrt2
    basis[sym + 1, j, i] = 1j * inv_sqrt2
    return basis


def _frame(p: Povm) -> tuple:
    """(basis, coords, e, complete): hermitian_basis(p.dim), the effects'
    real coordinates in it, the eigendecomposition of the frame operator
    coords^T coords, and whether each eigenvalue tops RANK_CUTOFF x the largest."""
    basis = hermitian_basis(p.dim)
    # contiguous: on a strided view, coords.T @ coords sums in another
    # order and the duals move in their last bits
    coords = np.ascontiguousarray(np.einsum("aij,kji->ka", basis, p.effects).real)
    e = hermitian_eig(coords.T @ coords)     # (d^2, d^2), symmetric PSD
    w = e.eigenvalues
    return basis, coords, e, bool(w[-1] > RANK_CUTOFF * w[0])


def sic_qubit() -> Povm:
    """Qubit SIC-POVM, four subnormalized projectors on tetrahedron axes."""
    eye = np.eye(2, dtype=complex)
    nx, ny, nz = SIC_QUBIT_DIRECTIONS.T[:, :, None, None]
    return Povm(2, (eye + nx * _PAULI_X + ny * _PAULI_Y + nz * _PAULI_Z) / 4.0)


def is_informationally_complete(p: Povm) -> bool:
    """True iff the effects span the full d^2 operator space: every
    eigenvalue of the frame operator sum_k |M_k)(M_k|, the operator
    dual_frame inverts, exceeds RANK_CUTOFF times the largest."""
    return _frame(p)[3]


def random_ic_povm(dim: int, seed: int) -> Povm:
    """Random IC-POVM with dim^2 effects, deterministic for a fixed seed.

    Each effect starts as (identity + traceless Hermitian perturbation)
    divided by dim^2, is clipped to the PSD cone, and the whole set is then
    renormalized symmetrically (S^{-1/2} M S^{-1/2} with S the sum) so
    completeness of the sum is exact by construction. Resamples up to ten
    times if the completeness check fails, then raises CompletenessFailure.

    Each attempt draws K = dim^2 blocks of [re, im] dim x dim normals, in
    that order: effect k's perturbation is the Hermitian part of re + i im,
    made traceless and scaled to unit operator norm. The order fixes each
    seed's POVM.
    """
    if dim < 2:
        raise DimMismatch("dim must be at least 2")
    if seed < 0:
        raise DomainError(f"POVM seed must be nonnegative, got {seed}")
    # the traced peak is about 11 (K, d, d) complex stacks: the draws, the
    # perturbations and their eigensolves, then the frame's basis, coordinates
    # and eigensolve
    admit_memory(16 * 12 * dim ** 4, f"{dim * dim} effects on a {dim}-level system need",
                 "the random POVM")
    rng = np.random.default_rng(seed)
    eye = np.eye(dim, dtype=complex)
    for _ in range(10):
        z = rng.normal(size=(dim * dim, 2, dim, dim))
        g = z[:, 0] + 1j * z[:, 1]
        h = (g + dag(g)) / 2.0
        h -= np.trace(h, axis1=1, axis2=2).real[:, None, None] / dim * eye
        w = hermitian_eig(h).eigenvalues
        top = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))[:, None, None]
        h = h / np.where(top > 0, top, 1.0)    # a zero perturbation stays zero
        e = hermitian_eig((eye + PERTURBATION_SCALE * h) / (dim * dim))
        effects = e.reconstruct(np.maximum(e.eigenvalues, 0.0))
        es = hermitian_eig(effects.sum(axis=0))
        if es.eigenvalues[-1] <= 1e-12:
            continue
        inv_sqrt = es.reconstruct(1.0 / np.sqrt(es.eigenvalues))
        effects = inv_sqrt @ effects @ inv_sqrt
        # symmetrize away rounding before validation
        povm = Povm(dim, (effects + dag(effects)) / 2.0)
        if is_informationally_complete(povm):
            return povm
    raise CompletenessFailure(
        f"no informationally complete POVM after 10 attempts (dim={dim}, seed={seed})")


def _mub_effects(p: int) -> np.ndarray:
    """The p(p+1) Wootters-Fields MUB projectors on an odd prime p, each
    weighted 1/(p+1): the computational basis, then for a = 0..p-1 the basis
    with amplitudes omega^(a j^2 + b j)/sqrt(p), b = 0..p-1."""
    j = np.arange(p)
    phase = (j[:, None, None] * j ** 2 + j[None, :, None] * j) % p     # (a, b, j)
    kets = np.concatenate([np.eye(p)[None], np.exp(2j * np.pi / p * phase) / np.sqrt(p)])
    kets = kets.reshape(-1, p)
    return np.einsum("ki,kj->kij", kets, kets.conj()) / (p + 1)


def mub_povm(dim: int) -> Povm:
    """Closed-form IC-POVM: the tensor product, over dim's prime factors in
    ascending order, of the qubit SIC for each 2 and the Wootters-Fields MUBs
    (Ann. Phys. 191, 363, 1989) for each odd prime. Each factor is a
    2-design, so its frame operator has condition number p + 1, and the
    product's is the product of those."""
    if dim < 2:
        raise DimMismatch("dim must be at least 2")
    primes, n = [], dim
    for p in range(2, dim + 1):
        while n % p == 0:           # p is prime: its smaller factors are gone
            primes.append(p)
            n //= p
    n_effects = math.prod(4 if p == 2 else p * (p + 1) for p in primes)
    # four (K, d, d) complex stacks at a time: the effects, the last factor's
    # (as large for a prime dim), and in Povm's eigensolve the Hermitian part
    # with its temporary or with the eigenvectors
    admit_memory(64 * n_effects * dim * dim,
                 f"{n_effects} effects on a {dim}-level system need", "the mub POVM")
    effects = np.ones((1, 1, 1))
    for p in primes:
        f = sic_qubit().effects if p == 2 else _mub_effects(p)
        m = effects.shape[1] * p
        effects = np.einsum("aij,bkl->abikjl", effects, f).reshape(-1, m, m)
    return Povm(dim, effects)


DEFAULT_POVM_SEED = 20240


def default_kind(dim: int) -> str:
    """The default measurement's kind: the SIC for qubits, random otherwise."""
    return "sic" if dim == 2 else "random"


def default_ic_povm(dim: int, seed: int = DEFAULT_POVM_SEED,
                    kind: str | None = None) -> Povm:
    """The qubit SIC, the closed-form MUB POVM or a seeded random IC-POVM,
    as kind ("sic", "mub" or "random"; by default default_kind(dim)) says.
    The seed must be nonnegative for every kind, though only "random" reads
    it (DomainError)."""
    if seed < 0:
        raise DomainError(f"POVM seed must be nonnegative, got {seed}")
    kind = kind or default_kind(dim)
    if kind == "sic":
        if dim != 2:
            raise DimMismatch("the SIC construction here is qubit-only")
        return sic_qubit()
    if kind == "mub":
        return mub_povm(dim)
    return random_ic_povm(dim, seed)


def dual_frame(p: Povm) -> np.ndarray:
    """Dual operators N_k satisfying rho = sum_k N_k Tr[M_k rho], as one
    (K, d, d) array matching p.effects.

    Built from the inverse of the frame operator sum_k |M_k)(M_k| in the
    fixed Hermitian basis. A POVM that is_informationally_complete refuses,
    judged on this same spectrum, raises NotInformationallyComplete.
    """
    basis, coords, e, complete = _frame(p)
    if not complete:
        raise NotInformationallyComplete(
            "dual frame requires an informationally complete POVM")
    dual_coords = (e.reconstruct(1.0 / e.eigenvalues) @ coords.T).T.real
    return np.einsum("ka,aij->kij", dual_coords, basis)


def reconstruct(p: Povm, duals: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Rebuild a state from outcome probabilities via the dual frame, or one
    state per row of a (..., K) array of probabilities."""
    if len(duals) != len(p.effects):
        raise DimMismatch("dual frame does not match the POVM")
    return np.einsum("...k,kij->...ij", probs, duals)
