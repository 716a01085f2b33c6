"""Informationally complete POVMs and their dual (reconstruction) frames.

An IC-POVM on a d-dimensional system has effects spanning the d^2
dimensional operator space, so outcome probabilities determine the state.
The dual frame {N_k} inverts the measurement map: rho equals the sum of
N_k weighted by the outcome probabilities Tr[M_k rho].
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import (CompletenessFailure, DimMismatch, DomainError,
                     NotInformationallyComplete)
from .linalg import (
    PSD_TOL,
    HERMITIAN_TOL,
    dag,
    frobenius_norm,
    hermitian_eig,
    random_traceless_hermitian,
)

# Numerical-rank cutoff for the completeness test and the frame pseudoinverse.
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
    """A set of PSD effects on a d-dimensional system summing to identity."""

    dim: int
    effects: List[np.ndarray]

    def __post_init__(self):
        self.effects = [np.asarray(e, dtype=complex) for e in self.effects]
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for i, e in enumerate(self.effects):
            if e.shape != (self.dim, self.dim):
                raise DimMismatch(f"effect {i} has shape {e.shape}")
            if np.max(np.abs(e - dag(e))) > HERMITIAN_TOL:
                raise DomainError(f"effect {i} is not Hermitian")
            w = hermitian_eig(e).eigenvalues
            if w[-1] < -PSD_TOL:
                raise DomainError(f"effect {i} has eigenvalue {w[-1]:g}")
            total += e
        if frobenius_norm(total - np.eye(self.dim)) > 1e-10:
            raise DomainError("effects do not sum to identity")

    def __len__(self) -> int:
        return len(self.effects)


@dataclass
class DualFrame:
    """Reconstruction operators N_k paired with a Povm's effects."""

    operators: List[np.ndarray] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.operators)


def probabilities(p: Povm, rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities Tr[M_k rho] for a state on the POVM's system."""
    return np.array([np.trace(e @ rho).real for e in p.effects])


def hermitian_basis(dim: int) -> List[np.ndarray]:
    """Orthonormal (trace inner product) basis of Hermitian dim x dim matrices.

    Order is deterministic: diagonal units first, then the symmetric and
    antisymmetric pair for each i < j.
    """
    basis = []
    for i in range(dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = inv_sqrt2
            m[j, i] = inv_sqrt2
            basis.append(m)
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = -1j * inv_sqrt2
            m[j, i] = 1j * inv_sqrt2
            basis.append(m)
    return basis


def _effect_coordinates(p: Povm) -> np.ndarray:
    """Real coordinate vectors of the effects in the fixed Hermitian basis."""
    basis = hermitian_basis(p.dim)
    coords = np.empty((len(p.effects), len(basis)))
    for k, e in enumerate(p.effects):
        for a, b in enumerate(basis):
            coords[k, a] = np.trace(b @ e).real
    return coords


def sic_qubit() -> Povm:
    """Qubit SIC-POVM, four subnormalized projectors on tetrahedron axes."""
    eye = np.eye(2, dtype=complex)
    effects = []
    for nx, ny, nz in SIC_QUBIT_DIRECTIONS:
        effects.append((eye + nx * _PAULI_X + ny * _PAULI_Y + nz * _PAULI_Z) / 4.0)
    return Povm(2, effects)


def is_informationally_complete(p: Povm) -> bool:
    """True iff the effects span the full d^2 operator space.

    Checked through the numerical rank of the Gram matrix Tr[M_j M_k]:
    eigenvalues above RANK_CUTOFF times the largest count toward the rank.
    """
    gram = np.empty((len(p.effects), len(p.effects)))
    for j, ej in enumerate(p.effects):
        for k, ek in enumerate(p.effects):
            gram[j, k] = np.trace(dag(ej) @ ek).real
    w = hermitian_eig(gram).eigenvalues
    top = w[0]
    if top <= 0:
        return False
    rank = int(np.sum(w > RANK_CUTOFF * top))
    return rank >= p.dim * p.dim


def random_ic_povm(dim: int, seed: int) -> Povm:
    """Random IC-POVM with dim^2 effects, deterministic for a fixed seed.

    Each effect starts as (identity + traceless Hermitian perturbation)
    divided by dim^2, is clipped to the PSD cone, and the whole set is then
    renormalized symmetrically (S^{-1/2} M S^{-1/2} with S the sum) so
    completeness of the sum is exact by construction. Resamples up to ten
    times if the completeness check fails, then raises CompletenessFailure.
    """
    if dim < 2:
        raise DimMismatch("dim must be at least 2")
    rng = np.random.default_rng(seed)
    eye = np.eye(dim, dtype=complex)
    for _ in range(10):
        effects = []
        for _k in range(dim * dim):
            h = random_traceless_hermitian(dim, rng)
            cand = (eye + PERTURBATION_SCALE * h) / (dim * dim)
            e = hermitian_eig(cand)
            clipped = np.maximum(e.eigenvalues, 0.0)
            v = e.eigenvectors
            effects.append((v * clipped) @ dag(v))
        total = np.zeros((dim, dim), dtype=complex)
        for m in effects:
            total += m
        es = hermitian_eig(total)
        if es.eigenvalues[-1] <= 1e-12:
            continue
        inv_sqrt = (es.eigenvectors * (1.0 / np.sqrt(es.eigenvalues))) @ dag(es.eigenvectors)
        effects = [inv_sqrt @ m @ inv_sqrt for m in effects]
        # symmetrize away rounding before validation
        effects = [(m + dag(m)) / 2.0 for m in effects]
        povm = Povm(dim, effects)
        if is_informationally_complete(povm):
            return povm
    raise CompletenessFailure(
        f"no informationally complete POVM after 10 attempts (dim={dim}, seed={seed})")


DEFAULT_POVM_SEED = 20240


def default_ic_povm(dim: int, seed: int = DEFAULT_POVM_SEED,
                    kind: str | None = None) -> Povm:
    """Default measurement: the SIC for qubits, a random IC-POVM otherwise."""
    if kind is None:
        kind = "sic" if dim == 2 else "random"
    if kind == "sic":
        if dim != 2:
            raise DimMismatch("the SIC construction here is qubit-only")
        return sic_qubit()
    return random_ic_povm(dim, seed)


def dual_frame(p: Povm) -> DualFrame:
    """Dual operators N_k satisfying rho = sum_k N_k Tr[M_k rho].

    Built from the pseudoinverse of the frame operator sum_k |M_k)(M_k| in
    the fixed Hermitian basis, with eigenvalues below RANK_CUTOFF times the
    largest treated as zero.
    """
    if not is_informationally_complete(p):
        raise NotInformationallyComplete(
            "dual frame requires an informationally complete POVM")
    coords = _effect_coordinates(p)          # (K, d^2)
    frame = coords.T @ coords                # (d^2, d^2), symmetric PSD
    e = hermitian_eig(frame)
    w = e.eigenvalues
    inv = np.where(w > RANK_CUTOFF * w[0], 1.0 / np.where(w > 0, w, 1.0), 0.0)
    pinv = (e.eigenvectors * inv) @ dag(e.eigenvectors)
    dual_coords = (pinv @ coords.T).T.real   # (K, d^2)
    basis = hermitian_basis(p.dim)
    operators = []
    for k in range(len(p.effects)):
        n = np.zeros((p.dim, p.dim), dtype=complex)
        for a, b in enumerate(basis):
            n += dual_coords[k, a] * b
        operators.append(n)
    return DualFrame(operators)


def reconstruct(p: Povm, duals: DualFrame, probs: np.ndarray) -> np.ndarray:
    """Rebuild a state from outcome probabilities via the dual frame."""
    if len(duals) != len(p.effects):
        raise DimMismatch("dual frame does not match the POVM")
    out = np.zeros((p.dim, p.dim), dtype=complex)
    for n, pk in zip(duals.operators, probs):
        out += pk * n
    return out
