"""Commutativity-based discord verification for discrete-variable states.

Measuring an IC-POVM on subsystem A leaves subsystem B in one conditional
state per outcome. If those conditionals all commute, the joint state is
consistent with zero discord from B to A; a single non-commuting pair
witnesses nonzero discord. A nondegenerate conditional state serves as an
anchor, cutting the check from all pairs down to anchor-versus-rest.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import BadDimension, DimMismatch, DomainError, MissingBipartition
from .linalg import (
    DensityOperator,
    commutator,
    dag,
    degeneracy_gap,
    frobenius_norm,
    hermitian_eig,
    random_density_matrix,
    random_unitary,
    tensor,
)
from .povm import DualFrame, Povm

NONZERO_DISCORD = "NONZERO_DISCORD"
CONSISTENT_WITH_ZERO = "CONSISTENT_WITH_ZERO"

# Outcomes with probability at or below this floor have no defined
# conditional state and are skipped rather than stored.
PROB_FLOOR = 1e-12

# A conditional state is accepted as an anchor only if its minimum
# eigenvalue gap exceeds this.
DEGENERACY_THRESHOLD = 1e-8

# A gap counts as larger than the best so far only when it exceeds it by
# this relative margin, so gaps equal up to rounding tie to the lowest index.
ANCHOR_TIE_RTOL = 1e-9

DEFAULT_COMMUTATOR_THRESHOLD = 1e-9


@dataclass
class ConditionalEnsemble:
    """Outcome probabilities with the conditional states of subsystem B.

    states[k] is None when outcome k has probability at or below the floor.
    """

    probabilities: np.ndarray
    states: List[Optional[DensityOperator]]
    source_povm: Povm

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if len(self.states) != self.probabilities.size:
            raise DimMismatch("one state slot per outcome probability")
        if np.any(self.probabilities < -1e-12):
            raise DomainError("negative outcome probability")
        if abs(self.probabilities.sum() - 1.0) > 1e-10:
            raise DomainError("outcome probabilities do not sum to 1")

    def present_indices(self) -> List[int]:
        return [k for k, s in enumerate(self.states) if s is not None]


@dataclass
class CommutativityVerdict:
    verdict: str
    max_commutator_norm: float
    witness_pair: Optional[Tuple[int, int]]
    anchor_index: Optional[int]
    checked_pairs: int
    threshold: float


def condition_on_povm(rho: DensityOperator, p: Povm,
                      prob_floor: float = PROB_FLOOR) -> ConditionalEnsemble:
    """Conditional states of B for each outcome of a POVM measured on A.

    p_k = Tr[(M_k x I) rho] and rho_{B|k} = Tr_A[(M_k x I) rho] / p_k.
    """
    if rho.bipartition is None:
        raise MissingBipartition("conditioning requires a bipartite state")
    da, db = rho.bipartition
    if p.dim != da:
        raise DimMismatch(f"POVM dim {p.dim} does not match subsystem A dim {da}")
    t = rho.matrix.reshape(da, db, da, db)
    probs = np.empty(len(p.effects))
    states: List[Optional[DensityOperator]] = []
    for k, effect in enumerate(p.effects):
        # Tr_A[(M_k x I) rho] with indices (a, b, a', b')
        block = np.einsum("ac,cbad->bd", effect, t)
        pk = np.trace(block).real
        probs[k] = pk
        if pk > prob_floor:
            cond = block / pk
            cond = (cond + dag(cond)) / 2.0
            states.append(DensityOperator(cond))
        else:
            states.append(None)
    return ConditionalEnsemble(probs, states, p)


def select_anchor(e: ConditionalEnsemble,
                  degeneracy_threshold: float = DEGENERACY_THRESHOLD) -> Optional[int]:
    """Index of the least degenerate conditional state, or None.

    Returns the present state with the largest minimum eigenvalue gap,
    provided that gap exceeds the degeneracy threshold. Gaps within a
    relative ANCHOR_TIE_RTOL of each other tie, and ties break to the
    lowest index.
    """
    best_idx = None
    best_gap = degeneracy_threshold
    for k in e.present_indices():
        gap = degeneracy_gap(hermitian_eig(e.states[k].matrix))
        if gap > best_gap * (1.0 + ANCHOR_TIE_RTOL):
            best_gap = gap
            best_idx = k
    return best_idx


def verify_commutativity(e: ConditionalEnsemble,
                         threshold: float = DEFAULT_COMMUTATOR_THRESHOLD,
                         degeneracy_threshold: float = DEGENERACY_THRESHOLD,
                         ) -> CommutativityVerdict:
    """Check pairwise commutativity of the conditional states.

    With a nondegenerate anchor present, only the anchor-versus-rest
    commutators are needed; commuting with a nondegenerate state forces
    every conditional into its eigenbasis, so the remaining pairs commute
    as well. Without an anchor all pairs are checked. The sweep stops at
    the first Frobenius norm above the threshold, reporting that pair.
    """
    present = e.present_indices()
    anchor = select_anchor(e, degeneracy_threshold)
    if anchor is not None:
        pairs = [(anchor, k) for k in present if k != anchor]
    else:
        pairs = [(j, k) for i, j in enumerate(present) for k in present[i + 1:]]
    max_norm = 0.0
    checked = 0
    for j, k in pairs:
        norm = frobenius_norm(commutator(e.states[j].matrix, e.states[k].matrix))
        checked += 1
        max_norm = max(max_norm, norm)
        if norm > threshold:
            return CommutativityVerdict(NONZERO_DISCORD, max_norm, (j, k),
                                        anchor, checked, threshold)
    return CommutativityVerdict(CONSISTENT_WITH_ZERO, max_norm, None,
                                anchor, checked, threshold)


def generate_zero_discord(dim_a: int, dim_b: int, seed: int) -> DensityOperator:
    """Random state of the classical-quantum form sum_j p_j rho_j x |j><j|.

    The pointer basis {|j>} on B comes from a seeded Haar unitary, the
    weights from normalized exponentials, and each rho_j is a random
    density matrix on A. Such states have zero discord from B to A.
    """
    if dim_a < 2 or dim_b < 2:
        raise BadDimension("both dims must be at least 2")
    rng = np.random.default_rng(seed)
    weights = rng.exponential(size=dim_b)
    weights /= weights.sum()
    basis = random_unitary(dim_b, rng)
    out = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    for j in range(dim_b):
        rho_j = random_density_matrix(dim_a, rng)
        ket = basis[:, j:j + 1]
        out += weights[j] * tensor(rho_j, ket @ dag(ket))
    out = (out + dag(out)) / 2.0
    return DensityOperator(out, bipartition=(dim_a, dim_b))


def generate_maximally_entangled(d: int) -> DensityOperator:
    """Density operator of sum_j |jj> / sqrt(d)."""
    if d < 2:
        raise BadDimension("d must be at least 2")
    psi = np.zeros(d * d, dtype=complex)
    for j in range(d):
        psi[j * d + j] = 1.0 / np.sqrt(d)
    return DensityOperator(np.outer(psi, psi.conj()), bipartition=(d, d))


def reconstruct_joint(e: ConditionalEnsemble, duals: DualFrame) -> DensityOperator:
    """Rebuild the joint state as sum_k p_k N_k x rho_{B|k}."""
    if len(duals) != len(e.source_povm.effects):
        raise DimMismatch("dual frame does not match the ensemble's POVM")
    da = e.source_povm.dim
    db = next(e.states[k].dim for k in e.present_indices())
    out = np.zeros((da * db, da * db), dtype=complex)
    for k in e.present_indices():
        out += e.probabilities[k] * tensor(duals.operators[k], e.states[k].matrix)
    out = (out + dag(out)) / 2.0
    return DensityOperator(out, bipartition=(da, db))


def _entropy_bits(m: np.ndarray) -> float:
    """Von Neumann entropy in bits, with 0 log 0 = 0."""
    w = hermitian_eig(m).eigenvalues
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def _qubit_projectors(theta: float, phi: float) -> Tuple[np.ndarray, np.ndarray]:
    st, ct = np.sin(theta), np.cos(theta)
    nx, ny, nz = st * np.cos(phi), st * np.sin(phi), ct
    n_sigma = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])
    eye = np.eye(2, dtype=complex)
    return (eye + n_sigma) / 2.0, (eye - n_sigma) / 2.0


def _measured_conditional_entropy(t: np.ndarray, theta: float, phi: float) -> float:
    """sum_j p_j S(rho_{A|j}) for the projective measurement n(theta, phi) on B."""
    plus, minus = _qubit_projectors(theta, phi)
    total = 0.0
    for proj in (plus, minus):
        block = np.einsum("abcd,db->ac", t, proj)
        pj = np.trace(block).real
        if pj > 1e-14:
            cond = block / pj
            total += pj * _entropy_bits((cond + dag(cond)) / 2.0)
    return total


def discord_estimate_2q(rho: DensityOperator, n_theta: int = 64,
                        n_phi: int = 128) -> float:
    """Upper-bound estimate of discord from B to A for a two-qubit state.

    Evaluates S(rho_B) - S(rho_AB) plus the measured conditional entropy
    minimized over projective qubit measurements on B, scanned on a
    (theta, phi) grid and refined by one deterministic local-descent pass.
    Entropies are in bits. Projective measurements only, so the value is
    an upper bound on the true discord.
    """
    if rho.bipartition != (2, 2):
        raise BadDimension("estimator requires a 2x2 bipartite state")
    t = rho.matrix.reshape(2, 2, 2, 2)
    rho_b = np.einsum("abad->bd", t)
    s_b = _entropy_bits(rho_b)
    s_ab = _entropy_bits(rho.matrix)

    best = np.inf
    best_angles = (0.0, 0.0)
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    for theta in thetas:
        for phi in phis:
            val = _measured_conditional_entropy(t, theta, phi)
            if val < best:
                best = val
                best_angles = (theta, phi)

    # compass descent from the best grid point, halving the step on failure
    theta, phi = best_angles
    step = max(np.pi / n_theta, 2.0 * np.pi / n_phi)
    while step > 1e-8:
        improved = False
        for dt, dp in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            val = _measured_conditional_entropy(t, theta + dt, phi + dp)
            if val < best - 1e-16:
                best = val
                theta += dt
                phi += dp
                improved = True
                break
        if not improved:
            step /= 2.0
    return s_b - s_ab + best
