"""Commutativity-based discord verification for discrete-variable states.

Measuring an IC-POVM on subsystem A leaves subsystem B in one conditional
state per outcome. If those conditionals all commute, the joint state is
consistent with zero discord from B to A; a single non-commuting pair
witnesses nonzero discord. A nondegenerate conditional state serves as an
anchor, cutting the check from all pairs down to anchor-versus-rest.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (BadDimension, DimMismatch, DomainError, MissingBipartition,
                     check_threshold)
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
    validate_states,
)
from .povm import Povm

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

    states is one (K, d, d) array of the rho_{B|k}; present[k] is False, and
    states[k] zero, when outcome k has probability at or below the floor.
    """

    probabilities: np.ndarray
    states: np.ndarray
    present: np.ndarray
    source_povm: Povm

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        self.states = np.asarray(self.states, dtype=complex)
        self.present = np.asarray(self.present, dtype=bool)
        if (self.states.ndim != 3 or len(self.states) != self.probabilities.size
                or self.present.shape != self.probabilities.shape):
            raise DimMismatch("one state slot per outcome probability")
        if np.any(self.probabilities < -1e-12):
            raise DomainError("negative outcome probability")
        if abs(self.probabilities.sum() - 1.0) > 1e-10:
            raise DomainError("outcome probabilities do not sum to 1")
        validate_states(self.states[self.present])

    def pairs(self) -> np.ndarray:
        """(P, 2) array of every pair (j, k) of present outcomes with j < k,
        in row-major order."""
        present = np.flatnonzero(self.present)
        return present[np.column_stack(np.triu_indices(present.size, k=1))]


@dataclass
class Verdict:
    """A route's verdict with the numbers behind it. witnesses and thresholds
    are keyed and valued as the report writes them."""

    verdict: str
    witnesses: dict
    thresholds: dict


def condition_on_povm(rho: DensityOperator, p: Povm) -> ConditionalEnsemble:
    """Conditional states of B for each outcome of a POVM measured on A.

    p_k = Tr[(M_k x I) rho] and rho_{B|k} = Tr_A[(M_k x I) rho] / p_k.
    """
    if rho.bipartition is None:
        raise MissingBipartition("conditioning requires a bipartite state")
    da, db = rho.bipartition
    if p.dim != da:
        raise DimMismatch(f"POVM dim {p.dim} does not match subsystem A dim {da}")
    t = rho.matrix.reshape(da, db, da, db)
    # Tr_A[(M_k x I) rho] for every k, with indices (a, b, a', b')
    blocks = np.einsum("kac,cbad->kbd", p.effects, t)
    probs = np.trace(blocks, axis1=1, axis2=2).real
    present = probs > PROB_FLOOR
    states = np.zeros_like(blocks)
    cond = blocks[present] / probs[present, None, None]
    states[present] = (cond + dag(cond)) / 2.0
    return ConditionalEnsemble(probs, states, present, p)


def select_anchor(e: ConditionalEnsemble) -> Optional[int]:
    """Index of the least degenerate conditional state, or None.

    Returns the present state with the largest minimum eigenvalue gap,
    provided that gap exceeds DEGENERACY_THRESHOLD. The gaps are scanned in
    index order, and one replaces the best so far only when it exceeds it
    by the relative ANCHOR_TIE_RTOL, so gaps equal up to rounding tie to the
    lowest index.
    """
    present = np.flatnonzero(e.present)
    gaps = degeneracy_gap(hermitian_eig(e.states[present]))
    best_idx = None
    best_gap = DEGENERACY_THRESHOLD
    for k, gap in zip(present, gaps):
        if gap > best_gap * (1.0 + ANCHOR_TIE_RTOL):
            best_gap = gap
            best_idx = int(k)
    return best_idx


def verify_commutativity(e: ConditionalEnsemble,
                         threshold: float = DEFAULT_COMMUTATOR_THRESHOLD,
                         ) -> Verdict:
    """Check pairwise commutativity of the conditional states.

    With a nondegenerate anchor present, only the anchor-versus-rest
    commutators are needed; commuting with a nondegenerate state forces
    every conditional into its eigenbasis, so the remaining pairs commute
    as well. Without an anchor all pairs are checked. The first pair, in
    sweep order, whose Frobenius norm exceeds the threshold is the witness;
    checked_pairs and max_commutator_norm count the pairs up to it.
    threshold must be finite and nonnegative (DomainError).
    """
    check_threshold("threshold", threshold)
    anchor = select_anchor(e)
    if anchor is not None:
        rest = np.flatnonzero(e.present & (np.arange(e.present.size) != anchor))
        pairs = np.column_stack([np.full_like(rest, anchor), rest])
    else:
        pairs = e.pairs()
    norms = frobenius_norm(commutator(e.states[pairs[:, 0]], e.states[pairs[:, 1]]))
    above = np.flatnonzero(norms > threshold)
    checked = int(above[0]) + 1 if above.size else len(pairs)
    witness = tuple(pairs[above[0]].tolist()) if above.size else None
    return Verdict(NONZERO_DISCORD if above.size else CONSISTENT_WITH_ZERO,
                   {"max_commutator_norm": float(np.max(norms[:checked], initial=0.0)),
                    "witness_pair": witness, "anchor_index": anchor, "checked_pairs": checked},
                   {"commutator_norm": threshold})


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


def reconstruct_joint(e: ConditionalEnsemble, duals: np.ndarray) -> DensityOperator:
    """Rebuild the joint state as sum_k p_k N_k x rho_{B|k}."""
    if len(duals) != len(e.source_povm.effects):
        raise DimMismatch("dual frame does not match the ensemble's POVM")
    da, db = e.source_povm.dim, e.states.shape[-1]
    p = e.present
    out = np.einsum("k,kac,kbd->abcd", e.probabilities[p], duals[p],
                    e.states[p]).reshape(da * db, da * db)
    out = (out + dag(out)) / 2.0
    return DensityOperator(out, bipartition=(da, db))


def _entropy_bits(m: np.ndarray) -> np.ndarray:
    """Von Neumann entropy in bits, with 0 log 0 = 0, of a matrix or of each
    matrix in a (..., n, n) stack."""
    w = hermitian_eig(m).eigenvalues
    kept = w > 1e-15
    return -np.sum(np.where(kept, w * np.log2(np.where(kept, w, 1.0)), 0.0), axis=-1)


def _qubit_projectors(theta, phi) -> Tuple[np.ndarray, np.ndarray]:
    """Projectors onto +-n(theta, phi), shaped (..., 2, 2) over the
    broadcast shape of the angle arrays."""
    st, ct = np.sin(theta), np.cos(theta)
    nx, ny, nz = np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi), ct)
    n_sigma = np.stack([np.stack([nz, nx - 1j * ny], axis=-1),
                        np.stack([nx + 1j * ny, -nz], axis=-1)], axis=-2)
    eye = np.eye(2, dtype=complex)
    return (eye + n_sigma) / 2.0, (eye - n_sigma) / 2.0


def _measured_conditional_entropy(t: np.ndarray, theta, phi) -> np.ndarray:
    """sum_j p_j S(rho_{A|j}) for the projective measurement n(theta, phi) on B,
    over the broadcast shape of the angle arrays."""
    total = 0.0
    for proj in _qubit_projectors(theta, phi):
        block = np.einsum("abcd,...db->...ac", t, proj)
        pj = np.trace(block, axis1=-2, axis2=-1).real
        kept = pj > 1e-14
        cond = block / np.where(kept, pj, 1.0)[..., None, None]
        total = total + np.where(kept, pj * _entropy_bits((cond + dag(cond)) / 2.0), 0.0)
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

    # the first minimum in theta-major order
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    scan = _measured_conditional_entropy(t, thetas[:, None], phis[None, :])
    i, j = np.unravel_index(np.argmin(scan), scan.shape)
    best, theta, phi = scan[i, j], thetas[i], phis[j]

    # compass descent from the best grid point, halving the step on failure;
    # of the four moves, the first that improves is taken
    step = max(np.pi / n_theta, 2.0 * np.pi / n_phi)
    while step > 1e-8:
        dt, dp = step * np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        vals = _measured_conditional_entropy(t, theta + dt, phi + dp)
        better = np.flatnonzero(vals < best - 1e-16)
        if better.size:
            m = better[0]
            best, theta, phi = vals[m], theta + dt[m], phi + dp[m]
        else:
            step /= 2.0
    return s_b - s_ab + best
