"""Commutativity-based discord verification for discrete-variable states.

Measuring an IC-POVM on subsystem A leaves subsystem B in one conditional
state per outcome. If those conditionals all commute, the joint state is
consistent with zero discord from B to A; a single non-commuting pair
witnesses nonzero discord. A nondegenerate conditional state serves as an
anchor, cutting the check from all pairs down to anchor-versus-rest.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import DimMismatch, check_threshold
from .linalg import (
    DensityOperator,
    admit_memory,
    commutator,
    dag,
    degeneracy_gap,
    frobenius_norm,
    hermitian_eig,
    random_density_matrix,
    random_unitary,
    tensor,
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

# Unit roundoff of binary64, the precision of the stored state.
UNIT_ROUNDOFF = np.finfo(float).eps / 2


@dataclass
class ConditionalEnsemble:
    """Outcome probabilities with the conditional states of subsystem B, as
    condition_on_povm computed them; it checks nothing again.

    states is one (K, d, d) array of the rho_{B|k}; present[k] is False, and
    states[k] zero, when outcome k has probability at or below PROB_FLOOR.
    rounding[k] bounds how far the rounding of the input and of the
    conditioning can move the commutator norm of states[k] with another
    conditional, as condition_on_povm computes it; a pair's bound is the sum
    of its two. gaps[k] is the degeneracy_gap of states[k], 0 if absent.
    """

    probabilities: np.ndarray
    states: np.ndarray
    rounding: np.ndarray
    gaps: np.ndarray = field(init=False)

    def __post_init__(self):
        self.gaps = np.zeros(self.probabilities.shape)
        self.gaps[self.present] = degeneracy_gap(hermitian_eig(self.states[self.present]))

    @property
    def present(self) -> np.ndarray:
        """Which outcomes on A have a conditional state."""
        return self.probabilities > PROB_FLOOR


def present_pairs(present: np.ndarray, anchor: Optional[int] = None) -> np.ndarray:
    """(P, 2) array of every pair (j, k) of outcomes with j < k that the mask
    present marks, in row-major order; given a present anchor, the pairs
    (anchor, k) for every other present k instead, in order of k."""
    present = np.flatnonzero(present)
    if anchor is not None:
        rest = present[present != anchor]
        return np.column_stack([np.full_like(rest, anchor), rest])
    return present[np.column_stack(np.triu_indices(present.size, k=1))]


@dataclass
class Verdict:
    """A route's verdict with the numbers behind it. witnesses and thresholds
    are keyed and valued as the report writes them."""

    verdict: str
    witnesses: dict
    thresholds: dict


def povm_blocks(rho: DensityOperator, p: Povm) -> np.ndarray:
    """B's unnormalised conditionals X_k = Tr_A[(M_k x I) rho], one per effect
    of a POVM measured on A, as one (K, d_B, d_B) stack; rho's indices are (a, b, a', b')."""
    if rho.bipartition is None:
        raise DimMismatch("conditioning requires a bipartite state")
    da, db = rho.bipartition
    if p.dim != da:
        raise DimMismatch(f"POVM dim {p.dim} does not match subsystem A dim {da}")
    return np.einsum("kac,cbad->kbd", p.effects, rho.matrix.reshape(da, db, da, db))


def condition_on_povm(rho: DensityOperator, p: Povm) -> ConditionalEnsemble:
    """Conditional states of B for each outcome of a POVM measured on A.

    p_k = Tr[X_k] and rho_{B|k} = X_k / p_k, with X_k the povm_blocks, for
    each p_k above PROB_FLOOR. rho and the POVM are checked on construction,
    so the ensemble records these values without checking them again.

    A Frobenius perturbation eta of rho moves the block Tr_A[(M_k x I) rho]
    by at most ||M_k||_F eta, and p_k by sqrt(d_B) times that, so it moves
    rho_{B|k} by at most (1 + sqrt(d_B)) ||M_k||_F eta / p_k, to first order,
    and a commutator of unit-Frobenius states with it by sqrt(2) times that.
    The ensemble's rounding is this bound at eta = (d_A^2 + 3) u, with u the
    unit roundoff: the stored rho's rounding, u, plus the rounding of the d_A^2
    terms summed into each block entry.
    """
    blocks = povm_blocks(rho, p)
    da, db = rho.bipartition
    probs = np.trace(blocks, axis1=1, axis2=2).real
    present = probs > PROB_FLOOR
    states = np.zeros_like(blocks)
    cond = blocks[present] / probs[present, None, None]
    states[present] = (cond + dag(cond)) / 2.0
    rounding = np.zeros_like(probs)
    rounding[present] = (np.sqrt(2.0) * (1.0 + np.sqrt(db)) * (da * da + 3) * UNIT_ROUNDOFF
                         * frobenius_norm(p.effects[present]) / probs[present])
    return ConditionalEnsemble(probs, states, rounding)


def select_anchor(e: ConditionalEnsemble) -> Optional[int]:
    """Index of the least degenerate conditional state, or None.

    Returns the present state with the largest minimum eigenvalue gap in
    e.gaps, provided that gap exceeds DEGENERACY_THRESHOLD. The gaps are
    scanned in index order, and one replaces the best so far only when it
    exceeds it by the relative ANCHOR_TIE_RTOL, so gaps equal up to rounding
    tie to the lowest index.
    """
    best_idx = None
    best_gap = DEGENERACY_THRESHOLD
    for k, gap in enumerate(e.gaps):      # an absent outcome's 0 never wins
        if gap > best_gap * (1.0 + ANCHOR_TIE_RTOL):
            best_gap = gap
            best_idx = k
    return best_idx


def anchor_bound(norm: float, gap: float) -> float:
    """Bound on the commutator norm of any two conditionals when each
    commutes with an anchor of minimum gap `gap` up to Frobenius norm `norm`.

    Each conditional's part off the anchor's diagonal then has norm at most
    r = norm / gap, and the bound is 2 r + sqrt(2) r^2: two commutators of
    a diagonal part (entries in [0, 1]) with an off-diagonal one, plus the
    commutator of the two off-diagonal parts (Boettcher-Wenzel).
    """
    r = norm / gap
    return 2.0 * r + np.sqrt(2.0) * r * r


def verify_commutativity(e: ConditionalEnsemble,
                         threshold: float = DEFAULT_COMMUTATOR_THRESHOLD,
                         ) -> Verdict:
    """Check pairwise commutativity of the conditional states.

    A pair (j, k) exceeds the threshold tau when its commutator's Frobenius
    norm exceeds tau plus the pair's rounding bound, e.rounding[j] +
    e.rounding[k], so tau = 0 asks for a commutator beyond rounding. On the
    scale of rho (see condition_on_povm), a pair that exceeds tau puts rho at
    a Frobenius distance above tau / (sqrt(2) (1 + sqrt(d_B)) (||M_j||_F / p_j
    + ||M_k||_F / p_k)), to first order, from every state whose conditionals
    commute; a rare outcome thus needs a larger perturbation of rho to count.

    With a nondegenerate anchor present, only the anchor-versus-rest
    commutators are needed; commuting with a nondegenerate state forces
    every conditional into its eigenbasis, so the remaining pairs commute
    as well. At a finite threshold that holds only as far as anchor_bound
    says: when no anchor pair exceeds the threshold but the bound on the
    unchecked pairs exceeds tau plus the least rounding bound among them,
    all pairs are checked and reported as for an ensemble without an anchor.
    Without an anchor all pairs are checked. The first pair, in sweep
    order, that exceeds the threshold is the witness; checked_pairs and
    max_commutator_norm count the pairs up to it. threshold must be finite
    and nonnegative (DomainError).
    """
    check_threshold("threshold", threshold)
    anchor = select_anchor(e)
    pairs = present_pairs(e.present, anchor)
    norms, floors = _pair_norms(e, pairs, threshold)
    if anchor is not None and not np.any(norms > floors):
        # an unchecked pair's bound is at least the two least of the others'
        least = np.sort(e.rounding[pairs[:, 1]])[:2].sum()
        if anchor_bound(np.max(norms, initial=0.0), e.gaps[anchor]) > threshold + least:
            anchor, pairs = None, present_pairs(e.present)
            norms, floors = _pair_norms(e, pairs, threshold)
    above = np.flatnonzero(norms > floors)
    checked = int(above[0]) + 1 if above.size else len(pairs)
    witness = tuple(pairs[above[0]].tolist()) if above.size else None
    return Verdict(NONZERO_DISCORD if above.size else CONSISTENT_WITH_ZERO,
                   {"max_commutator_norm": float(np.max(norms[:checked], initial=0.0)),
                    "witness_pair": witness, "anchor_index": anchor, "checked_pairs": checked},
                   {"commutator_norm": threshold})


def _pair_norms(e: ConditionalEnsemble, pairs: np.ndarray, threshold: float) -> tuple:
    """Frobenius norm of the commutator of each pair of conditionals, and
    the norm above which each pair exceeds threshold: it plus the pair's
    two rounding bounds. A sweep that would need more than physical memory
    is refused before it allocates (TooLarge)."""
    # five (P, d, d) complex stacks at a time: the two conditionals of each
    # pair, their two products and the commutator
    dim = e.states.shape[-1]
    admit_memory(80 * len(pairs) * dim * dim, f"{len(pairs)} conditional pairs on a "
                 f"{dim}-level B need", "the commutativity sweep")
    return (frobenius_norm(commutator(e.states[pairs[:, 0]], e.states[pairs[:, 1]])),
            threshold + e.rounding[pairs].sum(axis=1))


def generate_zero_discord(dim_a: int, dim_b: int, seed: int) -> DensityOperator:
    """Random state of the classical-quantum form sum_j p_j rho_j x |j><j|.

    The pointer basis {|j>} on B comes from a seeded Haar unitary, the
    weights from normalized exponentials, and each rho_j is a random
    density matrix on A. Such states have zero discord from B to A.
    """
    if dim_a < 2 or dim_b < 2:
        raise DimMismatch("both dims must be at least 2")
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
        raise DimMismatch("d must be at least 2")
    psi = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    return DensityOperator(np.outer(psi, psi.conj()), bipartition=(d, d))


def _entropy_bits(m: np.ndarray) -> np.ndarray:
    """Von Neumann entropy in bits, with 0 log 0 = 0, of a state, or of each in a
    (..., n, n) stack, Hermitian up to rounding; hermitian_eig symmetrises it."""
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
        total = total + np.where(kept, pj * _entropy_bits(cond), 0.0)
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
        raise DimMismatch("estimator requires a 2x2 bipartite state")
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
