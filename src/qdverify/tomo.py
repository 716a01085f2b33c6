"""Finite-shot simulation, linear-inversion estimation, and significance.

A joint IC-POVM measurement on both subsystems is sampled multinomially,
from B's Born rule on the blocks Tr_A[(M_k x I) rho] of the exact route.
B's conditional states are rebuilt from the record alone, by inversion
through the dual frame of B's POVM, then projected to the state cone once.
Commutator norms between estimated conditionals get a first-order
(delta-method) standard error, each row's multinomial variance in closed
form, and the verdict is a z-score test on the largest norm.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (DimMismatch, DomainError, InsufficientOutcomes,
                     NotInformationallyComplete, check_threshold)
from .linalg import DensityOperator, admit_memory, commutator, dag, frobenius_norm, hermitian_eig
from .povm import Povm, dual_frame, is_informationally_complete, reconstruct
from .dv import CONSISTENT_WITH_ZERO, NONZERO_DISCORD, Verdict, povm_blocks, present_pairs

DEFAULT_Z_THRESHOLD = 5.0

# Commutator norms and standard errors at or below this are treated as
# exactly zero: such a norm has no gradient, and such a stderr gives z = 0.
NORM_FLOOR = 1e-12


@dataclass
class ShotRecord:
    """Joint outcome counts n(k, m) for POVMs measured on A and B."""

    povm_a: Povm
    povm_b: Povm
    counts: np.ndarray
    total: int
    seed: int

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        ka, kb = len(self.povm_a.effects), len(self.povm_b.effects)
        if self.counts.shape != (ka, kb):
            raise DimMismatch(f"counts shape {self.counts.shape} does not "
                              f"match POVM sizes {ka}x{kb}")
        if np.any(self.counts < 0):
            raise DomainError("negative counts")
        if self.seed < 0:
            # the seed is provenance only, but a record must be one sample_joint can write
            raise DomainError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class EstimatedConditionals:
    """Linear-inversion estimates of B's conditionals with sampling metadata.

    states[k] estimates B's conditional for outcome k on A; it is zero, and
    present[k] False, when row k holds no counts. freqs[k] holds the
    conditional frequencies n(k, m) / n(k, .), counts[k] the row totals and
    duals_b the dual frame of B's POVM.
    """

    states: np.ndarray
    freqs: np.ndarray
    counts: np.ndarray
    duals_b: np.ndarray

    @property
    def present(self) -> np.ndarray:
        """Which outcomes on A have counts."""
        return self.counts > 0


def joint_probabilities(rho: DensityOperator, povm_a: Povm, povm_b: Povm) -> np.ndarray:
    """p(k, m) = Tr[(M_k x M_m) rho] = Tr[M_m X_k], B's Born rule on the povm_blocks X_k."""
    if rho.bipartition is None or rho.bipartition != (povm_a.dim, povm_b.dim):
        raise DimMismatch("state bipartition does not match the POVM dims")
    blocks = povm_blocks(rho, povm_a).reshape(len(povm_a), -1)
    return (blocks @ np.swapaxes(povm_b.effects, 1, 2).reshape(len(povm_b), -1).T).real


def sample_joint(rho: DensityOperator, povm_a: Povm, povm_b: Povm,
                 shots: int, seed: int) -> ShotRecord:
    """Multinomial sample of the joint measurement, seeded and reproducible."""
    if not 0 <= shots <= np.iinfo(np.int64).max:
        raise DomainError(f"shots must be in [0, 2^63 - 1], got {shots}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    probs = joint_probabilities(rho, povm_a, povm_b)
    flat = np.clip(probs.reshape(-1), 0.0, None)
    flat = flat / flat.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, flat).reshape(probs.shape)
    return ShotRecord(povm_a, povm_b, counts, int(shots), int(seed))


def project_to_state(m: np.ndarray) -> np.ndarray:
    """Nearest-in-spirit density operator to a Hermitian matrix, or to each
    matrix of a (..., n, n) stack: clip eigenvalues, renormalize. The input
    is a real combination of Hermitian duals, Hermitian up to rounding."""
    e = hermitian_eig(m)
    w = np.maximum(e.eigenvalues, 0.0)
    tr = w.sum(axis=-1, keepdims=True)
    w = np.where(tr > 0.0, w / np.where(tr > 0.0, tr, 1.0), 1.0 / w.shape[-1])
    out = e.reconstruct(w)
    return (out + dag(out)) / 2.0


def estimate_conditionals(rec: ShotRecord) -> EstimatedConditionals:
    """Conditional-state estimates from a shot record.

    B's conditional for outcome k on A inverts row k's frequencies through
    the dual frame of B's POVM (NotInformationallyComplete if it has none)
    and projects the result to the PSD unit-trace cone. Outcomes with no
    counts are marked absent and hold zeros. The POVM on A must be
    informationally complete too (NotInformationallyComplete): conditionals
    on a smaller set of outcomes can commute while the state's do not.
    """
    duals_b = dual_frame(rec.povm_b)
    if not is_informationally_complete(rec.povm_a):
        raise NotInformationallyComplete("the POVM on A is not informationally complete")
    marg = rec.counts.sum(axis=1)
    if marg.sum() <= 0:
        raise InsufficientOutcomes("record holds no counts")
    present = marg > 0
    freqs = np.zeros(rec.counts.shape)
    freqs[present] = rec.counts[present] / marg[present, None]
    states = np.zeros((len(marg), rec.povm_b.dim, rec.povm_b.dim), dtype=complex)
    states[present] = project_to_state(reconstruct(rec.povm_b, duals_b, freqs[present]))
    return EstimatedConditionals(states, freqs, marg.astype(float), duals_b)


def _norm_gradients(rho_j: np.ndarray, rho_k: np.ndarray,
                    duals: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Commutator norms of the pairs of two (P, d, d) stacks, and their (P, K)
    gradients wrt the two frequency vectors, tr(L N_m) = vec(L) . vec(N_m^T)
    over the duals N_m; a norm at or below NORM_FLOOR gets zero gradients."""
    comm = commutator(rho_j, rho_k)
    norm = frobenius_norm(comm)
    cd = dag(comm)
    left = rho_k @ cd - cd @ rho_k      # d norm / d rho_j direction
    right = cd @ rho_j - rho_j @ cd     # d norm / d rho_k direction
    scale = np.where(norm > NORM_FLOOR, norm, np.inf)[:, None]
    flat = np.swapaxes(duals, 1, 2).reshape(len(duals), -1).T
    gj = (left.reshape(len(left), -1) @ flat).real / scale
    gk = (right.reshape(len(right), -1) @ flat).real / scale
    return norm, gj, gk


def _delta_variance(freqs: np.ndarray, n: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g^T (diag f - f f^T) g / n per row of the (P, K) frequencies f behind
    n[p] samples, centered as sum_m f_m (g_m - sum_l f_l g_l)^2 / n: the
    one-pass sum f g^2 - (sum f g)^2 and the matrix form both cancel, and
    read rounding as a stderr where g is constant on the observed outcomes."""
    return np.sum(freqs * (g - np.sum(freqs * g, axis=1, keepdims=True)) ** 2, axis=1) / n


def significant_commutativity(est: EstimatedConditionals,
                              z_threshold: float = DEFAULT_Z_THRESHOLD) -> Verdict:
    """Z-score verdict on the largest pairwise commutator norm.

    Standard errors per pair come from the delta method on the linear
    inversion. A pair whose standard error is at or below NORM_FLOOR has
    z = 0, and the sample says nothing about its norm. A row's variance is
    exactly 0 when the norm is at or below the floor (no gradient) or the
    row's counts sit on one outcome, and rounding far below the floor when
    the gradient is constant on the outcomes it observed. z_threshold must
    be finite and nonnegative (DomainError, naming it z as the report and
    CLI do). A sweep that would need more than physical memory is refused
    before it allocates (TooLarge).
    """
    check_threshold("z", z_threshold)
    pairs = present_pairs(est.present)
    if not len(pairs):
        raise InsufficientOutcomes("need at least two conditional states")
    # eight (P, d, d) complex stacks at most (conditionals, commutator, adjoint, a
    # gradient direction, its two products), then six (P, K) floats: 16 P (8 d^2 + 3 K)
    n_effects, dim = est.duals_b.shape[:2]
    admit_memory(16 * len(pairs) * (8 * dim * dim + 3 * n_effects),
                 f"{len(pairs)} conditional pairs over {n_effects} B effects need",
                 "the significance test")
    j, k = pairs.T
    norm, gj, gk = _norm_gradients(est.states[j], est.states[k], est.duals_b)
    stderr = np.sqrt(_delta_variance(est.freqs[j], est.counts[j], gj)
                     + _delta_variance(est.freqs[k], est.counts[k], gk))
    usable = stderr > NORM_FLOOR
    z = np.where(usable, norm / np.where(usable, stderr, 1.0), 0.0)
    best = int(np.argmax(z))      # the first of equal maxima
    return Verdict(NONZERO_DISCORD if z[best] > z_threshold else CONSISTENT_WITH_ZERO,
                   {"max_norm": float(norm[best]), "norm_stderr": float(stderr[best]),
                    "z_score": float(z[best]), "witness_pair": tuple(pairs[best].tolist())},
                   {"z": z_threshold})
