"""Finite-shot simulation, linear-inversion estimation, and significance.

A joint IC-POVM measurement on both subsystems is sampled multinomially.
Conditional states of B are rebuilt by linear inversion through the dual
frame of the B-side POVM, projected back to the density-operator cone.
Commutator norms between estimated conditionals get a first-order
(delta-method) standard error from the multinomial covariance of the
counts, and the verdict is a z-score test on the largest norm.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (DimMismatch, DomainError, InsufficientOutcomes, TooLarge,
                     check_threshold)
from .linalg import (DensityOperator, commutator, dag, frobenius_norm, hermitian_eig,
                     physical_memory_bytes)
from .povm import Povm, reconstruct
from .dv import CONSISTENT_WITH_ZERO, NONZERO_DISCORD, ConditionalEnsemble, Verdict

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

    freqs[k] holds the conditional outcome frequencies n(k, m) / n(k, .)
    and counts[k] the per-outcome totals. ensemble.source_povm is A's
    POVM, the one conditioned on; duals_b is the dual frame of B's.
    """

    ensemble: ConditionalEnsemble
    freqs: np.ndarray
    counts: np.ndarray
    duals_b: np.ndarray


def joint_probabilities(rho: DensityOperator, povm_a: Povm, povm_b: Povm) -> np.ndarray:
    """p(k, m) = Tr[(M_k x M_m) rho] for all joint outcomes."""
    if rho.bipartition is None or rho.bipartition != (povm_a.dim, povm_b.dim):
        raise DimMismatch("state bipartition does not match the POVM dims")
    # M_k x M_m and a matmul per pair, as np.kron did (one einsum reorders the
    # sum, which moves sampled counts of the 2x2 maximally mixed state at 1e5
    # shots); one A effect at a time holds K_b (d_a d_b)^2 entries, not K_a times that
    mb = povm_b.effects[:, None, :, None, :]
    return np.array([np.trace((ma[:, None, :, None] * mb).reshape(-1, rho.dim, rho.dim)
                              @ rho.matrix, axis1=1, axis2=2).real
                     for ma in povm_a.effects])


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
    """Nearest-in-spirit density operator to a matrix, or to each matrix of
    a (..., n, n) stack: clip eigenvalues, renormalize."""
    e = hermitian_eig((m + dag(m)) / 2.0)
    w = np.maximum(e.eigenvalues, 0.0)
    tr = w.sum(axis=-1, keepdims=True)
    w = np.where(tr > 0.0, w / np.where(tr > 0.0, tr, 1.0), 1.0 / w.shape[-1])
    v = e.eigenvectors
    out = (v * w[..., None, :]) @ dag(v)
    return (out + dag(out)) / 2.0


def estimate_conditionals(rec: ShotRecord, duals_b: np.ndarray) -> EstimatedConditionals:
    """Conditional-state estimates from a shot record.

    p_k is the marginal frequency of outcome k on A; the conditional of B
    is the dual-frame inversion of the conditional frequencies, projected
    to the PSD unit-trace cone. Outcomes with no counts are marked absent
    and hold zeros.
    """
    marg = rec.counts.sum(axis=1)
    if marg.sum() <= 0:
        raise InsufficientOutcomes("record holds no counts")
    present = marg > 0
    freqs = np.zeros(rec.counts.shape)
    freqs[present] = rec.counts[present] / marg[present, None]
    states = np.zeros((len(marg), rec.povm_b.dim, rec.povm_b.dim), dtype=complex)
    states[present] = project_to_state(reconstruct(rec.povm_b, duals_b, freqs[present]))
    ensemble = ConditionalEnsemble(marg / marg.sum(), states, present, rec.povm_a)
    return EstimatedConditionals(ensemble, freqs, marg.astype(float), duals_b)


def _norm_gradients(rho_j: np.ndarray, rho_k: np.ndarray,
                    duals: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Commutator norms of the pairs of two (P, d, d) stacks, and their (P, K)
    gradients wrt the two frequency vectors; a norm at or below NORM_FLOOR
    has no gradient and gets zeros."""
    comm = commutator(rho_j, rho_k)
    norm = frobenius_norm(comm)
    cd = dag(comm)
    left = rho_k @ cd - cd @ rho_k      # d norm / d rho_j direction
    right = cd @ rho_j - rho_j @ cd     # d norm / d rho_k direction
    scale = np.where(norm > NORM_FLOOR, norm, np.inf)[:, None]
    gj = np.trace(left[:, None] @ duals, axis1=-2, axis2=-1).real / scale
    gk = np.trace(right[:, None] @ duals, axis1=-2, axis2=-1).real / scale
    return norm, gj, gk


def _delta_variance(freqs: np.ndarray, n: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g^T Cov g per row, with Cov the multinomial covariance of the (P, K)
    frequencies behind n[p] samples."""
    cov = (freqs[:, :, None] * np.eye(freqs.shape[1])
           - freqs[:, :, None] * freqs[:, None, :]) / n[:, None, None]
    # a stacked matmul: an einsum over (p, i, j) moves the stderrs in their last bits
    return ((g[:, None] @ cov) @ g[..., None])[:, 0, 0]


def significant_commutativity(est: EstimatedConditionals,
                              z_threshold: float = DEFAULT_Z_THRESHOLD) -> Verdict:
    """Z-score verdict on the largest pairwise commutator norm.

    Standard errors per pair come from the delta method on the linear
    inversion. A pair whose standard error is at or below NORM_FLOOR has
    z = 0: its norm is at or below the floor too (no gradient), or its rows
    hold so few counts that the plug-in covariance vanishes, and then the
    sample says nothing about the norm. z_threshold must be finite and
    nonnegative (DomainError, naming it z as the report and CLI do). A sweep
    that would need more than physical memory is refused before it
    allocates (TooLarge).
    """
    check_threshold("z", z_threshold)
    pairs = est.ensemble.pairs()
    if not len(pairs):
        raise InsufficientOutcomes("need at least two conditional states")
    # the sweep's largest stacks: (P, K, d, d) complex gradient products, then
    # two (P, K, K) float covariances at a time
    n_effects, dim = est.duals_b.shape[:2]
    need = 16 * len(pairs) * n_effects * max(n_effects, dim * dim)
    have = physical_memory_bytes()
    if need > have:
        raise TooLarge(f"{len(pairs)} conditional pairs over {n_effects} B effects "
                       f"need about {need / 2 ** 30:.3g} GiB for the significance "
                       f"test; physical memory is {have / 2 ** 30:.3g} GiB")
    j, k = pairs.T
    states = est.ensemble.states
    norm, gj, gk = _norm_gradients(states[j], states[k], est.duals_b)
    var = (_delta_variance(est.freqs[j], est.counts[j], gj)
           + _delta_variance(est.freqs[k], est.counts[k], gk))
    stderr = np.sqrt(np.maximum(var, 0.0))
    usable = stderr > NORM_FLOOR
    z = np.where(usable, norm / np.where(usable, stderr, 1.0), 0.0)
    best = int(np.argmax(z))      # the first of equal maxima
    return Verdict(NONZERO_DISCORD if z[best] > z_threshold else CONSISTENT_WITH_ZERO,
                   {"max_norm": float(norm[best]), "norm_stderr": float(stderr[best]),
                    "z_score": float(z[best]), "witness_pair": tuple(pairs[best].tolist())},
                   {"z": z_threshold})
