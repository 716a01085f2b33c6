"""Finite-shot simulation, linear-inversion estimation, and significance.

A joint IC-POVM measurement on both subsystems is sampled multinomially.
Conditional states of B are rebuilt by linear inversion through the dual
frame of the B-side POVM, projected back to the density-operator cone.
Commutator norms between estimated conditionals get a first-order
(delta-method) standard error from the multinomial covariance, or a
parametric bootstrap one where that linearization degenerates, and the
verdict is a z-score test.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import DimMismatch, DomainError, InsufficientOutcomes
from .linalg import DensityOperator, dag, frobenius_norm, hermitian_eig, tensor
from .povm import DualFrame, Povm
from .dv import (
    CONSISTENT_WITH_ZERO,
    NONZERO_DISCORD,
    ConditionalEnsemble,
    PROB_FLOOR,
)

DEFAULT_Z_THRESHOLD = 5.0
DEFAULT_RESAMPLES = 100

# Norms below this are treated as exactly zero when forming z-scores with
# zero standard error (the exact-probability limit).
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


@dataclass
class EstimatedConditionals:
    """Linear-inversion estimates of B's conditionals with sampling metadata.

    freqs[k] holds the conditional outcome frequencies n(k, m) / n(k, .),
    counts[k] the per-outcome totals; entry_stderr[k] is the elementwise
    standard error of the state estimate (None for absent outcomes).
    """

    ensemble: ConditionalEnsemble
    freqs: np.ndarray
    counts: np.ndarray
    duals_b: DualFrame
    entry_stderr: List[Optional[np.ndarray]]


@dataclass
class SignificantVerdict:
    verdict: str
    max_norm: float
    norm_stderr: float
    z_score: float
    witness_pair: Optional[Tuple[int, int]]
    z_threshold: float


def joint_probabilities(rho: DensityOperator, povm_a: Povm, povm_b: Povm) -> np.ndarray:
    """p(k, m) = Tr[(M_k x M_m) rho] for all joint outcomes."""
    if rho.bipartition is None or rho.bipartition != (povm_a.dim, povm_b.dim):
        raise DimMismatch("state bipartition does not match the POVM dims")
    probs = np.empty((len(povm_a.effects), len(povm_b.effects)))
    for k, ma in enumerate(povm_a.effects):
        for m, mb in enumerate(povm_b.effects):
            probs[k, m] = np.trace(tensor(ma, mb) @ rho.matrix).real
    return probs


def sample_joint(rho: DensityOperator, povm_a: Povm, povm_b: Povm,
                 shots: int, seed: int) -> ShotRecord:
    """Multinomial sample of the joint measurement, seeded and reproducible."""
    if shots < 0:
        raise DomainError(f"shots must be nonnegative, got {shots}")
    probs = joint_probabilities(rho, povm_a, povm_b)
    flat = np.clip(probs.reshape(-1), 0.0, None)
    flat = flat / flat.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, flat).reshape(probs.shape)
    return ShotRecord(povm_a, povm_b, counts, int(shots), int(seed))


def project_to_state(m: np.ndarray) -> np.ndarray:
    """Nearest-in-spirit density operator: clip eigenvalues, renormalize."""
    e = hermitian_eig((m + dag(m)) / 2.0)
    w = np.maximum(e.eigenvalues, 0.0)
    tr = w.sum()
    if tr <= 0.0:
        w = np.ones_like(w) / len(w)
    else:
        w = w / tr
    v = e.eigenvectors
    out = (v * w) @ dag(v)
    return (out + dag(out)) / 2.0


def _invert_frequencies(freq: np.ndarray, duals: DualFrame) -> np.ndarray:
    dim = duals.operators[0].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for f, n in zip(freq, duals.operators):
        out += f * n
    return out


def estimate_conditionals(rec: ShotRecord, duals_b: DualFrame) -> EstimatedConditionals:
    """Conditional-state estimates from a shot record.

    p_k is the marginal frequency of outcome k on A; the conditional of B
    is the dual-frame inversion of the conditional frequencies, projected
    to the PSD unit-trace cone. Outcomes with no counts are marked absent.
    Elementwise standard errors come from the multinomial covariance of
    the conditional frequencies pushed through the linear inversion.
    """
    if len(duals_b) != len(rec.povm_b.effects):
        raise DimMismatch("dual frame does not match the B-side POVM")
    ka, kb = rec.counts.shape
    total = rec.counts.sum()
    if total <= 0:
        raise InsufficientOutcomes("record holds no counts")
    marg = rec.counts.sum(axis=1)
    probs = marg / total
    dim = rec.povm_b.dim
    freqs = np.zeros((ka, kb))
    states: List[Optional[DensityOperator]] = []
    stderrs: List[Optional[np.ndarray]] = []
    for k in range(ka):
        nk = marg[k]
        if nk <= 0:
            states.append(None)
            stderrs.append(None)
            continue
        f = rec.counts[k] / nk
        freqs[k] = f
        raw = _invert_frequencies(f, duals_b)
        states.append(DensityOperator(project_to_state(raw)))
        var = np.zeros((dim, dim))
        for m, n_op in enumerate(duals_b.operators):
            var += f[m] * np.abs(n_op) ** 2
        var -= np.abs(raw) ** 2
        stderrs.append(np.sqrt(np.maximum(var, 0.0) / nk))
    ensemble = ConditionalEnsemble(probs, states, rec.povm_b)
    return EstimatedConditionals(ensemble, freqs, marg.astype(float), duals_b, stderrs)


def _norm_gradients(rho_j: np.ndarray, rho_k: np.ndarray,
                    duals: DualFrame) -> Tuple[float, np.ndarray, np.ndarray]:
    """Commutator norm and its gradient wrt the two frequency vectors."""
    comm = rho_j @ rho_k - rho_k @ rho_j
    norm = frobenius_norm(comm)
    if norm <= NORM_FLOOR:
        return norm, None, None
    cd = dag(comm)
    left = rho_k @ cd - cd @ rho_k      # d norm / d rho_j direction
    right = cd @ rho_j - rho_j @ cd     # d norm / d rho_k direction
    gj = np.array([np.trace(left @ n).real for n in duals.operators]) / norm
    gk = np.array([np.trace(right @ n).real for n in duals.operators]) / norm
    return norm, gj, gk


def _delta_stderr(freq_j, nj, gj, freq_k, nk, gk) -> float:
    var = 0.0
    for f, n, g in ((freq_j, nj, gj), (freq_k, nk, gk)):
        cov = (np.diag(f) - np.outer(f, f)) / n
        var += g @ cov @ g
    return float(np.sqrt(max(var, 0.0)))


def significant_commutativity(est: EstimatedConditionals,
                              z_threshold: float = DEFAULT_Z_THRESHOLD,
                              resamples: int = DEFAULT_RESAMPLES,
                              seed: int = 0) -> SignificantVerdict:
    """Z-score verdict on the largest pairwise commutator norm.

    Standard errors per pair come from the delta method on the linear
    inversion. Where the linearization is degenerate (norm at or below
    NORM_FLOOR), a parametric bootstrap over the full estimation pipeline
    (resampling counts from the estimated joint distribution) replaces the
    delta value; it runs only for those pairs. When a norm has exactly zero
    standard error, the z-score is +inf if the norm is above the floor and
    0 otherwise.
    """
    present = est.ensemble.present_indices()
    if len(present) < 2:
        raise InsufficientOutcomes("need at least two conditional states")
    states = {k: est.ensemble.states[k].matrix for k in present}

    pairs = [(j, k) for i, j in enumerate(present) for k in present[i + 1:]]
    norms = {}
    stderrs = {}
    for j, k in pairs:
        norm, gj, gk = _norm_gradients(states[j], states[k], est.duals_b)
        norms[(j, k)] = norm
        if gj is None:
            stderrs[(j, k)] = None
        else:
            stderrs[(j, k)] = _delta_stderr(est.freqs[j], est.counts[j], gj,
                                            est.freqs[k], est.counts[k], gk)

    degenerate = [pair for pair in pairs if stderrs[pair] is None]
    if degenerate:
        stderrs.update(zip(degenerate,
                           _bootstrap_stderr(est, degenerate, resamples, seed)))

    best = None
    for pair in pairs:
        norm = norms[pair]
        stderr = stderrs[pair]
        if stderr == 0.0 or not np.isfinite(stderr):
            z = np.inf if norm > NORM_FLOOR else 0.0
        else:
            z = norm / stderr
        if best is None or z > best[0]:
            best = (z, norm, stderr, pair)
    z, norm, stderr, pair = best
    verdict = NONZERO_DISCORD if z > z_threshold else CONSISTENT_WITH_ZERO
    return SignificantVerdict(verdict, float(norm),
                              float(stderr) if np.isfinite(stderr) else 0.0,
                              float(z), pair, z_threshold)


def bootstrap_norm_stderr(est: EstimatedConditionals, resamples: int = DEFAULT_RESAMPLES,
                          seed: int = 0) -> np.ndarray:
    """Bootstrap standard errors of all pairwise commutator norms."""
    present = est.ensemble.present_indices()
    pairs = [(j, k) for i, j in enumerate(present) for k in present[i + 1:]]
    return _bootstrap_stderr(est, pairs, resamples, seed)


def _bootstrap_stderr(est: EstimatedConditionals, pairs, resamples: int,
                      seed: int) -> np.ndarray:
    """Parametric bootstrap through sampling, inversion, and projection.

    Resample streams derive from the base seed plus the resample index, so
    results do not depend on evaluation order.
    """
    if not np.all(np.isfinite(est.counts)):
        return np.zeros(len(pairs))
    present = est.ensemble.present_indices()
    total = int(round(est.counts.sum()))
    ka, kb = est.freqs.shape
    joint = est.freqs * (est.counts[:, None] / max(est.counts.sum(), 1.0))
    joint = np.clip(joint.reshape(-1), 0.0, None)
    joint /= joint.sum()
    samples = np.empty((resamples, len(pairs)))
    for r in range(resamples):
        rng = np.random.default_rng(seed + r)
        counts = rng.multinomial(total, joint).reshape(ka, kb)
        marg = counts.sum(axis=1)
        mats = {}
        for k in present:
            if marg[k] <= 0:
                mats[k] = None
                continue
            raw = _invert_frequencies(counts[k] / marg[k], est.duals_b)
            mats[k] = project_to_state(raw)
        for idx, (j, k) in enumerate(pairs):
            if mats.get(j) is None or mats.get(k) is None:
                samples[r, idx] = np.nan
                continue
            c = mats[j] @ mats[k] - mats[k] @ mats[j]
            samples[r, idx] = frobenius_norm(c)
    out = np.empty(len(pairs))
    for idx in range(len(pairs)):
        col = samples[:, idx]
        col = col[np.isfinite(col)]
        out[idx] = col.std(ddof=1) if col.size > 1 else 0.0
    return out


def exact_conditionals(rho: DensityOperator, povm_a: Povm, povm_b: Povm,
                       duals_b: DualFrame) -> EstimatedConditionals:
    """Estimation input for the zero-uncertainty (infinite shot) limit.

    Conditional frequencies are the exact outcome probabilities and the
    per-outcome counts are infinite, so every propagated standard error
    vanishes and significant_commutativity applies its zero-stderr rule.
    """
    probs = joint_probabilities(rho, povm_a, povm_b)
    marg = probs.sum(axis=1)
    dim = rho.bipartition[1]
    freqs = np.zeros_like(probs)
    states: List[Optional[DensityOperator]] = []
    stderrs: List[Optional[np.ndarray]] = []
    for k in range(len(povm_a.effects)):
        if marg[k] <= PROB_FLOOR:
            states.append(None)
            stderrs.append(None)
            continue
        freqs[k] = probs[k] / marg[k]
        raw = _invert_frequencies(freqs[k], duals_b)
        states.append(DensityOperator(project_to_state(raw)))
        stderrs.append(np.zeros((dim, dim)))
    ensemble = ConditionalEnsemble(marg, states, povm_b)
    return EstimatedConditionals(ensemble, freqs, np.full(len(marg), np.inf),
                                 duals_b, stderrs)
