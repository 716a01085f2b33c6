"""The per-effect construction of the seeded random IC-POVM, kept as the
reference for qdverify.povm.random_ic_povm, which builds all effects of an
attempt with stacked calls. Both must give the same effects bit for bit
for every (dim, seed).

random_ic_povm_loop draws, normalises and clips one effect at a time, with
two eigendecompositions per effect. It reads is_informationally_complete
from the povm module at call time, so a test that patches it there patches
both constructions.
"""
import numpy as np

from qdverify import povm
from qdverify.errors import CompletenessFailure, DimMismatch, DomainError
from qdverify.linalg import dag, hermitian_eig


def random_traceless_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian with zero trace, normalized to unit operator norm."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + dag(g)) / 2.0
    h -= np.trace(h).real / dim * np.eye(dim)
    w = hermitian_eig(h).eigenvalues
    top = max(abs(w[0]), abs(w[-1]))
    return h / top if top > 0 else h


def random_ic_povm_loop(dim: int, seed: int) -> povm.Povm:
    """random_ic_povm, one effect at a time."""
    if dim < 2:
        raise DimMismatch("dim must be at least 2")
    if seed < 0:
        raise DomainError(f"POVM seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    eye = np.eye(dim, dtype=complex)
    for _ in range(10):
        effects = []
        for _k in range(dim * dim):
            h = random_traceless_hermitian(dim, rng)
            cand = (eye + povm.PERTURBATION_SCALE * h) / (dim * dim)
            e = hermitian_eig(cand)
            clipped = np.maximum(e.eigenvalues, 0.0)
            v = e.eigenvectors
            effects.append((v * clipped) @ dag(v))
        effects = np.array(effects)
        es = hermitian_eig(effects.sum(axis=0))
        if es.eigenvalues[-1] <= 1e-12:
            continue
        inv_sqrt = (es.eigenvectors * (1.0 / np.sqrt(es.eigenvalues))) @ dag(es.eigenvectors)
        effects = inv_sqrt @ effects @ inv_sqrt
        p = povm.Povm(dim, (effects + dag(effects)) / 2.0)
        if povm.is_informationally_complete(p):
            return p
    raise CompletenessFailure(
        f"no informationally complete POVM after 10 attempts (dim={dim}, seed={seed})")
