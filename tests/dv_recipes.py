"""Zero-discord states that put one outcome of a POVM on A near probability 0.

Such states test that verify-dv decides on the input's scale: a conditional
state of probability p carries the input's rounding magnified by 1/p.
"""
import numpy as np

from qdverify.linalg import (DensityOperator, dag, hermitian_eig, random_density_matrix,
                             random_unitary, tensor)
from qdverify.povm import Povm


def near_orthogonal_zero_discord(p: Povm, k: int, dim_b: int, delta: float,
                                 seed: int, pure_first: bool = False) -> DensityOperator:
    """rho = sum_j q_j sigma_j x |u_j><u_j|, classical on B and so of zero
    discord from B to A, with q from Dirichlet(1, ..., 1), {u_j} the columns
    of random_unitary(dim_b), and sigma_j = (1 - delta)|psi><psi| + delta
    random_density_matrix(p.dim). psi is a random ket projected onto the
    kernel of p.effects[k] (for a rank-one effect, with its component along
    the top eigenvector removed), so outcome k has probability of order delta.
    The effect must have a kernel: eigenvalues at most 1e-12 of its largest.

    With pure_first, sigma_0 is |psi><psi| itself (the other branches are
    unchanged), so outcome k never sees branch 0 and its conditional state is
    rank-deficient: its zero eigenvalue carries the input's rounding
    magnified by 1/p_k."""
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(dim_b))
    u = random_unitary(dim_b, rng)
    e = hermitian_eig(p.effects[k])
    kernel = e.eigenvectors[:, e.eigenvalues <= 1e-12 * e.eigenvalues[0]]
    assert kernel.shape[1], f"effect {k} has no kernel"
    psi = kernel @ (kernel.conj().T @ (rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim)))
    psi /= np.linalg.norm(psi)
    deltas = np.full(dim_b, delta)
    if pure_first:
        deltas[0] = 0.0
    out = sum(q[j] * tensor((1.0 - deltas[j]) * np.outer(psi, psi.conj())
                            + deltas[j] * random_density_matrix(p.dim, rng),
                            np.outer(u[:, j], u[:, j].conj()))
              for j in range(dim_b))
    return DensityOperator((out + dag(out)) / 2.0, bipartition=(p.dim, dim_b))
