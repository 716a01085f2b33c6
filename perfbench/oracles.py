"""Reference computations the benchmark checks the program against.

Everything here is plain numpy and shares no code with qdverify, so a
fault in the program cannot hide in its own check.

Conventions follow the program's (vacuum variance 1/4): x = (a + a^dag)/2,
p = (a - a^dag)/(2i), [x, p] = i/2, vacuum Wigner maximum 2/pi.
"""
from __future__ import annotations

from math import pi, sqrt

import numpy as np

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Bell vectors |Phi+>, |Phi->, |Psi+>, |Psi-> in the basis |00>, |01>, |10>, |11>.
BELL_VECTORS = np.array([
    [1, 0, 0, 1],
    [1, 0, 0, -1],
    [0, 1, 1, 0],
    [0, 1, -1, 0],
], dtype=complex) / sqrt(2.0)

# Upper quantile of chi-square with 15 degrees of freedom at tail
# probability 1e-12 is about 86; 120 leaves room for the multinomial's
# departure from the chi-square law at the smallest expected counts.
CHI2_LIMIT_DF15 = 120.0


def sic_qubit_effects() -> np.ndarray:
    """The qubit SIC-POVM: (I + n.sigma)/4 on the tetrahedron directions."""
    dirs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / sqrt(3.0)
    eye = np.eye(2, dtype=complex)
    return np.array([(eye + sum(n_i * s for n_i, s in zip(n, PAULI))) / 4.0
                     for n in dirs])


def povm_properties(effects: np.ndarray) -> dict:
    """PSD, completeness and informational completeness of a set of effects."""
    effects = np.asarray(effects, dtype=complex)
    dim = effects.shape[1]
    min_eig = min(float(np.linalg.eigvalsh((e + e.conj().T) / 2.0)[0]) for e in effects)
    completeness = float(np.linalg.norm(effects.sum(axis=0) - np.eye(dim)))
    gram = np.einsum("jab,kba->jk", effects, effects).real
    rank = int(np.linalg.matrix_rank(gram, tol=1e-10 * np.linalg.norm(gram, 2)))
    return {"min_eig": min_eig, "completeness_error": completeness,
            "gram_rank": rank, "dim": dim}


def conditionals_on_b(rho: np.ndarray, effects: np.ndarray, dims) -> list:
    """rho_{B|k} = Tr_A[(M_k x I) rho] / p_k for each effect M_k on A."""
    da, db = dims
    t = rho.reshape(da, db, da, db)
    blocks = np.einsum("kca,abcd->kbd", effects, t)
    probs = np.einsum("kbb->k", blocks).real
    return [blk / p if p > 1e-12 else None for blk, p in zip(blocks, probs)]


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a @ b - b @ a))


def born_probabilities(rho: np.ndarray, effects_a: np.ndarray,
                       effects_b: np.ndarray) -> np.ndarray:
    """p(k, m) = Tr[(A_k x B_m) rho] for a two-party measurement."""
    da, db = effects_a.shape[1], effects_b.shape[1]
    t = rho.reshape(da, db, da, db)
    return np.einsum("kca,mdb,abcd->km", effects_a, effects_b, t).real


def chi_square(counts: np.ndarray, probs: np.ndarray) -> float:
    """Pearson statistic of observed counts against expected probabilities."""
    counts = np.asarray(counts, dtype=float).ravel()
    expected = counts.sum() * np.asarray(probs, dtype=float).ravel()
    return float(np.sum((counts - expected) ** 2 / expected))


def _h2(p: float) -> float:
    return 0.0 if p <= 0.0 else -p * np.log2(p)


def luo_discord_bell_diagonal(rho: np.ndarray) -> float:
    """Closed-form discord (bits) of a two-qubit Bell-diagonal state.

    S. Luo, PRA 77, 042303 (2008): with c_i = Tr[rho sigma_i x sigma_i],
    lambda the eigenvalues of rho and c = max |c_i|,
    D = sum_i lambda_i log2(4 lambda_i)
        - [(1 - c)/2 log2(1 - c) + (1 + c)/2 log2(1 + c)].
    Bell-diagonal states are symmetric, so the value holds for either side.
    """
    c = max(abs(float(np.trace(rho @ np.kron(s, s)).real)) for s in PAULI)
    lam = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    first = sum(-_h2(w) + w * 2.0 for w in lam if w > 0.0)
    second = -_h2((1.0 - c) / 2.0) - _h2((1.0 + c) / 2.0) + 1.0
    return float(first - second)


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """<x|n> for n = 0..n_max, shape (n_max + 1,) + x.shape.

    With q = sqrt(2) x the standard Hermite functions obey
    psi_{n+1} = sqrt(2/(n+1)) q psi_n - sqrt(n/(n+1)) psi_{n-1}; the factor
    2^(1/4) normalizes them over x.
    """
    q = sqrt(2.0) * np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + q.shape)
    out[0] = pi ** -0.25 * np.exp(-q * q / 2.0)
    if n_max >= 1:
        out[1] = sqrt(2.0) * q * out[0]
    for n in range(1, n_max):
        out[n + 1] = sqrt(2.0 / (n + 1)) * q * out[n] - sqrt(n / (n + 1)) * out[n - 1]
    return 2.0 ** 0.25 * out


def wigner_by_wavefunction(op: np.ndarray, xs: np.ndarray, ps: np.ndarray,
                           y_half: float = 7.0, ny: int = 1401) -> np.ndarray:
    """Wigner function of a Fock-basis operator, shape (len(xs), len(ps)).

    W(x, p) = (2/pi) int dy <x+y|O|x-y> e^{-4ipy}, by the trapezoid rule
    on [-y_half, y_half]. The integrand is analytic and decays like
    e^{-2y^2}, so the rule converges geometrically. This route goes
    through position wavefunctions and shares nothing with the
    displaced-parity series the program uses.
    """
    op = np.asarray(op, dtype=complex)
    n_max = op.shape[0] - 1
    y = np.linspace(-y_half, y_half, ny)
    dy = y[1] - y[0]
    plus = hermite_functions(n_max, xs[:, None] + y[None, :])     # (n, x, y)
    minus = hermite_functions(n_max, xs[:, None] - y[None, :])
    kernel = np.einsum("mxy,mn,nxy->xy", plus, op, minus)
    phase = np.exp(-4j * np.outer(y, ps))                          # (y, p)
    w = (2.0 / pi) * dy * (kernel @ phase)
    return w.real


def commutator_wigner(rho_a: np.ndarray, rho_b: np.ndarray, xs: np.ndarray,
                      ps: np.ndarray) -> np.ndarray:
    """Wigner-like function of -i[rho_a, rho_b] on the grid xs x ps."""
    return wigner_by_wavefunction(-1j * (rho_a @ rho_b - rho_b @ rho_a), xs, ps)
