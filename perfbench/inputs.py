"""Seeded inputs for the benchmark workloads, written in the state-file format.

States are built here in plain numpy, not with the program's generators,
so the program receives only files. The same seed gives the same files.
"""
from __future__ import annotations

import json
import zlib

import numpy as np

from oracles import BELL_VECTORS


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _tidy(m: np.ndarray) -> np.ndarray:
    """Exactly Hermitian with unit trace, as the file loader demands."""
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def write_dv_density(path: str, matrix: np.ndarray, bipartition=None,
                     fock_cutoff=None) -> None:
    doc = {
        "format_version": "1",
        "kind": "dv_density",
        "dim": int(matrix.shape[0]),
        "bipartition": list(bipartition) if bipartition else None,
        "matrix": [[[_fmt(v.real), _fmt(v.imag)] for v in row] for row in matrix],
    }
    if fock_cutoff is not None:
        doc["fock_cutoff"] = int(fock_cutoff)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1)


def ginibre_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix G G^dag / Tr."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return _tidy(g @ g.conj().T)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def classical_quantum_state(dim_a: int, dim_b: int, rng: np.random.Generator) -> np.ndarray:
    """sum_j p_j rho_j x |u_j><u_j|: zero discord from B to A."""
    weights = rng.dirichlet(np.ones(dim_b))
    basis = haar_unitary(dim_b, rng)
    out = np.zeros((dim_a * dim_b,) * 2, dtype=complex)
    for j in range(dim_b):
        u = basis[:, j:j + 1]
        out += weights[j] * np.kron(ginibre_state(dim_a, rng), u @ u.conj().T)
    return _tidy(out)


def noisy_bell_state(rng: np.random.Generator) -> np.ndarray:
    """Locally rotated w |Phi+><Phi+| + (1 - w) I/4 with w in [0.5, 0.9].

    Discordant for every w > 0; at w >= 0.5 the SIC conditionals differ by
    far more than the finite-shot noise at 1e5 shots.
    """
    w = rng.uniform(0.5, 0.9)
    phi = np.outer(BELL_VECTORS[0], BELL_VECTORS[0].conj())
    rho = w * phi + (1.0 - w) * np.eye(4) / 4.0
    u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    return _tidy(u @ rho @ u.conj().T)


def bell_diagonal_state(rng: np.random.Generator) -> np.ndarray:
    """sum_i lambda_i |beta_i><beta_i| with Dirichlet weights."""
    lam = rng.dirichlet(np.ones(4))
    return _tidy(np.einsum("i,ia,ib->ab", lam, BELL_VECTORS, BELL_VECTORS.conj()))


def fock_diagonal(cutoff: int, support: int, rng: np.random.Generator) -> np.ndarray:
    """Random populations on Fock levels 0..support, no coherences."""
    m = np.zeros((cutoff + 1,) * 2, dtype=complex)
    m[np.arange(support + 1), np.arange(support + 1)] = rng.dirichlet(np.ones(support + 1))
    return m


def fock_generic(cutoff: int, support: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix on Fock levels 0..support."""
    m = np.zeros((cutoff + 1,) * 2, dtype=complex)
    m[:support + 1, :support + 1] = ginibre_state(support + 1, rng)
    return m


def rng_for(seed: int, workload: str, index: int) -> np.random.Generator:
    """The stream for one input of one workload under one benchmark seed."""
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), index])
