"""An exact oracle for verify-dv on states with Gaussian-rational entries.

rho = sum_j q_j sigma_j x |u_j><u_j|, with rational weights q_j,
Gaussian-rational density matrices sigma_j on A and real rational unit
vectors u_j on B, is held exactly: each matrix is a pair (real part,
imaginary part) of numpy object arrays of fractions.Fraction. Its d_B x d_B
blocks rho_ab = Tr_A[(|b><a| x I) rho] (Datta's blocks) all commute exactly
when the u_j are orthonormal, for rho is then classical on B and so of zero
discord from B to A; when they are not, the blocks' largest commutator norm
is computed exactly. The u_j come from rational orthogonal matrices:
Pythagorean rotations on B = C^2 and [[1, 2, 2], [2, 1, -2], [2, -2, 1]] / 3,
times rotations and signed permutations, on B = C^3.

The rank of the correlation matrix C_ab = Tr[(E_a x F_b) rho], for operator
bases E_a of A and F_b of B, is also computed exactly, as the rank of the
realigned matrix R[(a, a'), (b, b')] = rho[(a, b), (a', b')], which is C in
other bases. A state classical on B has rank(C) <= d_B, and each zero-discord
state here reads d_B; each discordant mixture reads d_B + 1 at every weight,
also where verify-dv cannot resolve it.
"""
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qdverify import dv, statefile
from qdverify.cli import main
from qdverify.linalg import DensityOperator, frobenius_norm
from qdverify.povm import default_ic_povm, dual_frame

F = np.vectorize(lambda x: Fraction(int(x)), otypes=[object])
SHAPES = [(2, 2), (3, 2), (2, 3), (3, 3)]
TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17)]


def _mul(x, y):
    """The product of two Gaussian-rational matrices held as (re, im)."""
    return x[0] @ y[0] - x[1] @ y[1], x[0] @ y[1] + x[1] @ y[0]


def _rotation(n, i, j, triple, sign):
    """The rational rotation by (a/c, b/c) in the (i, j) plane of R^n."""
    a, b, c = triple
    r = F(np.eye(n, dtype=int))
    r[i, i] = r[j, j] = Fraction(a, c)
    r[i, j], r[j, i] = Fraction(-int(sign) * b, c), Fraction(int(sign) * b, c)
    return r


def rational_orthogonal(n, rng):
    """A random real orthogonal n x n matrix with rational entries."""
    q = F(np.eye(n, dtype=int))
    if n == 3:
        q = F(np.array([[1, 2, 2], [2, 1, -2], [2, -2, 1]])) / 3
    for i, j in itertools.combinations(range(n), 2):
        q = _rotation(n, i, j, TRIPLES[rng.integers(3)], rng.choice([-1, 1])) @ q
    return q[rng.permutation(n)] * F(rng.choice([-1, 1], size=(n, 1)))


def rational_density(n, rng):
    """G G^dagger / Tr, G with Gaussian-integer entries in [-3, 3] + i[-3, 3];
    G has a single nonzero column one time in three, and sigma is then pure."""
    g = F(rng.integers(-3, 4, size=(n, n))), F(rng.integers(-3, 4, size=(n, n)))
    if rng.random() < 1 / 3:
        g[0][:, 1:] = g[1][:, 1:] = Fraction(0)
    if not any(g[0].ravel()) and not any(g[1].ravel()):
        g[0][0, 0] = Fraction(1)
    s = _mul(g, (g[0].T, -g[1].T))
    tr = sum(np.diag(s[0]))
    return s[0] / tr, s[1] / tr


def rational_state(dim_a, vectors, rng):
    """sum_j q_j sigma_j x |u_j><u_j| over the columns u_j of vectors, with
    q_j proportional to integers in [1, 9]."""
    w = rng.integers(1, 10, size=vectors.shape[1])
    re = im = 0
    for j in range(vectors.shape[1]):
        sigma = rational_density(dim_a, rng)
        proj = np.outer(vectors[:, j], vectors[:, j])
        re = re + Fraction(int(w[j]), int(w.sum())) * np.kron(sigma[0], proj)
        im = im + Fraction(int(w[j]), int(w.sum())) * np.kron(sigma[1], proj)
    return re, im


def max_block_commutator_sq(rho, dim_a, dim_b):
    """max over pairs of blocks of ||[rho_ab, rho_cd]||_F^2, exactly."""
    blocks = [(rho[0][a * dim_b:(a + 1) * dim_b, b * dim_b:(b + 1) * dim_b],
               rho[1][a * dim_b:(a + 1) * dim_b, b * dim_b:(b + 1) * dim_b])
              for a in range(dim_a) for b in range(dim_a)]
    best = Fraction(0)
    for x, y in itertools.combinations(blocks, 2):
        xy, yx = _mul(x, y), _mul(y, x)
        best = max(best, sum(((xy[0] - yx[0]) ** 2 + (xy[1] - yx[1]) ** 2).ravel()))
    return best


def realigned(rho, dim_a, dim_b):
    """R[(a, a'), (b, b')] = rho[(a, b), (a', b')], as (re, im)."""
    return tuple(x.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 2, 1, 3)
                 .reshape(dim_a ** 2, dim_b ** 2) for x in rho)


def exact_rank(m):
    """The rank of a Gaussian-rational matrix held as (re, im), by Gaussian
    elimination over Fraction pairs."""
    re, im = (x.copy() for x in m)
    rank = 0
    for col in range(re.shape[1]):
        rows = [r for r in range(rank, re.shape[0]) if re[r, col] or im[r, col]]
        if not rows:
            continue
        re[[rank, rows[0]]], im[[rank, rows[0]]] = re[[rows[0], rank]], im[[rows[0], rank]]
        pr, pi, below = re[rank, col], im[rank, col], slice(rank + 1, None)
        # f = x / pivot for each row x below, then that row -= f * pivot row
        fr = (re[below, col] * pr + im[below, col] * pi) / (pr * pr + pi * pi)
        fi = (im[below, col] * pr - re[below, col] * pi) / (pr * pr + pi * pi)
        re[below] -= np.outer(fr, re[rank]) - np.outer(fi, im[rank])
        im[below] -= np.outer(fr, im[rank]) + np.outer(fi, re[rank])
        rank += 1
    return rank


def verdict_at_threshold_0(rho, dims, tmp_path, capsys):
    """verify-dv --threshold 0 on the state rounded to binary64."""
    m = rho[0].astype(float) + 1j * rho[1].astype(float)
    path = str(tmp_path / "rational.state")
    statefile.write(path, statefile.dv_density_doc(DensityOperator(m, bipartition=dims)))
    assert main(["verify-dv", path, "--threshold", "0"]) == 0
    return json.loads(capsys.readouterr().out)["verdict"]


def block_margin(dim_a, dim_b):
    """A block commutator norm above which verify-dv --threshold 0 must flag.

    The dual frame gives rho_ab = sum_k N_k[a, b] X_k for the POVM blocks
    X_k = p_k rho_k, so some pair has ||[X_k, X_l]||_F >= B / C^2, with B the
    largest block commutator norm and C = max_ab sum_k |N_k[a, b]|. Since
    ||[X_k, X_l]||_F <= 2 p_k p_l, both outcomes are present once B / C^2
    exceeds 2 PROB_FLOOR. The rounding bounds r_k = c u ||M_k||_F / p_k,
    c = sqrt(2) (1 + sqrt(d_B)) (d_A^2 + 3), cover the stored state and the
    conditioning, and e = (2 sqrt(2) (d_B + 2) + 2 d_B^2 + 6) u covers the
    commutator of two conditionals (Frobenius norms at most 1) and its norm.
    The computed norm then exceeds r_k + r_l once the exact one exceeds
    2 (r_k + r_l) + e, which p_k p_l 2 (r_k + r_l) <= 4 c u max_k ||M_k||_F
    makes sure of when B / C^2 exceeds 4 c u max_k ||M_k||_F + e.
    """
    p = default_ic_povm(dim_a, kind="sic" if dim_a == 2 else "mub")
    u = dv.UNIT_ROUNDOFF
    c = math.sqrt(2) * (1 + math.sqrt(dim_b)) * (dim_a ** 2 + 3)
    e = (2 * math.sqrt(2) * (dim_b + 2) + 2 * dim_b ** 2 + 6) * u
    frame = np.abs(dual_frame(p)).sum(axis=0).max() ** 2
    return frame * max(4 * c * u * frobenius_norm(p.effects).max() + e, 2 * dv.PROB_FLOOR)


@pytest.mark.parametrize("dims", SHAPES, ids=[f"{a}x{b}" for a, b in SHAPES])
def test_rational_zero_discord_reads_consistent(dims, tmp_path, capsys):
    rng = np.random.default_rng(sum(dims) * 10 + dims[0])
    for _ in range(6):
        rho = rational_state(dims[0], rational_orthogonal(dims[1], rng), rng)
        assert max_block_commutator_sq(rho, *dims) == 0
        assert exact_rank(realigned(rho, *dims)) == dims[1]
        assert verdict_at_threshold_0(rho, dims, tmp_path, capsys) == dv.CONSISTENT_WITH_ZERO


@pytest.mark.parametrize("dims", SHAPES, ids=[f"{a}x{b}" for a, b in SHAPES])
def test_rational_discordant_mixtures_read_nonzero_beyond_the_margin(dims, tmp_path,
                                                                      capsys):
    # (1 - eps) chi + eps sigma x |v><v|: chi classical on B in the basis U,
    # and v = (a u_0 + b u_1) / c along none of its columns
    dim_a, dim_b = dims
    rng = np.random.default_rng(sum(dims) * 10 + dim_a + 1)
    margin_sq = Fraction(block_margin(dim_a, dim_b)) ** 2
    flagged = 0
    for eps in [Fraction(1, 2)] + [Fraction(1, 10 ** n) for n in range(1, 16, 2)]:
        basis = rational_orthogonal(dim_b, rng)
        tilt = _rotation(dim_b, 0, 1, TRIPLES[rng.integers(3)], 1)
        chi = rational_state(dim_a, basis, rng)
        kick = rational_state(dim_a, (basis @ tilt)[:, :1], rng)
        rho = tuple((1 - eps) * x + eps * y for x, y in zip(chi, kick))
        assert exact_rank(realigned(rho, dim_a, dim_b)) == dim_b + 1
        b_sq = max_block_commutator_sq(rho, dim_a, dim_b)
        if b_sq > margin_sq:
            flagged += 1
            assert verdict_at_threshold_0(rho, dims, tmp_path, capsys) == dv.NONZERO_DISCORD
    assert flagged >= 5
