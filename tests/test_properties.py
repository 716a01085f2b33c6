"""Property-based tests: the eigensolver, the batched POVM layers against
per-effect formulas, the one completeness rule behind the dual frame, the
conditional ensemble's stored gaps, the batched conditional-ensemble layers against
per-row formulas, the soundness of the DV test (also with an outcome of
probability near 0),
Fock-space displacement elements, the Fock-space commutator route, no
false NONZERO_DISCORD from `moyal` on commuting grids, state-file round
trips, standard-form invariants, heterodyne conditioning, rejection of
malformed input, and the CLI's exit status on mutated shot records and on
any arguments and input file."""
import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import phasespace_oracles as oracles
import test_golden
from conftest import assert_close_to_kron_oracle, random_diagonal_fock
from dv_recipes import near_orthogonal_zero_discord
from qdverify import dv, gaussian, povm, statefile, tomo
from qdverify.cli import main
from qdverify.errors import NotInformationallyComplete, ParseError, QdvError
from qdverify.linalg import (DensityOperator, commutator, dag, degeneracy_gap,
                             frobenius_norm, hermitian_eig, random_density_matrix,
                             random_unitary)
from qdverify.phasespace import (GridGeometry, WignerGrid,
                                 _fock_series, fock_commutator, fock_state,
                                 random_fock_density, square_geometry, wigner_from_fock)
from qdverify.tomo import ShotRecord

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def hermitian_matrices(draw):
    """Random Hermitian matrices of size 1-9; half have repeated eigenvalues."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        # few distinct values over n slots forces multiplicities
        levels = rng.normal(size=draw(st.integers(1, 3)))
        w = rng.choice(levels, size=n)
        u = random_unitary(n, rng)
        h = (u * w) @ dag(u)
    else:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = g + dag(g)
    return (h + dag(h)) / 2.0


@PROPERTY_SETTINGS
@given(hermitian_matrices())
def test_hermitian_eig_residual_orthonormal_descending(h):
    e = hermitian_eig(h)
    v, w = e.eigenvectors, e.eigenvalues
    assert frobenius_norm(h @ v - v * w) <= 1e-10 * frobenius_norm(h)
    assert frobenius_norm(dag(v) @ v - np.eye(len(w))) <= 1e-10
    assert np.all(np.diff(w) <= 0.0)


@PROPERTY_SETTINGS
@given(st.lists(st.integers(1, 3), max_size=2), st.integers(1, 6), st.data())
def test_hermitian_eig_decomposes_the_hermitian_part(batch, n, data):
    # the contract: callers need not symmetrise, and nothing else is refused
    finite = st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False)
    m = data.draw(hnp.arrays(complex, (*batch, n, n), elements=finite))
    e, h = hermitian_eig(m), hermitian_eig((m + dag(m)) / 2.0)
    np.testing.assert_array_equal(e.eigenvalues, h.eigenvalues)
    np.testing.assert_array_equal(e.eigenvectors, h.eigenvectors)
    assert np.all(np.diff(e.eigenvalues, axis=-1) <= 0.0)


@PROPERTY_SETTINGS
@given(dim_a=st.integers(2, 4), dim_b=st.integers(2, 4),
       state_seed=st.integers(0, 2 ** 31 - 1), povm_seed=st.integers(0, 2 ** 31 - 1))
def test_classical_quantum_states_never_flagged(dim_a, dim_b, state_seed, povm_seed):
    # Dakic, Vedral and Brukner, PRL 105, 190502 (2010): a state classical
    # on B leaves B's conditionals diagonal in one basis, so they commute
    rho = dv.generate_zero_discord(dim_a, dim_b, state_seed)
    ens = dv.condition_on_povm(rho, povm.random_ic_povm(dim_a, povm_seed))
    assert dv.verify_commutativity(ens).verdict == dv.CONSISTENT_WITH_ZERO


@PROPERTY_SETTINGS
@given(dim_a=st.integers(2, 5), dim_b=st.integers(2, 4),
       kind=st.sampled_from(["sic", "mub", "random"]), log_delta=st.floats(-12.0, -4.0),
       k=st.integers(0, 2 ** 16), seed=st.integers(0, 2 ** 32 - 1), pure_first=st.booleans())
@example(dim_a=3, dim_b=3, kind="mub", log_delta=-10.0, k=5, seed=0, pure_first=False)
@example(dim_a=2, dim_b=3, kind="sic", log_delta=-8.0, k=1, seed=1, pure_first=False)
@example(dim_a=3, dim_b=2, kind="mub", log_delta=-10.0, k=3, seed=0, pure_first=True)
def test_zero_discord_with_a_rare_outcome_never_flagged(dim_a, dim_b, kind, log_delta, k,
                                                        seed, pure_first):
    # outcome k's conditional carries the input's rounding magnified by
    # 1/p_k, with p_k of order delta: each pair's own rounding bound covers
    # it; with pure_first the conditional is rank-deficient, and its zero
    # eigenvalue, so magnified, is decided on and not refused
    assume(kind != "sic" or dim_a == 2)
    p = {"sic": lambda d: povm.sic_qubit(), "mub": povm.mub_povm,
         "random": lambda d: povm.random_ic_povm(d, seed)}[kind](dim_a)
    w = hermitian_eig(p.effects).eigenvalues
    with_kernel = np.flatnonzero(w[:, -1] <= 1e-12 * w[:, 0])
    assume(with_kernel.size)
    rho = near_orthogonal_zero_discord(p, int(with_kernel[k % with_kernel.size]), dim_b,
                                       10.0 ** log_delta, seed, pure_first)
    ens = dv.condition_on_povm(rho, p)
    assert dv.verify_commutativity(ens).verdict == dv.CONSISTENT_WITH_ZERO


_BLOCK_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@PROPERTY_SETTINGS
@given(dim=st.integers(2, 4), count=st.integers(3, 8), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(-6.0, -3.0), spread=st.floats(-3.0, 0.0), factor=st.floats(0.5, 2.0))
def test_anchored_verdict_equals_the_all_pairs_verdict(dim, count, seed, scale, spread,
                                                      factor):
    # conditionals diag(l, l, ...) + delta r_k.sigma on a degenerate block,
    # with r_k = z + 10^spread n_k: the anchor's gap is about 2 delta |r_a|
    # and its pair norms about 2 delta^2 |r_a x r_k|, and an unchecked pair
    # can reach about twice the largest of those, so the threshold is drawn
    # around it
    rng = np.random.default_rng(seed)
    w = np.r_[2.0, 2.0, 3.0 + np.arange(dim - 2)]
    r = 10 ** spread * rng.normal(size=(count, 3)) + [0.0, 0.0, 1.0]
    states = np.zeros((count, dim, dim), dtype=complex) + np.diag(w / w.sum())
    states[:, :2, :2] += 10 ** scale * np.einsum("ki,iab->kab", r, _BLOCK_PAULIS)
    u = random_unitary(dim, rng)
    states = u @ states @ dag(u)
    ens = dv.ConditionalEnsemble(np.full(count, 1.0 / count), (states + dag(states)) / 2,
                                 np.zeros(count))

    def max_norm(pairs):
        return frobenius_norm(commutator(ens.states[pairs[:, 0]], ens.states[pairs[:, 1]])).max()

    threshold = factor * max_norm(dv.present_pairs(ens.present, dv.select_anchor(ens)))
    expected = (dv.NONZERO_DISCORD if max_norm(dv.present_pairs(ens.present)) > threshold
                else dv.CONSISTENT_WITH_ZERO)
    assert dv.verify_commutativity(ens, threshold).verdict == expected


@st.composite
def small_geometries(draw):
    """2x2 grids inside [-6, 6)^2, so every sample has |beta| <= 8.5."""
    bounds = []
    for _ in range(2):
        lo = draw(st.floats(-6.0, 5.5))
        bounds += [lo, draw(st.floats(lo + 0.5, 6.0))]
    return GridGeometry(*bounds, 2, 2)


def _displacement_reference(beta: complex) -> np.ndarray:
    """D(beta) = exp(-i H), H = i(beta a^dag - beta* a), by eigh in 160
    levels, enough for the elements between low Fock levels to converge."""
    a = np.diag(np.sqrt(np.arange(1, 160)), 1)
    e = hermitian_eig(1j * (beta * a.T - np.conj(beta) * a))
    v = e.eigenvectors
    return (v * np.exp(-1j * e.eigenvalues)) @ dag(v)


@PROPERTY_SETTINGS
@given(n=st.integers(0, 12), m=st.integers(0, 12), geom=small_geometries())
def test_char_from_fock_of_a_matrix_unit_is_a_displacement_element(n, m, geom):
    # chi(beta) = Tr[|m><n| D(beta)] = <n|D(beta)|m>; two spare levels keep
    # the truncation-tail check clear of the unit
    cutoff = max(n, m) + 2
    unit = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    unit[m, n] = 1.0
    chi = oracles.char_from_fock(unit, geom).values
    for i, x in enumerate(geom.xs()):
        for j, p in enumerate(geom.ps()):
            ref = _displacement_reference(complex(x, p))[n, m]
            assert abs(chi[i, j] - ref) <= 1e-12


@PROPERTY_SETTINGS
@given(cutoff=st.integers(2, 12), data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       extent=st.floats(1.0, 8.0), points=st.integers(2, 64))
def test_fock_state_commutes_with_itself_on_every_grid(cutoff, data, seed, extent, points):
    # the star product of a grid with itself aliases on coarse grids; the
    # Fock-space commutator of a state with itself is exactly zero
    rho = random_fock_density(cutoff, data.draw(st.integers(0, cutoff - 2)), seed)
    grid = fock_commutator(rho, rho, square_geometry(extent, points))
    assert not np.any(grid.values)


@st.composite
def lattice_geometries(draw):
    """Centred even, centred odd, or off-centre rectangular grids."""
    shape = draw(st.sampled_from(["centred_even", "centred_odd", "off_centre"]))
    extent = draw(st.floats(2.0, 7.0))
    if shape != "off_centre":
        points = 2 * draw(st.integers(2, 32)) + (shape == "centred_odd")
        return square_geometry(extent, points)
    x0, p0 = draw(st.floats(-7.0, -1.0)), draw(st.floats(-7.0, -1.0))
    return GridGeometry(x0, x0 + extent + draw(st.floats(1.0, 5.0)),
                        p0, p0 + extent, draw(st.integers(4, 48)), draw(st.integers(4, 48)))


@dataclass(frozen=True)
class GivenRows(GridGeometry):
    """A grid whose x values are the given rows. A 2-row
    GridGeometry(x0, x_max, ...) has x0 plus half of a rounded x_max - x0 as
    its second row, which for about 1 pair of rows in 750 no x_max puts on
    the other grid's point."""

    rows: tuple = ()

    def xs(self) -> np.ndarray:
        return np.array(self.rows)


@PROPERTY_SETTINGS
@given(geom=lattice_geometries(), cutoff=st.integers(2, 14), support=st.integers(0, 12),
       row=st.integers(0, 63), seed=st.integers(0, 2 ** 32 - 1))
@example(geom=GridGeometry(-7.0, -0.1744494658412501, -7.0, -5.0, 26, 16), cutoff=2,
         support=0, row=24, seed=0)
def test_fock_series_value_depends_only_on_its_point(geom, cutoff, support, row, seed):
    # the series runs once per distinct radius of the grid; rows i and i+1
    # on a 2-row grid over the same points, bit for bit, hold other radii
    # and must read the same values
    op = random_fock_density(cutoff, support % (cutoff - 1), seed)
    i = row % (geom.nx - 1)
    x0, x1 = geom.xs()[i:i + 2]
    pair = GivenRows(x0, x1 + (x1 - x0), geom.p_min, geom.p_max, 2, geom.np, rows=(x0, x1))
    assert pair.xs().tobytes() == geom.xs()[i:i + 2].tobytes()
    assert pair.ps().tobytes() == geom.ps().tobytes()
    for transform in (wigner_from_fock, oracles.char_from_fock):
        full = transform(op, geom).values
        rows = transform(op, pair).values
        scale = max(np.max(np.abs(full)), 1e-300)
        assert np.max(np.abs(rows - full[i:i + 2])) <= 1e-14 * scale


seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def series_geometries(draw):
    """Square centred grids, or off-centre rectangles, of 16-128 points a side."""
    extent = draw(st.floats(2.0, 8.0))
    if draw(st.booleans()):
        return square_geometry(extent, draw(st.integers(16, 128)))
    x0, p0 = draw(st.floats(-8.0, -1.0)), draw(st.floats(-8.0, -1.0))
    return GridGeometry(x0, x0 + extent, p0, p0 + 1.5 * extent,
                        draw(st.integers(16, 128)), draw(st.integers(16, 128)))


ALL_ORDERS = frozenset(range(21))


@PROPERTY_SETTINGS
@given(cutoff=st.integers(1, 20), seed=seeds, geom=series_geometries(),
       zeroed=st.frozensets(st.integers(0, 20)))
@example(cutoff=20, seed=0, geom=square_geometry(6.0, 128), zeroed=frozenset())
@example(cutoff=12, seed=1, geom=square_geometry(6.0, 64), zeroed=ALL_ORDERS)
@example(cutoff=12, seed=2, geom=square_geometry(6.0, 64), zeroed=frozenset({0}))
@example(cutoff=12, seed=3, geom=GridGeometry(-7.0, 2.0, -1.0, 5.0, 16, 128),
         zeroed=ALL_ORDERS - {0})
def test_fock_series_skipping_zero_orders_is_bit_identical(cutoff, seed, geom, zeroed):
    # a Hermitian matrix with the coherence orders |m - n| in zeroed set to
    # zero, summed with the Wigner series' parity sign at scale 2
    rng = np.random.default_rng(seed)
    size = cutoff + 1
    g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    m = g + dag(g)
    orders = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))
    m[np.isin(orders, list(zeroed))] = 0.0
    got = _fock_series(m, geom)
    ref = oracles.fock_series_all_orders(m, geom, 2.0, (-1.0) ** np.arange(size))
    # bit patterns, so a zero's sign counts too
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


@PROPERTY_SETTINGS
@given(cutoff=st.integers(4, 12), seed_a=seeds, seed_b=seeds, extent=st.floats(3.0, 7.0),
       points=st.integers(16, 64), shift=st.sampled_from([0.0, 0.5, 0.37]))
@example(cutoff=4, seed_a=0, seed_b=1, extent=6.0, points=64, shift=0.0)
def test_commuting_wigner_grids_never_flagged(cutoff, seed_a, seed_b, extent, points,
                                              shift):
    # diagonal states commute, but their star product on a grid too coarse
    # or a box too small does not; moyal must refuse such grids (exit 2)
    # rather than report NONZERO_DISCORD. shift moves the lattice by that
    # fraction of a cell: at 0.5, or on an odd side, the Nyquist mode of a
    # symmetric state sums to zero.
    step = 2.0 * extent / points
    geom = GridGeometry(-extent + shift * step, extent + shift * step,
                        -extent + shift * step, extent + shift * step, points, points)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"w{i}.state") for i in range(2)]
        for path, seed in zip(paths, (seed_a, seed_b)):
            grid = wigner_from_fock(random_diagonal_fock(cutoff, seed), geom)
            statefile.write(path, statefile.wigner_grid_doc(grid))
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["moyal", *paths, "--out", os.path.join(tmp, "c.json")])
    if code == 2:
        assert out.getvalue() == ""
        assert "cannot resolve" in err.getvalue()
    else:
        assert code == 0
        assert json.loads(out.getvalue())["verdict"] == dv.CONSISTENT_WITH_ZERO


@PROPERTY_SETTINGS
@given(seed=seeds, product=st.booleans(),
       mean=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
       outcomes=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4, unique=True))
def test_a_displacement_moves_both_peaks_alike(seed, product, mean, outcomes):
    # B's conditional peak moves by m_B - G m_A whatever the outcome, so the
    # verdict and the separation are those of the zero-mean copy
    cov = gaussian.random_physical_state(np.random.default_rng(seed), product=product).cov
    out1, out2 = complex(*outcomes[:2]), complex(*outcomes[2:])
    still, moved = (gaussian.peak_coincidence_test(gaussian.GaussianState(m, cov),
                                                   out1, out2, 1e-9)
                    for m in (np.zeros(4), np.array(mean)))
    assert moved.verdict == still.verdict
    assert moved.witnesses["separation"] == still.witnesses["separation"]
    shift_1, shift_2 = (moved.witnesses[k] - still.witnesses[k] for k in ("peak_1", "peak_2"))
    assert abs(shift_1 - shift_2) <= 1e-12


def _ic_povm(dim, rng):
    if dim == 2 and rng.random() < 0.5:
        return povm.sic_qubit()
    return povm.random_ic_povm(dim, int(rng.integers(2 ** 31)))


@PROPERTY_SETTINGS
@given(dim_a=st.integers(2, 4), dim_b=st.integers(2, 4), seed=seeds)
def test_batched_povm_layers_match_per_effect_formulas(dim_a, dim_b, seed):
    rng = np.random.default_rng(seed)
    pa, pb = _ic_povm(dim_a, rng), _ic_povm(dim_b, rng)
    rho = DensityOperator(random_density_matrix(dim_a * dim_b, rng),
                          bipartition=(dim_a, dim_b))
    close = partial(np.testing.assert_allclose, rtol=0, atol=1e-12)

    # within the two routes' rounding; test_tomo pins the sampled counts
    assert_close_to_kron_oracle(tomo.joint_probabilities(rho, pa, pb), rho, pa, pb)

    # Tr_A[(M_k x I) rho], B's unnormalised conditional for outcome k
    blocks = [np.trace((np.kron(m, np.eye(dim_b)) @ rho.matrix)
                       .reshape(dim_a, dim_b, dim_a, dim_b), axis1=0, axis2=2)
              for m in pa.effects]
    ens = dv.condition_on_povm(rho, pa)
    close(ens.probabilities, [np.trace(b).real for b in blocks])
    for state, present, block in zip(ens.states, ens.present, blocks):
        if present:
            close(state, block / np.trace(block).real)

    basis = povm.hermitian_basis(dim_a)
    frame_basis, coords = povm._frame(pa)[:2]
    np.testing.assert_array_equal(frame_basis, basis)
    close(coords, [[np.trace(b @ m).real for b in basis] for m in pa.effects])
    # the frame operator sum_k |M_k)(M_k|, effect by effect, in that basis
    frames = []
    with mock.patch.object(povm, "hermitian_eig",
                           side_effect=lambda f: frames.append(f) or hermitian_eig(f)):
        assert povm.is_informationally_complete(pa)
    close(frames[0], sum(np.outer(c, c) for c in
                         [[np.trace(b @ m).real for b in basis] for m in pa.effects]))

    # sum_k N_k Tr[M_k X] = X on a random Hermitian X, not only on states;
    # random frames can be ill-conditioned (1.1e-7 relative error at worst
    # over 1200 random POVMs of dims 2-4)
    g = rng.normal(size=(dim_a, dim_a)) + 1j * rng.normal(size=(dim_a, dim_a))
    x = g + dag(g)
    duals = povm.dual_frame(pa)
    coeffs = [np.trace(m @ x).real for m in pa.effects]
    rebuilt = povm.reconstruct(pa, duals, coeffs)
    close(rebuilt, sum(c * n for c, n in zip(coeffs, duals)))
    np.testing.assert_allclose(rebuilt, x, rtol=0, atol=1e-5 * np.abs(x).max())


@PROPERTY_SETTINGS
@given(dim=st.integers(2, 4), seed=seeds, log_keep=st.floats(-7.0, 0.0))
@example(dim=3, seed=0, log_keep=-7.0)
@example(dim=3, seed=0, log_keep=-2.0)
def test_dual_frame_refuses_exactly_what_is_not_complete(dim, seed, log_keep):
    # M_k(t) = (1 - t) M_k + t Tr[M_k] I / d is still a POVM, but its frame
    # operator's traceless block shrinks as (1 - t)^2 toward rank one
    p = _ic_povm(dim, np.random.default_rng(seed))
    keep = 10.0 ** log_keep
    traces = np.trace(p.effects, axis1=1, axis2=2).real[:, None, None]
    p = povm.Povm(dim, keep * p.effects + (1.0 - keep) * traces * np.eye(dim) / dim)
    if not povm.is_informationally_complete(p):
        with pytest.raises(NotInformationallyComplete):
            povm.dual_frame(p)
        return
    duals = povm.dual_frame(p)
    w = povm._frame(p)[2].eigenvalues
    for b in povm.hermitian_basis(dim):
        coeffs = np.einsum("kij,ji->k", p.effects, b).real     # Tr[M_k b]
        np.testing.assert_allclose(povm.reconstruct(p, duals, coeffs), b,
                                   rtol=0, atol=1e-12 * w[0] / w[-1])


@PROPERTY_SETTINGS
@given(dim=st.integers(1, 4), count=st.integers(1, 9), seed=seeds)
def test_ensemble_gaps_are_each_states_degeneracy_gap(dim, count, seed):
    rng = np.random.default_rng(seed)
    present = rng.random(count) < 0.7
    present[rng.integers(count)] = True
    states = np.zeros((count, dim, dim), dtype=complex)
    for k in np.flatnonzero(present):
        if rng.random() < 0.5:
            states[k] = random_density_matrix(dim, rng)
        else:       # repeated eigenvalues: a gap of 0 up to rounding
            u = random_unitary(dim, rng)
            w = rng.choice(rng.random(2), size=dim)
            states[k] = (u * (w / w.sum())) @ dag(u)
            states[k] = (states[k] + dag(states[k])) / 2.0
    ens = dv.ConditionalEnsemble(present / present.sum(), states, np.zeros(count))
    for k in range(count):
        expected = degeneracy_gap(hermitian_eig(states[k])) if present[k] else 0.0
        np.testing.assert_array_equal(ens.gaps[k], expected)


def _project_reference(m):
    """tomo.project_to_state on one matrix, as a per-row loop computes it."""
    e = hermitian_eig((m + dag(m)) / 2.0)
    w = np.maximum(e.eigenvalues, 0.0)
    tr = w.sum()
    w = np.ones_like(w) / len(w) if tr <= 0.0 else w / tr
    out = (e.eigenvectors * w) @ dag(e.eigenvectors)
    return (out + dag(out)) / 2.0


def _sweep_reference(states, pairs, threshold, rounding):
    """(max norm, witness, checked pairs) of a sweep that stops at the first
    commutator norm above threshold plus the pair's rounding bound."""
    max_norm, checked = 0.0, 0
    for j, k in pairs:
        c = states[j] @ states[k] - states[k] @ states[j]
        norm = float(np.sqrt(np.sum(np.abs(c) ** 2)))
        checked += 1
        max_norm = max(max_norm, norm)
        if norm > threshold + (rounding[j] + rounding[k]):
            return max_norm, (j, k), checked
    return max_norm, None, checked


def _delta_reference(rj, rk, fj, nj, fk, nk, duals):
    """(norm, gradients, delta-method stderr) of one pair of conditionals."""
    comm = rj @ rk - rk @ rj
    norm = float(np.sqrt(np.sum(np.abs(comm) ** 2)))
    if norm <= tomo.NORM_FLOOR:
        return norm, None, None, None
    cd = dag(comm)
    gj = np.trace((rk @ cd - cd @ rk) @ duals, axis1=1, axis2=2).real / norm
    gk = np.trace((cd @ rj - rj @ cd) @ duals, axis1=1, axis2=2).real / norm
    var = 0.0
    for f, n, g in ((fj, nj, gj), (fk, nk, gk)):
        var += g @ ((np.diag(f) - np.outer(f, f)) / n) @ g
    return norm, gj, gk, float(np.sqrt(max(var, 0.0)))


@PROPERTY_SETTINGS
@given(dim_a=st.integers(2, 4), dim_b=st.integers(2, 4), seed=seeds)
def test_batched_conditional_layers_match_per_row_formulas(dim_a, dim_b, seed):
    """Every stacked step of the conditional ensemble, bit for bit against
    one state or one pair at a time."""
    rng = np.random.default_rng(seed)
    pa, pb = _ic_povm(dim_a, rng), _ic_povm(dim_b, rng)
    rho = DensityOperator(random_density_matrix(dim_a * dim_b, rng),
                          bipartition=(dim_a, dim_b))
    equal = np.testing.assert_array_equal

    # conditioning: each block divided by its probability and symmetrised
    ens = dv.condition_on_povm(rho, pa)
    blocks = np.einsum("kac,cbad->kbd", pa.effects, rho.matrix.reshape(
        dim_a, dim_b, dim_a, dim_b))
    for k, block in enumerate(blocks):
        pk = np.trace(block).real
        assert ens.present[k] == (pk > dv.PROB_FLOOR)
        if ens.present[k]:
            cond = block / pk
            equal(ens.states[k], (cond + dag(cond)) / 2.0)
        # sqrt(2) (1 + sqrt(d_B)) (d_A^2 + 3) u ||M_k||_F / p_k, 0 when absent
        bound = (np.sqrt(2.0) * (1.0 + np.sqrt(dim_b)) * (dim_a ** 2 + 3) * np.finfo(float).eps
                 / 2 * np.linalg.norm(pa.effects[k]) / pk) if ens.present[k] else 0.0
        np.testing.assert_allclose(ens.rounding[k], bound, rtol=1e-14, atol=0)

    # anchor gaps, the anchor-versus-rest and the all-pairs sweeps
    present = [int(k) for k in np.flatnonzero(ens.present)]
    gaps = [degeneracy_gap(hermitian_eig(ens.states[k])) for k in present]
    equal(degeneracy_gap(hermitian_eig(ens.states[present])), gaps)
    anchor = dv.select_anchor(ens)
    assert anchor is not None and ens.present[anchor]
    all_pairs = [(j, k) for i, j in enumerate(present) for k in present[i + 1:]]
    for pairs, chosen in (([(anchor, k) for k in present if k != anchor], anchor),
                          (all_pairs, None)):
        norms = sorted(_sweep_reference(ens.states, [p], np.inf, ens.rounding)[0]
                       for p in pairs)
        # the least rounding bound of a pair without the anchor
        least = sum(sorted(ens.rounding[k] for k in present if k != chosen)[:2])
        for threshold in (0.0, norms[len(norms) // 2], norms[-1]):
            with mock.patch.object(dv, "select_anchor", return_value=chosen):
                v = dv.verify_commutativity(ens, threshold)
            w = v.witnesses
            expected, ref = chosen, _sweep_reference(ens.states, pairs, threshold, ens.rounding)
            if (chosen is not None and ref[1] is None and dv.anchor_bound(
                    ref[0], gaps[present.index(chosen)]) > threshold + least):
                # the anchor pairs do not certify the rest: every pair is swept
                expected, ref = None, _sweep_reference(ens.states, all_pairs, threshold,
                                                       ens.rounding)
            assert w["anchor_index"] == expected
            assert (w["max_commutator_norm"], w["witness_pair"], w["checked_pairs"]) == ref

    # estimation from a sampled record: frequencies, inversion and projection
    duals_b = povm.dual_frame(pb)
    rec = tomo.sample_joint(rho, pa, pb, int(rng.integers(50, 5000)), seed)
    est = tomo.estimate_conditionals(rec)
    equal(est.duals_b, duals_b)
    marg = rec.counts.sum(axis=1)
    for k in range(len(pa)):
        assert est.present[k] == (marg[k] > 0)
        if marg[k] > 0:
            f = rec.counts[k] / marg[k]
            equal(est.freqs[k], f)
            equal(est.states[k],
                  _project_reference(np.einsum("m,mij->ij", f, duals_b)))
    stack = np.stack([-np.eye(dim_b), *est.states[est.present]])
    equal(tomo.project_to_state(stack), [_project_reference(m) for m in stack])

    # norms, gradients and delta-method stderrs of every present pair
    s = est.states
    pairs = dv.present_pairs(est.present)
    norm, gj, gk = tomo._norm_gradients(s[pairs[:, 0]], s[pairs[:, 1]], duals_b)
    var = (tomo._delta_variance(est.freqs[pairs[:, 0]], est.counts[pairs[:, 0]], gj)
           + tomo._delta_variance(est.freqs[pairs[:, 1]], est.counts[pairs[:, 1]], gk))
    for p, (j, k) in enumerate(pairs):
        ref = _delta_reference(s[j], s[k], est.freqs[j], est.counts[j], est.freqs[k],
                               est.counts[k], duals_b)
        assert norm[p] == ref[0]
        if ref[1] is not None:
            equal(gj[p], ref[1])
            equal(gk[p], ref[2])
            assert np.sqrt(max(var[p], 0.0)) == ref[3]

    # a record whose identical rows leave no delta stderr reads z = 0
    row = rng.integers(0, 4, size=len(pb))
    row[0] += 1
    counts = np.tile(row, (len(pa), 1))
    counts[rng.integers(len(pa))] = 0
    flat = tomo.estimate_conditionals(ShotRecord(pa, pb, counts, int(counts.sum()), seed))
    v = tomo.significant_commutativity(flat)
    w = v.witnesses
    assert (v.verdict, w["z_score"], w["norm_stderr"]) == (dv.CONSISTENT_WITH_ZERO, 0.0, 0.0)
    assert w["witness_pair"] == tuple(dv.present_pairs(flat.present)[0])


render_leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
                 | st.lists(st.text(max_size=6), max_size=4))


@PROPERTY_SETTINGS
@given(st.dictionaries(st.text(max_size=4), st.recursive(
    render_leaves, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4), max_leaves=12), max_size=4))
@example({"": [], "a": {}, "b": ["x", 1, ["y", "z"], None, 2.5, True],
          "\u00e9\"\\\x01\n": [["1", "2"], ["\u2028", "\\"]], "c": {"d": ["e"]}})
def test_render_writes_the_json_dumps_layout(doc):
    try:
        tree = _with_float_strings(doc)
    except ParseError:
        with pytest.raises(ParseError, match="cannot serialize non-finite float"):
            statefile.render(doc)
    else:
        assert statefile.render(doc) == json.dumps(tree, sort_keys=True, indent=1) + "\n"


def _with_float_strings(node):
    """node with each float leaf as its 17-digit string; ParseError for a
    non-finite one."""
    if isinstance(node, float):
        if not math.isfinite(node):
            raise ParseError(f"non-finite float {node}")
        return format(node, ".17g")
    if isinstance(node, dict):
        return {k: _with_float_strings(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_with_float_strings(v) for v in node]
    return node


@pytest.mark.parametrize("value", [np.int64(1), ["a", np.int64(1)], {"k": [np.int64(2)]},
                                   object(), np.bool_(True), np.array([True, False])],
                         ids=["int64", "in_list", "nested", "object", "bool_", "bool_array"])
def test_render_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError):
        statefile.render({"v": value})


@st.composite
def state_documents(draw):
    """A valid document of any of the four kinds."""
    kind = draw(st.sampled_from(statefile.KINDS))
    rng = np.random.default_rng(draw(seeds))
    if kind == "dv_density":
        da, db = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        rho = DensityOperator(random_density_matrix(da * db, rng),
                              bipartition=(da, db) if draw(st.booleans()) else None)
        # a Fock tag, when present, names the matrix's own cutoff
        return statefile.dv_density_doc(rho, draw(st.none() | st.just(da * db - 1)))
    if kind == "gaussian":
        g = gaussian.random_physical_state(rng, product=draw(st.booleans()))
        return statefile.gaussian_doc(gaussian.GaussianState(rng.normal(size=4), g.cov))
    if kind == "shot_record":
        pa = _ic_povm(draw(st.integers(2, 3)), rng)
        pb = _ic_povm(draw(st.integers(2, 3)), rng)
        counts = rng.integers(0, 1000, size=(len(pa), len(pb)))
        rec = ShotRecord(pa, pb, counts, int(counts.sum()), draw(st.integers(0, 2 ** 31)))
        return statefile.shot_record_doc(rec)
    nx, npts = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    x0, p0 = rng.normal(size=2) * 10
    geom = GridGeometry(x0, x0 + rng.exponential() + 1e-3,
                        p0, p0 + rng.exponential() + 1e-3, nx, npts)
    grid = WignerGrid(geom, rng.normal(size=(nx, npts)),
                      value_stderr=draw(st.none() | st.floats(0.0, 1.0)))
    return statefile.wigner_grid_doc(grid)


def _document_of(sf):
    if sf.kind == "dv_density":
        return statefile.dv_density_doc(sf.payload, sf.fock_cutoff)
    if sf.kind == "gaussian":
        return statefile.gaussian_doc(sf.payload)
    if sf.kind == "shot_record":
        return statefile.shot_record_doc(sf.payload)
    return statefile.wigner_grid_doc(sf.payload)


def _load_text(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.state")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        return statefile.load(path)


@PROPERTY_SETTINGS
@given(state_documents())
def test_statefile_round_trip_is_exact(doc):
    # floats are written with 17 significant digits, which is injective on
    # finite binary64, so equal texts mean bit-identical payloads
    text = statefile.render(doc)
    sf = _load_text(text)
    assert sf.kind == doc["kind"]
    assert statefile.render(_document_of(sf)) == text


EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1 / 3]


@st.composite
def edge_grids(draw):
    """2-7 x 2-7 grids of finite floats, edge values among them."""
    nx, npts = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    values = draw(st.lists(st.sampled_from(EDGE_FLOATS)
                           | st.floats(allow_nan=False, allow_infinity=False),
                           min_size=nx * npts, max_size=nx * npts))
    return np.array(values).reshape(nx, npts)


@PROPERTY_SETTINGS
@given(edge_grids())
@example(np.array(EDGE_FLOATS + [-1 / 3]).reshape(2, 3))
def test_grid_values_write_the_json_dumps_layout(values):
    # the float array is formatted in one call into the layout json.dumps
    # gives the nested lists of its format(v, ".17g") strings
    doc = statefile.wigner_grid_doc(
        WignerGrid(GridGeometry(-1.0, 1.0, -2.0, 2.0, *values.shape), values))
    tree = _with_float_strings({**doc, "values": values.tolist()})
    assert statefile.render(doc) == json.dumps(tree, sort_keys=True, indent=1) + "\n"


def _one_slot_set(fill, value):
    a = np.full((3, 4), fill)
    a[1, 2] = value
    return a


CONSTANT_ARRAYS = {
    **{f"constant_{name}": np.full((3, 4), x) for name, x in zip(
        ["minus_zero", "subnormal", "big", "minus_big", "third"], EDGE_FLOATS)},
    "constant_zero": np.zeros((3, 4)),
    # differ from a constant only in the sign bit or the last bit
    "zeros_and_one_minus_zero": _one_slot_set(0.0, -0.0),
    "minus_zeros_and_one_zero": _one_slot_set(-0.0, 0.0),
    "zeros_and_one_subnormal": _one_slot_set(0.0, 5e-324),
    "thirds_and_one_ulp_up": _one_slot_set(1 / 3, np.nextafter(1 / 3, 1.0)),
    "complex_re_equal_to_im": np.full((2, 3, 3), 0.25 + 0.25j),
    "float32_constant": np.full((2, 2), 0.1, dtype=np.float32),
    # two float32 values whose pairs, viewed as int64, are one constant
    "float32_alternating": np.array([0.1, 0.2, 0.1, 0.2], dtype=np.float32),
    "one_element": np.array([0.0]),
    "one_by_one": np.full((1, 1), -0.0),
    "empty": np.zeros(0),
    "empty_rows": np.zeros((2, 0)),
}


@pytest.mark.parametrize("values", CONSTANT_ARRAYS.values(), ids=CONSTANT_ARRAYS.keys())
def test_constant_and_near_constant_arrays_write_the_json_dumps_layout(values):
    # a constant array is formatted once and filled in; a near-constant one
    # takes the per-value path; both write what json.dumps writes
    pairs = np.stack([values.real, values.imag], axis=-1) if values.dtype.kind == "c" else values
    tree = _with_float_strings({"values": pairs.tolist()})
    assert statefile.render({"values": values}) == json.dumps(tree, sort_keys=True,
                                                              indent=1) + "\n"


def test_a_commuting_pairs_zero_grid_writes_the_json_dumps_layout():
    doc = statefile.wigner_grid_doc(
        WignerGrid(square_geometry(6.0, 128), np.zeros((128, 128))))
    tree = _with_float_strings({**doc, "values": doc["values"].tolist()})
    assert statefile.render(doc) == json.dumps(tree, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("values", [np.full((3, 3), np.nan), np.full((3, 3), np.inf),
                                    np.full(4, -np.inf, dtype=np.float32),
                                    np.full((2, 2), complex(np.inf, np.inf))],
                         ids=["nan", "inf", "float32_minus_inf", "complex_inf"])
def test_a_constant_non_finite_array_is_refused(values):
    with pytest.raises(ParseError, match="cannot serialize non-finite float"):
        statefile.render({"values": values})


@PROPERTY_SETTINGS
@given(data=st.data(), dtype=st.sampled_from([np.int64, np.uint64, np.float64]),
       off=st.sampled_from([0, 0, -1, 1]))
def test_the_shot_record_writer_writes_only_what_load_reads(data, dtype, off):
    # counts of each dtype up to its limit, with a total that is their exact
    # sum or one off it: the writer refuses exactly what load refuses
    top = np.iinfo(dtype).max if dtype != np.float64 else 2 ** 53
    counts = data.draw(hnp.arrays(dtype, (4, 4), elements=st.integers(0, top)
                                  | st.sampled_from([0, 1, top // 4, top])))
    total = int(counts.sum(dtype=object)) + off
    sic = povm.sic_qubit()
    doc = statefile.shot_record_doc(ShotRecord(sic, sic, np.zeros((4, 4), int), 0, 0))
    text = statefile.render({**doc, "counts": counts, "total": total}).encode()
    try:
        statefile.shot_record_doc(ShotRecord(sic, sic, counts, total, 0))
    except ParseError:
        with pytest.raises(ParseError):
            statefile._parse(text)
        return
    back = statefile._parse(text).payload
    assert back.counts.tolist() == counts.tolist() and back.total == total


@PROPERTY_SETTINGS
@given(seed=seeds, product=st.booleans())
def test_standard_form_preserves_local_invariants(seed, product):
    state = gaussian.random_physical_state(np.random.default_rng(seed), product)
    cov = gaussian.standard_form(state).as_cov()
    for before, after in ((state.cov[:2, :2], cov[:2, :2]), (state.cov[2:, 2:], cov[2:, 2:]),
                          (state.cov[:2, 2:], cov[:2, 2:]), (state.cov, cov)):
        det_in, det_out = np.linalg.det(before), np.linalg.det(after)
        assert abs(det_out - det_in) <= 1e-9 * abs(det_in) + 1e-12


@PROPERTY_SETTINGS
@given(seed=seeds, product=st.booleans())
def test_standard_form_local_is_a_local_symplectic_onto_the_form(seed, product):
    state = gaussian.random_physical_state(np.random.default_rng(seed), product)
    sf = gaussian.standard_form(state)
    s = sf.local
    assert not s[:2, 2:].any() and not s[2:, :2].any()
    assert np.max(np.abs(s @ gaussian.OMEGA @ s.T - gaussian.OMEGA)) <= 1e-12
    cov = sf.as_cov()
    assert np.max(np.abs(s @ state.cov @ s.T - cov)) <= 1e-10 * np.max(np.abs(cov))


@PROPERTY_SETTINGS
@given(seed=seeds, product=st.booleans(), outcome=st.complex_numbers(max_magnitude=10.0))
def test_heterodyne_condition_is_the_standard_form_schur_complement(seed, product, outcome):
    # with A = aI and C = diag(c, d), G = C^T (A + I/4)^{-1} is diagonal
    sf = gaussian.standard_form(
        gaussian.random_physical_state(np.random.default_rng(seed), product))
    gain, cov = gaussian.heterodyne_condition(sf)
    mean = gain @ [outcome.real, outcome.imag]
    a4 = sf.a + gaussian.VACUUM_VARIANCE
    expected_mean = [sf.c * outcome.real / a4, sf.d * outcome.imag / a4]
    expected_cov = np.diag([sf.b - sf.c ** 2 / a4, sf.b - sf.d ** 2 / a4])
    assert np.max(np.abs(mean - expected_mean)) <= 1e-12
    assert np.max(np.abs(cov - expected_cov)) <= 1e-12
    if product:
        assert not mean.any()


entries = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def arrays(draw, max_side=4, shape=None):
    """Complex arrays of 0-3 dimensions (or the given shape), mostly finite,
    sometimes empty."""
    if shape is None:
        shape = tuple(draw(st.lists(st.integers(0, max_side), max_size=3)))
    size = int(np.prod(shape))
    out = np.empty(size, dtype=complex)
    out.real = draw(st.lists(entries, min_size=size, max_size=size))
    out.imag = draw(st.lists(entries, min_size=size, max_size=size))
    return out.reshape(shape)


@st.composite
def near_valid_matrices(draw):
    """A density matrix, broken in one of several ways (or not at all)."""
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.integers(1, 4))
    m = random_density_matrix(n, rng)
    i, j = rng.integers(n, size=2)
    how = draw(st.sampled_from(["none", "hermiticity", "trace", "negative", "entry"]))
    if how == "hermiticity":
        m[i, j] += 1e-6j
    elif how == "trace":
        m = m * 1.001
    elif how == "negative":
        # trace kept; diagonal entry i falls by n - 1, below zero for n > 1
        m = m + np.eye(n)
        m[i, i] -= n
    elif how == "entry":
        m[i, j] = draw(st.sampled_from([np.nan, np.inf, 1e300]))
    return m


@PROPERTY_SETTINGS
@given(matrix=st.one_of(arrays(), near_valid_matrices()),
       bipartition=st.none() | st.tuples(st.integers(-2, 4), st.integers(-2, 4)))
@example(matrix=np.zeros((0, 0)), bipartition=None)
@example(matrix=np.eye(4) / 4, bipartition=(-2, -2))
def test_density_operator_rejects_only_with_qdv_errors(matrix, bipartition):
    try:
        rho = DensityOperator(matrix, bipartition=bipartition)
    except QdvError:
        return
    assert rho.dim >= 1
    if rho.bipartition is not None:
        assert min(rho.bipartition) >= 1


@PROPERTY_SETTINGS
@given(dim=st.integers(-1, 3), seed=seeds, data=st.data())
def test_povm_rejects_only_with_qdv_errors(dim, seed, data):
    rng = np.random.default_rng(seed)
    if dim >= 2 and data.draw(st.booleans()):
        # a valid IC-POVM with one effect perturbed, replaced or dropped
        effects = list(_ic_povm(dim, rng).effects)
        k = int(rng.integers(len(effects)))
        how = data.draw(st.sampled_from(["perturb", "replace", "drop"]))
        if how == "perturb":
            with np.errstate(invalid="ignore"):     # 1e-3 * complex inf
                effects[k] = effects[k] + 1e-3 * data.draw(arrays(shape=(dim, dim)))
        elif how == "replace":
            effects[k] = data.draw(arrays(max_side=3))
        else:
            del effects[k]
    else:
        effects = data.draw(st.lists(arrays(max_side=3), max_size=5))
    try:
        p = povm.Povm(dim, effects)
    except QdvError:
        return
    assert p.dim >= 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False,
                                                          allow_infinity=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                                inner, max_size=3),
    max_leaves=6)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


@st.composite
def mutated_texts(draw):
    """A valid document with one node replaced or deleted, or its text cut
    and spliced with arbitrary characters."""
    text = statefile.render(draw(state_documents()))
    if draw(st.booleans()):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, len(text)))
        return text[:start] + draw(st.text(max_size=8)) + text[stop:]
    doc = json.loads(text)
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return json.dumps(draw(json_values))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return json.dumps(doc)


@PROPERTY_SETTINGS
@given(mutated_texts())
def test_statefile_load_rejects_only_with_parse_errors(text):
    try:
        _load_text(text)
    except QdvError:
        pass


@st.composite
def mutated_shot_records(draw):
    """(document, whether it is valid): a SIC shot record with one integer
    field broken, or with one count changed and the total kept consistent."""
    sic = povm.sic_qubit()
    counts = np.array(draw(st.lists(st.lists(st.integers(0, 50), min_size=4, max_size=4),
                                    min_size=4, max_size=4)))
    # a JSON tree, so that a float count is written as a JSON number
    doc = json.loads(statefile.render(statefile.shot_record_doc(
        ShotRecord(sic, sic, counts, int(counts.sum()), draw(st.integers(0, 2 ** 31))))))
    how = draw(st.sampled_from(["count", "float", "bool", "string", "negative", "huge",
                                "ragged", "total"]))
    row = doc["counts"][draw(st.integers(0, 3))]
    j = draw(st.integers(0, 3))
    if how == "ragged":
        doc["total"] -= row.pop(j)
    elif how == "total":
        doc["total"] += draw(st.integers(1, 10)) * draw(st.sampled_from([-1, 1]))
    elif how in ("count", "negative", "huge"):
        value = {"count": st.integers(0, 50), "negative": st.integers(-50, -1),
                 "huge": st.integers(2 ** 63, 2 ** 70)}[how]
        new = draw(value)
        doc["total"] += new - row[j]
        row[j] = new
    else:
        # a count, the total, the seed or a POVM's dim, as a non-integer
        field = draw(st.sampled_from(["count", "total", "seed", "dim"]))
        holder, key = {"count": (row, j), "total": (doc, "total"), "seed": (doc, "seed"),
                       "dim": (doc["povm_b"], "dim")}[field]
        v = holder[key]
        holder[key] = draw({"float": st.sampled_from([float(v), v + 0.5]),
                            "bool": st.booleans(), "string": st.just(str(v))}[how])
    return doc, how == "count"


@PROPERTY_SETTINGS
@given(mutated_shot_records())
def test_mutated_shot_records_exit_0_or_2(case):
    # a count of 1.5 once read as 1, and true as 1, and the replay exited 0
    doc, valid = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rec.shots.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["tomo", path])
    assert code in ((0, 2) if valid else (2,))
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


FLAG_VALUES = ["-1", "0", "1e308", "nan", "inf", "-0", "1" * 20, "x"]
BAD_OUTCOMES = ["", ";", "1,2", "1,2;3", "a,b;c,d", "1,2;3,4;5,6", "1,2,3;4,5",
                "nan,0;1,1", "0,inf;1,1", "1e308,1;-1e308,2", "0,0;0,1", "1,1;1,1"]


def _values(*valid, sizes=False):
    """A valid value or an edge value, evenly; sizes drops the 20-digit one."""
    return st.sampled_from(valid) | st.sampled_from(
        [v for v in FLAG_VALUES if not (sizes and v == "1" * 20)])


COMMAND_FLAGS = {
    "verify-dv": {"--povm": st.sampled_from(["sic", "mub", "random", "x"]),
                  "--povm-seed": _values("7"), "--threshold": _values("1e-9")},
    "verify-gaussian": {"--outcomes": _values("0,0;1,1", "-1,-1;1.3,0.4")
                        | st.sampled_from(BAD_OUTCOMES),
                        "--tol": _values("1e-9")},
    "moyal": {"--extent": _values("6"), "--points": _values("2", "16", "64", sizes=True)},
    "tomo": {"--shots": _values("100", "10000", sizes=True), "--seed": _values("3"),
             "--z": _values("5"), "--povm-seed": _values("7")},
}
COMMANDS_OF_KIND = {"dv_density": ["moyal", "tomo", "verify-dv"],
                    "gaussian": ["verify-gaussian"], "shot_record": ["tomo"],
                    "wigner_grid": ["moyal"]}


@st.composite
def cli_inputs(draw):
    """A valid document, or one that each command runs on: a Bell pair, a
    two-mode squeezed vacuum, a Fock vacuum and a vacuum grid with a value
    error."""
    if draw(st.booleans()):
        return draw(state_documents())
    vacuum = fock_state(0, 3)
    return draw(st.sampled_from([
        statefile.dv_density_doc(dv.generate_maximally_entangled(2)),
        statefile.gaussian_doc(gaussian.two_mode_squeezed_vacuum(0.3)),
        statefile.dv_density_doc(DensityOperator(vacuum), fock_cutoff=3),
        statefile.wigner_grid_doc(replace(wigner_from_fock(vacuum, square_geometry(6.0, 40)),
                                          value_stderr=1e-9)),
    ]))


@st.composite
def cli_cases(draw):
    """(command line without its input paths, input document tree, output
    path): mostly a command that takes the document's kind, each of its
    flags at most once with its value as one argument (--flag=value) or two,
    the document after up to three edits: a key dropped, a leaf replaced, or
    a list item dropped or duplicated, and where moyal writes its grid and
    tomo its record, relative to a temporary directory: a writable file, a
    file in a missing directory, or the directory itself."""
    tree = json.loads(statefile.render(draw(cli_inputs())))
    command = draw(st.sampled_from(COMMANDS_OF_KIND[tree["kind"]])
                   | st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = COMMAND_FLAGS[command]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        value = draw(flags[flag])
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if command == "moyal" and not any(a.startswith("--points") for a in argv):
        argv.append("--points=16")
    if command == "verify-gaussian" and not any(a.startswith("--outcomes") for a in argv):
        argv.append("--outcomes=0,0;1,1")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        path = draw(st.sampled_from(list(_paths(tree))[1:]))
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        hows = ["drop", "replace"] + (["duplicate"] if isinstance(parent, list) else [])
        how = draw(st.sampled_from(hows))
        if how == "drop":
            del parent[path[-1]]
        elif how == "replace":
            parent[path[-1]] = draw(json_values)
        else:
            parent.insert(path[-1], parent[path[-1]])
    out = draw(st.sampled_from(["out.json", "out.json", os.path.join("missing", "out.json"), ""]))
    return argv, tree, out


@PROPERTY_SETTINGS
@given(cli_cases())
@example((["tomo", "--shots=100"], json.loads(statefile.render(statefile.dv_density_doc(
    dv.generate_maximally_entangled(2)))), os.path.join("missing", "out.json")))
@example((["moyal", "--points=16"], json.loads(statefile.render(statefile.dv_density_doc(
    DensityOperator(fock_state(0, 3)), fock_cutoff=3))), ""))
@example((["verify-gaussian", "--outcomes=0,0;1,1"],
          json.loads(statefile.render(test_golden.documents()["gaussian.state"])), ""))
def test_cli_exits_0_or_2_on_any_arguments_and_file(case):
    # the exit contract: a QdvError is one stderr line and exit 2, never a
    # traceback (exit 1); argparse's own refusals exit 2 as well
    argv, tree, out_path = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.state")
        with open(path, "w") as fh:
            json.dump(tree, fh)
        argv = argv[:1] + [path] * (2 if argv[0] == "moyal" else 1) + argv[1:]
        out_flag = {"moyal": "--out=", "tomo": "--record-out="}.get(argv[0])
        if out_flag:
            argv.append(out_flag + os.path.join(tmp, out_path))
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("argparse", exc.code)
    if code == ("argparse", 2):
        return
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
