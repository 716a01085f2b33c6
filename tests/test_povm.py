import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povm_oracles import random_ic_povm_loop
from qdverify import povm as povm_mod
from qdverify.errors import DimMismatch, DomainError, NotInformationallyComplete
from qdverify.linalg import dag, frobenius_norm, hermitian_eig, random_density_matrix
from qdverify.povm import (
    Povm,
    default_ic_povm,
    dual_frame,
    hermitian_basis,
    is_informationally_complete,
    mub_povm,
    random_ic_povm,
    reconstruct,
    sic_qubit,
)

_PAULIS = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


class TestSicQubit:
    def test_pairwise_overlaps(self, sic):
        # SIC symmetry: Tr[M_j M_k] / Tr[M_j M_j] = 1/3 for all 6 pairs
        for j in range(4):
            denom = np.trace(sic.effects[j] @ sic.effects[j]).real
            for k in range(j + 1, 4):
                ratio = np.trace(sic.effects[j] @ sic.effects[k]).real / denom
                assert ratio == pytest.approx(1 / 3, abs=1e-12)

    def test_completeness_sum(self, sic):
        total = sum(sic.effects)
        assert frobenius_norm(total - np.eye(2)) <= 1e-14

    def test_effect_spectra(self, sic):
        for e in sic.effects:
            w = hermitian_eig(e).eigenvalues
            np.testing.assert_allclose(w, [0.5, 0.0], atol=1e-12)

    def test_informationally_complete(self, sic):
        assert is_informationally_complete(sic)

    def test_tetrahedral_invariance(self, sic):
        # conjugation by each Pauli permutes the effect set
        for u in _PAULIS:
            rotated = [u @ e @ dag(u) for e in sic.effects]
            for r in rotated:
                dists = [frobenius_norm(r - e) for e in sic.effects]
                assert min(dists) <= 1e-12


class TestRandomIcPovm:
    def test_qubit_construction(self):
        p = random_ic_povm(2, seed=1)
        assert len(p.effects) == 4
        assert is_informationally_complete(p)

    def test_dim3_sum_and_count(self):
        p = random_ic_povm(3, seed=7)
        assert len(p.effects) == 9
        assert frobenius_norm(sum(p.effects) - np.eye(3)) <= 1e-10
        assert is_informationally_complete(p)

    def test_deterministic(self):
        p1 = random_ic_povm(2, seed=5)
        p2 = random_ic_povm(2, seed=5)
        for a, b in zip(p1.effects, p2.effects):
            np.testing.assert_array_equal(a, b)

    def test_effects_psd(self):
        p = random_ic_povm(4, seed=2)
        for e in p.effects:
            assert hermitian_eig(e).eigenvalues[-1] >= -1e-10


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestRandomIcPovmMatchesTheLoop:
    """The stacked construction gives the per-effect loop's effects bit for
    bit, so every seed keeps its POVM."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_seeds(self, dim):
        for seed in [*range(100), 20240, 20241]:
            assert _same_bits(random_ic_povm(dim, seed).effects,
                              random_ic_povm_loop(dim, seed).effects), seed

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_a_rejected_first_attempt(self, monkeypatch, dim):
        # the second attempt continues the generator where the first left it
        calls = []
        real = povm_mod.is_informationally_complete

        def reject_first(p):
            calls.append(len(calls) % 2 == 0)
            return real(p) and not calls[-1]

        monkeypatch.setattr(povm_mod, "is_informationally_complete", reject_first)
        second = random_ic_povm(dim, 20240)
        assert _same_bits(second.effects, random_ic_povm_loop(dim, 20240).effects)
        assert calls == [True, False, True, False]
        monkeypatch.undo()
        assert not _same_bits(second.effects, random_ic_povm(dim, 20240).effects)

    @settings(max_examples=60, deadline=None, database=None)
    @given(dim=st.integers(2, 7), seed=st.integers(0, 2 ** 63 - 1))
    def test_any_seed(self, dim, seed):
        assert _same_bits(random_ic_povm(dim, seed).effects,
                          random_ic_povm_loop(dim, seed).effects)


def _prime_factors(dim):
    factors, p = [], 2
    while dim > 1:
        while dim % p == 0:
            factors.append(p)
            dim //= p
        p += 1
    return factors


class TestMubPovm:
    @pytest.mark.parametrize("dim", range(2, 13))
    def test_psd_complete_ic_with_the_product_condition_number(self, dim):
        p = mub_povm(dim)
        factors = _prime_factors(dim)
        assert len(p) == np.prod([4 if f == 2 else f * (f + 1) for f in factors])
        assert hermitian_eig(p.effects).eigenvalues[:, -1].min() >= -1e-12
        assert np.abs(p.effects.sum(axis=0) - np.eye(dim)).max() <= 1e-12
        assert is_informationally_complete(p)
        w = povm_mod._frame(p)[2].eigenvalues
        assert w[0] / w[-1] == pytest.approx(np.prod([f + 1.0 for f in factors]), rel=1e-9)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_odd_prime_bases_are_mutually_unbiased(self, p):
        # effects are the projectors of p + 1 bases, weighted 1/(p+1)
        kets = (p + 1) * mub_povm(p).effects
        overlaps = np.einsum("jab,kba->jk", kets, kets).real
        basis = np.arange(p * (p + 1)) // p
        same = basis[:, None] == basis[None, :]
        np.testing.assert_allclose(overlaps[same], np.eye(p * (p + 1))[same], atol=1e-12)
        np.testing.assert_allclose(overlaps[~same], 1.0 / p, atol=1e-12)

    def test_is_a_kind_that_reads_no_seed(self):
        for dim in (2, 3, 6):
            effects = default_ic_povm(dim, seed=0, kind="mub").effects
            np.testing.assert_array_equal(
                effects, default_ic_povm(dim, seed=20241, kind="mub").effects)
            np.testing.assert_array_equal(effects, mub_povm(dim).effects)

    def test_qubit_factor_is_the_sic(self, sic):
        np.testing.assert_array_equal(mub_povm(2).effects, sic.effects)

    def test_refuses_a_trivial_dimension(self):
        with pytest.raises(DimMismatch):
            mub_povm(1)


def test_projective_measurement_not_ic():
    p = Povm(2, [np.diag([1.0, 0.0]).astype(complex),
                 np.diag([0.0, 1.0]).astype(complex)])
    assert not is_informationally_complete(p)


def _set_entry(where, value):
    def spoil(e):
        e = e.copy()
        e[where] = value
        return e
    return spoil


@pytest.mark.parametrize("k, spoil, error, message", [
    pytest.param(2, _set_entry((0, 0), np.inf), DomainError,
                 "effect 2 has non-finite entries", id="inf-where0"),
    pytest.param(2, _set_entry((0, 1), np.nan), DomainError,
                 "effect 2 has non-finite entries", id="nan-where1"),
    pytest.param(2, _set_entry((1, 1), complex(0, np.nan)), DomainError,
                 "effect 2 has non-finite entries", id="nanj-where2"),
    pytest.param(2, lambda e: e + np.array([[0, 1e-6], [0, 0]]), DomainError,
                 "effect 2 is not Hermitian", id="non_hermitian"),
    pytest.param(2, lambda e: e + np.array([[0, 1.7e308], [-1.7e308, 0]]), DomainError,
                 "effect 2 is not Hermitian", id="overflowing_pair"),
    pytest.param(2, lambda e: e - 0.6 * np.eye(2), DomainError,
                 "effect 2 has eigenvalue -0.6", id="negative_eigenvalue"),
    pytest.param(1, lambda e: np.eye(3), DimMismatch,
                 r"effect 1 has shape \(3, 3\)", id="wrong_shape"),
])
def test_non_finite_effect_is_a_domain_error_without_warnings(sic, k, spoil, error,
                                                               message):
    # each check over the stack names the first failing effect; a NaN
    # difference compares False against the Hermitian tolerance, so
    # finiteness is checked first
    effects = list(sic.effects)
    effects[k] = spoil(effects[k])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            Povm(2, effects)


def test_probabilities_normalized():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(3, rng)
        p = random_ic_povm(3, seed=seed)
        probs = np.einsum("kij,ji->k", p.effects, rho).real     # Tr[M_k rho]
        assert np.all(probs >= -1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)


class TestDualFrame:
    def test_sic_closed_form(self, sic, sic_duals):
        # dual of the SIC is 3 Pi_k - I with Pi_k the projector 2 M_k
        for n, m in zip(sic_duals, sic.effects):
            np.testing.assert_allclose(n, 3 * (2 * m) - np.eye(2), atol=1e-9)

    def test_sic_reconstruction(self, sic, sic_duals):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rho = random_density_matrix(2, rng)
            rec = reconstruct(sic, sic_duals, np.einsum("kij,ji->k", sic.effects, rho).real)
            assert frobenius_norm(rec - rho) <= 1e-12

    def test_maximally_mixed(self, sic, sic_duals):
        rec = reconstruct(sic, sic_duals, np.full(4, 0.25))
        np.testing.assert_allclose(rec, np.eye(2) / 2, atol=1e-12)

    def test_random_povm_reconstruction(self):
        p = random_ic_povm(2, seed=3)
        duals = dual_frame(p)
        rng = np.random.default_rng(1)
        for _ in range(50):
            rho = random_density_matrix(2, rng)
            rec = reconstruct(p, duals, np.einsum("kij,ji->k", p.effects, rho).real)
            assert frobenius_norm(rec - rho) <= 1e-9

    def test_reconstruction_on_operator_basis(self):
        # identity on all of operator space, not just on states
        for p in (sic_qubit(), random_ic_povm(3, seed=4)):
            duals = dual_frame(p)
            for basis_op in hermitian_basis(p.dim):
                coeffs = np.array([np.trace(e @ basis_op).real for e in p.effects])
                rec = reconstruct(p, duals, coeffs)
                assert frobenius_norm(rec - basis_op) <= 1e-9

    def test_requires_completeness(self):
        p = Povm(2, [np.diag([1.0, 0.0]).astype(complex),
                     np.diag([0.0, 1.0]).astype(complex)])
        with pytest.raises(NotInformationallyComplete):
            dual_frame(p)


def test_default_ic_povm_dispatch():
    assert len(default_ic_povm(2).effects) == 4
    assert len(default_ic_povm(3).effects) == 9


def test_completeness_failure_after_retries(monkeypatch):
    monkeypatch.setattr(povm_mod, "is_informationally_complete", lambda p: False)
    with pytest.raises(NotInformationallyComplete,
                       match="^no informationally complete POVM after 10 attempts"):
        povm_mod.random_ic_povm(2, seed=0)


def test_hermitian_basis_orthonormal():
    basis = hermitian_basis(3)
    assert len(basis) == 9
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            ip = np.trace(dag(a) @ b).real
            assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)


def test_hermitian_basis_matches_the_nested_loop_construction():
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for dim in range(1, 6):
        expected = []
        for i in range(dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, i] = 1.0
            expected.append(m)
        for i in range(dim):
            for j in range(i + 1, dim):
                m = np.zeros((dim, dim), dtype=complex)
                m[i, j] = m[j, i] = inv_sqrt2
                expected.append(m)
                m = np.zeros((dim, dim), dtype=complex)
                m[i, j] = -1j * inv_sqrt2
                m[j, i] = 1j * inv_sqrt2
                expected.append(m)
        np.testing.assert_array_equal(hermitian_basis(dim), np.array(expected))
