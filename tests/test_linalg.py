import numpy as np
import pytest

from qdverify.errors import DimMismatch, MissingBipartition, NotHermitian
from qdverify.linalg import (
    DensityOperator,
    EigenDecomposition,
    commutator,
    dag,
    degeneracy_gap,
    frobenius_norm,
    hermitian_eig,
    partial_trace,
    random_density_matrix,
    random_unitary,
    swap_subsystems,
    tensor,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestTensor:
    def test_identity(self):
        np.testing.assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        out = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        np.testing.assert_allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_xx_flips_00_to_11(self):
        xx = tensor(X, X)
        # index-arithmetic oracle over all 16 entries
        expected = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for d in range(2):
                        expected[a * 2 + b, c * 2 + d] = X[a, c] * X[b, d]
        np.testing.assert_allclose(xx, expected)
        amp00 = np.zeros(4)
        amp00[0] = 1.0
        np.testing.assert_allclose(xx @ amp00, np.eye(4)[3])


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(0)
        rho_a = random_density_matrix(2, rng)
        rho_b = random_density_matrix(3, rng)
        joint = DensityOperator(tensor(rho_a, rho_b), bipartition=(2, 3))
        np.testing.assert_allclose(partial_trace(joint, "A").matrix, rho_b, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, "B").matrix, rho_a, atol=1e-12)

    def test_bell_marginal_is_maximally_mixed(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = DensityOperator(np.outer(psi, psi.conj()), bipartition=(2, 2))
        np.testing.assert_allclose(partial_trace(rho, "A").matrix, np.eye(2) / 2,
                                   atol=1e-12)

    def test_against_index_contraction_oracle(self):
        rng = np.random.default_rng(7)
        rho = DensityOperator(random_density_matrix(6, rng), bipartition=(2, 3))
        got = partial_trace(rho, "B").matrix
        expected = np.zeros((2, 2), dtype=complex)
        m = rho.matrix
        for a in range(2):
            for c in range(2):
                for b in range(3):
                    expected[a, c] += m[a * 3 + b, c * 3 + b]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_preserves_trace_and_psd(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rho = DensityOperator(random_density_matrix(6, rng), bipartition=(3, 2))
            for sub in ("A", "B"):
                red = partial_trace(rho, sub)
                assert abs(np.trace(red.matrix) - 1) <= 1e-12
                assert hermitian_eig(red.matrix).eigenvalues[-1] >= -1e-10

    def test_requires_bipartition(self):
        rho = DensityOperator(np.eye(2) / 2)
        with pytest.raises(MissingBipartition):
            partial_trace(rho, "A")


class TestHermitianEig:
    def test_diagonal(self):
        e = hermitian_eig(np.diag([0.7, 0.3]).astype(complex))
        np.testing.assert_allclose(e.eigenvalues, [0.7, 0.3])
        np.testing.assert_allclose(np.abs(e.eigenvectors), np.eye(2), atol=1e-12)

    def test_projector_spectrum(self):
        m = 0.5 * (np.eye(2) + X)
        e = hermitian_eig(m)
        np.testing.assert_allclose(e.eigenvalues, [1.0, 0.0], atol=1e-12)
        v = e.eigenvectors[:, 0]
        np.testing.assert_allclose(np.abs(v), [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_random_9x9_residual(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        h = (g + dag(g)) / 2
        e = hermitian_eig(h)
        res = frobenius_norm(h - e.reconstruct())
        assert res <= 1e-10 * frobenius_norm(h)
        orth = frobenius_norm(dag(e.eigenvectors) @ e.eigenvectors - np.eye(9))
        assert orth <= 1e-10

    def test_descending_order(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            h = random_density_matrix(5, rng)
            w = hermitian_eig(h).eigenvalues
            assert np.all(np.diff(w) <= 1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NotHermitian):
                hermitian_eig(np.array([[bad, 0], [0, 1]], dtype=complex))

    def test_density_eigenvalues_in_range(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            w = hermitian_eig(random_density_matrix(4, rng)).eigenvalues
            assert abs(w.sum() - 1) <= 1e-10
            assert w[-1] >= -1e-10 and w[0] <= 1 + 1e-10

    def test_zero_matrix(self):
        e = hermitian_eig(np.zeros((3, 3), dtype=complex))
        np.testing.assert_allclose(e.eigenvalues, 0)


class TestCommutator:
    def test_diagonal_matrices_commute(self):
        out = commutator(np.diag([1.0, 2.0]).astype(complex),
                         np.diag([3.0, 4.0]).astype(complex))
        np.testing.assert_allclose(out, 0, atol=1e-15)

    def test_pauli_algebra(self):
        np.testing.assert_allclose(commutator(X, Z), -2j * Y, atol=1e-15)

    def test_projector_norm_formula(self):
        # ||[P_u, P_v]||_F = sqrt(2) t sqrt(1 - t^2) with t the overlap
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            pu = np.outer(u, u.conj())
            pv = np.outer(v, v.conj())
            t = abs(np.vdot(u, v))
            got = frobenius_norm(commutator(pu, pv))
            assert got == pytest.approx(np.sqrt(2) * t * np.sqrt(1 - t * t), abs=1e-12)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        np.testing.assert_array_equal(commutator(a, b), -commutator(b, a))

    def test_anti_hermitian_for_hermitian_inputs(self):
        rng = np.random.default_rng(4)
        a = random_density_matrix(4, rng)
        b = random_density_matrix(4, rng)
        c = commutator(a, b)
        assert np.max(np.abs(c + dag(c))) <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            commutator(np.eye(2), np.eye(3))


def test_frobenius_norm_cases():
    assert frobenius_norm(np.zeros((2, 2))) == 0.0
    assert frobenius_norm(np.eye(3)) == pytest.approx(np.sqrt(3))
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    direct = np.sqrt(sum(abs(m[i, j]) ** 2 for i in range(4) for j in range(5)))
    assert frobenius_norm(m) == pytest.approx(direct, rel=1e-14)


def test_degeneracy_gap():
    def gap_of(diag):
        return degeneracy_gap(hermitian_eig(np.diag(diag).astype(complex)))

    assert gap_of([0.5, 0.5]) == 0.0
    assert gap_of([0.7, 0.3]) == pytest.approx(0.4)
    for d in (2, 3, 5):
        e = hermitian_eig(np.eye(d, dtype=complex) / d)
        assert degeneracy_gap(e) == pytest.approx(0.0, abs=1e-15)


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_bad_bipartition(self):
        with pytest.raises(DimMismatch):
            DensityOperator(np.eye(4) / 4, bipartition=(2, 3))

    def test_swap_subsystems(self):
        rng = np.random.default_rng(1)
        rho_a = random_density_matrix(2, rng)
        rho_b = random_density_matrix(3, rng)
        joint = DensityOperator(tensor(rho_a, rho_b), bipartition=(2, 3))
        sw = swap_subsystems(joint)
        assert sw.bipartition == (3, 2)
        np.testing.assert_allclose(sw.matrix, tensor(rho_b, rho_a), atol=1e-12)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(9)
    u = random_unitary(4, rng)
    np.testing.assert_allclose(dag(u) @ u, np.eye(4), atol=1e-12)
