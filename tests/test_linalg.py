import warnings

import numpy as np
import pytest

from qdverify.errors import DimMismatch, DomainError
from qdverify.linalg import (
    DensityOperator,
    EigenDecomposition,
    commutator,
    dag,
    degeneracy_gap,
    frobenius_norm,
    hermitian_eig,
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

    def test_stack_equals_per_matrix_calls(self):
        rng = np.random.default_rng(8)
        g = rng.normal(size=(4, 3, 5, 5)) + 1j * rng.normal(size=(4, 3, 5, 5))
        stack = g + dag(g)
        stack[1, 2] = np.diag([2.0, 2.0, 1.0, 1.0, 0.0])   # degenerate member
        e = hermitian_eig(stack)
        rebuilt = e.reconstruct()
        for idx in np.ndindex(4, 3):
            one = hermitian_eig(stack[idx])
            np.testing.assert_array_equal(e.eigenvalues[idx], one.eigenvalues)
            np.testing.assert_array_equal(e.eigenvectors[idx], one.eigenvectors)
            np.testing.assert_array_equal(rebuilt[idx], one.reconstruct())

    def test_stack_checks_every_member(self):
        stack = np.array([np.eye(2), np.eye(2)], dtype=complex)
        stack[1, 0, 1] = np.nan
        with pytest.raises(DomainError, match="^matrix has non-finite entries$"):
            hermitian_eig(stack)

    def test_rejects_non_finite(self):
        # a non-finite entry is named as such, and only finite entries that
        # overflow are named overflow
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match="^matrix has non-finite entries$"):
                hermitian_eig(np.array([[bad, 0], [0, 1]], dtype=complex))
        with pytest.raises(DomainError, match="^matrix entries overflow the eigensolver$"):
            hermitian_eig(np.array([[1e308, 1e308], [-1e308, 1e308]], dtype=complex))

    def test_decomposes_a_finite_matrix_eigh_does_not_converge_on(self):
        # LAPACK's eigh raises "Eigenvalues did not converge" on this 5x5,
        # whose entries span 5.6e-309 to 3.6e149; the retry on the matrix
        # scaled by 2^-498 decomposes it
        h = np.zeros((5, 5), dtype=complex)
        h[0, 2], h[0, 4] = 3.6e149 - 1.3e118j, -5.6e-309 - 1.4e16j
        h[1, 2], h[2, 2], h[2, 3] = 1.4e15 + 2e16j, -5.5e16, -1.4e16 - 1.9e16j
        h = np.triu(h) + np.triu(h, 1).conj().T
        e = hermitian_eig(h)
        v, w = e.eigenvectors, e.eigenvalues
        assert frobenius_norm(h @ v - v * w) <= 1e-15 * frobenius_norm(h)
        assert frobenius_norm(dag(v) @ v - np.eye(5)) <= 1e-14
        np.testing.assert_allclose(w[[0, -1]], [3.6e149, -3.6e149], rtol=1e-12)
        assert np.all(np.diff(w) <= 0.0)

    def test_retries_once_on_each_matrix_scaled_by_a_power_of_two(self, monkeypatch):
        # eigh failing once: the retry sees each matrix scaled to a largest
        # entry in [1/2, 1), and its eigenvalues come back exactly rescaled;
        # eigh failing twice is named as such
        stack = np.array([np.diag([3.0, -1.0]), np.zeros((2, 2)), [[0, 5e-300], [5e-300, 0]]],
                         dtype=complex)
        real, seen = np.linalg.eigh, []

        def failing_first(a):
            seen.append(a)
            if len(seen) == 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(a)

        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_first)
        w = hermitian_eig(stack).eigenvalues
        assert len(seen) == 2
        np.testing.assert_array_equal(seen[1] * np.array([4.0, 1.0, 2.0 ** -994])[:, None, None],
                                      stack)
        np.testing.assert_array_equal(w, [[3.0, -1.0], [0.0, 0.0], [5e-300, -5e-300]])
        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(DomainError, match="^the eigensolver did not converge$"):
            hermitian_eig(stack)

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
        with pytest.raises(DomainError, match="^density operator not Hermitian: 0.5$"):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_entries_that_overflow_the_eigensolver(self):
        # Hermitian with unit trace, but (m + m^dagger) / 2 overflows and a
        # NaN spectrum would pass the PSD check
        with pytest.raises(DomainError, match="^matrix entries overflow the eigensolver$"):
            DensityOperator(np.diag([1e308, -1e308, 1.0, 0.0]), bipartition=(2, 2))

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


def test_an_overflowing_hermitian_defect_is_refused_without_a_warning():
    # m - m^dagger overflows to inf, which fails the tolerance quietly
    m = np.array([[0.5, 1.7e308], [-1.7e308, 0.5]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^density operator not Hermitian: inf$"):
            DensityOperator(m)
