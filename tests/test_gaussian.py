import warnings

import numpy as np
import pytest

from qdverify import gaussian as gs
from qdverify.errors import DomainError
from qdverify.linalg import hermitian_eig


def integration_peak_oracle(a, b, c, d, x1p, p1p, half_width=9.0, n=1201):
    """Mean of the conditional distribution by direct 2-D quadrature.

    Integrates the joint Gaussian times the coherent-outcome window over
    the measured mode, then takes the first moment of the leftover mode.
    The x and p sectors factorize in standard form, each needing one 2-D
    integral.
    """
    t = np.linspace(-half_width, half_width, n)
    t1, t2 = np.meshgrid(t, t, indexing="ij")

    def sector_mean(z, outcome):
        det = a * b - z * z
        joint = np.exp(-(b * t1 ** 2 + a * t2 ** 2 - 2 * z * t1 * t2) / (2 * det))
        window = np.exp(-2 * (t1 - outcome) ** 2)
        w = joint * window
        return float(np.sum(t2 * w) / np.sum(w))

    return complex(sector_mean(c, x1p), sector_mean(d, p1p))


def random_standard_form(rng) -> gs.StandardForm:
    state = gs.random_physical_state(rng)
    return gs.standard_form(state)


def peak(sf, outcome):
    """B's conditional peak G alpha for the heterodyne outcome alpha."""
    gain, _ = gs.heterodyne_condition(sf)
    mean = gain @ np.array([outcome.real, outcome.imag])
    return complex(mean[0], mean[1])


class TestValidatePhysical:
    # GaussianState holds physical states only: construction is the check
    def test_vacuum(self):
        m = gs.vacuum().cov + 0.25j * gs.OMEGA
        assert hermitian_eig(m).eigenvalues[-1] >= -gs.PHYSICALITY_TOL

    def test_subvacuum_rejected(self):
        with pytest.raises(DomainError, match="^covariance violates the uncertainty constraint$"):
            gs.GaussianState(np.zeros(4), np.eye(4) / 8)

    def test_mean_must_be_four_quadratures(self):
        with pytest.raises(DomainError, match=r"^mean must be 4 quadratures, got shape \(2, 2\)$"):
            gs.GaussianState(np.zeros((2, 2)), np.eye(4) / 4)

    def test_an_overflowing_asymmetry_is_refused_without_a_warning(self):
        cov = np.eye(4)
        cov[0, 3], cov[3, 0] = 1.797e308, -1.797e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not symmetric"):
                gs.GaussianState(np.zeros(4), cov)

    def test_tmsv(self):
        g = gs.two_mode_squeezed_vacuum(0.5)
        assert g.cov[0, 0] == pytest.approx(np.cosh(1.0) / 4)
        assert g.cov[0, 2] == pytest.approx(np.sinh(1.0) / 4)
        assert g.cov[1, 3] == pytest.approx(-np.sinh(1.0) / 4)
        m = g.cov.astype(complex) + 0.25j * gs.OMEGA
        assert hermitian_eig(m).eigenvalues[-1] >= -1e-10


class TestStandardForm:
    def test_thermal_product_no_cross_block(self):
        sf = gs.standard_form(gs.thermal_product(0.3, 1.2))
        assert sf.c == pytest.approx(0.0, abs=1e-14)
        assert sf.d == pytest.approx(0.0, abs=1e-14)
        assert sf.a == pytest.approx(0.25 * 1.6)
        assert sf.b == pytest.approx(0.25 * 3.4)

    def test_tmsv_fixed_point(self):
        r = 0.4
        sf = gs.standard_form(gs.two_mode_squeezed_vacuum(r))
        assert sf.a == pytest.approx(np.cosh(2 * r) / 4, abs=1e-12)
        assert sf.b == pytest.approx(np.cosh(2 * r) / 4, abs=1e-12)
        assert sf.c == pytest.approx(np.sinh(2 * r) / 4, abs=1e-12)
        assert sf.d == pytest.approx(-np.sinh(2 * r) / 4, abs=1e-12)
        # already in standard form: every stage is skipped, not just near-identity
        np.testing.assert_array_equal(sf.local, np.eye(4))

    def test_local_ops_invariance(self):
        # local rotations and squeezers on TMSV leave (a, b, |c|, |d|) alone
        base = gs.standard_form(gs.two_mode_squeezed_vacuum(0.3))
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = np.zeros((4, 4))
            s[:2, :2] = gs._rot(rng.uniform(0, 2 * np.pi)) @ gs._squeeze(rng.uniform(-0.5, 0.5))
            s[2:, 2:] = gs._rot(rng.uniform(0, 2 * np.pi)) @ gs._squeeze(rng.uniform(-0.5, 0.5))
            cov = s @ gs.two_mode_squeezed_vacuum(0.3).cov @ s.T
            sf = gs.standard_form(gs.GaussianState(np.zeros(4), (cov + cov.T) / 2))
            assert sf.a == pytest.approx(base.a, abs=1e-9)
            assert sf.b == pytest.approx(base.b, abs=1e-9)
            assert abs(sf.c) == pytest.approx(abs(base.c), abs=1e-9)
            assert abs(sf.d) == pytest.approx(abs(base.d), abs=1e-9)

    def test_blocks_reach_standard_shape(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = gs.random_physical_state(rng)
            sf = gs.standard_form(state)
            cov = sf.as_cov()
            assert sf.c >= 0.0
            # reconstruct the reduction: apply the recorded local symplectic
            s = sf.local
            reduced = s @ state.cov @ s.T
            np.testing.assert_allclose(reduced, cov, atol=1e-10)

    def test_reconstruct_input(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            state = gs.random_physical_state(rng)
            sf = gs.standard_form(state)
            inv = np.linalg.inv(sf.local)
            np.testing.assert_allclose(inv @ sf.as_cov() @ inv.T, state.cov, atol=1e-9)

    def test_symplectic_invariants_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = gs.random_physical_state(rng)
            sf = gs.standard_form(state)
            cov = sf.as_cov()
            for sl_a, sl_b in (((0, 2), (0, 2)), ((2, 4), (2, 4)), ((0, 2), (2, 4))):
                blk_in = state.cov[sl_a[0]:sl_a[1], sl_b[0]:sl_b[1]]
                blk_out = cov[sl_a[0]:sl_a[1], sl_b[0]:sl_b[1]]
                det_in, det_out = np.linalg.det(blk_in), np.linalg.det(blk_out)
                assert det_out == pytest.approx(det_in, rel=1e-9, abs=1e-12)
            assert np.linalg.det(cov) == pytest.approx(np.linalg.det(state.cov),
                                                       rel=1e-9, abs=1e-15)

    def test_idempotent_on_standard_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            sf = random_standard_form(rng)
            again = gs.standard_form(gs.GaussianState(np.zeros(4), sf.as_cov()))
            assert again.a == pytest.approx(sf.a, abs=1e-12)
            assert again.b == pytest.approx(sf.b, abs=1e-12)
            assert again.c == pytest.approx(sf.c, abs=1e-12)
            assert again.d == pytest.approx(sf.d, abs=1e-12)

    def test_uncertainty_bounds_on_standard_form(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            sf = random_standard_form(rng)
            assert sf.a >= 0.25 - 1e-10
            assert sf.b >= 0.25 - 1e-10
            assert sf.a * sf.b >= sf.c ** 2 - 1e-10
            assert sf.a * sf.b >= sf.d ** 2 - 1e-10

    def test_unphysical_rejected(self):
        with pytest.raises(DomainError, match="^covariance violates the uncertainty constraint$"):
            gs.standard_form(gs.GaussianState(np.zeros(4), np.eye(4) / 8))


class TestHeterodyneCondition:
    def test_no_cross_block_means_outcome_independent(self):
        sf = gs.standard_form(gs.thermal_product(0.5, 0.5))
        gain, cov = gs.heterodyne_condition(sf)
        np.testing.assert_allclose(gain @ [0.0, 0.0], [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(gain @ [2.0, -1.0], [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(cov, np.diag([sf.b, sf.b]))

    def test_worked_case(self):
        sf = gs.StandardForm(0.5, 0.5, 0.25, 0.0, np.eye(4))
        gain, cov = gs.heterodyne_condition(sf)
        mean = gain @ [1.0, 1.0]
        # b - c^2/(a + 1/4) = 1/2.4 and c/(a + 1/4) = 1/3 for the x sector
        assert cov[0, 0] == pytest.approx(1 / 2.4, rel=1e-12)
        assert mean[0] == pytest.approx(1 / 3, rel=1e-12)
        assert mean[1] == pytest.approx(0.0, abs=1e-14)

    def test_covariance_outcome_independent_generic(self):
        # no outcome enters: the covariance is the Schur complement B - G C
        rng = np.random.default_rng(3)
        sf = random_standard_form(rng)
        _, cov = gs.heterodyne_condition(sf)
        full = sf.as_cov()
        np.testing.assert_allclose(
            cov, full[2:, 2:] - full[2:, :2] @ np.linalg.inv(full[:2, :2] + np.eye(2) / 4)
            @ full[:2, 2:], rtol=0, atol=1e-12)

    def test_conditional_is_physical(self):
        rng = np.random.default_rng(4)
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for _ in range(200):
            sf = random_standard_form(rng)
            _, cov = gs.heterodyne_condition(sf)
            m = cov.astype(complex) + 0.25j * j
            assert hermitian_eig(m).eigenvalues[-1] >= -1e-10


class TestPeak:
    def test_zero_cross_block(self):
        sf = gs.standard_form(gs.thermal_product(0.2, 0.8))
        assert peak(sf, 1.5 - 0.5j) == 0.0

    def test_worked_case_against_integration(self):
        sf = gs.StandardForm(0.5, 0.5, 0.25, 0.0, np.eye(4))
        got = peak(sf, 1.0 + 1.0j)
        assert got == pytest.approx(complex(1 / 3, 0.0), abs=1e-9)
        oracle = integration_peak_oracle(0.5, 0.5, 0.25, 0.0, 1.0, 1.0)
        assert abs(got - oracle) <= 1e-6

    def test_linearity_exact(self):
        rng = np.random.default_rng(5)
        sf = random_standard_form(rng)
        out = 0.4 + 1.1j
        assert peak(sf, 2 * out) == 2 * peak(sf, out)

    def test_zero_components_follow_c_and_d(self):
        sf_c_only = gs.StandardForm(0.5, 0.6, 0.2, 0.0, np.eye(4))
        assert peak(sf_c_only, 1.0 + 1.0j).imag == 0.0
        sf_d_only = gs.StandardForm(0.5, 0.6, 0.0, 0.2, np.eye(4))
        assert peak(sf_d_only, 1.0 + 1.0j).real == 0.0


class TestPeakCoincidence:
    def test_product_state(self):
        state = gs.thermal_product(0.4, 0.4)
        res = gs.peak_coincidence_test(state, 0.0 + 0.0j, 1.0 + 1.0j, tol=1e-9)
        assert res.verdict == gs.CONSISTENT_WITH_ZERO
        assert res.witnesses["separation"] == 0.0

    def test_tmsv_detected(self):
        state = gs.two_mode_squeezed_vacuum(0.5)
        res = gs.peak_coincidence_test(state, 0.0 + 0.0j, 1.0 + 1.0j, tol=1e-9)
        assert res.verdict == gs.NONZERO_DISCORD
        lam = np.tanh(0.5)
        assert res.witnesses["separation"] == pytest.approx(abs(lam * (1 - 1j)), rel=1e-12)

    def test_displaced_product_peaks_at_its_own_mean(self):
        # a product state's local symplectic is I and its gain 0, so B's
        # conditional peak is B's mean for every outcome
        state = gs.GaussianState(np.array([1.0, 2.0, 3.0, 4.0]),
                                 gs.thermal_product(0.3, 1.2).cov)
        np.testing.assert_array_equal(gs.standard_form(state).local, np.eye(4))
        res = gs.peak_coincidence_test(state, -1.0 + 0.5j, 1.3 - 0.25j, tol=1e-9)
        assert res.verdict == gs.CONSISTENT_WITH_ZERO
        assert res.witnesses["peak_1"] == res.witnesses["peak_2"] == 3.0 + 4.0j
        assert res.witnesses["separation"] == 0.0

    def test_degenerate_outcomes_rejected(self):
        degenerate = "^outcomes must differ in both quadratures to probe both c and d$"
        state = gs.GaussianState(np.zeros(4),
                                 gs.StandardForm(0.5, 0.5, 0.2, 0.0, np.eye(4)).as_cov())
        with pytest.raises(DomainError, match=degenerate):
            gs.peak_coincidence_test(state, 0.0 + 0.0j, 0.0 + 1.0j, tol=1e-9)
        with pytest.raises(DomainError, match=degenerate):
            gs.peak_coincidence_test(state, 0.5 + 0.2j, 0.9 + 0.2j, tol=1e-9)

    def test_overflowing_peaks_rejected(self):
        # a physical gain c/(a + 1/4) of 8 puts the peak of a finite
        # outcome of 1e308 past the largest double
        sf = gs.StandardForm(0.5, 100.0, 6.0, 0.0, np.eye(4))
        state = gs.GaussianState(np.zeros(4), sf.as_cov())      # physical: it constructs
        with pytest.raises(DomainError, match="overflow"):
            gs.peak_coincidence_test(state, 1e308 + 0.0j, 0.0 + 1.0j, tol=1e-9)


def cov_block_decision(state, tol):
    """The report's own cross-block decision: max |C| <= tol."""
    res = gs.peak_coincidence_test(state, 0.0 + 0.0j, 1.0 + 1.0j, tol=tol)
    return res.witnesses["cov_block_decision"]["zero_discord"]


class TestZeroDiscordDecision:
    def test_thermal_product_true(self):
        assert cov_block_decision(gs.thermal_product(0.1, 2.0), tol=1e-9)

    def test_tmsv_false(self):
        for r in (1e-5, 0.2, 1.0):
            assert not cov_block_decision(gs.two_mode_squeezed_vacuum(r), tol=1e-9)

    def test_cross_route_agreement(self):
        rng = np.random.default_rng(11)
        for i in range(200):
            state = gs.random_physical_state(rng, product=(i % 2 == 0))
            direct = cov_block_decision(state, tol=1e-8)
            sf = gs.standard_form(state)
            via_form = max(abs(sf.c), abs(sf.d)) <= 1e-8
            assert direct == via_form

    def test_unphysical_rejected(self):
        with pytest.raises(DomainError, match="^covariance violates the uncertainty constraint$"):
            gs.GaussianState(np.zeros(4), np.eye(4) / 100)


def test_integration_oracle_random_forms():
    rng = np.random.default_rng(21)
    for _ in range(5):
        sf = random_standard_form(rng)
        out = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        got = peak(sf, out)
        oracle = integration_peak_oracle(sf.a, sf.b, sf.c, sf.d, out.real, out.imag)
        assert abs(got - oracle) <= 1e-6
