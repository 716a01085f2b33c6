import re
import warnings
from dataclasses import replace
from math import pi
from unittest import mock

import numpy as np
import pytest

import phasespace_oracles as oracles
from conftest import random_diagonal_fock
from qdverify import gaussian as gs
from qdverify import phasespace as ph
from qdverify.errors import DomainError, GeometryMismatch, TruncationTail


GEOM96 = ph.square_geometry(6.0, 96)


def fock_commutator_route(op_a, op_b, geom):
    """Reference: commute in Fock space, then transform the result."""
    return ph.wigner_from_fock(-1j * (op_a @ op_b - op_b @ op_a), geom)


class TestWignerFromFock:
    def test_vacuum_peak_and_normalization(self):
        w = ph.wigner_from_fock(ph.fock_state(0, 10), GEOM96)
        assert w.values[48, 48] == pytest.approx(2 / pi, abs=1e-6)
        assert ph.grid_integral(w.values, GEOM96) == pytest.approx(1.0, abs=1e-3)

    def test_coherent_displacement(self):
        w = ph.wigner_from_fock(ph.coherent_state(1.0, 12), GEOM96)
        _, loc = ph.grid_max_abs(w)
        xs, ps = GEOM96.xs(), GEOM96.ps()
        assert abs(xs[loc[0]] - 1.0) <= GEOM96.dx
        assert abs(ps[loc[1]] - 0.0) <= GEOM96.dp
        assert ph.grid_integral(w.values, GEOM96) == pytest.approx(1.0, abs=1e-3)

    def test_fock_one_negative_origin(self):
        w = ph.wigner_from_fock(ph.fock_state(1, 10), GEOM96)
        assert w.values[48, 48] == pytest.approx(-2 / pi, abs=1e-4)

    def test_truncation_tail_rejected(self):
        with pytest.raises(TruncationTail):
            ph.wigner_from_fock(ph.fock_state(10, 10), GEOM96)
        # coherent amplitude 1 needs more than cutoff 10
        with pytest.raises(TruncationTail):
            ph.wigner_from_fock(ph.coherent_state(1.0, 10), GEOM96)


class TestMoyalCommutator:
    def test_self_commutator_vanishes(self):
        w = ph.wigner_from_fock(ph.pure_state([1, 0.5, 0.25j], 10), GEOM96)
        m = ph.moyal_commutator(w, w)
        assert np.max(np.abs(m.values)) <= 1e-9

    def test_diagonal_states_commute(self):
        w0 = ph.wigner_from_fock(ph.fock_state(0, 10), GEOM96)
        w1 = ph.wigner_from_fock(ph.fock_state(1, 10), GEOM96)
        m = ph.moyal_commutator(w0, w1)
        assert np.max(np.abs(m.values)) <= 1e-6

    def test_vacuum_vs_plus_matches_fock_route(self):
        vac = ph.fock_state(0, 10)
        plus = ph.pure_state([1, 1], 10)
        wa = ph.wigner_from_fock(vac, GEOM96)
        wb = ph.wigner_from_fock(plus, GEOM96)
        got = ph.moyal_commutator(wa, wb)
        ref = fock_commutator_route(vac, plus, GEOM96)
        assert np.max(np.abs(got.values - ref.values)) <= 1e-3
        assert np.max(np.abs(ref.values)) > 0.1

    def test_antisymmetry(self):
        wa = ph.wigner_from_fock(ph.fock_state(0, 10), GEOM96)
        wb = ph.wigner_from_fock(ph.pure_state([1, 1], 10), GEOM96)
        ab = ph.moyal_commutator(wa, wb)
        ba = ph.moyal_commutator(wb, wa)
        assert np.max(np.abs(ab.values + ba.values)) <= 1e-10

    def test_tracelessness(self):
        wa = ph.wigner_from_fock(ph.fock_state(0, 10), GEOM96)
        wb = ph.wigner_from_fock(ph.pure_state([1, 0, 1j], 10), GEOM96)
        m = ph.moyal_commutator(wa, wb)
        assert abs(ph.grid_integral(m.values, GEOM96)) <= 1e-3

    def test_geometry_mismatch(self):
        wa = ph.wigner_from_fock(ph.fock_state(0, 8), ph.square_geometry(6.0, 32))
        wb = ph.wigner_from_fock(ph.fock_state(0, 8), ph.square_geometry(6.0, 48))
        with pytest.raises(GeometryMismatch):
            ph.moyal_commutator(wa, wb)

    def test_resolution_convergence(self):
        # halving the spacing cuts the cross-check error by at least 2x
        vac = ph.fock_state(0, 12)
        coh = ph.coherent_state(0.8 + 0.4j, 12)
        errs = []
        for n in (20, 40):
            geom = ph.square_geometry(6.0, n)
            got = ph.moyal_commutator(ph.wigner_from_fock(vac, geom),
                                      ph.wigner_from_fock(coh, geom))
            ref = fock_commutator_route(vac, coh, geom)
            errs.append(np.max(np.abs(got.values - ref.values)))
        assert errs[1] <= errs[0] / 2


class TestFockCommutator:
    @pytest.mark.parametrize("cutoff", [8, 12])
    def test_matches_star_product_at_128_points(self, cutoff):
        geom = ph.square_geometry(6.0, 128)
        for seed in range(3):
            a = ph.random_fock_density(cutoff, cutoff - 2, 2 * seed)
            b = ph.random_fock_density(cutoff, cutoff - 2, 2 * seed + 1)
            got = ph.fock_commutator(a, b, geom)
            star = ph.moyal_commutator(ph.wigner_from_fock(a, geom),
                                       ph.wigner_from_fock(b, geom))
            assert np.max(np.abs(got.values - star.values)) <= 1e-12
            assert np.max(np.abs(got.values)) > 1e-3

    def test_matches_star_product_off_centre_and_rectangular(self):
        # odd and even axes of different lengths, neither centred on the origin
        geom = ph.GridGeometry(-6.3, 5.7, -5.9, 6.1, 101, 90)
        for seed in range(3):
            a = ph.random_fock_density(6, 4, 2 * seed)
            b = ph.random_fock_density(6, 4, 2 * seed + 1)
            got = ph.fock_commutator(a, b, geom)
            star = ph.moyal_commutator(ph.wigner_from_fock(a, geom),
                                       ph.wigner_from_fock(b, geom))
            assert np.max(np.abs(got.values - star.values)) <= 1e-12
            assert np.max(np.abs(got.values)) > 1e-3


class TestMoyalWitness:
    def test_mixed_pair_runs_on_the_grid_geometry(self):
        # the Fock partner is transformed on its partner grid's geometry,
        # whatever geometry a Fock pair would use
        grid = ph.wigner_from_fock(ph.fock_state(0, 8), ph.square_geometry(6.0, 48))
        plus = ph.pure_state([1, 1], 8)
        plus_grid = ph.wigner_from_fock(plus, grid.geometry)
        for pair, as_grids in (((grid, plus), (grid, plus_grid)),
                               ((plus, grid), (plus_grid, grid))):
            comm, w = ph.moyal_witness(*pair, points=64)
            assert comm.geometry == grid.geometry
            np.testing.assert_array_equal(comm.values,
                                          ph.moyal_commutator(*as_grids).values)
            assert ((w.thresholds["grid_max_abs"], w.witnesses.get("uncertainty_band"))
                    == (ph.MOYAL_NUMERICAL_FLOOR, None))

    def test_stderr_sets_the_band_and_raises_the_threshold(self):
        geom = ph.square_geometry(6.0, 48)
        a = ph.WignerGrid(geom, ph.wigner_from_fock(ph.fock_state(0, 8), geom).values,
                          value_stderr=1e-5)
        b = ph.wigner_from_fock(ph.pure_state([1, 1], 8), geom)
        _, w = ph.moyal_witness(a, b, extent=geom.x_max, points=geom.nx)
        band = w.witnesses["uncertainty_band"]
        assert band == ph.uncertainty_band(a, b)
        assert w.thresholds["grid_max_abs"] == max(band, ph.MOYAL_NUMERICAL_FLOOR)

    @pytest.mark.parametrize("stderr_a, stderr_b", [
        (1e-5, None), (None, 2e-5), (1e-5, 2e-5), (0.0, None), (None, None)])
    def test_uncertainty_band_reads_both_grids_errors(self, stderr_a, stderr_b):
        # an exact grid counts as error 0; the L1 norms are Riemann sums
        geom = ph.square_geometry(6.0, 48)
        a = replace(ph.wigner_from_fock(ph.fock_state(0, 8), geom), value_stderr=stderr_a)
        b = replace(ph.wigner_from_fock(ph.pure_state([1, 1], 8), geom), value_stderr=stderr_b)
        l1_a, l1_b = (float(np.sum(np.abs(w.values)) * geom.dx * geom.dp) for w in (a, b))
        s_a, s_b, area = stderr_a or 0.0, stderr_b or 0.0, 12.0 ** 2
        assert ph.uncertainty_band(a, b) == \
            (8.0 / pi) * area * (s_a * l1_b + s_b * l1_a + s_a * s_b * area)

    @pytest.mark.parametrize("scale, stderr, band", [(1.0, 1e308, "inf"),
                                                     (1e308, 1e-5, "nan")])
    def test_an_overflowing_band_is_refused_naming_both_inputs(self, scale, stderr, band):
        # 1e308 overflows the band; so do grid values whose L1 norm is inf,
        # and times the partner's error 0 that reads NaN. Either is refused
        # before the commutator is computed.
        geom = ph.square_geometry(6.0, 48)
        vac = ph.wigner_from_fock(ph.fock_state(0, 8), geom)
        a = ph.WignerGrid(geom, scale * vac.values, stderr)
        with warnings.catch_warnings(), mock.patch.object(ph, "moyal_commutator") as commute:
            warnings.simplefilter("error")
            with pytest.raises(DomainError,
                               match=f"^x.state and y.state: their uncertainty band is {band}$"):
                ph.moyal_witness(a, vac, ("x.state", "y.state"), geom.x_max, geom.nx)
        commute.assert_not_called()

    @pytest.mark.parametrize("route", ["fock_pair", "grid_partner"])
    def test_an_overflowing_fock_transform_is_refused_naming_both_inputs(self, route):
        # at extent 1e200 |beta|^2 overflows in the Fock series, on the Fock
        # route and for a grid input's Fock partner alike
        geom = ph.square_geometry(1e200, 16)
        a = {"fock_pair": ph.fock_state(0, 8),
             "grid_partner": ph.WignerGrid(geom, np.zeros((16, 16)))}[route]
        message = f"x.state and y.state: non-finite grid values on {geom}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                ph.moyal_witness(a, ph.pure_state([1, 1], 8), ("x.state", "y.state"),
                                 1e200, 16)


class TestZeroCoherenceOrders:
    def test_commuting_fock_pair_is_an_exact_zero_grid_on_any_extent(self):
        # the commutator is the zero matrix: no order is summed, so even an
        # extent where |beta|^2 overflows gives +0 everywhere
        a, b = random_diagonal_fock(12, 1), random_diagonal_fock(12, 2)
        for extent in (6.0, 1e200):
            values = ph.fock_commutator(a, b, ph.square_geometry(extent, 32)).values
            assert not np.any(values) and not np.any(np.signbit(values))

    @pytest.mark.parametrize("zero", [np.zeros((13, 13), dtype=complex),
                                      np.full((5, 5), complex(-0.0, -0.0))])
    def test_zero_operator_is_float_plus_zeros_without_the_series(self, zero):
        # a zero matrix, signed zeros included, never becomes a complex grid
        geom = ph.GridGeometry(-7.0, 2.0, -1.0, 5.0, 16, 40)
        with mock.patch.object(ph, "_fock_series") as series:
            values = ph._wigner_values(zero, geom)
        series.assert_not_called()
        assert values.dtype == np.float64 and values.shape == (16, 40)
        assert not np.any(values) and not np.any(np.signbit(values))


class TestCharCommutator:
    GEOM = ph.square_geometry(6.0, 64)

    def test_self_commutator_zero(self):
        chi = oracles.char_from_fock(ph.pure_state([1, 1j], 10), self.GEOM)
        out = oracles.char_commutator(chi, chi)
        assert np.max(np.abs(out.values)) <= 1e-9

    def test_matches_direct_char(self):
        vac = ph.fock_state(0, 10)
        plus = ph.pure_state([1, 1], 10)
        ca = oracles.char_from_fock(vac, self.GEOM)
        cb = oracles.char_from_fock(plus, self.GEOM)
        got = oracles.char_commutator(ca, cb)
        ref = oracles.char_from_fock(-1j * (vac @ plus - plus @ vac), self.GEOM)
        assert np.max(np.abs(got.values - ref.values)) <= 1e-6

    def test_origin_value_vanishes(self):
        # trace of a commutator is zero, and chi(0) is the trace
        ca = oracles.char_from_fock(ph.fock_state(0, 10), self.GEOM)
        cb = oracles.char_from_fock(ph.pure_state([1, 0.7], 10), self.GEOM)
        out = oracles.char_commutator(ca, cb)
        assert abs(out.values[32, 32]) <= 1e-6

    def test_gaussian_fixture_matches_moyal_route(self):
        # vacuum against displaced vacuum, checked through both formulas
        vac = ph.fock_state(0, 12)
        coh = ph.coherent_state(1.0, 12)
        ca = oracles.char_from_fock(vac, self.GEOM)
        cb = oracles.char_from_fock(coh, self.GEOM)
        via_char = oracles.char_to_wigner(oracles.char_commutator(ca, cb))
        via_moyal = ph.moyal_commutator(ph.wigner_from_fock(vac, self.GEOM),
                                        ph.wigner_from_fock(coh, self.GEOM))
        assert np.max(np.abs(via_char - via_moyal.values)) <= 2e-3
        assert np.max(np.abs(via_moyal.values)) > 0.05

    def test_geometry_mismatch(self):
        ca = oracles.char_from_fock(ph.fock_state(0, 8), ph.square_geometry(6.0, 32))
        cb = oracles.char_from_fock(ph.fock_state(0, 8), ph.square_geometry(5.0, 32))
        with pytest.raises(GeometryMismatch):
            oracles.char_commutator(ca, cb)


class TestTransforms:
    def test_wigner_to_char_round_trip(self):
        geom = ph.square_geometry(6.0, 64)
        op = ph.pure_state([1, 0.3, 0.5j], 10)
        chi_direct = oracles.char_from_fock(op, geom)
        chi_via = oracles.wigner_to_char(ph.wigner_from_fock(op, geom))
        assert np.max(np.abs(chi_direct.values - chi_via.values)) <= 1e-6

    def test_char_to_wigner_round_trip(self):
        geom = ph.square_geometry(6.0, 64)
        op = ph.coherent_state(0.5 - 0.5j, 12)
        w_direct = ph.wigner_from_fock(op, geom)
        w_via = oracles.char_to_wigner(oracles.char_from_fock(op, geom))
        assert np.max(np.abs(w_direct.values - w_via)) <= 1e-6


class TestQuadratureOracle:
    def test_matches_naive_four_loop(self):
        # factorized lattice sum equals the literal nested sum
        n = 8
        geom = ph.GridGeometry(-2.0, 2.0, -2.0, 2.0, n, n)
        wa = ph.wigner_from_fock(ph.fock_state(0, 8), geom)
        wb = ph.wigner_from_fock(ph.pure_state([1, 1], 8), geom)
        got = oracles.moyal_commutator_quadrature(wa, wb)
        xs, ps = geom.xs(), geom.ps()
        h2 = geom.dx * geom.dp
        naive = np.zeros((n, n))
        for ia in range(n):
            for ib in range(n):
                acc = 0.0
                for iu in range(n):
                    for ju in range(n):
                        for iv in range(n):
                            for jv in range(n):
                                tri = (ps[ib] * xs[iu] - xs[ia] * ps[ju]
                                       + ps[ju] * xs[iv] - xs[iu] * ps[jv]
                                       + ps[jv] * xs[ia] - xs[iv] * ps[ib])
                                acc += (wa.values[iu, ju] * wb.values[iv, jv]
                                        * np.sin(4 * tri))
                naive[ia, ib] = -(8 / pi) * acc * h2 * h2
        assert np.max(np.abs(got.values - naive)) <= 1e-12

    def test_agrees_with_spectral_route(self):
        geom16 = ph.GridGeometry(-2.4, 2.4, -2.4, 2.4, 16, 16)
        geom128 = ph.GridGeometry(-2.4, 2.4, -2.4, 2.4, 128, 128)
        vac = ph.fock_state(0, 8)
        plus = ph.pure_state([1, 1], 8)
        quad = oracles.moyal_commutator_quadrature(ph.wigner_from_fock(vac, geom16),
                                              ph.wigner_from_fock(plus, geom16))
        spectral = ph.moyal_commutator(ph.wigner_from_fock(vac, geom128),
                                   ph.wigner_from_fock(plus, geom128))
        assert np.max(np.abs(quad.values - spectral.values[::8, ::8])) <= 5e-3


class TestNonFiniteGrids:
    @pytest.mark.parametrize("bounds", [
        (-np.inf, np.inf, -1.0, 1.0), (-1.0, 1.0, np.nan, 1.0),
        (-1.7e308, 1.7e308, -1.0, 1.0),     # finite bounds, infinite step
    ])
    def test_geometry_refuses_non_finite_bounds_and_steps(self, bounds):
        with pytest.raises(DomainError, match="non-finite grid bounds or step"):
            ph.GridGeometry(*bounds, 4, 4)

    @pytest.mark.parametrize("bad", [-1e-6, np.nan, np.inf])
    def test_grid_refuses_a_negative_or_non_finite_value_stderr(self, bad):
        with pytest.raises(DomainError, match="value_stderr .* is not finite and >= 0"):
            ph.WignerGrid(ph.square_geometry(2.0, 4), np.zeros((4, 4)), value_stderr=bad)

    def test_commutator_grid_refuses_non_finite_values(self):
        geom = ph.square_geometry(2.0, 4)
        for bad in (np.nan, np.inf):
            values = np.zeros((4, 4))
            values[1, 2] = bad
            with pytest.raises(DomainError, match="non-finite grid values"):
                ph.WignerGrid(geom, values)

    def test_char_grid_refuses_non_finite_values(self):
        # |xi|^2 overflows in the series at extent 1e200; before, 255 of the
        # 256 values came back NaN with no error
        with pytest.raises(DomainError, match="non-finite characteristic-function"):
            oracles.char_from_fock(ph.fock_state(0, 8), ph.square_geometry(1e200, 16))
        values = np.zeros((4, 4), dtype=complex)
        values[2, 1] = complex(0.0, np.inf)
        with pytest.raises(DomainError, match="non-finite characteristic-function"):
            oracles.CharGrid(ph.square_geometry(2.0, 4), values)

    def test_moyal_commutator_of_an_overflowing_grid_raises(self):
        # finite inputs whose star product overflows to NaN
        values = np.zeros((16, 16))
        values[1:-1, 1:-1] = 1e300
        values[::2] *= -1
        w = ph.WignerGrid(ph.square_geometry(6.0, 16), values)
        with np.errstate(all="ignore"), pytest.raises(DomainError,
                                                      match="non-finite grid values"):
            ph.moyal_commutator(w, w)


class TestGridMaxAbs:
    def test_zero_grid(self):
        geom = ph.square_geometry(2.0, 8)
        value, loc = ph.grid_max_abs(ph.WignerGrid(geom, np.zeros((8, 8))))
        assert value == 0.0
        assert loc == (0, 0)

    def test_single_spike(self):
        geom = ph.square_geometry(6.0, 32)
        vals = np.zeros((32, 32))
        vals[10, 20] = 0.5
        value, loc = ph.grid_max_abs(ph.WignerGrid(geom, vals))
        assert value == 0.5
        assert loc == (10, 20)

    def test_bell_like_fixture_beats_uncertainty_band(self):
        # two nonorthogonal rank-one outcomes on half of an entangled pair
        # leave non-commuting conditionals; the witness dwarfs a plausible
        # noise band
        cutoff = 10
        geom = ph.square_geometry(6.0, 64)
        cond_a = ph.fock_state(0, cutoff)
        cond_b = ph.pure_state([1, 1], cutoff)
        stderr = 1e-5
        wa = ph.WignerGrid(geom, ph.wigner_from_fock(cond_a, geom).values, stderr)
        wb = ph.WignerGrid(geom, ph.wigner_from_fock(cond_b, geom).values, stderr)
        m = ph.moyal_commutator(wa, wb)
        value, _ = ph.grid_max_abs(m)
        band = ph.uncertainty_band(wa, wb)
        assert value > 10 * band


def test_gaussian_equivalence_tmsv_conditionals():
    # heterodyne conditioning of a TMSV in Fock space peaks where the
    # closed-form peak says it should, for five outcomes
    r = 0.3
    lam = np.tanh(r)
    cutoff = 12
    geom = ph.square_geometry(6.0, 128)
    gain, _ = gs.heterodyne_condition(gs.standard_form(gs.two_mode_squeezed_vacuum(r)))
    outcomes = [1 + 1j, -1 + 0.5j, 0.5 - 1j, 1.5 + 0.2j, -0.7 - 0.9j]
    for beta in outcomes:
        n = np.arange(cutoff + 1)
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, cutoff + 1)))))
        coeffs = np.exp(n * np.log(lam * np.conj(beta)) - 0.5 * log_fact) \
            if lam * np.conj(beta) != 0 else None
        cond = ph.pure_state(coeffs, cutoff)
        w = ph.wigner_from_fock(cond, geom)
        _, loc = ph.grid_max_abs(w)
        gamma = complex(*(gain @ [beta.real, beta.imag]))
        xs, ps = geom.xs(), geom.ps()
        assert abs(xs[loc[0]] - gamma.real) <= geom.dx
        assert abs(ps[loc[1]] - gamma.imag) <= geom.dp


def test_commutator_grid_state_normalization_examples():
    # state grids integrate to one, commutator grids to zero
    geom = ph.square_geometry(6.0, 96)
    w = ph.wigner_from_fock(ph.pure_state([0.6, 0.8j], 10), geom)
    assert ph.grid_integral(w.values, geom) == pytest.approx(1.0, abs=1e-3)
