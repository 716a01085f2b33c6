"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import phasespace_oracles as oracles
from conftest import random_bipartite_state, random_product_state
from qdverify import dv, gaussian as gs, phasespace as ph, statefile, tomo
from qdverify.cli import main as cli_main
from qdverify.linalg import commutator, frobenius_norm
from qdverify.povm import (
    DEFAULT_POVM_SEED,
    dual_frame,
    random_ic_povm,
    sic_qubit,
)
from test_gaussian import integration_peak_oracle


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number:02d} FAIL: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE {number:02d} PASS ({elapsed:.1f}s): {description}")


def test_01_soundness_zero_discord():
    with criterion(1, "200 zero-discord states all CONSISTENT_WITH_ZERO at 1e-9"):
        start = time.monotonic()
        povms = {2: sic_qubit(), 3: random_ic_povm(3, DEFAULT_POVM_SEED)}
        count = 0
        for dim_a, dim_b in ((2, 2), (2, 3), (3, 2), (3, 3)):
            for seed in range(50):
                rho = dv.generate_zero_discord(dim_a, dim_b, 1000 * dim_a + 10 * dim_b + seed)
                ens = dv.condition_on_povm(rho, povms[dim_a])
                verdict = dv.verify_commutativity(ens, threshold=1e-9)
                assert verdict.verdict == dv.CONSISTENT_WITH_ZERO, (dim_a, dim_b, seed)
                count += 1
        assert count == 200
        assert time.monotonic() - start < 10.0


def test_02_detection_maximally_entangled():
    with criterion(2, "maximally entangled d in {2,3,4} detected; d=2 norm 2/3 +- 1e-9"):
        sic = sic_qubit()
        bell = dv.generate_maximally_entangled(2)
        verdict = dv.verify_commutativity(dv.condition_on_povm(bell, sic))
        assert verdict.verdict == dv.NONZERO_DISCORD

        # independent dense-matrix oracle for the witness value: condition by
        # direct index contraction, then take the commutator norm
        t = bell.matrix.reshape(2, 2, 2, 2)
        conds = []
        for effect in sic.effects[:2]:
            block = np.zeros((2, 2), dtype=complex)
            for a in range(2):
                for c in range(2):
                    for b_i in range(2):
                        for d_i in range(2):
                            block[b_i, d_i] += effect[a, c] * t[c, b_i, a, d_i]
            conds.append(block / np.trace(block).real)
        oracle_norm = frobenius_norm(commutator(conds[0], conds[1]))
        assert oracle_norm == pytest.approx(2 / 3, abs=1e-12)
        assert verdict.witnesses["max_commutator_norm"] == pytest.approx(2 / 3, abs=1e-9)

        for d in (3, 4):
            state = dv.generate_maximally_entangled(d)
            povm = random_ic_povm(d, DEFAULT_POVM_SEED)
            v = dv.verify_commutativity(dv.condition_on_povm(state, povm))
            assert v.verdict == dv.NONZERO_DISCORD, d
            norm = v.witnesses["max_commutator_norm"]
            assert norm >= 0.1, (d, norm)


def test_03_dual_frame_reconstruction():
    with criterion(3, "dual-frame round trip <= 1e-9 on 100 states, SIC and random"):
        routes = [
            (2, 2, sic_qubit()),
            (2, 2, random_ic_povm(2, seed=3)),
            (3, 2, random_ic_povm(3, seed=1)),
        ]
        for dim_a, dim_b, povm in routes:
            duals = dual_frame(povm)
            for seed in range(100):
                rho = random_bipartite_state(seed, dim_a, dim_b)
                ens = dv.condition_on_povm(rho, povm)
                rec = dv.reconstruct_joint(ens, duals)
                residual = frobenius_norm(rec.matrix - rho.matrix)
                assert residual <= 1e-9, (dim_a, dim_b, seed, residual)


def test_04_discord_estimator_cross_check():
    with criterion(4, "estimator <= 1e-6 on zero-discord 2x2, 1.0 +- 2e-3 on Bell"):
        for seed in (3, 41, 97):
            rho = dv.generate_zero_discord(2, 2, seed)
            est = dv.discord_estimate_2q(rho)
            assert est <= 1e-6, (seed, est)
        bell = dv.generate_maximally_entangled(2)
        est = dv.discord_estimate_2q(bell)
        assert est == pytest.approx(1.0, abs=2e-3)


def test_05_moyal_vs_fock_commutator():
    with criterion(5, "Moyal route <= 1e-3 of Fock route on 10 pairs; quadrature "
                      "oracle <= 5e-3 on 3 fixtures; < 60 s"):
        start = time.monotonic()
        cutoff = 8
        geom = ph.square_geometry(6.0, 128)
        for seed in range(10):
            a = ph.random_fock_density(cutoff, cutoff - 2, 2 * seed)
            b = ph.random_fock_density(cutoff, cutoff - 2, 2 * seed + 1)
            wa = ph.wigner_from_fock(a, geom)
            wb = ph.wigner_from_fock(b, geom)
            got = ph.moyal_commutator(wa, wb)
            comm = -1j * (a.matrix @ b.matrix - b.matrix @ a.matrix)
            ref = ph.wigner_from_fock(ph.FockOperator(cutoff, comm), geom)
            err = np.max(np.abs(got.values - ref.values))
            assert err <= 1e-3, (seed, err)

        # literal 4-D quadrature on a 16x16 lattice against the spectral
        # route evaluated on the matching sublattice
        geom16 = ph.GridGeometry(-2.4, 2.4, -2.4, 2.4, 16, 16)
        geom128 = ph.GridGeometry(-2.4, 2.4, -2.4, 2.4, 128, 128)
        fixtures = [
            (ph.fock_state(0, cutoff), ph.pure_state([1, 1], cutoff)),
            (ph.fock_state(0, cutoff), ph.fock_state(1, cutoff)),
            (ph.pure_state([1, 0, 1], cutoff), ph.pure_state([1, 1j], cutoff)),
        ]
        for i, (a, b) in enumerate(fixtures):
            quad = oracles.moyal_commutator_quadrature(
                ph.wigner_from_fock(a, geom16), ph.wigner_from_fock(b, geom16))
            spectral = ph.moyal_commutator(
                ph.wigner_from_fock(a, geom128), ph.wigner_from_fock(b, geom128))
            err = np.max(np.abs(quad.values - spectral.values[::8, ::8]))
            assert err <= 5e-3, (i, err)
        assert time.monotonic() - start < 60.0


def test_06_char_route_matches_moyal():
    with criterion(6, "characteristic-function route within 2e-3 of Moyal route"):
        geom = ph.square_geometry(6.0, 64)
        fixtures = [
            (ph.fock_state(0, 12), ph.coherent_state(1.0, 12)),
            (ph.coherent_state(0.5j, 12), ph.fock_state(0, 12)),
            (ph.coherent_state(0.7, 12), ph.coherent_state(-0.4 + 0.6j, 12)),
        ]
        for i, (a, b) in enumerate(fixtures):
            via_char = ph.char_to_wigner(oracles.char_commutator(
                ph.char_from_fock(a, geom), ph.char_from_fock(b, geom)))
            via_moyal = ph.moyal_commutator(
                ph.wigner_from_fock(a, geom), ph.wigner_from_fock(b, geom))
            err = np.max(np.abs(via_char - via_moyal.values))
            assert err <= 2e-3, (i, err)


def test_07_gaussian_peak_formula():
    with criterion(7, "peak formula matches 2-D integration <= 1e-6 on 20 forms "
                      "and the worked case gives 1/3"):
        worked = gs.StandardForm(0.5, 0.5, 0.25, 0.0, np.eye(4))
        got = gs.peak(worked, 1.0 + 1.0j)
        assert got == pytest.approx(complex(1 / 3, 0.0), abs=1e-12)
        oracle = integration_peak_oracle(0.5, 0.5, 0.25, 0.0, 1.0, 1.0)
        assert abs(got - oracle) <= 1e-6

        rng = np.random.default_rng(2024)
        for trial in range(20):
            sf = gs.standard_form(gs.random_physical_state(rng))
            out = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            got = gs.peak(sf, out)
            oracle = integration_peak_oracle(sf.a, sf.b, sf.c, sf.d,
                                             out.real, out.imag)
            assert abs(got - oracle) <= 1e-6, (trial, got, oracle)


def test_08_gaussian_decision_consistency():
    with criterion(8, "C-block decision agrees with peak separation on 200 states"):
        rng = np.random.default_rng(515)
        outcome_pairs = [(0.0 + 0.0j, 1.0 + 1.0j),
                         (0.5 - 0.3j, -0.2 + 0.8j),
                         (-1.0 - 1.0j, 1.3 + 0.4j)]
        disagreements = 0
        for i in range(200):
            state = gs.random_physical_state(rng, product=(i % 2 == 0))
            decision = gs.zero_discord_decision(state, tol=1e-8)
            seps = [gs.peak_coincidence_test(state, o1, o2, tol=1e-8).witnesses["separation"]
                    for o1, o2 in outcome_pairs]
            peaks_say_zero = all(s <= 1e-8 for s in seps)
            disagreements += (decision != peaks_say_zero)
        assert disagreements == 0


def test_09_standard_form_invariants():
    with criterion(9, "determinants preserved to 1e-9 relative on 200 states; "
                      "idempotent on standard inputs"):
        rng = np.random.default_rng(99)
        for i in range(200):
            state = gs.random_physical_state(rng, product=(i % 4 == 0))
            sf = gs.standard_form(state)
            cov = sf.as_cov()
            blocks = (((0, 2), (0, 2)), ((2, 4), (2, 4)), ((0, 2), (2, 4)))
            for (r0, r1), (c0, c1) in blocks:
                det_in = np.linalg.det(state.cov[r0:r1, c0:c1])
                det_out = np.linalg.det(cov[r0:r1, c0:c1])
                assert det_out == pytest.approx(det_in, rel=1e-9, abs=1e-12)
            assert np.linalg.det(cov) == pytest.approx(np.linalg.det(state.cov),
                                                       rel=1e-9, abs=1e-15)
            again = gs.standard_form(gs.GaussianState(np.zeros(4), cov))
            for name in "abcd":
                assert getattr(again, name) == pytest.approx(getattr(sf, name),
                                                             abs=1e-10)


def test_10_tomography_calibration():
    with criterion(10, "1e5 shots at z=5: FP <= 5% on zero-discord, 100% Bell "
                       "detection over 100 seeds; < 2 min"):
        start = time.monotonic()
        sic = sic_qubit()
        duals = dual_frame(sic)
        bell = dv.generate_maximally_entangled(2)
        false_positives = 0
        detections = 0
        for seed in range(100):
            null_state = dv.generate_zero_discord(2, 2, 5000 + seed)
            rec = tomo.sample_joint(null_state, sic, sic, 10 ** 5, seed=seed)
            est = tomo.estimate_conditionals(rec, duals)
            v = tomo.significant_commutativity(est, z_threshold=5.0)
            false_positives += (v.verdict == dv.NONZERO_DISCORD)

            rec = tomo.sample_joint(bell, sic, sic, 10 ** 5, seed=seed)
            est = tomo.estimate_conditionals(rec, duals)
            v = tomo.significant_commutativity(est, z_threshold=5.0)
            detections += (v.verdict == dv.NONZERO_DISCORD)
        assert false_positives <= 5, false_positives
        assert detections == 100, detections
        assert time.monotonic() - start < 120.0


def test_11_cli_golden(tmp_path, monkeypatch, capsys):
    with criterion(11, "all four commands byte-identical across runs; tomo "
                       "replay bit-identical"):
        monkeypatch.chdir(tmp_path)
        bell = dv.generate_maximally_entangled(2)
        statefile.write("bell2.state", statefile.dv_density_doc(bell))
        statefile.write("product.state",
                        statefile.dv_density_doc(random_product_state(1)))
        statefile.write("tmsv.state",
                        statefile.gaussian_doc(gs.two_mode_squeezed_vacuum(0.5)))
        from qdverify.linalg import DensityOperator
        statefile.write("fock0.state", statefile.dv_density_doc(
            DensityOperator(ph.fock_state(0, 8).matrix), fock_cutoff=8))
        statefile.write("plus01.state", statefile.dv_density_doc(
            DensityOperator(ph.pure_state([1, 1], 8).matrix), fock_cutoff=8))

        invocations = [
            ["verify-dv", "bell2.state"],
            ["verify-dv", "product.state"],
            ["verify-gaussian", "tmsv.state", "--outcomes", "0,0;1,1"],
            ["moyal", "fock0.state", "plus01.state", "--points", "48"],
            ["tomo", "bell2.state", "--shots", "50000", "--seed", "9"],
        ]
        for argv in invocations:
            assert cli_main(list(argv)) == 0
            first = capsys.readouterr().out
            assert cli_main(list(argv)) == 0
            second = capsys.readouterr().out
            assert first == second, argv

        assert cli_main(["tomo", "bell2.state", "--shots", "50000", "--seed", "9"]) == 0
        original = json.loads(capsys.readouterr().out)
        assert cli_main(["tomo", original["emitted_record"]]) == 0
        replay = json.loads(capsys.readouterr().out)
        assert replay["witnesses"] == original["witnesses"]
        assert replay["verdict"] == original["verdict"]
