import tracemalloc

import numpy as np
import pytest

from conftest import random_bipartite_state, random_product_state
from qdverify import dv, tomo
from qdverify.errors import DimMismatch, InsufficientOutcomes
from qdverify.linalg import frobenius_norm, hermitian_eig
from qdverify.povm import (DEFAULT_POVM_SEED, default_ic_povm, dual_frame, random_ic_povm,
                           reconstruct)


class TestSampleJoint:
    def test_zero_shots_empty_record(self, bell, sic):
        rec = tomo.sample_joint(bell, sic, sic, 0, seed=1)
        assert rec.counts.sum() == 0
        assert rec.total == 0

    def test_deterministic(self, bell, sic):
        a = tomo.sample_joint(bell, sic, sic, 5000, seed=42)
        b = tomo.sample_joint(bell, sic, sic, 5000, seed=42)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_frequencies_match_probabilities(self, sic):
        rho = random_product_state(5)
        shots = 10 ** 6
        rec = tomo.sample_joint(rho, sic, sic, shots, seed=9)
        probs = tomo.joint_probabilities(rho, sic, sic)
        freqs = rec.counts / shots
        stderr = np.sqrt(np.maximum(probs * (1 - probs), 1e-12) / shots)
        within = np.abs(freqs - probs) <= 5 * stderr
        assert within.sum() >= 15  # at least 15 of 16 cells

    def test_joint_probabilities_hold_one_a_effect_at_a_time(self):
        # all pairs at once held 2 K_a K_b (d_a d_b)^2 complex entries, 54 MB
        # at 6x6; one A effect at a time holds K_b (d_a d_b)^2, 0.75 MB
        rho = random_bipartite_state(3, 6, 6)
        pa, pb = random_ic_povm(6, seed=1), random_ic_povm(6, seed=2)
        tracemalloc.start()
        try:
            probs = tomo.joint_probabilities(rho, pa, pb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20
        np.testing.assert_array_equal(
            probs, [[np.trace(np.kron(ma, mb) @ rho.matrix).real for mb in pb.effects]
                    for ma in pa.effects])

    def test_dim_mismatch(self, bell, sic):
        p3 = random_ic_povm(3, seed=0)
        with pytest.raises(DimMismatch):
            tomo.sample_joint(bell, p3, sic, 100, seed=0)


class TestEstimateConditionals:
    def test_exact_frequencies_give_exact_states(self, bell, sic, sic_duals):
        probs = np.clip(tomo.joint_probabilities(bell, sic, sic), 0.0, None)
        rec = tomo.ShotRecord(sic, sic, probs, 1, 0)
        est = tomo.estimate_conditionals(rec, sic_duals)
        exact = dv.condition_on_povm(bell, sic)
        for k in range(4):
            err = frobenius_norm(est.ensemble.states[k]
                                 - exact.states[k])
            assert err <= 1e-10

    def test_exact_ensemble_rebuilds_the_joint_state(self, sic, sic_duals):
        # the ensemble records A's POVM, as dv's does, so the dual frame of
        # A's POVM rebuilds an asymmetric 2x3 state
        rho = random_bipartite_state(4, 2, 3)
        povm_b = random_ic_povm(3, seed=1)
        probs = tomo.joint_probabilities(rho, sic, povm_b)
        est = tomo.estimate_conditionals(tomo.ShotRecord(sic, povm_b, probs, 1, 0),
                                         dual_frame(povm_b))
        joint = dv.reconstruct_joint(est.ensemble, sic_duals)
        assert np.max(np.abs(joint.matrix - rho.matrix)) <= 1e-10

    def test_bell_error_calibration(self, bell, sic, sic_duals):
        exact = dv.condition_on_povm(bell, sic)
        ok = 0
        for seed in range(50):
            rec = tomo.sample_joint(bell, sic, sic, 10 ** 5, seed=seed)
            est = tomo.estimate_conditionals(rec, sic_duals)
            errs = [frobenius_norm(est.ensemble.states[k]
                                   - exact.states[k]) for k in range(4)]
            ok += all(e <= 0.05 for e in errs)
        assert ok >= 0.95 * 50

    def test_projection_contracts_toward_truth(self, bell, sic, sic_duals):
        exact = dv.condition_on_povm(bell, sic)
        for seed in range(50):
            rec = tomo.sample_joint(bell, sic, sic, 10 ** 5, seed=100 + seed)
            marg = rec.counts.sum(axis=1)
            for k in range(4):
                raw = reconstruct(sic, sic_duals, rec.counts[k] / marg[k])
                proj = tomo.project_to_state(raw)
                truth = exact.states[k]
                assert (frobenius_norm(proj - truth)
                        <= frobenius_norm(raw - truth) + 1e-12)

    def test_empty_outcome_marked_absent(self, sic, sic_duals):
        counts = np.zeros((4, 4), dtype=int)
        counts[1] = [10, 20, 30, 40]
        counts[2] = [25, 25, 25, 25]
        rec = tomo.ShotRecord(sic, sic, counts, 200, 0)
        est = tomo.estimate_conditionals(rec, sic_duals)
        np.testing.assert_array_equal(est.ensemble.present, [False, True, True, False])
        np.testing.assert_array_equal(est.ensemble.states[0], np.zeros((2, 2)))

    def test_estimator_error_scales_with_shots(self, bell, sic, sic_duals):
        exact = dv.condition_on_povm(bell, sic)
        medians = []
        for shots in (10 ** 4, 10 ** 6):
            errs = []
            for seed in range(15):
                rec = tomo.sample_joint(bell, sic, sic, shots, seed=seed)
                est = tomo.estimate_conditionals(rec, sic_duals)
                errs.append(max(frobenius_norm(est.ensemble.states[k]
                                               - exact.states[k])
                                for k in range(4)))
            medians.append(np.median(errs))
        # inverse-sqrt scaling over two decades: slope -1/2 within factor 2
        slope = np.log10(medians[1] / medians[0]) / 2.0
        assert -1.0 <= slope <= -0.25


class TestSignificance:
    def test_bell_detected(self, bell, sic, sic_duals):
        rec = tomo.sample_joint(bell, sic, sic, 10 ** 5, seed=11)
        est = tomo.estimate_conditionals(rec, sic_duals)
        v = tomo.significant_commutativity(est)
        assert v.verdict == dv.NONZERO_DISCORD
        assert v.witnesses["z_score"] > 5
        assert v.witnesses["max_norm"] == pytest.approx(2 / 3, abs=0.1)

    def test_product_consistent(self, sic, sic_duals):
        rho = random_product_state(77)
        rec = tomo.sample_joint(rho, sic, sic, 10 ** 5, seed=5)
        est = tomo.estimate_conditionals(rec, sic_duals)
        v = tomo.significant_commutativity(est)
        assert v.verdict == dv.CONSISTENT_WITH_ZERO

    @pytest.mark.parametrize("counts", [3 * np.eye(4, dtype=int),
                                        np.tile([10, 20, 30, 40], (4, 1))],
                             ids=["one_hot_rows", "identical_rows"])
    def test_pairs_without_a_stderr_read_z_zero(self, sic, sic_duals, counts):
        # one-hot rows have a zero plug-in covariance behind nonzero norms;
        # identical rows commute, so their norms have no gradient
        rec = tomo.ShotRecord(sic, sic, counts, int(counts.sum()), 0)
        v = tomo.significant_commutativity(tomo.estimate_conditionals(rec, sic_duals))
        assert v.verdict == dv.CONSISTENT_WITH_ZERO
        w = v.witnesses
        assert (w["z_score"], w["norm_stderr"], w["witness_pair"]) == (0.0, 0.0, (0, 1))

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 2)], ids=["2x2", "3x3", "4x2"])
    def test_zero_discord_never_flagged_at_a_few_shots(self, dims):
        # rows of one or two counts have a zero or rounding-size plug-in
        # covariance, which once read as z = +inf or about 1e15
        pa = default_ic_povm(dims[0])
        pb = default_ic_povm(dims[1], seed=DEFAULT_POVM_SEED + 1)
        duals_b = dual_frame(pb)
        for shots in (4, 16):
            for s in range(4):
                rho = dv.generate_zero_discord(*dims, 9100 + s)
                for seed in range(5):
                    rec = tomo.sample_joint(rho, pa, pb, shots, seed)
                    try:
                        v = tomo.significant_commutativity(
                            tomo.estimate_conditionals(rec, duals_b))
                    except InsufficientOutcomes:
                        continue
                    assert v.verdict == dv.CONSISTENT_WITH_ZERO, (shots, s, seed)

    def test_delta_stderr_matches_the_spread_of_sampled_norms(self, bell, sic,
                                                              sic_duals):
        # the sample standard deviation over 100 independent records is the
        # reference the first-order stderr of one record must agree with
        def norms_and_stderrs(seed):
            est = tomo.estimate_conditionals(
                tomo.sample_joint(bell, sic, sic, 10 ** 5, seed=seed), sic_duals)
            j, k = est.ensemble.pairs().T
            states = est.ensemble.states
            norm, gj, gk = tomo._norm_gradients(states[j], states[k], est.duals_b)
            var = (tomo._delta_variance(est.freqs[j], est.counts[j], gj)
                   + tomo._delta_variance(est.freqs[k], est.counts[k], gk))
            return norm, np.sqrt(var)

        _, delta = norms_and_stderrs(7)
        spread = np.std([norms_and_stderrs(1000 + r)[0] for r in range(100)],
                        axis=0, ddof=1)
        assert delta.shape == (6,)
        assert np.all(np.abs(delta - spread) / spread <= 0.3)

    def test_insufficient_outcomes(self, sic, sic_duals):
        counts = np.zeros((4, 4), dtype=int)
        counts[1] = [25, 25, 25, 25]
        rec = tomo.ShotRecord(sic, sic, counts, 100, 0)
        est = tomo.estimate_conditionals(rec, sic_duals)
        with pytest.raises(InsufficientOutcomes):
            tomo.significant_commutativity(est)

    def test_empty_record_rejected(self, sic, sic_duals):
        rec = tomo.ShotRecord(sic, sic, np.zeros((4, 4), dtype=int), 0, 0)
        with pytest.raises(InsufficientOutcomes):
            tomo.estimate_conditionals(rec, sic_duals)


def test_project_to_state_output_valid():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = (g + g.conj().T) / 2
        out = tomo.project_to_state(h)
        w = hermitian_eig(out).eigenvalues
        assert w[-1] >= -1e-12
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
