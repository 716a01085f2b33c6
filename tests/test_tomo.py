import tracemalloc

import numpy as np
import pytest

from conftest import random_bipartite_state, random_product_state
from qdverify import dv, tomo
from qdverify.errors import DimMismatch, DomainError, InsufficientOutcomes
from qdverify.linalg import frobenius_norm, hermitian_eig
from qdverify.povm import dual_frame, random_ic_povm, reconstruct


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
        est = tomo.exact_conditionals(rho, sic, povm_b, dual_frame(povm_b))
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
        v = tomo.significant_commutativity(est, seed=rec.seed)
        assert v.verdict == dv.NONZERO_DISCORD
        assert v.z_score > 5
        assert v.max_norm == pytest.approx(2 / 3, abs=0.1)

    def test_product_consistent(self, sic, sic_duals):
        rho = random_product_state(77)
        rec = tomo.sample_joint(rho, sic, sic, 10 ** 5, seed=5)
        est = tomo.estimate_conditionals(rec, sic_duals)
        v = tomo.significant_commutativity(est, seed=rec.seed)
        assert v.verdict == dv.CONSISTENT_WITH_ZERO

    def test_exact_input_zero_stderr_sentinels(self, bell, sic, sic_duals):
        est = tomo.exact_conditionals(bell, sic, sic, sic_duals)
        v = tomo.significant_commutativity(est)
        assert v.verdict == dv.NONZERO_DISCORD
        assert np.isinf(v.z_score)

        prod = random_product_state(8)
        est = tomo.exact_conditionals(prod, sic, sic, sic_duals)
        v = tomo.significant_commutativity(est)
        assert v.verdict == dv.CONSISTENT_WITH_ZERO
        assert v.z_score == 0.0

    def test_delta_and_bootstrap_agree_on_bell(self, bell, sic, sic_duals):
        rec = tomo.sample_joint(bell, sic, sic, 10 ** 5, seed=7)
        est = tomo.estimate_conditionals(rec, sic_duals)
        boot = tomo.bootstrap_norm_stderr(est, seed=rec.seed)
        j, k = est.ensemble.pairs().T
        states = est.ensemble.states
        norm, gj, gk = tomo._norm_gradients(states[j], states[k], est.duals_b)
        delta = np.sqrt(tomo._delta_variance(est.freqs[j], est.counts[j], gj)
                        + tomo._delta_variance(est.freqs[k], est.counts[k], gk))
        assert np.all(np.abs(delta - boot) / boot <= 0.3)

    def test_bootstrap_deterministic(self, bell, sic, sic_duals):
        rec = tomo.sample_joint(bell, sic, sic, 10 ** 4, seed=2)
        est = tomo.estimate_conditionals(rec, sic_duals)
        a = tomo.bootstrap_norm_stderr(est, seed=5)
        b = tomo.bootstrap_norm_stderr(est, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_bootstrap_runs_only_for_degenerate_pairs(self, bell, sic, sic_duals,
                                                     monkeypatch):
        calls = []
        original = tomo._bootstrap_stderr

        def spy(est, pairs, resamples, seed):
            calls.append(pairs.tolist())
            return original(est, pairs, resamples, seed)

        monkeypatch.setattr(tomo, "_bootstrap_stderr", spy)
        rec = tomo.sample_joint(bell, sic, sic, 100000, seed=7)
        tomo.significant_commutativity(tomo.estimate_conditionals(rec, sic_duals))
        assert calls == []      # every Bell pair has a delta-method stderr
        product = tomo.exact_conditionals(random_product_state(2), sic, sic, sic_duals)
        tomo.significant_commutativity(product, resamples=5)
        assert calls == [[[j, k] for j in range(4) for k in range(j + 1, 4)]]

    def test_negative_resamples_rejected(self, bell, sic, sic_duals):
        rec = tomo.sample_joint(bell, sic, sic, 1000, seed=1)
        est = tomo.estimate_conditionals(rec, sic_duals)
        with pytest.raises(DomainError):
            tomo.significant_commutativity(est, resamples=-1)
        with pytest.raises(DomainError):
            tomo.bootstrap_norm_stderr(est, resamples=-1)

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
