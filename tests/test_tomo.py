import tracemalloc

import numpy as np
import pytest

from conftest import (assert_close_to_kron_oracle, kron_joint_probabilities,
                      random_bipartite_state, random_product_state, reconstruct_joint)
from qdverify import dv, tomo
from qdverify.errors import DimMismatch, InsufficientOutcomes, NotInformationallyComplete
from qdverify.linalg import DensityOperator, dag, frobenius_norm, hermitian_eig
from qdverify.povm import (DEFAULT_POVM_SEED, Povm, default_ic_povm, random_ic_povm,
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

    def test_joint_probabilities_hold_only_the_blocks(self):
        # B's Born rule on the (K_a, d_b, d_b) blocks holds K_a d_b^2 + K_b d_b^2
        # complex entries, 61 KB traced at 6x6; a Kronecker product per A
        # effect, K_b (d_a d_b)^2 entries, took 1.5 MB
        rho = random_bipartite_state(3, 6, 6)
        pa, pb = random_ic_povm(6, seed=1), random_ic_povm(6, seed=2)
        tracemalloc.start()
        try:
            probs = tomo.joint_probabilities(rho, pa, pb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2 ** 10
        assert_close_to_kron_oracle(probs, rho, pa, pb)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("shots", [100, 10 ** 5])
    def test_sampled_counts_match_the_kron_oracle(self, dims, shots):
        # a last-bit change in p(k, m) can move sampled counts; the counts drawn
        # from the Born rule on the blocks equal those drawn, with the same
        # generator, from the Kronecker products' probabilities
        da, db = dims
        pa, pb = default_ic_povm(da), default_ic_povm(db, seed=DEFAULT_POVM_SEED + 1)
        states = [DensityOperator(np.eye(da * db) / (da * db), bipartition=dims),
                  random_bipartite_state(5, da, db), dv.generate_zero_discord(da, db, 5)]
        for rho in states:
            flat = np.clip(kron_joint_probabilities(rho, pa, pb).reshape(-1), 0.0, None)
            for seed in range(3):
                expected = np.random.default_rng(seed).multinomial(shots, flat / flat.sum())
                np.testing.assert_array_equal(
                    tomo.sample_joint(rho, pa, pb, shots, seed).counts.reshape(-1), expected)

    def test_dim_mismatch(self, bell, sic):
        p3 = random_ic_povm(3, seed=0)
        with pytest.raises(DimMismatch):
            tomo.sample_joint(bell, p3, sic, 100, seed=0)


class TestEstimateConditionals:
    def test_exact_frequencies_give_exact_states(self, bell, sic):
        probs = np.clip(tomo.joint_probabilities(bell, sic, sic), 0.0, None)
        rec = tomo.ShotRecord(sic, sic, probs, 1, 0)
        est = tomo.estimate_conditionals(rec)
        exact = dv.condition_on_povm(bell, sic)
        for k in range(4):
            err = frobenius_norm(est.states[k]
                                 - exact.states[k])
            assert err <= 1e-10

    def test_exact_ensemble_rebuilds_the_joint_state(self, sic, sic_duals):
        # the estimates hold one state per outcome on A, as dv's ensemble
        # does, so with the record's row totals as probabilities the dual
        # frame of A's POVM rebuilds an asymmetric 2x3 state
        rho = random_bipartite_state(4, 2, 3)
        povm_b = random_ic_povm(3, seed=1)
        probs = tomo.joint_probabilities(rho, sic, povm_b)
        est = tomo.estimate_conditionals(tomo.ShotRecord(sic, povm_b, probs, 1, 0))
        ens = dv.ConditionalEnsemble(est.counts / est.counts.sum(), est.states,
                                     np.zeros(len(est.counts)))
        joint = reconstruct_joint(ens, sic_duals)
        assert np.max(np.abs(joint.matrix - rho.matrix)) <= 1e-10

    def test_bell_error_calibration(self, bell, sic):
        exact = dv.condition_on_povm(bell, sic)
        ok = 0
        for seed in range(50):
            rec = tomo.sample_joint(bell, sic, sic, 10 ** 5, seed=seed)
            est = tomo.estimate_conditionals(rec)
            errs = [frobenius_norm(est.states[k]
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

    def test_empty_outcome_marked_absent(self, sic):
        counts = np.zeros((4, 4), dtype=int)
        counts[1] = [10, 20, 30, 40]
        counts[2] = [25, 25, 25, 25]
        rec = tomo.ShotRecord(sic, sic, counts, 200, 0)
        est = tomo.estimate_conditionals(rec)
        np.testing.assert_array_equal(est.present, [False, True, True, False])
        np.testing.assert_array_equal(est.states[0], np.zeros((2, 2)))

    def test_computational_basis_on_a_refused(self, bell, sic):
        # its conditionals of the maximally entangled state, |0><0| and
        # |1><1|, commute: a replay once read CONSISTENT_WITH_ZERO
        z_basis = Povm(2, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        rec = tomo.sample_joint(bell, z_basis, sic, 100000, seed=0)
        with pytest.raises(NotInformationallyComplete,
                           match="^the POVM on A is not informationally complete$"):
            tomo.estimate_conditionals(rec)

    def test_random_rank_deficient_povm_on_a_refused(self, sic):
        # d^2 - 1 random full-rank effects span at most d^2 - 1 of the d^2
        # operator dimensions, so their frame operator is singular
        for dim_a in (2, 3, 4):
            rng = np.random.default_rng(dim_a)
            shape = (dim_a ** 2 - 1, dim_a, dim_a)
            g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            effects = g @ dag(g)
            total = hermitian_eig(effects.sum(axis=0))
            inv_sqrt = total.reconstruct(1.0 / np.sqrt(total.eigenvalues))
            effects = inv_sqrt @ effects @ inv_sqrt
            pa = Povm(dim_a, (effects + dag(effects)) / 2.0)
            rec = tomo.sample_joint(random_bipartite_state(dim_a, dim_a, 2), pa, sic,
                                    10000, seed=dim_a)
            with pytest.raises(NotInformationallyComplete, match="POVM on A"):
                tomo.estimate_conditionals(rec)

    def test_estimator_error_scales_with_shots(self, bell, sic):
        exact = dv.condition_on_povm(bell, sic)
        medians = []
        for shots in (10 ** 4, 10 ** 6):
            errs = []
            for seed in range(15):
                rec = tomo.sample_joint(bell, sic, sic, shots, seed=seed)
                est = tomo.estimate_conditionals(rec)
                errs.append(max(frobenius_norm(est.states[k]
                                               - exact.states[k])
                                for k in range(4)))
            medians.append(np.median(errs))
        # inverse-sqrt scaling over two decades: slope -1/2 within factor 2
        slope = np.log10(medians[1] / medians[0]) / 2.0
        assert -1.0 <= slope <= -0.25


class TestSignificance:
    def test_bell_detected(self, bell, sic):
        rec = tomo.sample_joint(bell, sic, sic, 10 ** 5, seed=11)
        est = tomo.estimate_conditionals(rec)
        v = tomo.significant_commutativity(est)
        assert v.verdict == dv.NONZERO_DISCORD
        assert v.witnesses["z_score"] > 5
        assert v.witnesses["max_norm"] == pytest.approx(2 / 3, abs=0.1)

    def test_product_consistent(self, sic):
        rho = random_product_state(77)
        rec = tomo.sample_joint(rho, sic, sic, 10 ** 5, seed=5)
        est = tomo.estimate_conditionals(rec)
        v = tomo.significant_commutativity(est)
        assert v.verdict == dv.CONSISTENT_WITH_ZERO

    @pytest.mark.parametrize("counts", [3 * np.eye(4, dtype=int),
                                        np.tile([10, 20, 30, 40], (4, 1))],
                             ids=["one_hot_rows", "identical_rows"])
    def test_pairs_without_a_stderr_read_z_zero(self, sic, counts):
        # one-hot rows have a zero plug-in covariance behind nonzero norms;
        # identical rows commute, so their norms have no gradient
        rec = tomo.ShotRecord(sic, sic, counts, int(counts.sum()), 0)
        v = tomo.significant_commutativity(tomo.estimate_conditionals(rec))
        assert v.verdict == dv.CONSISTENT_WITH_ZERO
        w = v.witnesses
        assert (w["z_score"], w["norm_stderr"], w["witness_pair"]) == (0.0, 0.0, (0, 1))

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 2)], ids=["2x2", "3x3", "4x2"])
    def test_zero_discord_never_flagged_at_a_few_shots(self, dims):
        # rows of one or two counts have a zero or rounding-size plug-in
        # covariance, which once read as z = +inf or about 1e15
        pa = default_ic_povm(dims[0])
        pb = default_ic_povm(dims[1], seed=DEFAULT_POVM_SEED + 1)
        for shots in (4, 16):
            for s in range(4):
                rho = dv.generate_zero_discord(*dims, 9100 + s)
                for seed in range(5):
                    rec = tomo.sample_joint(rho, pa, pb, shots, seed)
                    try:
                        v = tomo.significant_commutativity(
                            tomo.estimate_conditionals(rec))
                    except InsufficientOutcomes:
                        continue
                    assert v.verdict == dv.CONSISTENT_WITH_ZERO, (shots, s, seed)

    def test_delta_stderr_matches_the_spread_of_sampled_norms(self, bell, sic):
        # the sample standard deviation over 100 independent records is the
        # reference the first-order stderr of one record must agree with
        def norms_and_stderrs(seed):
            est = tomo.estimate_conditionals(
                tomo.sample_joint(bell, sic, sic, 10 ** 5, seed=seed))
            j, k = dv.present_pairs(est.present).T
            states = est.states
            norm, gj, gk = tomo._norm_gradients(states[j], states[k], est.duals_b)
            var = (tomo._delta_variance(est.freqs[j], est.counts[j], gj)
                   + tomo._delta_variance(est.freqs[k], est.counts[k], gk))
            return norm, np.sqrt(var)

        _, delta = norms_and_stderrs(7)
        spread = np.std([norms_and_stderrs(1000 + r)[0] for r in range(100)],
                        axis=0, ddof=1)
        assert delta.shape == (6,)
        assert np.all(np.abs(delta - spread) / spread <= 0.3)

    def test_insufficient_outcomes(self, sic):
        counts = np.zeros((4, 4), dtype=int)
        counts[1] = [25, 25, 25, 25]
        rec = tomo.ShotRecord(sic, sic, counts, 100, 0)
        est = tomo.estimate_conditionals(rec)
        with pytest.raises(InsufficientOutcomes):
            tomo.significant_commutativity(est)

    def test_empty_record_rejected(self, sic):
        rec = tomo.ShotRecord(sic, sic, np.zeros((4, 4), dtype=int), 0, 0)
        with pytest.raises(InsufficientOutcomes):
            tomo.estimate_conditionals(rec)


def test_project_to_state_output_valid():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = (g + g.conj().T) / 2
        out = tomo.project_to_state(h)
        w = hermitian_eig(out).eigenvalues
        assert w[-1] >= -1e-12
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
