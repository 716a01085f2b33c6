import numpy as np
import pytest

from conftest import random_bipartite_state, random_product_state, reconstruct_joint
from qdverify import dv
from qdverify.errors import DimMismatch
from qdverify.linalg import (
    DensityOperator,
    commutator,
    dag,
    frobenius_norm,
    random_density_matrix,
    swap_subsystems,
    tensor,
)
from qdverify.povm import default_ic_povm, dual_frame, mub_povm, random_ic_povm, sic_qubit


def near_degenerate_cq_states(n, rng):
    """sum_j q_j |j><j| x (diag(0.4, 0.3, 0.3) + delta H_j) on 3x3, with H_j a
    random traceless Hermitian on the degenerate block and delta from 1e-6
    to 1e-3: discordant, but every conditional of B is nearly degenerate."""
    base = np.diag([0.4, 0.3, 0.3]).astype(complex)
    for _ in range(n):
        q = rng.dirichlet(np.ones(3))
        delta = 10 ** rng.uniform(-6, -3)
        rho = np.zeros((9, 9), dtype=complex)
        for j in range(3):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = np.zeros((3, 3), dtype=complex)
            h[1:, 1:] = (g + dag(g)) / 2
            h[1:, 1:] -= np.trace(h[1:, 1:]) / 2 * np.eye(2)
            rho += q[j] * tensor(np.diag(np.eye(3)[j]), base + delta * h)
        yield DensityOperator((rho + dag(rho)) / 2, bipartition=(3, 3))


class TestConditionOnPovm:
    def test_product_state_conditionals_equal_marginal(self, sic):
        rho = random_product_state(3)
        da, db = rho.bipartition
        rho_b = np.einsum("abac->bc", rho.matrix.reshape(da, db, da, db))     # Tr_A
        ens = dv.condition_on_povm(rho, sic)
        for k in np.flatnonzero(ens.present):
            assert frobenius_norm(ens.states[k] - rho_b) <= 1e-12

    def test_bell_conditionals_are_conjugated_sic_projectors(self, bell, sic):
        ens = dv.condition_on_povm(bell, sic)
        for k, effect in enumerate(sic.effects):
            # dense-matrix oracle for Tr_A[(M_k x I) rho]
            m = np.zeros((2, 2), dtype=complex)
            t = bell.matrix.reshape(2, 2, 2, 2)
            for a in range(2):
                for c in range(2):
                    for b in range(2):
                        for d in range(2):
                            m[b, d] += effect[a, c] * t[c, b, a, d]
            oracle = m / np.trace(m).real
            assert frobenius_norm(ens.states[k] - oracle) <= 1e-12
            # equals the transposed (conjugated) SIC direction
            proj = 2 * effect
            np.testing.assert_allclose(ens.states[k], proj.T, atol=1e-12)

    def test_pointer_state_conditionals_diagonal(self, sic):
        # 0.5 |0><0| x |0><0| + 0.5 |+><+| x |1><1| on A x B
        ket0 = np.array([1.0, 0.0], dtype=complex)
        ketp = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        m = 0.5 * tensor(np.outer(ket0, ket0.conj()), np.diag([1.0, 0.0])) \
            + 0.5 * tensor(np.outer(ketp, ketp.conj()), np.diag([0.0, 1.0]))
        rho = DensityOperator(m, bipartition=(2, 2))
        ens = dv.condition_on_povm(rho, sic)
        for k in np.flatnonzero(ens.present):
            off = ens.states[k][0, 1]
            assert abs(off) <= 1e-12

    def test_probabilities_sum(self, sic):
        rho = random_bipartite_state(9, 2, 3)
        ens = dv.condition_on_povm(rho, sic)
        assert ens.probabilities.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(ens.probabilities >= -1e-12)

    def test_dim_mismatch(self, sic):
        rho = random_bipartite_state(0, 3, 2)
        with pytest.raises(DimMismatch):
            dv.condition_on_povm(rho, sic)


class TestSelectAnchor:
    def _ensemble(self, states):
        probs = np.full(len(states), 1.0 / len(states))
        return dv.ConditionalEnsemble(probs, np.array(states), np.zeros(len(states)))

    def test_only_nondegenerate_candidate(self):
        states = [np.eye(2) / 2, np.eye(2) / 2, np.diag([0.9, 0.1]).astype(complex),
                  np.eye(2) / 2]
        ens = self._ensemble(states)
        assert dv.select_anchor(ens) == 2

    def test_all_degenerate(self):
        ens = self._ensemble([np.eye(2) / 2] * 4)
        assert dv.select_anchor(ens) is None

    @pytest.mark.parametrize("scales, anchor", [
        ((1.0, 1.0 + 0.5e-9), 0),
        ((1.0, 1.0 + 0.8e-9, 1.0 + 1.6e-9), 2),
    ], ids=["within_rtol_of_the_first", "past_rtol_of_the_best_so_far"])
    def test_gap_scan_is_sequential(self, scales, anchor):
        # gaps g * scale in index order: the first case refuses the argmax
        # (index 1), the second the lowest index within rtol of the max (1)
        g = 0.4
        states = [np.diag([(1 + g * c) / 2, (1 - g * c) / 2]).astype(complex)
                  for c in scales]
        states += [np.eye(2) / 2] * (4 - len(states))
        assert dv.select_anchor(self._ensemble(states)) == anchor

    def test_tie_breaks_to_lowest_index(self, bell, sic):
        ens = dv.condition_on_povm(bell, sic)
        # all conditionals pure, gap 1 everywhere
        assert dv.select_anchor(ens) == 0


class TestPairs:
    # six outcomes, of which 1 and 4 are absent
    present = np.array([True, False, True, True, False, True])

    @pytest.mark.parametrize("anchor, rest", [(0, [2, 3, 5]), (3, [0, 2, 5]),
                                              (5, [0, 2, 3])],
                             ids=["first", "middle", "last"])
    def test_anchor_pairs_skip_absent_outcomes(self, anchor, rest):
        np.testing.assert_array_equal(dv.present_pairs(self.present, anchor),
                                      [[anchor, k] for k in rest])

    def test_all_pairs_in_row_major_order(self):
        np.testing.assert_array_equal(dv.present_pairs(self.present),
                                      [[0, 2], [0, 3], [0, 5], [2, 3], [2, 5], [3, 5]])


class TestVerifyCommutativity:
    def test_product_state(self, sic):
        ens = dv.condition_on_povm(random_product_state(1), sic)
        v = dv.verify_commutativity(ens)
        assert v.verdict == dv.CONSISTENT_WITH_ZERO
        assert v.witnesses["max_commutator_norm"] <= 1e-12

    def test_bell_sic_norm(self, bell, sic):
        v = dv.verify_commutativity(dv.condition_on_povm(bell, sic))
        assert v.verdict == dv.NONZERO_DISCORD
        assert v.witnesses["max_commutator_norm"] == pytest.approx(2 / 3, abs=1e-9)
        assert v.witnesses["witness_pair"] is not None
        assert v.witnesses["checked_pairs"] == 1  # anchor route exits on the first pair

    def test_zero_discord_draws_3x3(self):
        povm = random_ic_povm(3, seed=0)
        for seed in range(50):
            rho = dv.generate_zero_discord(3, 3, seed)
            v = dv.verify_commutativity(dv.condition_on_povm(rho, povm))
            assert v.verdict == dv.CONSISTENT_WITH_ZERO, seed

    def test_anchor_consistency(self, sic):
        # anchor route passing implies the full all-pairs sweep passes
        for seed in range(100):
            rho = dv.generate_zero_discord(2, 2, seed)
            ens = dv.condition_on_povm(rho, sic)
            v = dv.verify_commutativity(ens)
            if v.witnesses["anchor_index"] is None or v.verdict != dv.CONSISTENT_WITH_ZERO:
                continue
            present = np.flatnonzero(ens.present)
            for i, j in ((a, b) for a in present for b in present if a < b):
                norm = frobenius_norm(commutator(ens.states[i],
                                                 ens.states[j]))
                assert norm <= v.thresholds["commutator_norm"]

    @pytest.mark.parametrize("povm", [default_ic_povm(3), mub_povm(3)],
                             ids=["random", "mub"])
    def test_anchor_shortcut_is_certified_near_degeneracy(self, povm):
        # the anchor's small commutators bound the unchecked pairs only
        # through its gap; a CONSISTENT_WITH_ZERO must hold for every pair
        for rho in near_degenerate_cq_states(3000, np.random.default_rng(12345)):
            ens = dv.condition_on_povm(rho, povm)
            v = dv.verify_commutativity(ens)
            if v.verdict == dv.CONSISTENT_WITH_ZERO:
                pairs = dv.present_pairs(ens.present)
                norms = frobenius_norm(commutator(ens.states[pairs[:, 0]],
                                                  ens.states[pairs[:, 1]]))
                assert norms.max() <= v.thresholds["commutator_norm"]

    @pytest.mark.parametrize("d", range(2, 9))
    def test_maximally_entangled_detected_under_the_default_povms(self, d):
        povm = sic_qubit() if d == 2 else mub_povm(d)
        ens = dv.condition_on_povm(dv.generate_maximally_entangled(d), povm)
        assert dv.verify_commutativity(ens).verdict == dv.NONZERO_DISCORD

    def test_threshold_zero_asks_for_a_commutator_beyond_rounding(self, bell, sic):
        # a zero-discord state's conditionals commute up to rounding, which
        # the ensemble's own bound covers; built with zero bounds, it flags them
        ens = dv.condition_on_povm(dv.generate_zero_discord(3, 3, 43), mub_povm(3))
        assert ens.rounding[ens.present].min() > 0.0
        assert dv.verify_commutativity(ens, 0.0).verdict == dv.CONSISTENT_WITH_ZERO
        bare = dv.ConditionalEnsemble(ens.probabilities, ens.states,
                                      np.zeros(len(ens.probabilities)))
        assert not bare.rounding.any()
        v = dv.verify_commutativity(bare, 0.0)
        assert v.verdict == dv.NONZERO_DISCORD
        assert 0.0 < v.witnesses["max_commutator_norm"] < 1e-15
        v = dv.verify_commutativity(dv.condition_on_povm(bell, sic), 0.0)
        assert v.verdict == dv.NONZERO_DISCORD

    @pytest.mark.parametrize("rounding, anchor", [(1e-4, 0), (1e-6, None)])
    def test_anchor_certification_reads_the_rounding_bound(self, rounding, anchor):
        # an anchor of gap 0.1 and three near-degenerate states off its
        # eigenbasis by 1e-6: the anchor pairs' norms (about 1e-7) pass under
        # either bound, and their anchor_bound (about 5e-6) certifies the
        # unchecked pairs only against the larger one
        rng = np.random.default_rng(4)
        states = [np.diag([0.5, 0.3, 0.2]).astype(complex)]
        for _ in range(3):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = (g + dag(g)) / 2 - np.diag(np.diag(g).real)
            states.append(np.eye(3) / 3 + 1e-6 * h / np.abs(h).max())
        ens = dv.ConditionalEnsemble(np.full(4, 0.25), np.array(states), np.full(4, rounding))
        pairs = dv.present_pairs(ens.present, 0)
        norms = frobenius_norm(commutator(ens.states[pairs[:, 0]], ens.states[pairs[:, 1]]))
        bound = dv.anchor_bound(norms.max(), ens.gaps[0])
        assert norms.max() < 2e-6 and 2e-6 < bound < 2e-4
        v = dv.verify_commutativity(ens, 0.0)
        assert v.verdict == dv.CONSISTENT_WITH_ZERO
        assert v.witnesses["anchor_index"] == anchor
        assert v.witnesses["checked_pairs"] == (3 if anchor == 0 else 6)

    def test_threshold_recorded(self, bell, sic):
        v = dv.verify_commutativity(dv.condition_on_povm(bell, sic), threshold=1e-3)
        assert v.thresholds["commutator_norm"] == 1e-3
        assert ((v.verdict == dv.NONZERO_DISCORD)
                == (v.witnesses["max_commutator_norm"] > 1e-3))


class TestGenerators:
    def test_zero_discord_deterministic(self):
        a = dv.generate_zero_discord(2, 3, 42)
        b = dv.generate_zero_discord(2, 3, 42)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.bipartition == (2, 3)

    def test_zero_discord_estimator_cross_check(self):
        for seed in (5, 17):
            rho = dv.generate_zero_discord(2, 2, seed)
            assert dv.discord_estimate_2q(rho, n_theta=24, n_phi=48) <= 1e-6

    def test_maximally_entangled(self):
        for d in (2, 3):
            rho = dv.generate_maximally_entangled(d)
            purity = np.trace(rho.matrix @ rho.matrix).real
            assert purity == pytest.approx(1.0, abs=1e-12)
            marg = np.einsum("abac->bc", rho.matrix.reshape(d, d, d, d))     # Tr_A
            np.testing.assert_allclose(marg, np.eye(d) / d, atol=1e-12)

    def test_maximally_entangled_nonorthogonal_outcomes_do_not_commute(self):
        # rank-one outcomes |n>, |eta> with 0 < |<n|eta>| < 1
        d = 3
        rho = dv.generate_maximally_entangled(d)
        rng = np.random.default_rng(8)
        n = rng.normal(size=d) + 1j * rng.normal(size=d)
        n /= np.linalg.norm(n)
        eta = n + 0.7 * (rng.normal(size=d) + 1j * rng.normal(size=d))
        eta /= np.linalg.norm(eta)
        overlap = abs(np.vdot(n, eta))
        assert 0 < overlap < 1
        t = rho.matrix.reshape(d, d, d, d)
        conds = []
        for vec in (n, eta):
            proj = np.outer(vec, vec.conj())
            block = np.einsum("ac,cbad->bd", proj, t)
            conds.append(block / np.trace(block).real)
        assert frobenius_norm(commutator(*conds)) > 1e-3

    def test_bad_dims(self):
        with pytest.raises(DimMismatch, match="^both dims must be at least 2$"):
            dv.generate_zero_discord(1, 2, 0)
        with pytest.raises(DimMismatch, match="^d must be at least 2$"):
            dv.generate_maximally_entangled(1)


class TestReconstructJoint:
    def test_bell_round_trip(self, bell, sic, sic_duals):
        ens = dv.condition_on_povm(bell, sic)
        rec = reconstruct_joint(ens, sic_duals)
        assert frobenius_norm(rec.matrix - bell.matrix) <= 1e-9

    def test_product_round_trip(self, sic, sic_duals):
        rho = random_product_state(2)
        rec = reconstruct_joint(dv.condition_on_povm(rho, sic), sic_duals)
        assert frobenius_norm(rec.matrix - rho.matrix) <= 1e-9

    def test_random_states_round_trip(self, sic, sic_duals):
        for seed in range(30):
            rho = random_bipartite_state(seed, 2, 2)
            rec = reconstruct_joint(dv.condition_on_povm(rho, sic), sic_duals)
            assert frobenius_norm(rec.matrix - rho.matrix) <= 1e-9

    def test_zero_discord_form_preserved(self, sic, sic_duals):
        rho = dv.generate_zero_discord(2, 2, 13)
        rec = reconstruct_joint(dv.condition_on_povm(rho, sic), sic_duals)
        v = dv.verify_commutativity(dv.condition_on_povm(rec, sic))
        assert v.verdict == dv.CONSISTENT_WITH_ZERO

    def test_mismatched_duals(self, bell, sic):
        other = dual_frame(random_ic_povm(3, seed=1))
        ens = dv.condition_on_povm(bell, sic)
        with pytest.raises(DimMismatch):
            reconstruct_joint(ens, other)


class TestDiscordEstimator:
    def test_product_state_zero(self):
        rho = random_product_state(4)
        assert abs(dv.discord_estimate_2q(rho, n_theta=16, n_phi=32)) <= 1e-9

    def test_bell_one_bit(self, bell):
        d = dv.discord_estimate_2q(bell, n_theta=16, n_phi=32)
        assert d == pytest.approx(1.0, abs=2e-3)

    def test_requires_two_qubits(self):
        rho = random_bipartite_state(0, 2, 3)
        with pytest.raises(DimMismatch, match="^estimator requires a 2x2 bipartite state$"):
            dv.discord_estimate_2q(rho)

    def test_matches_the_scan_and_descent_one_angle_pair_at_a_time(self):
        # the grid's first strict minimum in theta-major order, then compass
        # moves in a fixed order where the first improving one is taken
        for seed in range(10):
            rho = random_bipartite_state(seed, 2, 2)
            t = rho.matrix.reshape(2, 2, 2, 2)
            best, angles = np.inf, None
            for theta in np.linspace(0.0, np.pi, 8):
                for phi in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
                    val = dv._measured_conditional_entropy(t, theta, phi)
                    if val < best:
                        best, angles = val, (theta, phi)
            (theta, phi), step = angles, np.pi / 8
            while step > 1e-8:
                for dt, dp in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                    val = dv._measured_conditional_entropy(t, theta + dt, phi + dp)
                    if val < best - 1e-16:
                        best, theta, phi = val, theta + dt, phi + dp
                        break
                else:
                    step /= 2.0
            expected = (dv._entropy_bits(np.einsum("abad->bd", t))
                        - dv._entropy_bits(rho.matrix) + best)
            assert dv.discord_estimate_2q(rho, n_theta=8, n_phi=16) == expected

    @pytest.mark.parametrize("c", [
        (0.3, -0.2, 0.1), (-1.0, -1.0, -1.0), (0.5, 0.5, 0.0), (-0.2, 0.6, 0.1),
        (0.1, 0.1, 0.7), (-0.4, -0.4, -0.4), (0.0, 0.0, 0.0), (0.25, -0.25, 0.5),
    ])
    def test_bell_diagonal_matches_luo_closed_form(self, c):
        # S. Luo, PRA 77, 042303 (2008): rho = (I + sum_j c_j s_j x s_j) / 4
        paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                  np.diag([1.0, -1.0])]
        m = (np.eye(4) + sum(cj * np.kron(s, s) for cj, s in zip(c, paulis))) / 4
        c1, c2, c3 = c
        lam = np.array([1 - c1 - c2 - c3, 1 - c1 + c2 + c3,
                        1 + c1 - c2 + c3, 1 + c1 + c2 - c3]) / 4
        cmax = max(abs(cj) for cj in c)
        xlogx = lambda x: x * np.log2(x) if x > 0 else 0.0   # noqa: E731
        luo = (1.0 + sum(xlogx(x) for x in lam)
               - xlogx((1 - cmax) / 2) - xlogx((1 + cmax) / 2))
        estimate = dv.discord_estimate_2q(DensityOperator(m, bipartition=(2, 2)))
        assert luo - 1e-9 <= estimate <= luo + 1e-6


def test_direction_sensitivity():
    # pointer basis on B with non-commuting rho_j on A: zero discord from B
    # to A, but conditioning a POVM on B leaves non-commuting A conditionals
    ket0 = np.array([1.0, 0.0], dtype=complex)
    ketp = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    m = 0.5 * tensor(np.outer(ket0, ket0.conj()), np.diag([1.0, 0.0])) \
        + 0.5 * tensor(np.outer(ketp, ketp.conj()), np.diag([0.0, 1.0]))
    rho = DensityOperator(m, bipartition=(2, 2))
    sic = sic_qubit()

    forward = dv.verify_commutativity(dv.condition_on_povm(rho, sic))
    assert forward.verdict == dv.CONSISTENT_WITH_ZERO

    reverse = dv.verify_commutativity(dv.condition_on_povm(swap_subsystems(rho), sic))
    assert reverse.verdict == dv.NONZERO_DISCORD
