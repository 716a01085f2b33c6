"""The benchmark's reference computations on values known in closed form."""
import json
import os
from math import factorial, pi
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import run
import tracer
from inputs import bell_diagonal_state, classical_quantum_state, noisy_bell_state

HERE = os.path.dirname(os.path.abspath(__file__))


def projector(vec):
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


def test_luo_gives_one_bit_for_a_bell_state():
    rho = projector(oracles.BELL_VECTORS[0])
    assert oracles.luo_discord_bell_diagonal(rho) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rho", [
    np.eye(4) / 4.0,                                       # product state
    (projector(oracles.BELL_VECTORS[0]) + projector(oracles.BELL_VECTORS[1])) / 2.0,
], ids=["maximally_mixed", "classically_correlated"])
def test_luo_gives_zero_without_quantum_correlation(rho):
    assert oracles.luo_discord_bell_diagonal(rho) == pytest.approx(0.0, abs=1e-12)


def test_hermite_functions_are_orthonormal():
    x = np.linspace(-10.0, 10.0, 4001)
    psi = oracles.hermite_functions(12, x)
    gram = psi @ psi.T * (x[1] - x[0])
    assert np.max(np.abs(gram - np.eye(13))) < 1e-12


@pytest.mark.parametrize("level,origin", [(0, 2.0 / pi), (1, -2.0 / pi), (2, 2.0 / pi)])
def test_fock_wigner_at_the_origin_is_plus_minus_two_over_pi(level, origin):
    op = np.zeros((4, 4), dtype=complex)
    op[level, level] = 1.0
    w = oracles.wigner_by_wavefunction(op, np.array([0.0]), np.array([0.0]))
    assert w[0, 0] == pytest.approx(origin, abs=1e-13)


def test_coherent_state_wigner_is_a_displaced_gaussian():
    beta = 0.8 - 0.5j
    n = np.arange(31)
    amps = np.exp(-abs(beta) ** 2 / 2) * beta ** n / np.sqrt([float(factorial(k)) for k in n])
    xs = np.linspace(-2.0, 2.0, 9)
    ps = np.linspace(-2.0, 2.0, 7)
    w = oracles.wigner_by_wavefunction(projector(amps), xs, ps)
    alpha = xs[:, None] + 1j * ps[None, :]
    assert np.max(np.abs(w - 2.0 / pi * np.exp(-2.0 * np.abs(alpha - beta) ** 2))) < 1e-12


def test_commuting_fock_operators_have_a_zero_commutator_grid():
    axis = np.linspace(-3.0, 3.0, 5)
    a = np.diag([0.5, 0.3, 0.2]).astype(complex)
    b = np.diag([0.1, 0.1, 0.8]).astype(complex)
    assert np.max(np.abs(oracles.commutator_wigner(a, b, axis, axis))) < 1e-15


def test_sic_is_a_complete_informationally_complete_povm():
    props = oracles.povm_properties(oracles.sic_qubit_effects())
    assert props["min_eig"] > -1e-15
    assert props["completeness_error"] < 1e-15
    assert props["gram_rank"] == 4


def test_born_probabilities_of_the_maximally_mixed_state_are_uniform():
    sic = oracles.sic_qubit_effects()
    probs = oracles.born_probabilities(np.eye(4) / 4.0, sic, sic)
    assert np.allclose(probs, 1.0 / 16.0, atol=1e-15)


def test_chi_square_is_zero_at_the_expected_counts_and_large_far_from_them():
    probs = np.full(16, 1.0 / 16.0)
    assert oracles.chi_square(np.full(16, 6250), probs) == 0.0
    skewed = np.array([100000 - 15 * 10] + [10] * 15)
    assert oracles.chi_square(skewed, probs) > oracles.CHI2_LIMIT_DF15


def test_classical_quantum_conditionals_commute():
    rho = classical_quantum_state(3, 3, np.random.default_rng(5))
    effects = np.array([projector(v) for v in np.eye(3)])
    conds = [c for c in oracles.conditionals_on_b(rho, effects, (3, 3)) if c is not None]
    norms = [oracles.commutator_norm(a, b) for i, a in enumerate(conds) for b in conds[i + 1:]]
    assert max(norms) < 1e-14


def test_generated_states_are_density_matrices():
    rng = np.random.default_rng(3)
    for rho in (noisy_bell_state(rng), bell_diagonal_state(rng),
                classical_quantum_state(2, 2, rng)):
        assert np.allclose(rho, rho.conj().T, atol=0)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.eigvalsh(rho)[0] > -1e-12


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in tracer.METRICS]


def test_tracer_reports_a_missing_target_as_absent_instead_of_failing():
    modules = {"povm": SimpleNamespace(dual_frame=len)}
    assert tracer._resolve(modules, "povm", "dual_frame") is not None
    assert tracer._resolve(modules, "povm", "renamed_away") is None
    assert tracer._resolve(modules, "gone", "dual_frame") is None


def test_tracer_self_time_excludes_children():
    t = tracer.Tracer()
    t.spans = [("cli.main", -1, 0, 10_000_000, (0, 0)),
               ("statefile.load", 0, 1_000_000, 4_000_000, (0, 0))]
    layers = t.metrics([(0, 0)])
    assert layers["cli.main_ms"]["value"] == 10.0
    assert layers["cli.main_self_ms"]["value"] == 7.0
    assert layers["statefile.load_ms"]["value"] == 3.0
