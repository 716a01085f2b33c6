import builtins
import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import numpy as np

from conftest import (STRING_ROW_DOCUMENTS, random_bipartite_state, random_diagonal_fock,
                      random_product_state)
from dv_recipes import near_orthogonal_zero_discord
from qdverify import dv, gaussian, linalg, phasespace, povm, statefile, tomo
from qdverify.cli import main
from qdverify.linalg import DensityOperator
from qdverify.phasespace import fock_state, pure_state
from qdverify.povm import Povm, mub_povm


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_fixture(path, doc):
    statefile.write(str(path), doc)
    return str(path)


@pytest.fixture()
def bell_file(workdir, bell):
    return write_fixture(workdir / "bell2.state", statefile.dv_density_doc(bell))


@pytest.fixture()
def product_file(workdir):
    rho = random_product_state(0)
    return write_fixture(workdir / "product.state", statefile.dv_density_doc(rho))


@pytest.fixture()
def qubit_qutrit_file(workdir):
    # a qubit A side takes the SIC, which reads no POVM seed
    rho = random_bipartite_state(0, 2, 3)
    return write_fixture(workdir / "qubit_qutrit.state", statefile.dv_density_doc(rho))


@pytest.fixture()
def qutrit_file(workdir):
    # a qutrit A side takes the MUB POVM in verify-dv and a seeded random
    # IC-POVM in tomo, not the SIC
    rho = random_bipartite_state(0, 3, 3)
    return write_fixture(workdir / "qutrits.state", statefile.dv_density_doc(rho))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyDv:
    def test_bell_nonzero(self, capsys, bell_file):
        code, out, _ = run(capsys, "verify-dv", bell_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "NONZERO_DISCORD"
        norm = float(doc["witnesses"]["max_commutator_norm"])
        assert norm == pytest.approx(2 / 3, abs=1e-9)

    def test_product_consistent(self, capsys, product_file):
        code, out, _ = run(capsys, "verify-dv", product_file)
        assert code == 0
        assert json.loads(out)["verdict"] == "CONSISTENT_WITH_ZERO"

    def test_malformed_file_exit_2(self, capsys, workdir):
        bad = workdir / "bad.state"
        bad.write_text("{broken")
        code, out, err = run(capsys, "verify-dv", str(bad))
        assert code == 2
        assert "error:" in err

    def test_negative_povm_seed_exit_2(self, capsys, qutrit_file):
        code, out, err = run(capsys, "verify-dv", qutrit_file, "--povm-seed", "-5")
        assert code == 2
        assert out == ""
        assert "seed" in err

    def test_negative_povm_seed_exit_2_for_a_qubit(self, capsys, bell_file):
        # the qubit SIC reads no seed, but the flag is refused as for a qutrit
        code, out, err = run(capsys, "verify-dv", bell_file, "--povm-seed", "-3")
        assert code == 2
        assert out == ""
        assert err == "error: POVM seed must be nonnegative, got -3\n"

    def test_input_is_read_once(self, capsys, bell_file, monkeypatch):
        # the digest covers the bytes the verdict was computed from
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, out, _ = run(capsys, "verify-dv", bell_file)
        assert code == 0
        assert opened.count(bell_file) == 1
        with real_open(bell_file, "rb") as fh:
            digest = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
        assert json.loads(out)["input_digest"] == digest

    def test_golden_byte_identical(self, capsys, bell_file):
        _, out1, _ = run(capsys, "verify-dv", bell_file)
        _, out2, _ = run(capsys, "verify-dv", bell_file)
        assert out1 == out2

    def test_rank_deficient_rare_conditional_exit_0(self, capsys, workdir):
        # outcome 3 of the qutrit MUB misses B's pure branch 0, so its
        # conditional's zero eigenvalue carries the input's rounding times 1/p_3
        rho = near_orthogonal_zero_discord(mub_povm(3), 3, 2, 1e-10, 0, pure_first=True)
        path = write_fixture(workdir / "rare.state", statefile.dv_density_doc(rho))
        code, out, err = run(capsys, "verify-dv", path)
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] == "CONSISTENT_WITH_ZERO"

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_mub_default_above_qubits(self, capsys, workdir, dim):
        for rho, verdict in ((dv.generate_zero_discord(dim, dim, dim), "CONSISTENT_WITH_ZERO"),
                             (dv.generate_maximally_entangled(dim), "NONZERO_DISCORD")):
            path = write_fixture(workdir / "s.state", statefile.dv_density_doc(rho))
            code, out, _ = run(capsys, "verify-dv", path)
            assert code == 0
            doc = json.loads(out)
            assert doc["verdict"] == verdict
            assert doc["seeds"] == {"povm_kind": "mub", "povm_seed": 20240}


    def test_oversized_pair_sweep_exit_2(self, capsys, workdir, monkeypatch):
        # the maximally mixed qutrit pair has no anchor, since its 12 MUB
        # conditionals are all I/3, and its 66 pairs over a 3-level B need
        # 80 * 66 * 9 = 47520 bytes; pretend there is less, and fail if the
        # sweep is reached
        mixed = write_fixture(workdir / "mixed.state", statefile.dv_density_doc(
            DensityOperator(np.eye(9) / 9, bipartition=(3, 3))))
        anchored = write_fixture(workdir / "anchored.state", statefile.dv_density_doc(
            dv.generate_zero_discord(3, 3, 3)))
        inner = dv.commutator
        monkeypatch.setattr(dv, "commutator", lambda *a: pytest.fail("allocated"))
        monkeypatch.setattr(linalg, "physical_memory_bytes", lambda: 47519)
        code, out, err = run(capsys, "verify-dv", mixed)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "66 conditional pairs" in err
        assert "physical memory" in err
        # the anchor's 11 pairs need 7920 bytes
        monkeypatch.setattr(dv, "commutator", inner)
        code, out, _ = run(capsys, "verify-dv", anchored)
        assert code == 0
        assert json.loads(out)["witnesses"]["checked_pairs"] == 11
        monkeypatch.setattr(linalg, "physical_memory_bytes", lambda: 47520)
        code, out, _ = run(capsys, "verify-dv", mixed)
        assert code == 0
        assert json.loads(out)["verdict"] == "CONSISTENT_WITH_ZERO"

    def test_oversized_mub_povm_exit_2(self, capsys, qutrit_file, monkeypatch):
        # the qutrit MUB is admitted at four stacks of its 12 effects, 4 * 16 *
        # 12 * 9 = 6912 bytes; pretend there is less, and fail if it is built
        inner = povm._mub_effects
        monkeypatch.setattr(povm, "_mub_effects", lambda p: pytest.fail("allocated"))
        monkeypatch.setattr(linalg, "physical_memory_bytes", lambda: 6911)
        code, out, err = run(capsys, "verify-dv", qutrit_file)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "12 effects on a 3-level system" in err
        assert "physical memory" in err
        # at 6912 bytes the POVM is built, and the anchor's 11 pairs are refused
        monkeypatch.setattr(povm, "_mub_effects", inner)
        monkeypatch.setattr(linalg, "physical_memory_bytes", lambda: 6912)
        code, out, err = run(capsys, "verify-dv", qutrit_file)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "11 conditional pairs" in err


class TestVerifyGaussian:
    def test_tmsv_nonzero(self, capsys, workdir):
        path = write_fixture(workdir / "tmsv_r05.state",
                             statefile.gaussian_doc(gaussian.two_mode_squeezed_vacuum(0.5)))
        code, out, _ = run(capsys, "verify-gaussian", path, "--outcomes", "0,0;1,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "NONZERO_DISCORD"
        assert float(doc["witnesses"]["separation"]) > 0.1
        assert doc["witnesses"]["cov_block_decision"]["zero_discord"] is False

    def test_thermal_product_consistent(self, capsys, workdir):
        path = write_fixture(workdir / "thermal_product.state",
                             statefile.gaussian_doc(gaussian.thermal_product(0.5, 1.5)))
        code, out, _ = run(capsys, "verify-gaussian", path, "--outcomes", "0,0;1,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "CONSISTENT_WITH_ZERO"
        assert float(doc["witnesses"]["separation"]) == 0.0
        assert doc["witnesses"]["cov_block_decision"]["zero_discord"] is True

    def test_degenerate_outcomes_exit_2(self, capsys, workdir):
        path = write_fixture(workdir / "t.state",
                             statefile.gaussian_doc(gaussian.two_mode_squeezed_vacuum(0.5)))
        code, _, err = run(capsys, "verify-gaussian", path, "--outcomes", "0,0;1,0")
        assert code == 2
        assert "quadrature" in err

    def test_tiny_outcome_shift_still_detects(self, capsys, workdir):
        # the decision is on the peak shift per unit outcome shift, so it
        # does not fade with the distance between the outcomes
        path = write_fixture(workdir / "tmsv_r05.state",
                             statefile.gaussian_doc(gaussian.two_mode_squeezed_vacuum(0.5)))
        code, out, _ = run(capsys, "verify-gaussian", path,
                           "--outcomes", "0,0;1e-300,1e-300")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "NONZERO_DISCORD"
        assert doc["witnesses"]["cov_block_decision"]["zero_discord"] is False

    def test_leading_minus_outcomes_in_the_equals_form(self, capsys, workdir):
        # after a space argparse reads "-1,-1;..." as an option, so the help
        # text shows the --outcomes=... form, which takes it
        path = write_fixture(workdir / "tmsv_r05.state",
                             statefile.gaussian_doc(gaussian.two_mode_squeezed_vacuum(0.5)))
        code, out, _ = run(capsys, "verify-gaussian", path, "--outcomes=-1,-1;1.3,0.4")
        assert code == 0
        assert json.loads(out)["verdict"] == "NONZERO_DISCORD"
        with pytest.raises(SystemExit):
            main(["verify-gaussian", "--help"])
        assert "--outcomes='x1,p1;x2,p2'" in capsys.readouterr().out

    @pytest.mark.parametrize("outcomes", ["1e308,1e308;-1e308,-1e308", "nan,0;1,1"],
                             ids=["difference_overflows", "nan"])
    def test_non_finite_outcomes_exit_2(self, capsys, workdir, outcomes):
        # an infinite outcome shift would make every peak shift per unit
        # read 0, and so CONSISTENT_WITH_ZERO on an entangled state
        path = write_fixture(workdir / "tmsv_r05.state",
                             statefile.gaussian_doc(gaussian.two_mode_squeezed_vacuum(0.5)))
        code, out, err = run(capsys, "verify-gaussian", path, "--outcomes", outcomes)
        assert code == 2
        assert out == ""
        assert "error: outcomes and their differences must be finite" in err

    def test_unphysical_file_is_refused_at_load(self, capsys, workdir):
        # I/8 is below the vacuum; the file is refused as an invalid dv_density is
        path = write_fixture(workdir / "subvacuum.state", statefile.gaussian_doc(
            SimpleNamespace(mean=np.zeros(4), cov=np.eye(4) / 8)))
        code, out, err = run(capsys, "verify-gaussian", path, "--outcomes", "0,0;1,1")
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: invalid gaussian payload: "
                       "covariance violates the uncertainty constraint\n")

    def test_golden(self, capsys, workdir):
        path = write_fixture(workdir / "g.state",
                             statefile.gaussian_doc(gaussian.two_mode_squeezed_vacuum(0.3)))
        _, out1, _ = run(capsys, "verify-gaussian", path, "--outcomes", "0.5,-0.25;1,1")
        _, out2, _ = run(capsys, "verify-gaussian", path, "--outcomes", "0.5,-0.25;1,1")
        assert out1 == out2


class TestMoyal:
    @pytest.fixture()
    def fock_files(self, workdir):
        a = write_fixture(workdir / "fock0.state",
                          statefile.dv_density_doc(
                              DensityOperator(fock_state(0, 8)), fock_cutoff=8))
        b = write_fixture(workdir / "plus01.state",
                          statefile.dv_density_doc(
                              DensityOperator(pure_state([1, 1], 8)), fock_cutoff=8))
        return a, b

    def test_identical_grids_zero(self, capsys, fock_files):
        a, _ = fock_files
        code, out, _ = run(capsys, "moyal", a, a, "--points", "48")
        assert code == 0
        doc = json.loads(out)
        assert float(doc["witnesses"]["grid_max_abs"]) <= 1e-9

    def test_fock_fixture_max_matches_fock_oracle(self, capsys, fock_files):
        a, b = fock_files
        code, out, _ = run(capsys, "moyal", a, b, "--points", "64")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "NONZERO_DISCORD"
        # reference route: commute in Fock space, transform, take the max
        from qdverify.phasespace import grid_max_abs, square_geometry, wigner_from_fock
        vac = fock_state(0, 8)
        plus = pure_state([1, 1], 8)
        ref = wigner_from_fock(-1j * (vac @ plus - plus @ vac), square_geometry(6.0, 64))
        ref_max, _ = grid_max_abs(ref)
        assert float(doc["witnesses"]["grid_max_abs"]) == pytest.approx(ref_max,
                                                                        abs=1e-3)
        emitted = doc["witnesses"]["emitted_grid"]
        assert os.path.exists(emitted)
        grid = statefile.load(emitted)
        assert grid.kind == "wigner_grid"

    def test_vacuum_with_itself_exactly_zero_on_a_coarse_grid(self, capsys, fock_files):
        # the star product of the 16-point vacuum grid with itself aliases
        # to 0.02; Fock inputs are commuted in Fock space
        a, _ = fock_files
        code, out, _ = run(capsys, "moyal", a, a, "--points", "16")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "CONSISTENT_WITH_ZERO"
        assert float(doc["witnesses"]["grid_max_abs"]) == 0.0
        grid = statefile.load(doc["witnesses"]["emitted_grid"]).payload
        assert not np.any(grid.values)

    def test_mixed_cutoffs_match_the_padded_pair(self, capsys, workdir, fock_files):
        _, plus8 = fock_files
        vac12 = write_fixture(workdir / "fock0_12.state", statefile.dv_density_doc(
            DensityOperator(fock_state(0, 12)), fock_cutoff=12))
        plus12 = write_fixture(workdir / "plus01_12.state", statefile.dv_density_doc(
            DensityOperator(pure_state([1, 1], 12)), fock_cutoff=12))
        grids = []
        for first in (plus8, plus12):
            code, out, _ = run(capsys, "moyal", first, vac12, "--points", "32",
                               "--out", "grid.json")
            assert code == 0
            assert json.loads(out)["verdict"] == "NONZERO_DISCORD"
            grids.append(statefile.load("grid.json").payload.values)
        np.testing.assert_array_equal(grids[0], grids[1])

    def test_fock_tail_exit_2(self, capsys, workdir, fock_files):
        # either input's tail is refused, though its commutator with the
        # vacuum is zero, and named, beside a Fock partner or a grid
        a, _ = fock_files
        top = write_fixture(workdir / "fock7.state", statefile.dv_density_doc(
            DensityOperator(fock_state(7, 8)), fock_cutoff=8))
        grid = self.grid_file(workdir, "vac48.state", fock_state(0, 8),
                              phasespace.square_geometry(6.0, 48))
        for pair in ((a, top), (top, a), (grid, top), (top, grid)):
            code, out, err = run(capsys, "moyal", *pair, "--points", "16")
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: {top}: tail mass ")
            assert err.count("\n") == 1

    def test_cutoff_not_matching_the_matrix_exit_2(self, capsys, workdir, fock_files):
        # a 9x9 matrix tagged with cutoff 5; the refusal names the file
        a, _ = fock_files
        doc = statefile.dv_density_doc(DensityOperator(fock_state(0, 8)))
        doc["fock_cutoff"] = 5
        bad = write_fixture(workdir / "bad.state", doc)
        # the loader refuses the tag, so verify-dv and tomo do as moyal does
        for argv in (("moyal", a, bad), ("moyal", bad, a), ("verify-dv", bad), ("tomo", bad)):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err == (f"error: {bad}: matrix shape (9, 9) does not match "
                           "fock_cutoff 5\n")

    def test_geometry_mismatch_exit_2(self, capsys, workdir, fock_files):
        a, b = fock_files
        from qdverify.phasespace import square_geometry, wigner_from_fock
        g1 = wigner_from_fock(fock_state(0, 8), square_geometry(6.0, 32))
        g2 = wigner_from_fock(fock_state(1, 8), square_geometry(6.0, 48))
        p1 = write_fixture(workdir / "g1.state", statefile.wigner_grid_doc(g1))
        p2 = write_fixture(workdir / "g2.state", statefile.wigner_grid_doc(g2))
        code, out, err = run(capsys, "moyal", p1, p2)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {p1} and {p2} are grids of different geometry")
        assert err.count("\n") == 1

    def test_wigner_grid_inputs_with_stderr(self, capsys, workdir):
        from qdverify.phasespace import square_geometry, wigner_from_fock
        geom = square_geometry(6.0, 48)
        g1 = wigner_from_fock(fock_state(0, 8), geom)
        g2 = wigner_from_fock(pure_state([1, 1], 8), geom)
        p1 = write_fixture(workdir / "w1.state",
                           statefile.wigner_grid_doc(replace(g1, value_stderr=1e-5)))
        p2 = write_fixture(workdir / "w2.state",
                           statefile.wigner_grid_doc(replace(g2, value_stderr=1e-5)))
        code, out, _ = run(capsys, "moyal", p1, p2)
        assert code == 0
        doc = json.loads(out)
        assert doc["witnesses"]["significant"] is True
        assert float(doc["witnesses"]["uncertainty_band"]) > 0

    @pytest.mark.parametrize("stderr, message", [
        (-1e-6, "{noisy}: invalid wigner_grid payload: value_stderr -1e-06 is not finite "
                "and >= 0"),
        (1e308, "{noisy} and {exact}: their uncertainty band is inf"),
    ], ids=["negative", "overflowing_band"])
    def test_refused_value_stderr_exit_2_without_a_grid_file(self, capsys, workdir,
                                                             stderr, message):
        # a negative error once set a negative band, reported significant
        # beside CONSISTENT_WITH_ZERO; an infinite band was refused only by
        # the report, after the grid file had been written
        vac = phasespace.wigner_from_fock(fock_state(0, 8), phasespace.square_geometry(6.0, 48))
        exact = write_fixture(workdir / "vac48.state", statefile.wigner_grid_doc(vac))
        doc = statefile.wigner_grid_doc(vac)
        doc["value_stderr"] = stderr
        noisy = write_fixture(workdir / "noisy.state", doc)
        code, out, err = run(capsys, "moyal", noisy, exact, "--out", "c.json")
        assert (code, out) == (2, "")
        assert err == "error: " + message.format(noisy=noisy, exact=exact) + "\n"
        assert not (workdir / "c.json").exists()

    @pytest.mark.parametrize("stderr, message", [
        (-1e-6, "invalid wigner_grid payload: value_stderr -1e-06 is not finite and >= 0"),
        (True, "bad float value True"),
    ], ids=["negative", "json_true"])
    def test_a_bad_second_input_is_named(self, capsys, workdir, stderr, message):
        # a load error once named neither file, and a JSON true loaded as 1.0
        vac = phasespace.wigner_from_fock(fock_state(0, 8), phasespace.square_geometry(6.0, 48))
        exact = write_fixture(workdir / "vac48.state", statefile.wigner_grid_doc(vac))
        doc = json.loads(statefile.render(statefile.wigner_grid_doc(vac)))
        doc["value_stderr"] = stderr
        (workdir / "noisy.state").write_text(json.dumps(doc))
        code, out, err = run(capsys, "moyal", exact, "noisy.state")
        assert (code, out) == (2, "")
        assert err == f"error: noisy.state: {message}\n"

    def test_an_unreadable_input_is_not_named_twice(self, capsys, workdir):
        # "cannot read" names the path itself and takes no prefix
        code, out, err = run(capsys, "moyal", "missing.state", "missing.state")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read missing.state: ")

    @staticmethod
    def grid_file(workdir, name, op, geom):
        grid = phasespace.wigner_from_fock(op, geom)
        return write_fixture(workdir / name, statefile.wigner_grid_doc(grid))

    def test_mixed_pair_at_default_flags_runs_on_the_grid_geometry(self, capsys, workdir,
                                                                    fock_files):
        # the Fock partner is transformed on the grid's 48 points, so the
        # default --points (128) gives what --points 48 gives
        _, plus = fock_files
        grid = self.grid_file(workdir, "vac48.state", fock_state(0, 8),
                              phasespace.square_geometry(6.0, 48))
        runs = []
        for flags in ((), ("--points", "48")):
            code, out, err = run(capsys, "moyal", grid, plus, "--out", "mixed.json", *flags)
            assert (code, err) == (0, "")
            runs.append((out, (workdir / "mixed.json").read_text()))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][0])["verdict"] == "NONZERO_DISCORD"

    @pytest.mark.parametrize("partner", ["plus48.state", "plus01.state"],
                             ids=["grid_pair", "mixed_pair"])
    def test_grid_flags_are_not_read_beside_a_grid(self, capsys, workdir, fock_files,
                                                  partner):
        # a grid input sets the geometry, so flags that a Fock pair refuses
        # (test_one_point_grid_exit_2, test_non_finite_fock_grid_exit_2) change
        # neither the report nor the grid
        geom = phasespace.square_geometry(6.0, 48)
        vac = self.grid_file(workdir, "vac48.state", fock_state(0, 8), geom)
        self.grid_file(workdir, "plus48.state", pure_state([1, 1], 8), geom)
        runs = []
        for flags in ((), ("--points", "1"), ("--extent", "inf")):
            code, out, err = run(capsys, "moyal", vac, partner, "--out", "c.json", *flags)
            assert (code, err) == (0, "")
            runs.append((out, (workdir / "c.json").read_text()))
        assert runs[1:] == runs[:1] * 2
        assert json.loads(runs[0][0])["verdict"] == "NONZERO_DISCORD"

    def test_unresolved_vacuum_grid_exit_2(self, capsys, workdir, fock_files):
        # the star product of the 16-point vacuum grid with itself aliases
        # to 0.02; alone or with a Fock partner, the grid is refused
        vac, _ = fock_files
        grid = self.grid_file(workdir, "vac16.state", fock_state(0, 8),
                              phasespace.square_geometry(6.0, 16))
        for argv in ((grid, grid), (grid, vac, "--points", "16")):
            code, out, err = run(capsys, "moyal", *argv)
            assert code == 2
            assert out == ""
            assert "vac16.state: the grid cannot resolve this input" in err

    @pytest.mark.parametrize("extent", [4.5, 3.0])
    def test_box_too_small_for_commuting_states_exit_2(self, capsys, workdir, extent):
        # two diagonal states commute; in a box this small their star
        # product does not (1.7e-8 at extent 4.5, 2.6e-3 at extent 3)
        geom = phasespace.square_geometry(extent, 128)
        paths = [self.grid_file(workdir, f"diag{seed}.state",
                                random_diagonal_fock(12, seed), geom) for seed in (1, 2)]
        code, out, err = run(capsys, "moyal", *paths)
        assert code == 2
        assert out == ""
        assert "cannot resolve" in err

    def test_resolved_exact_grids_nonzero(self, capsys, workdir):
        geom = phasespace.square_geometry(6.0, 48)
        paths = [self.grid_file(workdir, name, op, geom)
                 for name, op in (("vac48.state", fock_state(0, 8)),
                                  ("plus48.state", pure_state([1, 1], 8)))]
        code, out, _ = run(capsys, "moyal", *paths)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "NONZERO_DISCORD"
        assert float(doc["witnesses"]["grid_max_abs"]) > 0.3

    def test_one_point_grid_exit_2(self, capsys, fock_files):
        a, b = fock_files
        code, out, err = run(capsys, "moyal", a, b, "--points", "1")
        assert (code, out) == (2, "")
        assert err == "error: grid needs at least 2 points per axis\n"

    def test_oversized_fock_grid_exit_2(self, capsys, fock_files):
        # far beyond any machine: the admission check refuses before numpy
        # is asked for the grid
        a, _ = fock_files
        code, out, err = run(capsys, "moyal", a, a, "--points", "100000")
        assert code == 2
        assert out == ""
        assert "physical memory" in err

    def test_oversized_wigner_grid_file_exit_2(self, capsys, workdir, monkeypatch):
        geom = phasespace.square_geometry(6.0, 16)
        grid = phasespace.wigner_from_fock(fock_state(0, 8), geom)
        path = write_fixture(workdir / "w.state", statefile.wigner_grid_doc(grid))
        # MOYAL_GRID_ARRAYS * 16^2 complex entries need 98304 bytes; pretend
        # there is less
        monkeypatch.setattr(linalg, "physical_memory_bytes", lambda: 98303)
        code, out, err = run(capsys, "moyal", path, path)
        assert code == 2
        assert out == ""
        assert "16x16 grid" in err
        monkeypatch.setattr(linalg, "physical_memory_bytes", lambda: 98304)
        code, _, err = run(capsys, "moyal", path, path)
        # admitted; the 16-point vacuum grid is then refused as unresolved
        assert code == 2
        assert "physical memory" not in err
        assert "cannot resolve" in err

    @pytest.fixture()
    def finite_grid_max_abs(self, monkeypatch):
        """grid_max_abs that fails the test when handed a non-finite grid."""
        inner = phasespace.grid_max_abs

        def checked(g):
            assert np.all(np.isfinite(g.values))
            return inner(g)
        monkeypatch.setattr(phasespace, "grid_max_abs", checked)

    @pytest.mark.parametrize("extent, message", [
        ("1e200", "non-finite grid values"),
        ("inf", "non-finite grid bounds or step"),
    ])
    def test_non_finite_fock_grid_exit_2(self, capsys, fock_files, finite_grid_max_abs,
                                         extent, message):
        # at 1e200 the grid is finite but |beta|^2 overflows in the series,
        # and the refusal names both files and the grid; the error is the
        # only line on stderr, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "moyal", *fock_files, "--extent", extent)
        assert code == 2
        assert out == ""
        if extent == "1e200":
            message = (f"{fock_files[0]} and {fock_files[1]}: {message} on GridGeometry("
                       "x_min=-1e+200, x_max=1e+200, p_min=-1e+200, p_max=1e+200, "
                       "nx=128, np=128)")
        assert err == f"error: {message}\n"

    def test_commuting_fock_pair_on_a_huge_extent_is_exactly_zero(self, capsys, workdir):
        # the commutator of two Fock-diagonal states is the zero matrix, whose
        # series sums nothing, so no overflow can reach the grid; the
        # non-commuting pair above still overflows and exits 2
        paths = [write_fixture(workdir / f"diag{seed}.state", statefile.dv_density_doc(
                     DensityOperator(random_diagonal_fock(8, seed)), fock_cutoff=8))
                 for seed in (1, 2)]
        code, out, err = run(capsys, "moyal", *paths, "--extent", "1e200", "--points", "16")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["verdict"] == "CONSISTENT_WITH_ZERO"
        grid = statefile.load(doc["witnesses"]["emitted_grid"]).payload
        assert grid.values.shape == (16, 16) and not np.any(grid.values)

    def test_overflowing_wigner_grid_exit_2(self, capsys, workdir, finite_grid_max_abs):
        values = np.zeros((16, 16))
        values[1:-1, 1:-1] = 1e300     # zero edges pass the box check
        values[::2] *= -1
        grid = phasespace.WignerGrid(phasespace.square_geometry(6.0, 16), values)
        path = write_fixture(workdir / "huge.state", statefile.wigner_grid_doc(grid))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "moyal", path, path)
        assert code == 2
        assert out == ""
        assert err == "error: non-finite grid values\n"

    def test_golden(self, capsys, fock_files):
        a, b = fock_files
        _, out1, _ = run(capsys, "moyal", a, b, "--points", "48")
        _, out2, _ = run(capsys, "moyal", a, b, "--points", "48")
        assert out1 == out2


class TestTomo:
    def test_bell_detected_and_replay(self, capsys, bell_file):
        code, out, _ = run(capsys, "tomo", bell_file, "--shots", "100000",
                           "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "NONZERO_DISCORD"
        assert float(doc["witnesses"]["z_score"]) > 5
        record_path = doc["emitted_record"]
        assert os.path.exists(record_path)

        code2, out2, _ = run(capsys, "tomo", record_path)
        assert code2 == 0
        replay = json.loads(out2)
        assert replay["witnesses"] == doc["witnesses"]
        assert replay["verdict"] == doc["verdict"]

    def test_replay_reports_no_povm_seed(self, capsys, workdir):
        # a replay's POVMs come from the record, which input_digest covers
        path = write_fixture(workdir / "qutrit_qubit.state",
                             statefile.dv_density_doc(random_bipartite_state(0, 3, 2)))
        code, out, _ = run(capsys, "tomo", path, "--povm-seed", "7", "--shots", "500",
                           "--record-out", "record.json")
        assert code == 0
        assert json.loads(out)["seeds"]["povm_seed"] == 7
        code, out, _ = run(capsys, "tomo", "record.json")
        assert code == 0
        assert json.loads(out)["seeds"]["povm_seed"] is None

    def test_product_consistent(self, capsys, product_file):
        code, out, _ = run(capsys, "tomo", product_file, "--shots", "100000",
                           "--seed", "1")
        assert code == 0
        assert json.loads(out)["verdict"] == "CONSISTENT_WITH_ZERO"

    def test_zero_shots_exit_2(self, capsys, bell_file):
        code, _, err = run(capsys, "tomo", bell_file, "--shots", "0")
        assert code == 2
        assert "no counts" in err

    def test_negative_shots_exit_2(self, capsys, bell_file):
        code, _, err = run(capsys, "tomo", bell_file, "--shots", "-5")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("state, flags", [
        ("qutrit_file", ["--seed", "-1"]), ("qutrit_file", ["--povm-seed", "-5"]),
        ("qutrit_file", ["--shots", "10000000000000000000"]),
        ("bell_file", ["--povm-seed", "-3"]), ("qubit_qutrit_file", ["--povm-seed", "-1"]),
    ], ids=["negative_seed", "negative_povm_seed", "shots_past_int64",
            "qubit_negative_povm_seed", "qubit_qutrit_negative_povm_seed"])
    def test_seed_and_shots_out_of_range_exit_2(self, capsys, request, state, flags):
        code, out, err = run(capsys, "tomo", request.getfixturevalue(state), *flags)
        assert code == 2
        assert out == ""
        assert "error:" in err
        assert not any(f.endswith(".shots.json") for f in os.listdir("."))

    def test_record_not_complete_on_a_exit_2(self, capsys, workdir, bell, sic):
        # the maximally entangled state measured in the computational basis
        # on A: its two conditionals commute, and the replay once read
        # CONSISTENT_WITH_ZERO (z = 0.64 at seed 0)
        z_basis = Povm(2, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        path = write_fixture(workdir / "z_basis.shots.json", statefile.shot_record_doc(
            tomo.sample_joint(bell, z_basis, sic, 100000, seed=0)))
        code, out, err = run(capsys, "tomo", path)
        assert (code, out) == (2, "")
        assert err == "error: the POVM on A is not informationally complete\n"
        assert os.listdir(".") == ["z_basis.shots.json"]

    def test_record_with_negative_seed_exit_2(self, capsys, workdir, sic):
        # the seed is provenance only, but no sampling run writes a negative one
        doc = statefile.shot_record_doc(tomo.ShotRecord(sic, sic, np.ones((4, 4), int), 16, 0))
        doc["seed"] = -1
        path = write_fixture(workdir / "negative_seed.shots.json", doc)
        code, out, err = run(capsys, "tomo", path)
        assert code == 2
        assert out == ""
        assert "seed" in err

    @pytest.mark.parametrize("resamples", ["-1", "1000000000000"])
    def test_resamples_is_accepted_and_ignored(self, capsys, workdir, sic, bell_file,
                                               resamples):
        # the benchmark's tomo command line still passes --resamples; identical
        # rows once sent their pairs to a bootstrap that refused both values
        flat = write_fixture(workdir / "flat.shots.json", statefile.shot_record_doc(
            tomo.ShotRecord(sic, sic, np.full((4, 4), 25), 400, 0)))
        for path in (flat, bell_file):
            plain = run(capsys, "tomo", path, "--record-out", "plain.json")
            given = run(capsys, "tomo", path, "--record-out", "plain.json",
                        "--resamples", resamples)
            assert given == plain and plain[0] == 0
        assert json.loads(plain[1])["verdict"] == "NONZERO_DISCORD"

    def test_oversized_significance_sweep_exit_2(self, capsys, bell_file, monkeypatch):
        # 6 SIC pairs over 4 B effects of a qubit need 16 * 6 * 4 * 4 = 1536
        # bytes; pretend there is less, and fail if the sweep is reached
        inner = tomo._norm_gradients
        monkeypatch.setattr(tomo, "_norm_gradients", lambda *a: pytest.fail("allocated"))
        monkeypatch.setattr(linalg, "physical_memory_bytes", lambda: 1535)
        code, out, err = run(capsys, "tomo", bell_file)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "physical memory" in err
        assert not os.path.exists(bell_file + ".shots.json")
        monkeypatch.setattr(tomo, "_norm_gradients", inner)
        monkeypatch.setattr(linalg, "physical_memory_bytes", lambda: 1536)
        code, out, _ = run(capsys, "tomo", bell_file)
        assert code == 0
        assert json.loads(out)["verdict"] == "NONZERO_DISCORD"

    def test_oversized_random_povm_exit_2(self, capsys, qutrit_file, monkeypatch):
        # a qutrit's random POVM is admitted at twelve stacks of its 9 effects,
        # 12 * 16 * 9 * 9 = 15552 bytes; pretend there is less, and fail if
        # anything is drawn
        inner = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("allocated"))
        monkeypatch.setattr(linalg, "physical_memory_bytes", lambda: 15551)
        code, out, err = run(capsys, "tomo", qutrit_file)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "9 effects on a 3-level system" in err
        assert "physical memory" in err
        assert not os.path.exists(qutrit_file + ".shots.json")
        # at 15552 bytes both POVMs are built, and the significance test is refused
        monkeypatch.setattr(np.random, "default_rng", inner)
        monkeypatch.setattr(linalg, "physical_memory_bytes", lambda: 15552)
        code, out, err = run(capsys, "tomo", qutrit_file)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "the significance test" in err

    def test_golden(self, capsys, bell_file):
        _, out1, _ = run(capsys, "tomo", bell_file, "--shots", "20000", "--seed", "3")
        _, out2, _ = run(capsys, "tomo", bell_file, "--shots", "20000", "--seed", "3")
        assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("moyal", "fock0.state", "fock0.state", "--points", "16", "--out", "missing/x.json"),
    ("tomo", "bell2.state", "--record-out", "missing/x.json"),
    ("tomo", "bell2.state", "--record-out", "."),
])
def test_unwritable_output_path_exit_2(capsys, workdir, bell, argv):
    # an OSError from the writer was once a traceback with exit 1
    write_fixture(workdir / "bell2.state", statefile.dv_density_doc(bell))
    write_fixture(workdir / "fock0.state", statefile.dv_density_doc(
        DensityOperator(fock_state(0, 8)), fock_cutoff=8))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {argv[-1]}: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", sorted(STRING_ROW_DOCUMENTS))
def test_string_rows_exit_2(capsys, workdir, name):
    doc = STRING_ROW_DOCUMENTS[name]
    (workdir / "s.state").write_text(json.dumps(doc))
    argv = (["moyal", "s.state", "s.state"] if doc["kind"] == "wigner_grid"
            else ["verify-gaussian", "s.state", "--outcomes", "0,0;1,1"])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be a non-empty list" in err      # refused as read, not by a later check


@pytest.mark.parametrize("argv, name", [
    (["verify-dv", "cq.state", "--threshold", "-1"], "threshold"),
    (["verify-dv", "cq.state", "--threshold", "nan"], "threshold"),
    (["tomo", "cq.state", "--shots", "1000", "--z", "-1"], "z"),
    (["tomo", "cq.state", "--z", "inf"], "z"),
    (["tomo", "cq.state", "--z", "nan"], "z"),
    (["verify-gaussian", "tmsv.state", "--outcomes", "0,0;1,1", "--tol", "-1"], "tol"),
    (["verify-gaussian", "tmsv.state", "--outcomes", "0,0;1,1", "--tol", "inf"], "tol"),
], ids=["dv_negative", "dv_nan", "tomo_negative", "tomo_inf", "tomo_nan",
        "gaussian_negative", "gaussian_inf"])
def test_negative_or_non_finite_threshold_exit_2(capsys, workdir, argv, name):
    # a negative threshold flags the zero-discord state; a NaN or infinite
    # one flags nothing
    write_fixture(workdir / "cq.state",
                  statefile.dv_density_doc(dv.generate_zero_discord(2, 2, 0)))
    write_fixture(workdir / "tmsv.state",
                  statefile.gaussian_doc(gaussian.two_mode_squeezed_vacuum(0.5)))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} must be finite and nonnegative")
    assert err.count("\n") == 1
    assert not os.path.exists("cq.state.shots.json")    # no record of a refused run


def test_cli_import_does_not_load_scipy(tmp_path):
    # the package needs numpy only: neither importing the CLI nor running
    # the phase-space route on Fock inputs loads scipy
    a = write_fixture(tmp_path / "fock0.state", statefile.dv_density_doc(
        DensityOperator(fock_state(0, 8)), fock_cutoff=8))
    b = write_fixture(tmp_path / "plus01.state", statefile.dv_density_doc(
        DensityOperator(pure_state([1, 1], 8)), fock_cutoff=8))
    code = ("import sys, qdverify.cli; "
            f"code = qdverify.cli.main(['moyal', {a!r}, {b!r}, '--points', '16']); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=tmp_path,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "0 []"


def test_verifiers_do_not_load_openssl(tmp_path):
    # the input digest uses the interpreter's own SHA-256, so a command that
    # draws no random numbers never imports hashlib's OpenSSL module; all
    # commands run in one fresh interpreter, each checked right after it ran
    golden = Path(__file__).parent / "golden"
    commands = [["verify-dv", str(golden / "classical.state")],
                ["verify-dv", str(golden / "classical3.state")],
                ["verify-gaussian", str(golden / "thermal.state"),
                 "--outcomes=-1,0.5;1.3,-0.25"],
                ["moyal", str(golden / "f0.state"), str(golden / "f0.state"),
                 "--out", str(tmp_path / "f0__f0.json")],
                ["tomo", str(golden / "shot_record.state")]]
    code = ("import contextlib, io, sys, qdverify.cli\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = qdverify.cli.main(argv)\n"
            "    print(argv[0], code, '_hashlib' in sys.modules)")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, cwd=tmp_path, capture_output=True, text=True).stdout
    assert out.splitlines() == [f"{argv[0]} 0 False" for argv in commands]


def _overflow_inputs(workdir):
    """Inputs whose Hermiticity or symmetry defect overflows to inf: a 1x2
    dv_density and a gaussian covariance with an off-diagonal pair of
    +-1.7e308, and a shot record whose first A effect has such a pair."""
    golden = Path(__file__).parent / "golden"
    big = "1.7e308"
    (workdir / "overflow_dv.state").write_text(json.dumps({
        "format_version": "1", "kind": "dv_density", "dim": 2, "bipartition": [1, 2],
        "matrix": [[["0.5", "0"], [big, "0"]], [["-" + big, "0"], ["0.5", "0"]]]}))
    doc = json.loads((golden / "gaussian.state").read_text())
    doc["cov"][0][3], doc["cov"][3][0] = "1.797e308", "-1.797e308"
    (workdir / "overflow_gaussian.state").write_text(json.dumps(doc))
    doc = json.loads((golden / "shot_record.state").read_text())
    effect = doc["povm_a"]["effects"][0]
    effect[0][1], effect[1][0] = [big, "0"], ["-" + big, "0"]
    (workdir / "overflow_record.state").write_text(json.dumps(doc))


@pytest.mark.parametrize("argv, message", [
    (["verify-dv", "overflow_dv.state"], "density operator not Hermitian: inf"),
    (["tomo", "overflow_dv.state"], "density operator not Hermitian: inf"),
    (["verify-gaussian", "overflow_gaussian.state", "--outcomes", "0,0;1,1"],
     "covariance matrix is not symmetric"),
    (["tomo", "overflow_record.state"], "effect 0 is not Hermitian"),
], ids=["verify_dv", "tomo", "verify_gaussian", "tomo_replay"])
def test_an_overflowing_hermitian_defect_exits_2_with_one_stderr_line(workdir, argv,
                                                                      message):
    # run in a fresh interpreter with default warning filters: a RuntimeWarning
    # would print two lines of its own before the refusal
    _overflow_inputs(workdir)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-m", "qdverify.cli", *argv], env=env,
                          cwd=workdir, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"error: {argv[1]}: ")
    assert proc.stderr.rstrip().endswith(message)


def _solver_calls(monkeypatch, capsys, *argv):
    """(hermitian_eig calls, numpy.linalg.eigh calls) made by one successful
    CLI run, hermitian_eig counted in every qdverify module that holds it."""
    solve, eigh, calls = linalg.hermitian_eig, np.linalg.eigh, []

    def counting(f, name):
        def counted(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return counted

    with monkeypatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qdverify" and getattr(module, "hermitian_eig", None) is solve:
                patch.setattr(module, "hermitian_eig", counting(solve, "hermitian_eig"))
        patch.setattr(np.linalg, "eigh", counting(eigh, "eigh"))
        code, _, err = run(capsys, *argv)
    assert code == 0, err
    return calls.count("hermitian_eig"), calls.count("eigh")


def _eigensolves(monkeypatch, capsys, *argv):
    """Calls of the one eigensolver made by one successful CLI run."""
    return _solver_calls(monkeypatch, capsys, *argv)[0]


@pytest.mark.parametrize("runs", [
    pytest.param([["verify-dv", "bell2.state"]], id="verify_dv_sic"),
    pytest.param([["verify-dv", "rho3.state"]], id="verify_dv_mub"),
    pytest.param([["verify-dv", "rho3.state", "--povm", "random"]], id="verify_dv_random"),
    pytest.param([["tomo", "bell2.state", "--shots", "1000"], ["tomo", "bell2.state.shots.json"]],
                 id="tomo_2x2"),
    pytest.param([["tomo", "rho3.state", "--shots", "1000"], ["tomo", "rho3.state.shots.json"]],
                 id="tomo_3x3"),
    pytest.param([["verify-gaussian", "g.state", "--outcomes", "0,0;1,1"]], id="verify_gaussian"),
    pytest.param([["moyal", "fock0.state", "plus01.state", "--points", "16"]], id="moyal_fock"),
])
def test_every_eigh_call_goes_through_hermitian_eig(capsys, workdir, monkeypatch, bell, runs):
    write_fixture(workdir / "bell2.state", statefile.dv_density_doc(bell))
    write_fixture(workdir / "rho3.state",
                  statefile.dv_density_doc(random_bipartite_state(3, 3, 3)))
    write_fixture(workdir / "g.state",
                  statefile.gaussian_doc(gaussian.two_mode_squeezed_vacuum(0.5)))
    for name, op in (("fock0.state", fock_state(0, 8)), ("plus01.state", pure_state([1, 1], 8))):
        write_fixture(workdir / name,
                      statefile.dv_density_doc(DensityOperator(op), fock_cutoff=8))
    for argv in runs:
        solves, eighs = _solver_calls(monkeypatch, capsys, *argv)
        assert solves == eighs > 0


@pytest.mark.parametrize("rho", [
    pytest.param(lambda: dv.generate_zero_discord(3, 3, 11), id="zero_discord"),
    pytest.param(lambda: dv.generate_maximally_entangled(3), id="maximally_entangled"),
])
def test_verify_dv_eigensolves_state_povm_and_conditionals_once(capsys, workdir,
                                                                monkeypatch, rho):
    # the anchor and its gap read the conditionals' validated spectrum
    path = write_fixture(workdir / "rho.state", statefile.dv_density_doc(rho()))
    assert _eigensolves(monkeypatch, capsys, "verify-dv", path) == 3


def test_tomo_eigensolves_each_stack_once(capsys, workdir, monkeypatch):
    # the state (sampling only), both POVMs, both frame operators (B's for
    # its duals, A's for its completeness) and the projection to states; the
    # projected estimates are not validated again
    path = write_fixture(workdir / "rho.state",
                         statefile.dv_density_doc(random_bipartite_state(3)))
    assert _eigensolves(monkeypatch, capsys, "tomo", path, "--shots", "1000") == 6
    assert _eigensolves(monkeypatch, capsys, "tomo", path + ".shots.json") == 5


@pytest.mark.parametrize("state", [
    pytest.param(lambda: gaussian.two_mode_squeezed_vacuum(0.5), id="tmsv"),
    pytest.param(lambda: gaussian.thermal_product(0.5, 1.5), id="product"),
])
def test_verify_gaussian_eigensolves_the_physicality_spectrum_once(capsys, workdir,
                                                                   monkeypatch, state):
    # the load's GaussianState checks physicality; nothing solves it again
    path = write_fixture(workdir / "g.state", statefile.gaussian_doc(state()))
    assert _eigensolves(monkeypatch, capsys, "verify-gaussian", path,
                        "--outcomes", "0,0;1,1") == 1
