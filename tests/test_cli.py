import json
import os
import subprocess
import sys
import warnings

import pytest

import numpy as np

from conftest import (STRING_ROW_DOCUMENTS, random_bipartite_state, random_diagonal_fock,
                      random_product_state)
from qdverify import dv, gaussian, phasespace, statefile, tomo
from qdverify.cli import main
from qdverify.linalg import DensityOperator
from qdverify.phasespace import fock_state, pure_state


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
def qutrit_file(workdir):
    # a qutrit A side takes a seeded random IC-POVM, not the SIC
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

    def test_golden_byte_identical(self, capsys, bell_file):
        _, out1, _ = run(capsys, "verify-dv", bell_file)
        _, out2, _ = run(capsys, "verify-dv", bell_file)
        assert out1 == out2


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
                              DensityOperator(fock_state(0, 8).matrix), fock_cutoff=8))
        b = write_fixture(workdir / "plus01.state",
                          statefile.dv_density_doc(
                              DensityOperator(pure_state([1, 1], 8).matrix), fock_cutoff=8))
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
        from qdverify.phasespace import (FockOperator, grid_max_abs,
                                         square_geometry, wigner_from_fock)
        vac = fock_state(0, 8).matrix
        plus = pure_state([1, 1], 8).matrix
        comm = -1j * (vac @ plus - plus @ vac)
        ref = wigner_from_fock(FockOperator(8, comm), square_geometry(6.0, 64))
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
            DensityOperator(fock_state(0, 12).matrix), fock_cutoff=12))
        plus12 = write_fixture(workdir / "plus01_12.state", statefile.dv_density_doc(
            DensityOperator(pure_state([1, 1], 12).matrix), fock_cutoff=12))
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
        # vacuum is zero
        a, _ = fock_files
        top = write_fixture(workdir / "fock7.state", statefile.dv_density_doc(
            DensityOperator(fock_state(7, 8).matrix), fock_cutoff=8))
        for pair in ((a, top), (top, a)):
            code, out, err = run(capsys, "moyal", *pair, "--points", "16")
            assert code == 2
            assert out == ""
            assert "tail mass" in err

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
                           statefile.wigner_grid_doc(g1, value_stderr=1e-5))
        p2 = write_fixture(workdir / "w2.state",
                           statefile.wigner_grid_doc(g2, value_stderr=1e-5))
        code, out, _ = run(capsys, "moyal", p1, p2)
        assert code == 0
        doc = json.loads(out)
        assert doc["witnesses"]["significant"] is True
        assert float(doc["witnesses"]["uncertainty_band"]) > 0

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
        code, _, err = run(capsys, "moyal", a, b, "--points", "1")
        assert code == 2
        assert "error:" in err

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
        monkeypatch.setattr(phasespace, "physical_memory_bytes", lambda: 98303)
        code, out, err = run(capsys, "moyal", path, path)
        assert code == 2
        assert out == ""
        assert "16x16 grid" in err
        monkeypatch.setattr(phasespace, "physical_memory_bytes", lambda: 98304)
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
        ("1e200", "non-finite commutator values"),
        ("inf", "non-finite grid bounds or step"),
    ])
    def test_non_finite_fock_grid_exit_2(self, capsys, fock_files, finite_grid_max_abs,
                                         extent, message):
        # at 1e200 the grid is finite but |beta|^2 overflows in the series;
        # the error is the only line on stderr, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "moyal", *fock_files, "--extent", extent)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_commuting_fock_pair_on_a_huge_extent_is_exactly_zero(self, capsys, workdir):
        # the commutator of two Fock-diagonal states is the zero matrix, whose
        # series sums nothing, so no overflow can reach the grid; the
        # non-commuting pair above still overflows and exits 2
        paths = [write_fixture(workdir / f"diag{seed}.state", statefile.dv_density_doc(
                     DensityOperator(random_diagonal_fock(8, seed).matrix), fock_cutoff=8))
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
        assert err == "error: non-finite commutator values\n"

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

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"], ["--povm-seed", "-5"], ["--shots", "10000000000000000000"],
    ], ids=["negative_seed", "negative_povm_seed", "shots_past_int64"])
    def test_seed_and_shots_out_of_range_exit_2(self, capsys, qutrit_file, flags):
        code, out, err = run(capsys, "tomo", qutrit_file, *flags)
        assert code == 2
        assert out == ""
        assert "error:" in err

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
        monkeypatch.setattr(tomo, "physical_memory_bytes", lambda: 1535)
        code, out, err = run(capsys, "tomo", bell_file)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "physical memory" in err
        assert not os.path.exists(bell_file + ".shots.json")
        monkeypatch.setattr(tomo, "_norm_gradients", inner)
        monkeypatch.setattr(tomo, "physical_memory_bytes", lambda: 1536)
        code, out, _ = run(capsys, "tomo", bell_file)
        assert code == 0
        assert json.loads(out)["verdict"] == "NONZERO_DISCORD"

    def test_golden(self, capsys, bell_file):
        _, out1, _ = run(capsys, "tomo", bell_file, "--shots", "20000", "--seed", "3")
        _, out2, _ = run(capsys, "tomo", bell_file, "--shots", "20000", "--seed", "3")
        assert out1 == out2


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


def test_fixture_dir_resolution(capsys, tmp_path, monkeypatch, bell):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    statefile.write(str(fixtures / "bell.state"), statefile.dv_density_doc(bell))
    monkeypatch.setenv(statefile.FIXTURE_DIR_ENV, str(fixtures))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify-dv", "bell.state")
    assert code == 0
    assert json.loads(out)["verdict"] == "NONZERO_DISCORD"


def test_cli_import_does_not_load_scipy(tmp_path):
    # the package needs numpy only: neither importing the CLI nor running
    # the phase-space route on Fock inputs loads scipy
    a = write_fixture(tmp_path / "fock0.state", statefile.dv_density_doc(
        DensityOperator(fock_state(0, 8).matrix), fock_cutoff=8))
    b = write_fixture(tmp_path / "plus01.state", statefile.dv_density_doc(
        DensityOperator(pure_state([1, 1], 8).matrix), fock_cutoff=8))
    code = ("import sys, qdverify.cli; "
            f"code = qdverify.cli.main(['moyal', {a!r}, {b!r}, '--points', '16']); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=tmp_path,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "0 []"
