import json
import os
import subprocess
import sys

import pytest

from conftest import random_product_state
from qdverify import dv, gaussian, statefile
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

    def test_geometry_mismatch_exit_2(self, capsys, workdir, fock_files):
        a, b = fock_files
        from qdverify.phasespace import square_geometry, wigner_from_fock
        g1 = wigner_from_fock(fock_state(0, 8), square_geometry(6.0, 32))
        g2 = wigner_from_fock(fock_state(1, 8), square_geometry(6.0, 48))
        p1 = write_fixture(workdir / "g1.state", statefile.wigner_grid_doc(g1))
        p2 = write_fixture(workdir / "g2.state", statefile.wigner_grid_doc(g2))
        code, _, err = run(capsys, "moyal", p1, p2)
        assert code == 2

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

    def test_one_point_grid_exit_2(self, capsys, fock_files):
        a, b = fock_files
        code, _, err = run(capsys, "moyal", a, b, "--points", "1")
        assert code == 2
        assert "error:" in err

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

    def test_golden(self, capsys, bell_file):
        _, out1, _ = run(capsys, "tomo", bell_file, "--shots", "20000", "--seed", "3")
        _, out2, _ = run(capsys, "tomo", bell_file, "--shots", "20000", "--seed", "3")
        assert out1 == out2


def test_fixture_dir_resolution(capsys, tmp_path, monkeypatch, bell):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    statefile.write(str(fixtures / "bell.state"), statefile.dv_density_doc(bell))
    monkeypatch.setenv(statefile.FIXTURE_DIR_ENV, str(fixtures))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify-dv", "bell.state")
    assert code == 0
    assert json.loads(out)["verdict"] == "NONZERO_DISCORD"


def test_cli_import_does_not_load_scipy():
    # scipy is needed only for Fock-space transforms and is imported there
    code = ("import sys, qdverify.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
