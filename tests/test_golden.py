"""Golden bytes of the file and report writer.

Every number here is exact: hand-chosen floats, SIC effects built from one
square root, a vacuum commuted with itself, a thermal product whose cross
block is zero, a classical state whose conditionals are all diagonal, and a
record whose present rows all read uniform frequencies. No platform's BLAS,
LAPACK or libm can move these bytes, so a test run that differs from golden/
has changed the format. The files under golden/ were written by these
builders and commands when each float was still formatted by a call of its
own (verify_dv.json and tomo.json, with their inputs, when each route still
returned a result record of its own), and every later writer has to
reproduce them byte for byte.
"""
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qdverify import gaussian, povm, statefile
from qdverify.cli import main
from qdverify.linalg import DensityOperator
from qdverify.phasespace import GridGeometry, WignerGrid, fock_state
from qdverify.tomo import ShotRecord

GOLDEN = Path(__file__).parent / "golden"
BIG = 1.7976931348623157e308

# report name -> (command line, files it writes)
REPORTS = {
    "moyal.json": (["moyal", "f0.state", "f0.state", "--points", "4"],
                   ["f0__f0.commutator.json"]),
    "gaussian.json": (["verify-gaussian", "thermal.state", "--outcomes=-1,0.5;1.3,-0.25"],
                      []),
    "verify_dv.json": (["verify-dv", "classical.state"], []),
    "tomo.json": (["tomo", "uniform_record.state"], []),
}


def documents() -> dict:
    """File name -> document: one of each kind from edge values, and the
    inputs of REPORTS."""
    edge = np.array([[-0.0, 5e-324, BIG], [-BIG, 1 / 3, 2.5]])
    matrix = edge[:, :2].astype(complex)
    matrix.imag = edge[:, 1:]
    cov = np.array([[1 / 3, -0.0, 5e-324, BIG],
                    [-0.0, 2.5, -BIG, 0.1],
                    [5e-324, -BIG, 1e-300, -1 / 3],
                    [BIG, 0.1, -1 / 3, 7.0]])
    sic = povm.sic_qubit()
    counts = np.array([[3, 0, 1, 2], [0, 5, 0, 0], [7, 1, 1, 0], [0, 0, 0, 4]])
    return {
        "dv_density.state": statefile.dv_density_doc(
            SimpleNamespace(dim=2, bipartition=(1, 2), matrix=matrix),
            fock_cutoff=1),
        "gaussian.state": statefile.gaussian_doc(
            gaussian.GaussianState(np.array([-0.0, 5e-324, BIG, 1 / 3]), cov)),
        "shot_record.state": statefile.shot_record_doc(
            ShotRecord(sic, sic, counts, int(counts.sum()), 7)),
        "wigner_grid.state": statefile.wigner_grid_doc(
            WignerGrid(GridGeometry(-1 / 3, 5e-324, -0.0, 1e308, 2, 3), edge),
            value_stderr=1 / 3),
        "f0.state": statefile.dv_density_doc(DensityOperator(fock_state(0, 4).matrix),
                                             fock_cutoff=4),
        "thermal.state": statefile.gaussian_doc(gaussian.thermal_product(0.3, 1.2)),
        "classical.state": statefile.dv_density_doc(
            DensityOperator(np.diag([0.5, 0.0, 0.0, 0.5]), bipartition=(2, 2))),
        "uniform_record.state": statefile.shot_record_doc(
            ShotRecord(sic, sic, np.array([[2] * 4, [1] * 4, [3] * 4, [0] * 4]), 24, 7)),
    }


@pytest.mark.parametrize("name", sorted(documents()))
def test_documents_keep_their_bytes(tmp_path, name):
    statefile.write(str(tmp_path / name), documents()[name])
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("report", sorted(REPORTS))
def test_reports_keep_their_bytes(tmp_path, monkeypatch, capsys, report):
    monkeypatch.chdir(tmp_path)
    docs = documents()
    for name in ("f0.state", "thermal.state", "classical.state", "uniform_record.state"):
        statefile.write(name, docs[name])
    argv, emitted = REPORTS[report]
    assert main(list(argv)) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / report).read_bytes()
    for name in emitted:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
