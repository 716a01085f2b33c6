"""Versioned text format for states, records, and grids.

Files are JSON documents with format_version "1". Every float is written
as a decimal string with 17 significant digits, which round-trips binary64
exactly, and complex numbers are [re, im] pairs of such strings. Parsing
is strict by default: unknown fields are rejected.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .errors import ParseError
from .gaussian import GaussianState
from .linalg import DensityOperator
from .phasespace import CONVENTION_TAG, GridGeometry, WignerGrid
from .povm import Povm
from .tomo import ShotRecord

FORMAT_VERSION = "1"
KINDS = ("dv_density", "gaussian", "shot_record", "wigner_grid")

FIXTURE_DIR_ENV = "QDVERIFY_FIXTURE_DIR"


def format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ParseError(f"cannot serialize non-finite float {x}")
    return format(float(x), ".17g")


def parse_float(s: Any) -> float:
    try:
        x = float(s)
    except (TypeError, ValueError):
        raise ParseError(f"bad float value {s!r}") from None
    if not np.isfinite(x):
        raise ParseError(f"non-finite float value {s!r}")
    return x


def _complex_out(z: complex) -> list:
    return [format_float(z.real), format_float(z.imag)]


def _complex_in(v: Any) -> complex:
    if not isinstance(v, list) or len(v) != 2:
        raise ParseError(f"complex values are [re, im] pairs, got {v!r}")
    return complex(parse_float(v[0]), parse_float(v[1]))


def _cmatrix_out(m: np.ndarray) -> list:
    return [[_complex_out(complex(v)) for v in row] for row in np.asarray(m)]


def _cmatrix_in(rows: Any) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ParseError("matrix must be a non-empty list of rows")
    out = np.array([[_complex_in(v) for v in row] for row in rows], dtype=complex)
    return out


def _fmatrix_out(m: np.ndarray) -> list:
    return [[format_float(float(v)) for v in row] for row in np.asarray(m)]


def _fmatrix_in(rows: Any) -> np.ndarray:
    return np.array([[parse_float(v) for v in row] for row in rows], dtype=float)


@dataclass
class StateFile:
    """Parsed state file: the kind tag, the payload object, and extras."""

    kind: str
    payload: Any
    fock_cutoff: Optional[int] = None
    value_stderr: Optional[float] = None


def _check_keys(doc: dict, allowed: set, strict: bool, where: str) -> None:
    if strict:
        unknown = set(doc) - allowed
        if unknown:
            raise ParseError(f"unknown fields {sorted(unknown)} in {where}")


def dv_density_doc(rho: DensityOperator, fock_cutoff: Optional[int] = None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "dv_density",
        "dim": rho.dim,
        "bipartition": list(rho.bipartition) if rho.bipartition else None,
        "matrix": _cmatrix_out(rho.matrix),
    }
    if fock_cutoff is not None:
        doc["fock_cutoff"] = int(fock_cutoff)
    return doc


def gaussian_doc(g: GaussianState) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "gaussian",
        "convention": CONVENTION_TAG,
        "mean": [format_float(v) for v in g.mean],
        "cov": _fmatrix_out(g.cov),
    }


def shot_record_doc(rec: ShotRecord) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "shot_record",
        "povm_a": _povm_doc(rec.povm_a),
        "povm_b": _povm_doc(rec.povm_b),
        "counts": [[int(v) for v in row] for row in rec.counts],
        "total": int(rec.total),
        "seed": int(rec.seed),
    }


def wigner_grid_doc(grid, value_stderr: Optional[float] = None) -> dict:
    geom = grid.geometry
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "wigner_grid",
        "convention": CONVENTION_TAG,
        "x_min": format_float(geom.x_min),
        "x_max": format_float(geom.x_max),
        "p_min": format_float(geom.p_min),
        "p_max": format_float(geom.p_max),
        "nx": geom.nx,
        "np": geom.np,
        "values": _fmatrix_out(grid.values),
    }
    if value_stderr is not None:
        doc["value_stderr"] = format_float(value_stderr)
    return doc


def _povm_doc(p: Povm) -> dict:
    return {"dim": p.dim, "effects": [_cmatrix_out(e) for e in p.effects]}


def _povm_in(doc: Any, strict: bool) -> Povm:
    if not isinstance(doc, dict):
        raise ParseError("povm must be an object")
    _check_keys(doc, {"dim", "effects"}, strict, "povm")
    try:
        dim = int(doc["dim"])
        effects = [_cmatrix_in(e) for e in doc["effects"]]
    except KeyError as exc:
        raise ParseError(f"povm missing field {exc}") from None
    try:
        return Povm(dim, effects)
    except Exception as exc:
        raise ParseError(f"invalid povm: {exc}") from None


def render(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(render(doc))


def resolve_path(path: str) -> str:
    """Resolve a state-file path, falling back to the fixture directory."""
    if os.path.exists(path):
        return path
    fixture_dir = os.environ.get(FIXTURE_DIR_ENV)
    if fixture_dir and not os.path.isabs(path):
        candidate = os.path.join(fixture_dir, path)
        if os.path.exists(candidate):
            return candidate
    return path


def load(path: str, strict: bool = True) -> StateFile:
    """Parse a state file; raises ParseError on any contract violation."""
    try:
        with open(resolve_path(path), "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc.get('format_version')!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    try:
        return _LOADERS[kind](doc, strict)
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from None
    except Exception as exc:
        raise ParseError(f"invalid {kind} payload: {exc}") from None


def _load_dv_density(doc: dict, strict: bool) -> StateFile:
    _check_keys(doc, {"format_version", "kind", "dim", "bipartition", "matrix",
                      "fock_cutoff"}, strict, "dv_density")
    matrix = _cmatrix_in(doc["matrix"])
    dim = int(doc["dim"])
    if matrix.shape != (dim, dim):
        raise ParseError(f"matrix shape {matrix.shape} does not match dim {dim}")
    bip = doc.get("bipartition")
    bipartition = (int(bip[0]), int(bip[1])) if bip is not None else None
    rho = DensityOperator(matrix, bipartition=bipartition)
    cutoff = doc.get("fock_cutoff")
    return StateFile("dv_density", rho,
                     fock_cutoff=int(cutoff) if cutoff is not None else None)


def _load_gaussian(doc: dict, strict: bool) -> StateFile:
    _check_keys(doc, {"format_version", "kind", "convention", "mean", "cov"},
                strict, "gaussian")
    if doc.get("convention") != CONVENTION_TAG:
        raise ParseError(f"gaussian files require convention {CONVENTION_TAG!r}, "
                         f"got {doc.get('convention')!r}")
    mean = np.array([parse_float(v) for v in doc["mean"]])
    cov = _fmatrix_in(doc["cov"])
    return StateFile("gaussian", GaussianState(mean, cov))


def _load_shot_record(doc: dict, strict: bool) -> StateFile:
    _check_keys(doc, {"format_version", "kind", "povm_a", "povm_b", "counts",
                      "total", "seed"}, strict, "shot_record")
    povm_a = _povm_in(doc["povm_a"], strict)
    povm_b = _povm_in(doc["povm_b"], strict)
    counts = np.array([[int(v) for v in row] for row in doc["counts"]], dtype=np.int64)
    rec = ShotRecord(povm_a, povm_b, counts, int(doc["total"]), int(doc["seed"]))
    if counts.sum() != rec.total:
        raise ParseError("counts do not sum to total")
    return StateFile("shot_record", rec)


def _load_wigner_grid(doc: dict, strict: bool) -> StateFile:
    _check_keys(doc, {"format_version", "kind", "convention", "x_min", "x_max",
                      "p_min", "p_max", "nx", "np", "values", "value_stderr"},
                strict, "wigner_grid")
    if doc.get("convention") != CONVENTION_TAG:
        raise ParseError(f"wigner_grid files require convention {CONVENTION_TAG!r}")
    geom = GridGeometry(parse_float(doc["x_min"]), parse_float(doc["x_max"]),
                        parse_float(doc["p_min"]), parse_float(doc["p_max"]),
                        int(doc["nx"]), int(doc["np"]))
    values = _fmatrix_in(doc["values"])
    grid = WignerGrid(geom, values)
    stderr = doc.get("value_stderr")
    return StateFile("wigner_grid", grid,
                     value_stderr=parse_float(stderr) if stderr is not None else None)


_LOADERS = {
    "dv_density": _load_dv_density,
    "gaussian": _load_gaussian,
    "shot_record": _load_shot_record,
    "wigner_grid": _load_wigner_grid,
}
