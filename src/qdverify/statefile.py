"""Versioned text format for states, records, and grids.

Files are JSON documents with format_version "1". Every float is written
as a decimal string with 17 significant digits, which round-trips binary64
exactly, and complex numbers are [re, im] pairs of such strings. Parsing
is strict: unknown fields are rejected. load digests the bytes it read with
the interpreter's own SHA-256, about 5x slower than OpenSSL's (2.4 against
0.4 ms on 480 KB), so only commands that draw random numbers load OpenSSL.

render writes the layout of json.dumps(doc, sort_keys=True, indent=1):
str keys sorted, every object member and list item on its own line indented
one space per level, "," ending each line but the last, ": " after keys,
empty containers as {} and [], non-ASCII as \\u escapes, and one final
newline. Reports use the same writer.

The writer, not the *_doc builders or the reports, formats and checks every
number: floats, complex values, and float, complex or integer arrays, an
array in one call (a constant one, such as a commuting pair's zero grid,
with its value formatted once). It refuses a non-finite value with
ParseError, and what json.dumps refuses with TypeError. So a document is
input for render and write, not a JSON tree: json.loads(render(doc)) is its
tree.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Iterator, Optional
try:                                # the interpreter's own SHA-256, not OpenSSL's
    from _sha256 import sha256      # Python 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256    # Python 3.12 and later
    except ImportError:
        from hashlib import sha256

import numpy as np

from .errors import ParseError
from .gaussian import GaussianState
from .linalg import DensityOperator
from .phasespace import CONVENTION_TAG, GridGeometry, WignerGrid
from .povm import Povm
from .tomo import ShotRecord

FORMAT_VERSION = "1"
KINDS = ("dv_density", "gaussian", "shot_record", "wigner_grid")


def parse_float(s: Any) -> float:
    """A finite float from a JSON number or decimal string, but not a bool."""
    if isinstance(s, bool):
        raise ParseError(f"bad float value {s!r}")
    try:
        x = float(s)
    except (TypeError, ValueError):
        raise ParseError(f"bad float value {s!r}") from None
    if not np.isfinite(x):
        raise ParseError(f"non-finite float value {s!r}")
    return x


def parse_int(v: Any, name: str) -> int:
    """A JSON integer; ParseError for anything else, bools and floats included."""
    if type(v) is not int:
        raise ParseError(f"{name} must be an integer, got {v!r}")
    return v


def _floats_in(rows: Any, what: str) -> np.ndarray:
    """Nested lists of numbers or decimal strings as one finite float array;
    the caller checks its shape. A JSON true or false is refused."""
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"{what} must be a non-empty list")
    try:
        values = np.array(rows, dtype=object)
        a = values.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad {what}: {exc}") from None
    finite = np.isfinite(a)
    if not finite.all():
        raise ParseError(f"non-finite float value {values[~finite][0]!r}")
    if (np.frompyfunc(type, 1, 1)(values) == bool).any():    # float(True) is 1.0
        raise ParseError(f"bad {what}: true and false are not numbers")
    return a


def _counts_in(rows: Any) -> np.ndarray:
    """A count table, a non-empty list of equal-length lists of JSON integers
    (not true or false) within int64, as one int64 array."""
    if not (isinstance(rows, list) and rows
            and all(isinstance(r, list) and len(r) == len(rows[0]) for r in rows)):
        raise ParseError("counts must be a non-empty list of equal-length lists")
    for v in (v for r in rows for v in r):
        if type(v) is not int:
            raise ParseError(f"counts must be integers, got {v!r}")
        if not -2 ** 63 <= v < 2 ** 63:     # checked before numpy converts it
            raise ParseError(f"counts must be within [-2^63, 2^63 - 1], got {v}")
    return np.array(rows, dtype=np.int64)


def _cmatrix_in(rows: Any) -> np.ndarray:
    """A complex matrix, or a stack of them, from its [re, im] pairs; the
    caller checks its shape."""
    pairs = _floats_in(rows, "complex matrix")
    if pairs.ndim < 3 or pairs.shape[-1] != 2:
        raise ParseError(f"complex values are [re, im] pairs; matrix of shape "
                         f"{pairs.shape}")
    return pairs.view(complex)[..., 0]


def _fmatrix_in(rows: Any) -> np.ndarray:
    m = _floats_in(rows, "float matrix")
    if m.ndim != 2 or not m.size:
        raise ParseError(f"float matrix must be a non-empty list of rows of numbers; "
                         f"got shape {m.shape}")
    return m


@dataclass
class StateFile:
    """Parsed state file: the kind tag, the payload object, and extras.
    load sets path, the file it read, and digest, "sha256:<hex>" of the
    bytes it parsed."""

    kind: str
    payload: Any
    fock_cutoff: Optional[int] = None
    path: Optional[str] = None
    digest: Optional[str] = None


def _check_keys(doc: dict, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)} in {where}")


def _check_fock_cutoff(cutoff: int, dim: int) -> None:
    """Refuse, as writer and reader, a fock_cutoff that is negative or does
    not tag a dim x dim matrix."""
    if cutoff < 0:
        raise ParseError(f"fock_cutoff must be nonnegative, got {cutoff}")
    if cutoff + 1 != dim:
        raise ParseError(f"matrix shape {(dim, dim)} does not match fock_cutoff {cutoff}")


def _check_counts(counts: np.ndarray, total: int) -> None:
    """Refuse, as writer and reader, counts that are not integers or do not
    sum exactly to a total of at most 2^63 - 1."""
    if counts.dtype.kind not in "iu":
        raise ParseError(f"counts must be integers, got dtype {counts.dtype}")
    # summed exactly, as int64 sums of counts near 2^63 wrap around
    if not counts.sum(dtype=object) == total <= np.iinfo(np.int64).max:
        raise ParseError("counts do not sum to a total of at most 2^63 - 1")


def dv_density_doc(rho: DensityOperator, fock_cutoff: Optional[int] = None) -> dict:
    if fock_cutoff is not None:
        _check_fock_cutoff(fock_cutoff, rho.dim)
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "dv_density",
        "dim": rho.dim,
        "bipartition": list(rho.bipartition) if rho.bipartition else None,
        "matrix": rho.matrix,
    }
    if fock_cutoff is not None:
        doc["fock_cutoff"] = int(fock_cutoff)
    return doc


def gaussian_doc(g: GaussianState) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "gaussian",
        "convention": CONVENTION_TAG,
        "mean": g.mean,
        "cov": g.cov,
    }


def shot_record_doc(rec: ShotRecord) -> dict:
    _check_counts(rec.counts, rec.total)
    return {
        "format_version": FORMAT_VERSION,
        "kind": "shot_record",
        "povm_a": _povm_doc(rec.povm_a),
        "povm_b": _povm_doc(rec.povm_b),
        "counts": rec.counts,
        "total": int(rec.total),
        "seed": int(rec.seed),
    }


def wigner_grid_doc(grid: WignerGrid) -> dict:
    geom = grid.geometry
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "wigner_grid",
        "convention": CONVENTION_TAG,
        # float fields, also where a caller gave integers
        **{k: float(getattr(geom, k)) for k in ("x_min", "x_max", "p_min", "p_max")},
        "nx": geom.nx,
        "np": geom.np,
        "values": grid.values,
    }
    if grid.value_stderr is not None:
        doc["value_stderr"] = float(grid.value_stderr)
    return doc


def _povm_doc(p: Povm) -> dict:
    return {"dim": p.dim, "effects": list(p.effects)}


def _povm_in(doc: Any) -> Povm:
    if not isinstance(doc, dict):
        raise ParseError("povm must be an object")
    _check_keys(doc, {"dim", "effects"}, "povm")
    try:
        dim = parse_int(doc["dim"], "povm dim")
        effects = _cmatrix_in(doc["effects"])
    except KeyError as exc:
        raise ParseError(f"povm missing field {exc}") from None
    try:
        return Povm(dim, effects)
    except Exception as exc:
        raise ParseError(f"invalid povm: {exc}") from None


def _layout(shape: tuple, indent: str, slot: str) -> str:
    # the layout of nested lists of that shape, the text slot for each value
    if not shape:
        return slot
    if not shape[0]:
        return "[]"
    inner = indent + " "
    item = _layout(shape[1:], inner, slot)
    return "[\n" + inner + (",\n" + inner).join([item] * shape[0]) + "\n" + indent + "]"


def _emit(v: Any, indent: str) -> Iterator[str]:
    # json.dumps' indent layout, which its C encoder does not write, as parts
    # that render joins once; a float is its format(v, ".17g") string, a complex
    # value the [re, im] pair of them, an integer its digits, and an array the
    # nested lists of those, formatted in one call, or once when all its
    # values are the same
    if isinstance(v, (float, complex, np.floating, np.complexfloating)):
        v = np.array(v)
    if isinstance(v, str):
        yield _quote(v)
    elif isinstance(v, np.ndarray) and v.dtype.kind in "fciu":
        if v.dtype.kind == "c":
            # a complex array viewed as floats is its [re, im] pairs
            v = np.ascontiguousarray(v, dtype=complex).view(float).reshape(v.shape + (2,))
        if not np.all(np.isfinite(v)):
            raise ParseError(f"cannot serialize non-finite float {v[~np.isfinite(v)][0]}")
        # integers are written as themselves, never through float; floats are
        # compared as bits, since 0.0 == -0.0 but they write "0" and "-0", and
        # as float64, since a float32 [a, b, a, b] viewed as int64 looks constant
        exact = v.dtype.kind in "iu"
        flat = v.ravel() if exact else v.ravel().astype(float, copy=False)
        bits = flat if exact else flat.view(np.int64)
        slot = "%d" if exact else '"%.17g"'
        if flat.size > 1 and (bits == bits[0]).all():
            yield _layout(v.shape, indent, slot % flat[0])
        else:
            yield _layout(v.shape, indent, slot) % tuple(flat.tolist())
    elif not isinstance(v, (dict, list, tuple)):
        yield json.dumps(v)
    elif not v:
        yield "{}" if isinstance(v, dict) else "[]"
    else:
        inner, is_dict = indent + " ", isinstance(v, dict)
        yield "{" if is_dict else "["
        for i, x in enumerate(sorted(v) if is_dict else v):
            yield (",\n" if i else "\n") + inner + (_quote(x) + ": " if is_dict else "")
            yield from _emit(v[x] if is_dict else x, inner)
        yield "\n" + indent + ("}" if is_dict else "]")


def render(doc: dict) -> str:
    return "".join([*_emit(doc, ""), "\n"])


def write(path: str, doc: dict) -> None:
    text = render(doc)      # a refused document leaves no file behind
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def load(path: str) -> StateFile:
    """Read a state file once and parse it; raises ParseError on any
    contract violation."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        sf = _parse(raw)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    sf.path, sf.digest = path, "sha256:" + sha256(raw).hexdigest()
    return sf


def _parse(raw: bytes) -> StateFile:
    try:
        # decoded as a text-mode open decodes, newline translation included
        doc = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="ascii"))
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors, as is an
        # integer literal past Python's digit limit; deep nesting recurses
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc.get('format_version')!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    try:
        return _LOADERS[kind](doc)
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from None
    except Exception as exc:
        raise ParseError(f"invalid {kind} payload: {exc}") from None


def _load_dv_density(doc: dict) -> StateFile:
    _check_keys(doc, {"format_version", "kind", "dim", "bipartition", "matrix",
                      "fock_cutoff"}, "dv_density")
    matrix = _cmatrix_in(doc["matrix"])
    dim = parse_int(doc["dim"], "dim")
    if matrix.shape != (dim, dim):
        raise ParseError(f"matrix shape {matrix.shape} does not match dim {dim}")
    bip = doc.get("bipartition")
    if bip is not None and not (isinstance(bip, list) and len(bip) == 2):
        raise ParseError(f"bipartition must be a list of two integers, got {bip!r}")
    bipartition = tuple(parse_int(v, "bipartition") for v in bip) if bip is not None else None
    rho = DensityOperator(matrix, bipartition=bipartition)
    cutoff = doc.get("fock_cutoff")
    if cutoff is not None:
        _check_fock_cutoff(parse_int(cutoff, "fock_cutoff"), dim)
    return StateFile("dv_density", rho, fock_cutoff=cutoff)


def _load_gaussian(doc: dict) -> StateFile:
    _check_keys(doc, {"format_version", "kind", "convention", "mean", "cov"}, "gaussian")
    if doc.get("convention") != CONVENTION_TAG:
        raise ParseError(f"gaussian files require convention {CONVENTION_TAG!r}, "
                         f"got {doc.get('convention')!r}")
    mean = _floats_in(doc["mean"], "mean")
    if mean.ndim != 1:
        raise ParseError(f"mean must be a non-empty list of numbers; got shape {mean.shape}")
    cov = _fmatrix_in(doc["cov"])
    return StateFile("gaussian", GaussianState(mean, cov))


def _load_shot_record(doc: dict) -> StateFile:
    _check_keys(doc, {"format_version", "kind", "povm_a", "povm_b", "counts",
                      "total", "seed"}, "shot_record")
    povm_a = _povm_in(doc["povm_a"])
    povm_b = _povm_in(doc["povm_b"])
    counts = _counts_in(doc["counts"])
    rec = ShotRecord(povm_a, povm_b, counts, parse_int(doc["total"], "total"),
                     parse_int(doc["seed"], "seed"))
    _check_counts(counts, rec.total)
    return StateFile("shot_record", rec)


def _load_wigner_grid(doc: dict) -> StateFile:
    _check_keys(doc, {"format_version", "kind", "convention", "x_min", "x_max",
                      "p_min", "p_max", "nx", "np", "values", "value_stderr"},
                "wigner_grid")
    if doc.get("convention") != CONVENTION_TAG:
        raise ParseError(f"wigner_grid files require convention {CONVENTION_TAG!r}")
    geom = GridGeometry(parse_float(doc["x_min"]), parse_float(doc["x_max"]),
                        parse_float(doc["p_min"]), parse_float(doc["p_max"]),
                        parse_int(doc["nx"], "nx"), parse_int(doc["np"], "np"))
    stderr = doc.get("value_stderr")
    return StateFile("wigner_grid", WignerGrid(
        geom, _fmatrix_in(doc["values"]),
        parse_float(stderr) if stderr is not None else None))


_LOADERS = {
    "dv_density": _load_dv_density,
    "gaussian": _load_gaussian,
    "shot_record": _load_shot_record,
    "wigner_grid": _load_wigner_grid,
}
