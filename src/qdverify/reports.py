"""Verification reports: deterministic JSON documents.

Every numeric claim in a report is reproducible from the input digest plus
the seeds and thresholds recorded alongside it. Floats are rendered with
17 significant digits and keys are sorted, so a fixed input yields a byte
identical report.
"""
from __future__ import annotations

import hashlib
from typing import Optional

from . import __version__
from .statefile import format_float, render


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return "sha256:" + h.hexdigest()


def base_report(pipeline: str, digest: str) -> dict:
    return {
        "format_version": "1",
        "tool_version": __version__,
        "pipeline": pipeline,
        "input_digest": digest,
    }


def fnum(x: float) -> str:
    return format_float(float(x))


def cnum(z: complex) -> list:
    return [fnum(z.real), fnum(z.imag)]


def emit(doc: dict, path: Optional[str] = None) -> str:
    text = render(doc)
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    return text
