"""Verification reports: deterministic JSON documents.

Every numeric claim in a report is reproducible from the input digest plus
the seeds and thresholds recorded alongside it. Floats are rendered with
17 significant digits and keys are sorted, so a fixed input yields a byte
identical report.
"""
from __future__ import annotations

import hashlib

from . import __version__
from .statefile import format_complex, format_float, render


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


fnum = format_float
cnum = format_complex


def emit(doc: dict) -> str:
    return render(doc)
