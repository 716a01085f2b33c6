"""Command-line entry points for the verification pipelines.

Exit status reflects operational success only: 0 when the pipeline ran,
2 on parse or domain errors. Scientific verdicts live in the report
printed to stdout, never in the exit status.

A report is deterministic JSON written by statefile.render: floats with 17
significant digits, keys sorted. Every numeric claim in it is reproducible
from the input digest plus the seeds and thresholds recorded alongside it.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
from typing import Optional

from . import __version__, dv, gaussian, phasespace, tomo
from .errors import ParseError, QdvError
from .povm import DEFAULT_POVM_SEED, default_ic_povm, default_kind, dual_frame
from .statefile import load, render, resolve_path, shot_record_doc, wigner_grid_doc, write


def _parse_outcomes(text: str):
    try:
        parts = text.split(";")
        if len(parts) != 2:
            raise ValueError("expected two outcomes separated by ';'")
        outs = []
        for part in parts:
            x, p = part.split(",")
            outs.append(complex(float(x), float(p)))
        return outs[0], outs[1]
    except ValueError as exc:
        raise ParseError(f"bad outcomes {text!r}: {exc}") from None


def _load(path_arg: str, command: str, *kinds: str):
    """Resolve and parse a state file that must be one of the given kinds."""
    path = resolve_path(path_arg)
    sf = load(path)
    if sf.kind not in kinds:
        raise ParseError(f"{command} needs {' or '.join(kinds)}, got {sf.kind}")
    return path, sf


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _report(pipeline: str, path: str, fields: dict) -> int:
    """Print the report for a pipeline run on the file at path; exit 0."""
    sys.stdout.write(render({"format_version": "1", "tool_version": __version__,
                             "pipeline": pipeline, "input_digest": _digest(path),
                             **fields}))
    return 0


def cmd_verify_dv(args) -> int:
    path, sf = _load(args.state, "verify-dv", "dv_density")
    rho = sf.payload
    if rho.bipartition is None:
        raise ParseError("verify-dv needs a bipartition in the state file")
    dim_a = rho.bipartition[0]
    kind = args.povm or default_kind(dim_a)
    povm = default_ic_povm(dim_a, seed=args.povm_seed, kind=kind)
    ensemble = dv.condition_on_povm(rho, povm)
    verdict = dv.verify_commutativity(ensemble, threshold=args.threshold)
    return _report("dv_exact", path, {
        "verdict": verdict.verdict,
        "witnesses": {
            "max_commutator_norm": verdict.max_commutator_norm,
            "witness_pair": verdict.witness_pair,
            "anchor_index": verdict.anchor_index,
            "checked_pairs": verdict.checked_pairs,
        },
        "thresholds": {"commutator_norm": verdict.threshold},
        "seeds": {"povm_kind": kind, "povm_seed": args.povm_seed},
    })


def cmd_verify_gaussian(args) -> int:
    path, sf = _load(args.state, "verify-gaussian", "gaussian")
    state = sf.payload
    out1, out2 = _parse_outcomes(args.outcomes)
    form = gaussian.standard_form(state)
    result = gaussian.peak_coincidence_test(form, out1, out2, args.tol)
    cov_zero = gaussian.zero_discord_decision(state, args.tol)
    return _report("gaussian_peak", path, {
        "verdict": result.verdict,
        "witnesses": {
            "standard_form": {k: getattr(form, k) for k in "abcd"},
            "peak_1": result.peak_1,
            "peak_2": result.peak_2,
            "separation": result.separation,
            "outcome_1": out1,
            "outcome_2": out2,
            "cov_block_decision": {
                "pipeline": "gaussian_cov",
                "zero_discord": cov_zero,
                "max_abs_cross_block": abs(state.block_c).max(),
            },
        },
        "thresholds": {"peak_shift_per_outcome_shift": args.tol},
        "seeds": {},
    })


def _load_moyal_input(path_arg: str):
    """(path, Fock operator or Wigner grid, per-point stderr) of a moyal input."""
    path, sf = _load(path_arg, "moyal", "wigner_grid", "dv_density")
    if sf.kind == "wigner_grid":
        return path, sf.payload, sf.value_stderr
    if sf.fock_cutoff is None:
        raise ParseError(f"{path}: dv_density input to moyal needs a "
                         "fock_cutoff tag")
    return path, phasespace.FockOperator(sf.fock_cutoff, sf.payload.matrix), None


def cmd_moyal(args) -> int:
    geom = phasespace.square_geometry(args.extent, args.points)
    path_a, a, err_a = _load_moyal_input(args.state_a)
    path_b, b, err_b = _load_moyal_input(args.state_b)
    w = phasespace.moyal_witness(a, b, geom, (err_a, err_b), (path_a, path_b))
    out_path = args.out or _default_grid_out(args.state_a, args.state_b)
    write(out_path, wigner_grid_doc(w.grid))
    witnesses = {"grid_max_abs": w.max_abs, "location": w.location, "emitted_grid": out_path}
    if w.band is not None:
        witnesses.update(uncertainty_band=w.band, significant=w.significant)
    return _report("cv_moyal", path_a, {
        "input_digest_b": _digest(path_b),
        "verdict": w.verdict,
        "witnesses": witnesses,
        "thresholds": {"grid_max_abs": w.threshold},
        "seeds": {},
    })


def _default_grid_out(path_a: str, path_b: str) -> str:
    stem_a = os.path.splitext(os.path.basename(path_a))[0]
    stem_b = os.path.splitext(os.path.basename(path_b))[0]
    return f"{stem_a}__{stem_b}.commutator.json"


def cmd_tomo(args) -> int:
    path, sf = _load(args.state, "tomo", "dv_density", "shot_record")
    record_path = None
    if sf.kind == "dv_density":
        rho = sf.payload
        if rho.bipartition is None:
            raise ParseError("tomo needs a bipartition in the state file")
        dim_a, dim_b = rho.bipartition
        povm_a = default_ic_povm(dim_a, seed=args.povm_seed)
        povm_b = default_ic_povm(dim_b, seed=args.povm_seed + 1)
        record = tomo.sample_joint(rho, povm_a, povm_b, args.shots, args.seed)
        record_path = args.record_out or (path + ".shots.json")
    else:
        record = sf.payload
    duals_b = dual_frame(record.povm_b)
    est = tomo.estimate_conditionals(record, duals_b)
    verdict = tomo.significant_commutativity(est, z_threshold=args.z)
    fields = {
        "verdict": verdict.verdict,
        "significance_convention": "z = commutator norm / propagated stderr, "
                                   "maximized over conditional pairs",
        "witnesses": {
            "max_norm": verdict.max_norm,
            "norm_stderr": verdict.norm_stderr,
            "z_score": verdict.z_score,
            "witness_pair": verdict.witness_pair,
        },
        "thresholds": {"z": verdict.z_threshold},
        "seeds": {
            "sampling_seed": record.seed,
            "povm_seed": args.povm_seed,
            "shots": int(record.total),
        },
    }
    if record_path:     # written only once the run has succeeded
        write(record_path, shot_record_doc(record))
        fields["emitted_record"] = record_path
    return _report("dv_tomo", path, fields)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdverify",
        description="Verify quantum discord from measurement-level data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-dv", help="commutativity test for a bipartite "
                       "discrete-variable state")
    p.add_argument("state")
    p.add_argument("--povm", choices=["sic", "random"], default=None,
                   help="IC-POVM choice (default: sic for qubits, random otherwise)")
    p.add_argument("--povm-seed", type=int, default=DEFAULT_POVM_SEED)
    p.add_argument("--threshold", type=float, default=dv.DEFAULT_COMMUTATOR_THRESHOLD)
    p.set_defaults(func=cmd_verify_dv)

    p = sub.add_parser("verify-gaussian", help="heterodyne peak test for a "
                       "two-mode Gaussian state")
    p.add_argument("state")
    p.add_argument("--outcomes", required=True,
                   help="two heterodyne outcomes, as --outcomes='x1,p1;x2,p2' (this "
                   "form also takes a leading minus)")
    p.add_argument("--tol", type=float, default=gaussian.DEFAULT_DECISION_TOL)
    p.set_defaults(func=cmd_verify_gaussian)

    p = sub.add_parser("moyal", help="phase-space commutator of two states")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--extent", type=float, default=phasespace.DEFAULT_EXTENT)
    p.add_argument("--points", type=int, default=phasespace.DEFAULT_POINTS)
    p.add_argument("--out", default=None, help="path for the emitted commutator grid")
    p.set_defaults(func=cmd_moyal)

    p = sub.add_parser("tomo", help="finite-shot simulation with significance")
    p.add_argument("state")
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--z", type=float, default=tomo.DEFAULT_Z_THRESHOLD)
    # accepted and ignored: the benchmark's tomo command line still passes it,
    # until the benchmark's own change drops it
    p.add_argument("--resamples", help=argparse.SUPPRESS)
    p.add_argument("--povm-seed", type=int, default=DEFAULT_POVM_SEED)
    p.add_argument("--record-out", default=None)
    p.set_defaults(func=cmd_tomo)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QdvError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
