"""Command-line entry points for the verification pipelines.

Exit status reflects operational success only: 0 when the pipeline ran,
2 on parse or domain errors. Scientific verdicts live in the report
printed to stdout, never in the exit status.

A report is deterministic JSON written by statefile.render: floats with 17
significant digits, keys sorted. Each route lays out its own part of it,
the verdict with its witnesses and thresholds, as one dv.Verdict; a command
loads its inputs, calls the route and adds only the seeds, the input
digests and the files it wrote. Every numeric claim in a report is
reproducible from the input digest plus the seeds and thresholds recorded
alongside it.
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


def _report(pipeline: str, path: str, verdict: dv.Verdict, seeds: dict, **extra) -> int:
    """Print the report of a route's verdict on the file at path; exit 0."""
    sys.stdout.write(render({"format_version": "1", "tool_version": __version__,
                             "pipeline": pipeline, "input_digest": _digest(path),
                             **vars(verdict), "seeds": seeds, **extra}))
    return 0


def cmd_verify_dv(args) -> int:
    path, sf = _load(args.state, "verify-dv", "dv_density")
    rho = sf.payload
    if rho.bipartition is None:
        raise ParseError("verify-dv needs a bipartition in the state file")
    dim_a = rho.bipartition[0]
    kind = args.povm or default_kind(dim_a)
    ensemble = dv.condition_on_povm(rho, default_ic_povm(dim_a, seed=args.povm_seed, kind=kind))
    return _report("dv_exact", path, dv.verify_commutativity(ensemble, args.threshold),
                   {"povm_kind": kind, "povm_seed": args.povm_seed})


def cmd_verify_gaussian(args) -> int:
    path, sf = _load(args.state, "verify-gaussian", "gaussian")
    out1, out2 = _parse_outcomes(args.outcomes)
    return _report("gaussian_peak", path,
                   gaussian.peak_coincidence_test(sf.payload, out1, out2, args.tol), {})


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
    grid, verdict = phasespace.moyal_witness(a, b, geom, (err_a, err_b), (path_a, path_b))
    out_path = args.out or _default_grid_out(args.state_a, args.state_b)
    write(out_path, wigner_grid_doc(grid))
    verdict.witnesses["emitted_grid"] = out_path
    return _report("cv_moyal", path_a, verdict, {}, input_digest_b=_digest(path_b))


def _default_grid_out(path_a: str, path_b: str) -> str:
    stem_a = os.path.splitext(os.path.basename(path_a))[0]
    stem_b = os.path.splitext(os.path.basename(path_b))[0]
    return f"{stem_a}__{stem_b}.commutator.json"


def cmd_tomo(args) -> int:
    path, sf = _load(args.state, "tomo", "dv_density", "shot_record")
    if sf.kind == "shot_record":    # a replay: its POVMs come from the file
        record, povm_seed = sf.payload, None
    else:
        rho = sf.payload
        if rho.bipartition is None:
            raise ParseError("tomo needs a bipartition in the state file")
        dim_a, dim_b = rho.bipartition
        povm_seed = args.povm_seed
        record = tomo.sample_joint(rho, default_ic_povm(dim_a, seed=povm_seed),
                                   default_ic_povm(dim_b, seed=povm_seed + 1),
                                   args.shots, args.seed)
    est = tomo.estimate_conditionals(record, dual_frame(record.povm_b))
    verdict = tomo.significant_commutativity(est, z_threshold=args.z)
    extra = {}
    if sf.kind == "dv_density":     # written only once the run has succeeded
        extra["emitted_record"] = args.record_out or (path + ".shots.json")
        write(extra["emitted_record"], shot_record_doc(record))
    return _report("dv_tomo", path, verdict,
                   {"sampling_seed": record.seed, "povm_seed": povm_seed,
                    "shots": int(record.total)},
                   significance_convention="z = commutator norm / propagated stderr, "
                                           "maximized over conditional pairs", **extra)


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
