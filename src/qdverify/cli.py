"""Command-line entry points for the verification pipelines.

Exit status reflects operational success only: 0 when the pipeline ran,
2 on parse or domain errors. Scientific verdicts live in the report
printed to stdout, never in the exit status.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from . import dv, gaussian, phasespace, tomo
from .errors import ParseError, QdvError
from .povm import default_ic_povm, dual_frame
from .reports import base_report, cnum, emit, file_digest, fnum
from .statefile import load, resolve_path, shot_record_doc, wigner_grid_doc, write


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


def cmd_verify_dv(args) -> int:
    path = resolve_path(args.state)
    sf = load(path)
    if sf.kind != "dv_density":
        raise ParseError(f"verify-dv needs a dv_density file, got {sf.kind}")
    rho = sf.payload
    if rho.bipartition is None:
        raise ParseError("verify-dv needs a bipartition in the state file")
    dim_a = rho.bipartition[0]
    kind = args.povm or ("sic" if dim_a == 2 else "random")
    povm = default_ic_povm(dim_a, seed=args.povm_seed, kind=kind)
    ensemble = dv.condition_on_povm(rho, povm)
    verdict = dv.verify_commutativity(ensemble, threshold=args.threshold)
    doc = base_report("dv_exact", file_digest(path))
    doc.update({
        "verdict": verdict.verdict,
        "witnesses": {
            "max_commutator_norm": fnum(verdict.max_commutator_norm),
            "witness_pair": list(verdict.witness_pair) if verdict.witness_pair else None,
            "anchor_index": verdict.anchor_index,
            "checked_pairs": verdict.checked_pairs,
        },
        "thresholds": {"commutator_norm": fnum(verdict.threshold)},
        "seeds": {"povm_kind": kind, "povm_seed": args.povm_seed},
    })
    sys.stdout.write(emit(doc))
    return 0


def cmd_verify_gaussian(args) -> int:
    path = resolve_path(args.state)
    sf = load(path)
    if sf.kind != "gaussian":
        raise ParseError(f"verify-gaussian needs a gaussian file, got {sf.kind}")
    state = sf.payload
    out1, out2 = _parse_outcomes(args.outcomes)
    form = gaussian.standard_form(state)
    result = gaussian.peak_coincidence_test(form, out1, out2, args.tol)
    cov_zero = gaussian.zero_discord_decision(state, args.tol)
    doc = base_report("gaussian_peak", file_digest(path))
    doc.update({
        "verdict": result.verdict,
        "witnesses": {
            "standard_form": {k: fnum(getattr(form, k)) for k in "abcd"},
            "peak_1": cnum(result.peak_1),
            "peak_2": cnum(result.peak_2),
            "separation": fnum(result.separation),
            "outcome_1": cnum(out1),
            "outcome_2": cnum(out2),
            "cov_block_decision": {
                "pipeline": "gaussian_cov",
                "zero_discord": bool(cov_zero),
                "max_abs_cross_block": fnum(float(np.max(np.abs(state.block_c)))),
            },
        },
        "thresholds": {"peak_shift_per_outcome_shift": fnum(args.tol)},
        "seeds": {},
    })
    sys.stdout.write(emit(doc))
    return 0


def _load_wigner(path: str, geom):
    sf = load(path)
    if sf.kind == "wigner_grid":
        return sf.payload, sf.value_stderr
    if sf.kind == "dv_density":
        if sf.fock_cutoff is None:
            raise ParseError(f"{path}: dv_density input to moyal needs a "
                             "fock_cutoff tag")
        op = phasespace.FockOperator(sf.fock_cutoff, sf.payload.matrix)
        return phasespace.wigner_from_fock(op, geom), None
    raise ParseError(f"moyal cannot use kind {sf.kind}")


# floor for calling a commutator grid nonzero when inputs are exact
MOYAL_NUMERICAL_FLOOR = 1e-9


def cmd_moyal(args) -> int:
    geom = phasespace.square_geometry(args.extent, args.points)
    path_a = resolve_path(args.state_a)
    path_b = resolve_path(args.state_b)
    grid_a, err_a = _load_wigner(path_a, geom)
    grid_b, err_b = _load_wigner(path_b, geom)
    comm = phasespace.moyal_commutator(grid_a, grid_b)
    value, loc = phasespace.grid_max_abs(comm)
    out_path = args.out or _default_grid_out(args.state_a, args.state_b)
    write(out_path, wigner_grid_doc(comm))
    doc = base_report("cv_moyal", file_digest(path_a))
    doc["input_digest_b"] = file_digest(path_b)
    witnesses = {
        "grid_max_abs": fnum(value),
        "location": [loc[0], loc[1]],
        "emitted_grid": out_path,
    }
    threshold = MOYAL_NUMERICAL_FLOOR
    if err_a is not None or err_b is not None:
        ga = grid_a.geometry
        l1_a = float(np.sum(np.abs(grid_a.values)) * ga.dx * ga.dp)
        l1_b = float(np.sum(np.abs(grid_b.values)) * ga.dx * ga.dp)
        band = phasespace.uncertainty_band(ga, err_a or 0.0, err_b or 0.0,
                                           l1_a, l1_b)
        witnesses["uncertainty_band"] = fnum(band)
        witnesses["significant"] = bool(value > band)
        threshold = max(band, threshold)
    verdict = dv.NONZERO_DISCORD if value > threshold else dv.CONSISTENT_WITH_ZERO
    doc.update({
        "verdict": verdict,
        "witnesses": witnesses,
        "thresholds": {"grid_max_abs": fnum(threshold)},
        "seeds": {},
    })
    sys.stdout.write(emit(doc))
    return 0


def _default_grid_out(path_a: str, path_b: str) -> str:
    stem_a = os.path.splitext(os.path.basename(path_a))[0]
    stem_b = os.path.splitext(os.path.basename(path_b))[0]
    return f"{stem_a}__{stem_b}.commutator.json"


def cmd_tomo(args) -> int:
    path = resolve_path(args.state)
    sf = load(path)
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
        write(record_path, shot_record_doc(record))
    elif sf.kind == "shot_record":
        record = sf.payload
    else:
        raise ParseError(f"tomo needs dv_density or shot_record, got {sf.kind}")
    duals_b = dual_frame(record.povm_b)
    est = tomo.estimate_conditionals(record, duals_b)
    verdict = tomo.significant_commutativity(est, z_threshold=args.z,
                                             resamples=args.resamples,
                                             seed=record.seed)
    doc = base_report("dv_tomo", file_digest(path))
    doc.update({
        "verdict": verdict.verdict,
        "significance_convention": "z = commutator norm / propagated stderr, "
                                   "maximized over conditional pairs",
        "witnesses": {
            "max_norm": fnum(verdict.max_norm),
            "norm_stderr": fnum(verdict.norm_stderr),
            "z_score": fnum(verdict.z_score) if np.isfinite(verdict.z_score) else "inf",
            "witness_pair": list(verdict.witness_pair) if verdict.witness_pair else None,
        },
        "thresholds": {"z": fnum(verdict.z_threshold)},
        "seeds": {
            "sampling_seed": record.seed,
            "bootstrap_resamples": args.resamples,
            "povm_seed": args.povm_seed,
            "shots": int(record.total),
        },
    })
    if record_path:
        doc["emitted_record"] = record_path
    sys.stdout.write(emit(doc))
    return 0


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
    p.add_argument("--povm-seed", type=int, default=20240)
    p.add_argument("--threshold", type=float, default=dv.DEFAULT_COMMUTATOR_THRESHOLD)
    p.set_defaults(func=cmd_verify_dv)

    p = sub.add_parser("verify-gaussian", help="heterodyne peak test for a "
                       "two-mode Gaussian state")
    p.add_argument("state")
    p.add_argument("--outcomes", required=True,
                   help="two heterodyne outcomes as 'x1,p1;x1p,p1p'")
    p.add_argument("--tol", type=float, default=1e-9)
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
    p.add_argument("--resamples", type=int, default=tomo.DEFAULT_RESAMPLES)
    p.add_argument("--povm-seed", type=int, default=20240)
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
