"""The process that runs one workload, started fresh by run.py.

    python3 child.py --ready MODULE    import MODULE, print "ready", exit
    python3 child.py SPEC RESULT       run the jobs in SPEC, write RESULT

The timed phase repeats whole rounds of the spec's jobs until the run
length has passed. Before each job (outside its timing) the program's
in-process caches are emptied, so every job pays what a fresh
command-line process would pay. No forced garbage collection: a full
collection over numpy and scipy's objects takes about 10 ms, which would
count in the phase's wall time but in no job. Outputs are checked later by
run.py, in another process, so checks add nothing to this one's memory.
"""
from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def _add_src(root: str) -> None:
    sys.path.insert(0, os.path.join(root, "src"))


def _program_caches() -> list:
    """Every function-level cache (functools.lru_cache and kin) in the program."""
    caches = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("qdverify."):
            continue
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and getattr(value, "__module__", None) == name:
                caches.append(clear)
    return caches


def _run_cli(cli, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _run_discord(dv, linalg, matrix: list) -> tuple:
    import numpy as np
    parts = np.array(matrix, dtype=float)           # [..., 0] real, [..., 1] imaginary
    try:
        rho = linalg.DensityOperator(parts[..., 0] + 1j * parts[..., 1], bipartition=(2, 2))
        value = dv.discord_estimate_2q(rho)
    except Exception:
        return 1, "", traceback.format_exc()
    return 0, repr(float(value)), ""


def _expand(argv: list, r: int, seed_base) -> list:
    seed = "" if seed_base is None else str(seed_base + r)
    return [a.replace("{r}", str(r)).replace("{seed}", seed) for a in argv]


def run(spec: dict) -> dict:
    _add_src(spec["root"])
    os.chdir(spec["workdir"])
    import qdverify.cli as cli
    from qdverify import dv, linalg

    caches = _program_caches()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    def job(r: int, j: int, item: dict) -> dict:
        for clear in caches:
            clear()
        if tracer:
            tracer.start_job((r, j))
        t0 = time.perf_counter()
        if item["kind"] == "cli":
            code, out, err = _run_cli(cli, _expand(item["argv"], r, item.get("seed_base")))
        else:
            code, out, err = _run_discord(dv, linalg, item["matrix"])
        t1 = time.perf_counter()
        return {"r": r, "j": j, "code": code, "out": out, "err": err[-2000:],
                "ms": (t1 - t0) * 1e3, "end": t1}

    jobs = spec["jobs"]
    job(-1, 0, jobs[0])            # warm-up: lazy imports and first-call costs
    done = []
    start = time.perf_counter()
    r = 0
    while True:
        for j, item in enumerate(jobs):
            done.append(job(r, j, item))
        r += 1
        if done[-1]["end"] - start >= spec["seconds"]:
            break
    result = {
        "jobs": done,
        "phase_s": done[-1]["end"] - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "layers": None,
        "absent": [],
    }
    if tracer:
        result["layers"] = tracer.metrics([(d["r"], d["j"]) for d in done])
        result["absent"] = tracer.absent
        tracer.write(spec["trace_file"])
    return result


def main(argv: list) -> int:
    if argv[:1] == ["--ready"]:
        _add_src(os.environ["PERFBENCH_ROOT"])
        __import__(argv[1])
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
