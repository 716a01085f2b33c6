"""End-to-end benchmark of qdverify, one workload per verification route.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/. Inputs are generated from --seed. Set-up time is the median of
several fresh interpreter starts. The jobs then run in one fresh child
process for --seconds, in whole rounds, and their outputs are checked here
against independent computations. The last line of standard output is one
JSON object: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per-layer with --trace 1). See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import oracles
from inputs import (
    bell_diagonal_state,
    classical_quantum_state,
    fock_diagonal,
    fock_generic,
    ginibre_state,
    noisy_bell_state,
    rng_for,
    write_dv_density,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

NONZERO = "NONZERO_DISCORD"
ZERO = "CONSISTENT_WITH_ZERO"

SETUP_STARTS = 5          # timed fresh starts per run; one more warms the file cache
CHILD_TIMEOUT_S = 150

# Every child runs single-threaded: on a 2-CPU machine a second BLAS thread
# competes with the machine's other load and widens the spread.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
# Dropped from the caller's environment: the program comes from src/ only,
# and set-up time is that of importing compiled modules (the discarded
# first start writes the byte code), whatever the caller's setting.
CHILD_ENV_DROP = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")

TOMO_SHOTS = 100000
TOMO_RESAMPLES = 100
TOMO_FALSE_POSITIVE_LIMIT = 0.05         # acceptance criterion 10
FOCK_CUTOFF, FOCK_SUPPORT = 12, 10
MOYAL_EXTENT, MOYAL_POINTS = 6.0, 128    # the CLI defaults
# Max-abs gap between the emitted commutator grid and the wavefunction
# Wigner transform. Grids are of order 1e-2 and agree to about 1e-16
# today; 1e-11 stays two orders below the 1e-9 verdict floor.
MOYAL_GRID_TOL = 1e-11
DV_NORM_RTOL = 1e-8
DV_THRESHOLD = 1e-9                      # the CLI's default commutator threshold
LUO_TOL = 1e-6                           # bits above Luo's value
ZERO_DISCORD_TOL = 1e-6                  # bits, classical-quantum states
BELOW_LUO_SLACK = 1e-9                   # rounding allowed below the bound


class Workload:
    """Inputs for one round of jobs, and the checks on their outputs."""

    module = "qdverify.cli"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.jobs = []
        self.meta = []
        self.build()

    def build(self) -> None:
        """Write one round of input files; fill self.jobs and self.meta."""
        raise NotImplementedError

    def rng(self, index: int):
        return rng_for(self.seed, self.name, index)

    def file(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def check_job(self, job: dict, meta: dict, prev: dict | None) -> list:
        raise NotImplementedError

    def check_run(self, done: list) -> list:
        return []


class DvExact(Workload):
    """verify-dv on 3x3 states: classical-quantum alternating with generic."""

    name = "dv_exact"

    def build(self):
        for i in range(8):
            rng = self.rng(i)
            zero = i % 2 == 0
            rho = classical_quantum_state(3, 3, rng) if zero else ginibre_state(9, rng)
            write_dv_density(self.file(f"dv{i}.state"), rho, (3, 3))
            self.jobs.append({"kind": "cli", "argv": ["verify-dv", f"dv{i}.state"]})
            self.meta.append({"zero": zero, "rho": rho})
        self._effects = {}

    def effects(self, report: dict) -> tuple:
        """The effects the CLI used, rebuilt from the seeds in its report,
        and whether numpy finds them PSD, complete and informationally
        complete."""
        key = (report["seeds"]["povm_kind"], report["seeds"]["povm_seed"])
        if key not in self._effects:
            sys.path.insert(0, os.path.join(ROOT, "src"))
            from qdverify.povm import default_ic_povm
            effects = np.array(default_ic_povm(3, seed=key[1], kind=key[0]).effects)
            props = oracles.povm_properties(effects)
            valid = (props["min_eig"] >= -1e-10 and props["completeness_error"] <= 1e-10
                     and props["gram_rank"] == 9)
            self._effects[key] = (effects, valid)
        return self._effects[key]

    def check_job(self, job, meta, prev):
        report = json.loads(job["out"])
        wit = report["witnesses"]
        fails = []
        if report["verdict"] != (ZERO if meta["zero"] else NONZERO):
            fails.append("dv.zero_never_flagged" if meta["zero"] else "dv.generic_detected")
        effects, valid = self.effects(report)
        if not valid:
            fails.append("dv.povm_effects_psd_complete_ic")
        conds = oracles.conditionals_on_b(meta["rho"], effects, (3, 3))
        reported = float(wit["max_commutator_norm"])
        if wit["witness_pair"]:
            j, k = wit["witness_pair"]
            ref = oracles.commutator_norm(conds[j], conds[k])
            if abs(reported - ref) > DV_NORM_RTOL * ref:
                fails.append("dv.witness_norm_matches_numpy")
        else:
            present = [c for c in conds if c is not None]
            ref = max(oracles.commutator_norm(a, b)
                      for i, a in enumerate(present) for b in present[i + 1:])
            if ref > DV_THRESHOLD or reported > DV_THRESHOLD:
                fails.append("dv.zero_norms_below_threshold")
        return fails


class TomoShots(Workload):
    """tomo at 1e5 shots on 2x2 states, each sampling job followed by a replay."""

    name = "tomo_shots"

    def build(self):
        self.sic = oracles.sic_qubit_effects()
        for i in range(4):
            rng = self.rng(i)
            zero = i % 2 == 0
            rho = classical_quantum_state(2, 2, rng) if zero else noisy_bell_state(rng)
            write_dv_density(self.file(f"tomo{i}.state"), rho, (2, 2))
            j = len(self.jobs)
            self.jobs.append({
                "kind": "cli", "seed_base": int(rng.integers(2 ** 30)),
                "argv": ["tomo", f"tomo{i}.state", "--shots", str(TOMO_SHOTS),
                         "--resamples", str(TOMO_RESAMPLES), "--seed", "{seed}",
                         "--record-out", f"rec_{{r}}_{j}.json"]})
            self.meta.append({"zero": zero, "rho": rho, "replay": False})
            self.jobs.append({"kind": "cli", "argv": ["tomo", f"rec_{{r}}_{j}.json"]})
            self.meta.append({"zero": zero, "rho": rho, "replay": True})

    def check_job(self, job, meta, prev):
        report = json.loads(job["out"])
        if meta["replay"]:
            original = json.loads(prev["out"]) if prev and prev["code"] == 0 else {}
            same = all(original.get(k) == report[k] for k in ("verdict", "witnesses"))
            return [] if same else ["tomo.replay_reproduces_job"]
        fails = []
        if not meta["zero"] and report["verdict"] != NONZERO:
            fails.append("tomo.discordant_detected")
        spec = self.jobs[job["j"]]
        if report["seeds"]["sampling_seed"] != spec["seed_base"] + job["r"]:
            fails.append("tomo.own_sampling_seed")
        with open(self.file(f"rec_{job['r']}_{job['j']}.json"), encoding="ascii") as fh:
            record = json.load(fh)
        counts = np.array(record["counts"], dtype=np.int64)
        if counts.sum() != TOMO_SHOTS or record["total"] != TOMO_SHOTS:
            fails.append("tomo.counts_sum_to_shots")
        for side in ("povm_a", "povm_b"):
            effects = np.array([[[complex(float(re), float(im)) for re, im in row]
                                 for row in e] for e in record[side]["effects"]])
            if effects.shape != self.sic.shape or np.max(np.abs(effects - self.sic)) > 1e-12:
                fails.append("tomo.record_effects_are_sic")
        probs = oracles.born_probabilities(meta["rho"], self.sic, self.sic)
        if oracles.chi_square(counts, probs) > oracles.CHI2_LIMIT_DF15:
            fails.append("tomo.counts_match_born_chi2")
        return fails

    def check_run(self, done):
        zero_jobs = [d for d in done if d["code"] == 0
                     and self.meta[d["j"]]["zero"] and not self.meta[d["j"]]["replay"]]
        flagged = sum(json.loads(d["out"])["verdict"] == NONZERO for d in zero_jobs)
        if zero_jobs and flagged / len(zero_jobs) > TOMO_FALSE_POSITIVE_LIMIT:
            return [f"tomo.false_positive_rate ({flagged}/{len(zero_jobs)})"]
        return []


class CvMoyal(Workload):
    """moyal at the CLI defaults on Fock-tagged pairs: commuting beside generic."""

    name = "cv_moyal"

    def build(self):
        step = 2.0 * MOYAL_EXTENT / MOYAL_POINTS
        axis = -MOYAL_EXTENT + np.arange(MOYAL_POINTS) * step
        for i in range(4):
            rng = self.rng(i)
            zero = i % 2 == 0
            make = fock_diagonal if zero else fock_generic
            pair = [make(FOCK_CUTOFF, FOCK_SUPPORT, rng) for _ in range(2)]
            for side, rho in zip("ab", pair):
                write_dv_density(self.file(f"fock{i}{side}.state"), rho,
                                 fock_cutoff=FOCK_CUTOFF)
            self.jobs.append({"kind": "cli", "argv": [
                "moyal", f"fock{i}a.state", f"fock{i}b.state",
                "--out", f"grid_{{r}}_{i}.json"]})
            self.meta.append({"zero": zero,
                              "grid": oracles.commutator_wigner(pair[0], pair[1], axis, axis)})

    def check_job(self, job, meta, prev):
        report = json.loads(job["out"])
        fails = []
        if report["verdict"] != (ZERO if meta["zero"] else NONZERO):
            fails.append("cv.commuting_pair_zero" if meta["zero"] else "cv.generic_pair_detected")
        with open(self.file(f"grid_{job['r']}_{job['j']}.json"), encoding="ascii") as fh:
            doc = json.load(fh)
        geometry = [float(doc[k]) for k in ("x_min", "x_max", "p_min", "p_max")]
        if geometry != [-MOYAL_EXTENT, MOYAL_EXTENT] * 2 or doc["nx"] != MOYAL_POINTS \
                or doc["np"] != MOYAL_POINTS:
            return fails + ["cv.grid_geometry"]
        values = np.array(doc["values"], dtype=float)
        if np.max(np.abs(values - meta["grid"])) > MOYAL_GRID_TOL:
            fails.append("cv.grid_matches_wavefunction_wigner")
        if float(report["witnesses"]["grid_max_abs"]) != np.max(np.abs(values)):
            fails.append("cv.reported_max_is_grid_max")
        return fails


class Discord2q(Workload):
    """dv.discord_estimate_2q on Bell-diagonal and classical-quantum states."""

    name = "discord_2q"
    module = "qdverify.dv"

    def build(self):
        for i in range(2):
            rng = self.rng(i)
            zero = i % 2 == 1
            rho = classical_quantum_state(2, 2, rng) if zero else bell_diagonal_state(rng)
            self.jobs.append({"kind": "discord_2q",
                              "matrix": np.stack([rho.real, rho.imag], -1).tolist()})
            self.meta.append({"zero": zero,
                              "luo": None if zero else oracles.luo_discord_bell_diagonal(rho)})

    def check_job(self, job, meta, prev):
        value = float(job["out"])
        if meta["zero"]:
            ok = -BELOW_LUO_SLACK <= value <= ZERO_DISCORD_TOL
            return [] if ok else ["d2q.classical_quantum_zero"]
        fails = []
        if value < meta["luo"] - BELOW_LUO_SLACK:
            fails.append("d2q.not_below_luo")
        if value > meta["luo"] + LUO_TOL:
            fails.append("d2q.matches_luo")
        return fails


WORKLOADS = {w.name: w for w in (DvExact, TomoShots, CvMoyal, Discord2q)}


def child_env() -> dict:
    env = dict(os.environ, PERFBENCH_ROOT=ROOT, **CHILD_ENV)
    for name in CHILD_ENV_DROP:
        env.pop(name, None)
    return env


def setup_seconds(module: str) -> float:
    """Median time from a fresh interpreter to the program imported and ready."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--ready", module]
    times = []
    for _ in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise RuntimeError(f"{module} did not import")
        times.append(t1 - t0)
    return statistics.median(times[1:])


def run_child(workload: Workload, seconds: int, trace: bool) -> dict:
    spec_path = os.path.join(workload.workdir, "spec.json")
    result_path = os.path.join(workload.workdir, "result.json")
    spec = {"root": ROOT, "workdir": workload.workdir, "seconds": seconds,
            "trace": trace, "jobs": workload.jobs,
            "trace_file": os.path.join(OUT, f"trace-{workload.name}.jsonl")}
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
                   env=child_env(), cwd=HERE, check=True, timeout=CHILD_TIMEOUT_S)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: Workload, done: list) -> tuple:
    """Failed jobs, jobs that ran but gave a wrong output, and what failed.

    A job fails when it exits non-zero or when a check on its output fails;
    only the second kind, or a failed run-level check, makes the run's
    outputs incorrect.
    """
    failed, wrong, names = 0, 0, []
    prev = None
    for job in done:
        if job["code"] != 0:
            fails = [f"exit status {job['code']}: {job['err'].strip()[-300:]}"]
        else:
            try:
                fails = workload.check_job(job, workload.meta[job["j"]], prev)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                fails = [f"unreadable output ({type(exc).__name__}: {exc})"]
            wrong += bool(fails)
        if fails:
            failed += 1
            names.extend(f"job r{job['r']} j{job['j']}: {f}" for f in fails)
        prev = job
    run_fails = workload.check_run([d for d in done if d["code"] == 0])
    return failed, wrong, names + run_fails, bool(run_fails)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qdverify", "cli.py")):
        sys.stderr.write(f"error: no qdverify sources under {ROOT}/src\n")
        return 2

    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup = None if args.trace else setup_seconds(workload.module)
        result = run_child(workload, args.seconds, bool(args.trace))
        done = result["jobs"]
        failed, wrong, names, run_failed = check(workload, done)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in names[:20]:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    ok = [d for d in done if d["code"] == 0]
    # The fastest job is the program's cost with the host's CPU undisturbed:
    # every round repeats the same jobs, and contention from other tenants
    # only ever adds time (see README, "Machine and noise").
    fastest = min((d["ms"] for d in ok), default=0.0)
    if args.trace:
        if result["absent"]:
            print("absent from the program, reported as 0: "
                  + ", ".join(result["absent"]), file=sys.stderr)
        print(f"traced verdict_min_ms {fastest:.3f}", file=sys.stderr)
        metrics = result["layers"]
    else:
        metrics = {
            "verdict_min_ms": {"value": fastest, "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup, "unit": "s"},
        }
    # Reported, not gated: host contention moves both by a quarter or more
    # from run to run.
    p50 = statistics.median(d["ms"] for d in ok) if ok else 0.0
    print(f"verdicts_per_s {len(ok) / result['phase_s']:.4f} 1/s  "
          f"verdict_p50_ms {p50:.4f} ms  (not gated)")
    print(json.dumps({"correct": wrong == 0 and not run_failed,
                      "attempted": len(done), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
