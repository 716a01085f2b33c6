"""Spans around calls into the program's public functions, for the traced run.

The tracer replaces each target function by a wrapper in every qdverify
module that holds a reference to it, so calls made through
`from .x import f` are seen too. Nothing inside the program changes. A
target that a later version removes or renames is reported as absent.

Each span is (name, parent span, start ns, end ns, job). Spans stay in
memory and are written when the run ends.
"""
from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# (module, attribute, span name). A dotted attribute names a method.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("linalg", "DensityOperator.__post_init__", "linalg.density_operator"),
    ("povm", "default_ic_povm", "povm.default_ic_povm"),
    ("povm", "dual_frame", "povm.dual_frame"),
    ("povm", "is_informationally_complete", "povm.is_informationally_complete"),
    ("dv", "condition_on_povm", "dv.condition_on_povm"),
    ("dv", "verify_commutativity", "dv.verify_commutativity"),
    ("dv", "discord_estimate_2q", "dv.discord_estimate_2q"),
    ("tomo", "sample_joint", "tomo.sample_joint"),
    ("tomo", "estimate_conditionals", "tomo.estimate_conditionals"),
    ("tomo", "significant_commutativity", "tomo.significant_commutativity"),
    ("tomo", "_bootstrap_stderr", "tomo.bootstrap"),
    ("phasespace", "wigner_from_fock", "phasespace.wigner_from_fock"),
    ("phasespace", "moyal_commutator", "phasespace.moyal_commutator"),
    ("phasespace", "_displacement_table", "phasespace.displacement_table"),
    ("statefile", "load", "statefile.load"),
    ("statefile", "write", "statefile.write"),
    ("reports", "emit", "reports.emit"),
]

# Per-layer metrics, each a per-job mean over the timed jobs:
# (metric, unit, span, statistic). Statistics: calls, ms (span time
# including children), self_ms (span time minus its children's), or a
# counter filled by the hooks below.
METRICS = [
    ("linalg.hermitian_eig_calls", "count", "linalg.hermitian_eig", "calls"),
    ("linalg.hermitian_eig_ms", "ms", "linalg.hermitian_eig", "ms"),
    ("linalg.density_operator_calls", "count", "linalg.density_operator", "calls"),
    ("linalg.density_operator_ms", "ms", "linalg.density_operator", "ms"),
    ("povm.default_ic_povm_ms", "ms", "povm.default_ic_povm", "ms"),
    ("povm.dual_frame_ms", "ms", "povm.dual_frame", "ms"),
    ("povm.is_informationally_complete_calls", "count",
     "povm.is_informationally_complete", "calls"),
    ("dv.condition_on_povm_ms", "ms", "dv.condition_on_povm", "ms"),
    ("dv.verify_commutativity_ms", "ms", "dv.verify_commutativity", "ms"),
    ("dv.checked_pairs", "count", None, "dv.checked_pairs"),
    ("dv.discord_estimate_2q_ms", "ms", "dv.discord_estimate_2q", "ms"),
    ("dv.discord_estimate_2q_self_ms", "ms", "dv.discord_estimate_2q", "self_ms"),
    ("tomo.sample_joint_ms", "ms", "tomo.sample_joint", "ms"),
    ("tomo.estimate_conditionals_ms", "ms", "tomo.estimate_conditionals", "ms"),
    ("tomo.significant_commutativity_ms", "ms", "tomo.significant_commutativity", "ms"),
    ("tomo.bootstrap_ms", "ms", "tomo.bootstrap", "ms"),
    ("tomo.bootstrap_pairs", "count", None, "tomo.bootstrap_pairs"),
    ("tomo.bootstrap_pairs_used", "count", None, "tomo.bootstrap_pairs_used"),
    ("phasespace.wigner_from_fock_ms", "ms", "phasespace.wigner_from_fock", "ms"),
    ("phasespace.moyal_commutator_ms", "ms", "phasespace.moyal_commutator", "ms"),
    ("phasespace.displacement_table_ms", "ms", "phasespace.displacement_table", "ms"),
    ("phasespace.displacement_table_mb", "MB", None, "phasespace.displacement_table_mb"),
    ("phasespace.moyal_rss_growth_mb", "MB", None, "phasespace.moyal_rss_growth_mb"),
    ("statefile.load_ms", "ms", "statefile.load", "ms"),
    ("statefile.write_ms", "ms", "statefile.write", "ms"),
    ("statefile.bytes_written", "bytes", None, "statefile.bytes_written"),
    ("reports.emit_ms", "ms", "reports.emit", "ms"),
    ("cli.main_ms", "ms", "cli.main", "ms"),
    ("cli.main_self_ms", "ms", "cli.main", "self_ms"),
]


def _resolve(modules: dict, module: str, attr: str):
    """(owner, attribute name, original) or None when the target is gone."""
    owner = modules.get(module)
    if owner is None:
        return None
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, name, None)
    return (owner, name, original) if callable(original) else None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counters = defaultdict(float)    # (job, counter) -> value
        self.absent = []
        self._seen_tables = set()

    def install(self) -> None:
        modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("qdverify.") and mod is not None}
        for module, attr, span in TARGETS:
            found = _resolve(modules, module, attr)
            if found is None:
                self.absent.append(f"{module}.{attr}")
                continue
            owner, name, original = found
            wrapper = self._wrap(original, span)
            if "." in attr:
                setattr(owner, name, wrapper)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def start_job(self, job) -> None:
        self.job = job
        self._seen_tables.clear()

    def _count(self, counter: str, value: float) -> None:
        self.counters[(self.job, counter)] += value

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        before, after = _HOOKS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            state = self._hook(name, before, args) if before else None
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (name, parent, t0, t1, self.job)
            if after:
                self._hook(name, after, args, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, name, hook, *args):
        """Run a counting hook; a later signature change disables its counter
        (listed as absent) instead of failing the program's job."""
        try:
            return hook(self, *args)
        except (AttributeError, TypeError, IndexError, KeyError):
            note = f"{name} ({hook.__name__})"
            if note not in self.absent:
                self.absent.append(note)
            return None

    def metrics(self, jobs: list) -> dict:
        """Per-job means of every metric over the given jobs."""
        wanted = set(jobs)
        calls = defaultdict(int)
        total = defaultdict(int)
        children = defaultdict(int)
        for name, parent, t0, t1, job in self.spans:
            if job in wanted and parent >= 0:
                children[parent] += t1 - t0
        self_ns = defaultdict(int)
        for sid, (name, parent, t0, t1, job) in enumerate(self.spans):
            if job not in wanted:
                continue
            calls[name] += 1
            total[name] += t1 - t0
            self_ns[name] += t1 - t0 - children[sid]
        counters = defaultdict(float)
        for (job, counter), value in self.counters.items():
            if job in wanted:
                counters[counter] += value
        n = max(len(wanted), 1)
        out = {}
        for metric, unit, span, stat in METRICS:
            if stat == "calls":
                value = calls[span] / n
            elif stat == "ms":
                value = total[span] / n / 1e6
            elif stat == "self_ms":
                value = self_ns[span] / n / 1e6
            else:
                value = counters[stat] / n
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: str) -> None:
        """One JSON array per span: [id, parent, name, start_ns, end_ns, job]."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for sid, (name, parent, t0, t1, job) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, name, t0, t1, job]) + "\n")


def _checked_pairs(tracer, args, result, state):
    tracer._count("dv.checked_pairs", getattr(result, "checked_pairs", 0))


def _bootstrap_pairs(tracer, args, result, state):
    tracer._count("tomo.bootstrap_pairs", len(args[1]) if len(args) > 1 else 0)


def _pairs_using_bootstrap(tracer, args):
    """Pairs whose commutator norm is at or below tomo.NORM_FLOOR.

    For those the delta method has no gradient and the verdict takes the
    bootstrap error; every other bootstrapped pair is discarded work.
    """
    floor = getattr(sys.modules.get("qdverify.tomo"), "NORM_FLOOR", 1e-12)
    ensemble = args[0].ensemble
    mats = [ensemble.states[k].matrix for k in ensemble.present_indices()]
    used = 0
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            used += float(np.linalg.norm(a @ b - b @ a)) <= floor
    tracer._count("tomo.bootstrap_pairs_used", used)


def _table_mb(tracer, args, result, state):
    if id(result) not in tracer._seen_tables:
        tracer._seen_tables.add(id(result))
        tracer._count("phasespace.displacement_table_mb", result.nbytes / 1e6)


def _heap_start(tracer, args):
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    return started, tracemalloc.get_traced_memory()[0]


def _heap_growth(tracer, args, result, state):
    started, base = state or (False, 0)
    peak = tracemalloc.get_traced_memory()[1]
    if started:
        tracemalloc.stop()
    tracer._count("phasespace.moyal_rss_growth_mb", (peak - base) / 1e6)


def _bytes_written(tracer, args, result, state):
    if args and os.path.exists(args[0]):
        tracer._count("statefile.bytes_written", os.path.getsize(args[0]))


_HOOKS = {
    "dv.verify_commutativity": (None, _checked_pairs),
    "tomo.bootstrap": (None, _bootstrap_pairs),
    "tomo.significant_commutativity": (_pairs_using_bootstrap, None),
    "phasespace.displacement_table": (None, _table_mb),
    "phasespace.moyal_commutator": (_heap_start, _heap_growth),
    "statefile.write": (None, _bytes_written),
}
