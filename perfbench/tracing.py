"""Spans around the package's public functions, and the per-layer numbers.

A traced pass wraps every public function of each layer module, at every
module attribute that holds it (the defining module, modules that imported
it by name, and the package namespace), so calls are timed where callers look
them up. Constructor validations (``__post_init__`` of the validated
dataclasses) are wrapped on the class, which counts every instance built.
Spans stay in memory; ``Tracer.restore`` puts every original back.

A layer is a module of the package. A span's self time is its duration minus
the part of its interval that its child spans cover. Spans started in a
worker thread with nothing open in that thread take as parent the innermost
span open on the tracing thread, so a survey span's children include its
work items in every thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = ("cli", "montecarlo", "qmat", "measure", "infotheory", "witness", "cvgauss")

# Validated dataclasses: each __post_init__ call is one validation.
VALIDATED = (("qmat", "DensityMatrix"), ("measure", "Povm"), ("measure", "ProjectiveBasis"))

SAMPLERS = {"montecarlo.sample_ensemble", "montecarlo.separable_sample"}
KERNELS = {
    "montecarlo.survey_fig1_states",
    "montecarlo.soundness_audit",
    "montecarlo.ppt_min_eigenvalue",
    "montecarlo.optimize_bases",
}
WITNESS_EVALS = {
    "witness.pair_conditional",
    "witness.pair_symmetric_mi",
    "witness.mub_conditional",
    "witness.mub_mi",
    "witness.sumdiff_discrete",
    "witness.violation_gap",
}


# Every per-layer metric of a traced pass, with its unit and which way is better.
METRICS = {
    "cli.self_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "montecarlo.self_s": ("s", "lower"),
    "montecarlo.sample_self_s": ("s", "lower"),
    "montecarlo.kernel_s": ("s", "lower"),
    "montecarlo.kernel_calls": ("count", "lower"),
    "montecarlo.threads_used": ("count", "higher"),
    "montecarlo.parallel_efficiency": ("share", "higher"),
    "qmat.self_s": ("s", "lower"),
    "qmat.validations": ("count", "lower"),
    "qmat.validation_s": ("s", "lower"),
    "qmat.validations_per_item": ("1/item", "lower"),
    "measure.self_s": ("s", "lower"),
    "measure.joint_calls": ("count", "lower"),
    "measure.povm_builds": ("count", "lower"),
    "measure.povm_build_s": ("s", "lower"),
    "measure.povm_builds_per_eval": ("1/eval", "lower"),
    "measure.basis_builds": ("count", "lower"),
    "infotheory.self_s": ("s", "lower"),
    "infotheory.calls": ("count", "lower"),
    "witness.self_s": ("s", "lower"),
    "witness.evals": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.accounted_share": ("share", "higher"),
    "trace.spans": ("count", "lower"),
}


class Span(NamedTuple):
    name: str            # "<layer>.<function or class>"
    start: int           # perf_counter_ns
    end: int
    thread: int
    parent: int | None   # index of the enclosing span


class Tracer:
    """Records spans from wrappers it installs; not reentrant across passes."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.root_thread = threading.get_ident()
        self._root_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.get_ident() == self.root_thread:
                stack = self._root_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span nests under the tracing thread's
                try:
                    parent = self._root_stack[-1]
                except IndexError:
                    parent = None
            with self._lock:
                idx = len(self.spans)
                self.spans.append(None)
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans[idx] = Span(name, start, end, threading.get_ident(), parent)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public functions and validations of every layer module."""
        modules = {
            layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
        }
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(namespace, attr, hit[1])
        for layer, cls_name in VALIDATED:
            cls = getattr(modules[layer], cls_name, None)
            hook = None if cls is None else cls.__dict__.get("__post_init__")
            if hook is not None:
                self._patch(cls, "__post_init__", self.wrap(f"{layer}.{cls_name}", hook))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def finished(self) -> list[Span]:
        """All spans; call after the traced work has returned."""
        if any(s is None for s in self.spans):
            raise RuntimeError("a traced call is still open")
        return list(self.spans)


def _union_ns(intervals) -> int:
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = _union_ns(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        )
        out.append(s.end - s.start - covered)
    return out


def _parallelism(spans: list[Span], root_thread: int) -> tuple[int, float]:
    """Threads that ran work items, and their busy time over the window.

    Work items are spans that open first in a thread other than the tracing
    thread; the window is the union of the tracing-thread spans they ran
    under. A pass with no such spans ran serially: one thread, efficiency 1.
    """
    items = [
        s for s in spans
        if s.thread != root_thread
        and (s.parent is None or spans[s.parent].thread != s.thread)
    ]
    if not items:
        return 1, 1.0
    per_thread = defaultdict(list)
    for s in items:
        per_thread[s.thread].append((s.start, s.end))
    parents = {s.parent for s in items if s.parent is not None}
    window = _union_ns((spans[p].start, spans[p].end) for p in parents)
    if window <= 0:
        window = _union_ns(iv for ivs in per_thread.values() for iv in ivs)
    busy = sum(_union_ns(ivs) for ivs in per_thread.values())
    return len(per_thread), busy / (len(per_thread) * window)


def layer_metrics(spans: list[Span], root_thread: int, items: int, wall_s: float) -> dict:
    """Per-layer numbers of one traced pass over `items` work items."""
    selfs = self_times_ns(spans)
    by_layer = defaultdict(int)
    by_name = defaultdict(int)
    calls = defaultdict(int)
    layer_calls = defaultdict(int)
    for s, own in zip(spans, selfs):
        layer = s.name.split(".", 1)[0]
        by_layer[layer] += own
        by_name[s.name] += own
        calls[s.name] += 1
        layer_calls[layer] += 1

    def self_s(names):
        return sum(by_name[n] for n in names) / 1e9

    def count(names):
        return sum(calls[n] for n in names)

    evals = count(WITNESS_EVALS)
    validations = calls["qmat.DensityMatrix"]
    povm_builds = calls["measure.Povm"]
    threads, efficiency = _parallelism(spans, root_thread)
    accounted = sum(by_layer.values()) / 1e9
    return {
        "cli.self_s": by_layer["cli"] / 1e9,
        "montecarlo.self_s": by_layer["montecarlo"] / 1e9,
        "montecarlo.sample_self_s": self_s(SAMPLERS),
        "montecarlo.kernel_s": self_s(KERNELS),
        "montecarlo.kernel_calls": count(KERNELS),
        "montecarlo.threads_used": threads,
        "montecarlo.parallel_efficiency": efficiency,
        "qmat.self_s": by_layer["qmat"] / 1e9,
        "qmat.validations": validations,
        "qmat.validation_s": by_name["qmat.DensityMatrix"] / 1e9,
        "qmat.validations_per_item": validations / items,
        "measure.self_s": by_layer["measure"] / 1e9,
        "measure.joint_calls": calls["measure.joint_distribution"],
        "measure.povm_builds": povm_builds,
        "measure.povm_build_s": by_name["measure.Povm"] / 1e9,
        "measure.povm_builds_per_eval": povm_builds / evals if evals else 0.0,
        "measure.basis_builds": calls["measure.ProjectiveBasis"],
        "infotheory.self_s": by_layer["infotheory"] / 1e9,
        "infotheory.calls": layer_calls["infotheory"],
        "witness.self_s": by_layer["witness"] / 1e9,
        "witness.evals": evals,
        "trace.wall_s": wall_s,
        "trace.accounted_share": accounted / wall_s,
        "trace.spans": len(spans),
    }
