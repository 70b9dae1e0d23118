"""Spans around the program's layers, recorded from outside the program.

``Tracer`` replaces functions by module attribute with wrappers that record
a span (name, start, end, parent span) in memory.  Self time is a span's
duration minus the durations of its child spans.  A name that no longer
exists is reported as missing and left alone.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, layer, how): "call" wraps the function (a dotted
# attribute names a method on its class), "factory" wraps the closures the
# function returns.  A module that imported a function by name calls its own
# binding, so each binding is listed.  Layer None marks the harness's solve
# call, whose span is named after the scheme it solves.
WRAPS = [
    ("pinchcast.channel", "path_terms", "channel.path_terms", "call"),
    ("pinchcast.seo", "path_terms", "channel.path_terms", "call"),
    ("pinchcast.seo", "_candidate_gains", "seo.gains", "call"),
    ("pinchcast.ula", "_candidate_gains", "seo.gains", "call"),
    ("pinchcast.seo", "_pair_gains", "seo.gains", "call"),
    ("pinchcast.seo", "_run_sweeps", "seo.sweep", "call"),
    ("pinchcast.seo", "_select", "seo.select", "call"),
    ("pinchcast.ula", "_select", "seo.select", "call"),
    ("pinchcast.noma", "mmf_rate_bound_batch", "noma.bound", "factory"),
    ("pinchcast.tdma", "mmf_rate_bound_batch", "noma.bound", "factory"),
    ("pinchcast.ula", "mmf_rate_bound_batch", "noma.bound", "factory"),
    ("pinchcast.tdma", "pm_rate_bound_batch", "tdma.bound", "factory"),
    ("pinchcast.ula", "pm_rate_bound_batch", "tdma.bound", "factory"),
    ("pinchcast.noma", "_mmf_gamma", "noma.exact", "call"),
    ("pinchcast.ula", "_mmf_gamma", "noma.exact", "call"),
    ("pinchcast.tdma", "_PmRateSolver.rate", "tdma.exact", "call"),
    ("pinchcast.tdma", "pm_resource_allocation", "tdma.alloc", "call"),
    ("pinchcast.ula", "pm_resource_allocation", "tdma.alloc", "call"),
    ("pinchcast.noma", "noma_mmf_bisection", "noma.alloc", "call"),
    ("pinchcast.ula", "noma_mmf_bisection", "noma.alloc", "call"),
    ("pinchcast.ula", "_phase_sweep", "ula.sweep", "call"),
    ("pinchcast.experiments", "_run_trial", "experiments.trial", "call"),
    ("pinchcast.experiments", "_solve_one", None, "call"),
]

# the final allocation's inner calls count as allocation, not as the sweep's
# exact objective
OPAQUE = {"noma.alloc"}

SOLVE_PREFIX = "solve."


def _solve_one_name(args, kwargs) -> str:
    # experiments._solve_one(scheme, baseline, topology, config, rng, equal_time)
    return SOLVE_PREFIX + ("ula-" if args[1] else "") + args[0]


class Tracer:
    """Keeps spans as [name, start_ns, end_ns, parent_index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()
        self.results: list[tuple[str, object]] = []  # (solve span, returned value)

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _opaque(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0] in OPAQUE

    def _wrap(self, fn, name, keep: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._opaque():
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            idx = tracer._enter(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if keep:
                tracer.results.append((span_name, result))
            return result

        return wrapper

    def _wrap_factory(self, factory, name):
        tracer = self

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return tracer._wrap(factory(*args, **kwargs), name)

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, wraps=WRAPS) -> "Tracer":
        for module_name, attr, layer, how in wraps:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.add(f"{module_name}.{attr}")
                continue
            if how == "factory":
                new = self._wrap_factory(fn, layer)
            elif layer is None:  # a solve: its span names the scheme, its result is kept
                new = self._wrap(fn, _solve_one_name, keep=True)
            else:
                new = self._wrap(fn, layer)
            self._restore.append((owner, leaf, fn))
            setattr(owner, leaf, new)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, fn = self._restore.pop()
            setattr(owner, leaf, fn)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(("id", "name", "start_ns", "end_ns", "parent"))
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                w.writerow((i, name, t0, t1, parent))


def layer_totals(spans) -> dict[tuple[str, str | None], list[float]]:
    """[self seconds, total seconds, calls] per (layer, scheme).

    The scheme of a span is that of its nearest enclosing ``solve.*`` span,
    None outside any solve; solve spans themselves are keyed ("solve", scheme).
    """
    child = [0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    scheme: list[str | None] = [None] * len(spans)
    out: dict[tuple[str, str | None], list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    for i, (name, t0, t1, parent) in enumerate(spans):
        if name.startswith(SOLVE_PREFIX):
            scheme[i] = name[len(SOLVE_PREFIX):]
            key = ("solve", scheme[i])
        else:
            scheme[i] = scheme[parent] if parent >= 0 else None
            key = (name, scheme[i])
        acc = out[key]
        acc[0] += (t1 - t0 - child[i]) * 1e-9
        acc[1] += (t1 - t0) * 1e-9
        acc[2] += 1
    return dict(out)
