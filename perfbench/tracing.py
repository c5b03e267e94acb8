"""Timing wrappers installed around ssjacobi's public functions.

A wrapped call records a span (name, start, end, parent span, problem
id) in memory; spans are written out when the run ends.  A name is
wrapped wherever a ssjacobi module holds a reference to it, because
modules that bind a function through ``from ... import`` look it up in
their own namespace.  A target that no longer exists is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

import numpy as np


def _rule_key(args):
    return tuple(float(v) for v in args[:3])


def _reduction_key(args):
    g, shift = args[0], args[1]
    digest = hashlib.blake2b(digest_size=16)
    for block in (g.a, g.b, g.c, g.d, g.e):
        digest.update(np.ascontiguousarray(block).tobytes())
    digest.update(repr(float(shift)).encode())
    return digest.digest()


def _repeats(key):
    """Hook counting calls whose key was already seen, for repeat_frac."""

    def hook(tracer, prefix, args):
        k = key(args)
        tracer.repeats[prefix] += k in tracer.seen[prefix]
        tracer.seen[prefix].add(k)

    return hook


def _cells(tracer, prefix, args):
    tracer.cells += (int(args[2]) + 1) * int(np.size(args[3]))


def _f_calls(tracer, prefix, args):
    f = args[1]

    def counted(*f_args, **f_kwargs):
        tracer.f_calls += 1
        return f(*f_args, **f_kwargs)

    args[1] = counted


# (metric prefix, module, attribute path, hook, stats reported).  A hook
# sees the call's arguments in signature order before the call; it
# updates a counter and may replace an argument.
TARGETS = (
    ("specfun.gauss_jacobi_rule", "specfun", "gauss_jacobi_rule", _repeats(_rule_key), ("calls", "self_s", "repeat_frac")),
    ("specfun.jacobi_table", "specfun", "jacobi_table", _cells, ("calls", "self_s", "cells")),
    ("spectral.expand", "spectral", "expand", _f_calls, ("calls", "self_s", "f_calls")),
    ("spectral.reconstruct", "spectral", "reconstruct", None, ("calls", "self_s")),
    ("spectral.differentiate", "spectral", "differentiate", None, ("calls", "self_s")),
    ("spectral.step_diffusion", "spectral", "step_diffusion", None, ("calls", "self_s")),
    ("spectral.step_advection_cayley", "spectral", "step_advection_cayley", None, ("calls", "self_s")),
    ("semisep.reduce_to_banded", "semisep", "reduce_to_banded", _repeats(_reduction_key), ("calls", "self_s", "repeat_frac")),
    ("semisep.band_solve", "semisep", "BandedMatrix.solve", None, ("calls", "self_s")),
    ("semisep.solve_structured", "semisep", "solve_structured", None, ("calls", "self_s")),
    ("semisep.matvec", "semisep", "SemiSepGenerators.matvec", None, ("calls", "self_s")),
    ("semisep.skew_expand", "semisep", "skew_expand", None, ("self_s",)),
    ("semisep.scale", "semisep", "scale", None, ("self_s",)),
    ("semisep.product", "semisep", "product", None, ("self_s",)),
    ("jacobidiff.oracle_matrix", "jacobidiff", "oracle_matrix", None, ("self_s",)),
    ("jacobidiff.dtilde_lower_triangle", "jacobidiff", "dtilde_lower_triangle", None, ("self_s",)),
    ("jacobidiff.boundedness_sums", "jacobidiff", "boundedness_sums", None, ("self_s",)),
    ("cli.cmd_verify", "cli", "cmd_verify", None, ("self_s",)),
    ("jacobidiff.build", "jacobidiff", "build", None, ("calls", "self_s")),
    ("jacobidiff.generators", "jacobidiff", "generators", None, ("calls", "self_s")),
    ("jacobidiff.kappa_vector", "jacobidiff", "kappa_vector", None, ("calls", "self_s")),
)

UNITS = {"calls": "count", "self_s": "s", "repeat_frac": "ratio", "cells": "count", "f_calls": "count"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [(f"{prefix}.{stat}", UNITS[stat]) for prefix, *_, stats in TARGETS for stat in stats]
    return names + [("trace.overhead_frac", "ratio")]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []          # [name index, start, end, parent, problem]
        self.stack: list[int] = []
        self.problem = -1              # -1 while setting up
        self.paused = False
        self.seen: dict[str, set] = {}
        self.repeats: dict[str, int] = {}
        self.cells = 0
        self.f_calls = 0
        self.absent: list[str] = []
        self.hook_s: dict[int, float] = {}  # span -> time its hooks took

    def wrap(self, prefix: str, fn, hook):
        index = len(self.names)
        self.names.append(prefix)
        self.seen[prefix] = set()
        self.repeats[prefix] = 0
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            if hook:
                hook_start = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                names = list(bound.arguments)
                values = list(bound.arguments.values())
                hook(self, prefix, values)
                bound.arguments.update(zip(names, values))
                args, kwargs = bound.args, bound.kwargs
                # The hook is tracing overhead: keep it out of the parent's self time.
                self.hook_s[parent] = self.hook_s.get(parent, 0.0) + time.perf_counter() - hook_start
            span = len(self.spans)
            self.spans.append([index, 0.0, 0.0, parent, self.problem])
            self.stack.append(span)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[span][1:3] = start, end

        return wrapper

    def install(self, package: str = "ssjacobi") -> None:
        """Wrap every target in every loaded module of the package."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for prefix, module_name, path, hook, _ in TARGETS:
            try:
                owner = importlib.import_module(f"{package}.{module_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(prefix)
                continue
            wrapped = self.wrap(prefix, original, hook)
            if outer:
                setattr(owner, attr, wrapped)
            else:
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapped)

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded so far."""
        child = [self.hook_s.get(span, 0.0) for span in range(len(self.spans))]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for span, (index, start, end, _, _) in enumerate(self.spans):
            calls[index] += 1
            self_s[index] += (end - start) - child[span]
        stats_of = {prefix: stats for prefix, *_, stats in TARGETS}
        out = {}
        for index, prefix in enumerate(self.names):
            values = {
                "calls": calls[index],
                "self_s": self_s[index],
                "repeat_frac": self.repeats[prefix] / calls[index] if calls[index] else 0.0,
                "cells": self.cells,
                "f_calls": self.f_calls,
            }
            for stat in stats_of[prefix]:
                out[f"{prefix}.{stat}"] = values[stat]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "problem"],
                "names": self.names,
                "spans": self.spans,
            }, fh)
