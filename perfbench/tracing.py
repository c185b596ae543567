"""In-memory span tracer that wraps lvsync's layer functions from outside.

Each wrapper is installed at the attribute its caller looks up: the module
global it is called through (``predicted_spectrum`` calls
``lvsync.linstab.eigenpairs``), or the ``matrix`` property of the class that
builds the matrix. The package sources stay untouched. A refactor that routes
a call around a wrapped attribute leaves that span with zero calls, and the
benchmark fails the traced run instead of reporting less work.

Spans nest on one thread. A span's self time is its duration minus the
durations of its direct children, so the self times of all spans in an op,
root included, add up to the op's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

ROOT_SPAN = "op"


def _max(counters: dict, key: str, value: float) -> None:
    counters[key] = max(counters.get(key, value), value)


def _add(counters: dict, key: str, value: float) -> None:
    counters[key] = counters.get(key, 0) + value


def _spectrum(counters: dict, spec) -> None:
    _max(counters, "spectral.eigenpairs.unknowns", spec.pairs[0].phi.grid.size)
    _max(counters, "spectral.residual_max", max(p.residual for p in spec.pairs))


def _principal(counters: dict, pair) -> None:
    _max(counters, "spectral.principal_eigenpair.unknowns", pair.phi.grid.size)
    _max(counters, "spectral.residual_max", pair.residual)


def _coupled(counters: dict, result) -> None:
    _max(counters, "linstab.coupled_eigenpairs.unknowns", result[1].shape[0])


def _logistic(counters: dict, solution) -> None:
    _add(counters, "elliptic.newton_iterations", solution.newton_iterations)


def _trajectory(counters: dict, traj) -> None:
    _add(counters, "dynamics.steps", round(float(traj.times[-1]) / traj.dt))


# (span name, module, attribute, observer of the returned value)
FUNCTIONS = (
    ("linstab.verify_theorem", "lvsync.cli", "verify_theorem", None),
    ("linstab.predicted_spectrum", "lvsync.linstab", "predicted_spectrum", None),
    ("linstab.coupled_eigenpairs", "lvsync.linstab", "coupled_eigenpairs", _coupled),
    ("spectral.eigenpairs", "lvsync.linstab", "eigenpairs", _spectrum),
    ("spectral.principal_eigenpair", "lvsync.elliptic", "principal_eigenpair", _principal),
    ("spectral.principal_eigenpair", "lvsync.cli", "principal_eigenpair", _principal),
    ("elliptic.solve_logistic", "lvsync.linstab", "solve_logistic", _logistic),
    ("elliptic.solve_logistic", "lvsync.cli", "solve_logistic", _logistic),
    ("model.synchronized_state", "lvsync.linstab", "synchronized_state", None),
    ("model.synchronized_state", "lvsync.cli", "synchronized_state", None),
    ("dynamics.evolve", "lvsync.cli", "evolve", _trajectory),
    ("dynamics.decay_rate", "lvsync.cli", "decay_rate", None),
    ("cli.io", "lvsync.cli", "write_eigentable_csv", None),
    ("cli.io", "lvsync.cli", "write_trajectory_csv", None),
    ("cli.io", "lvsync.cli", "write_field_csv", None),
)

# (span name, module, class, property): only the first access, which
# materializes the sparse matrix, opens a span
PROPERTIES = (
    ("grid.operator_matrix", "lvsync.grid", "WeightedOperator", "matrix"),
    ("linstab.jacobian_matrix", "lvsync.linstab", "CoupledJacobian", "matrix"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in FUNCTIONS + PROPERTIES))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int


class Tracer:
    """Records spans and counters of the ops run inside `traced_op`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def traced_op(self, op: int):
        """Install the wrappers, run the body as op `op`, then remove them."""
        self._op = op
        self.counters[op] = {}
        try:
            self._install()
            with self._span(ROOT_SPAN):
                yield
        finally:
            self._uninstall()
            self._op = None

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self._op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _install(self) -> None:
        for name, module, attr, observe in FUNCTIONS:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._wrap_function(vars(owner)[attr], name, observe))
        for name, module, cls_name, attr in PROPERTIES:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, attr, self._wrap_property(vars(cls)[attr], name))

    def _uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap_function(self, fn, name: str, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counters[self._op], result)
            return result

        return traced

    def _wrap_property(self, prop: property, name: str) -> property:
        def fget(obj):
            if getattr(obj, "_matrix", None) is not None:
                return prop.fget(obj)
            with self._span(name):
                return prop.fget(obj)

        return property(fget, doc=prop.__doc__)

    def per_op(self) -> dict[int, dict[str, tuple[float, int]]]:
        """{op: {span name: (self seconds, calls)}}."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        table: dict[int, dict[str, tuple[float, int]]] = {}
        for s, children in zip(self.spans, child_s):
            row = table.setdefault(s.op, {})
            self_s, calls = row.get(s.name, (0.0, 0))
            row[s.name] = (self_s + (s.end - s.start) - children, calls + 1)
        return table

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "op": s.op}
                ))
                fh.write("\n")
