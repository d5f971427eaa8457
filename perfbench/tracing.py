"""Spans around calls into qxcorr's public functions, installed at run time.

Nothing in the program is edited: each traced function is replaced by a
wrapper in its defining module and in every module that bound it with
``from .x import y``, for the duration of one traced operation.  Calls made
inside process-pool workers are not traced; their work shows up as one opaque
``analysis.sweep`` span.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import sys
import time
from collections import defaultdict
from pathlib import Path

#: module -> public functions wrapped in a traced run
TRACED = {
    "cli": ("parse_config", "run"),
    "analysis": ("sweep", "find_transitions"),
    "correlations": (
        "lqfi_thermal", "lqu_thermal", "lqfi_x", "lqu_x", "m_eigenvalues", "w_eigenvalues",
        "m_eigenvalues_raw", "w_eigenvalues_raw", "thermal_xmatrix",
    ),
    "xmodel": ("gibbs_xstate", "dephase"),
    "xalgebra": ("spectrum", "eigenframe", "local_spin_in_eigenbasis"),
    "oracle": (
        "jacobi_eigh", "oracle_m_matrix", "oracle_w_matrix", "validate_density_matrix",
        "lambda_max_closed", "minimize_over_observables",
    ),
    "limits": ("high_t_series", "zero_t_limit"),
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "op")

    def __init__(self, id, parent, name, start, end, op):
        self.id, self.parent, self.name = id, parent, name
        self.start, self.end, self.op = start, end, op

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; :meth:`write` saves them when the run ends.

    A span records its name (``module.function``), start, end, the span that
    was open when it started (0 for none) and the operation it belongs to.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stack = [0]
        self._op = 0

    def _wrap(self, name: str, fn):
        spans, stack, clock, ids = self.spans, self._stack, time.perf_counter, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, parent, name, start, end, self._op))

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Trace every call made inside the block as part of operation ``op_id``."""
        modules = [m for n, m in list(sys.modules.items()) if n == "qxcorr" or n.startswith("qxcorr.")]
        patched = []
        self._op = op_id
        try:
            for module_name, functions in TRACED.items():
                home = sys.modules[f"qxcorr.{module_name}"]
                for fn_name in functions:
                    original = getattr(home, fn_name)
                    wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                patched.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)
            self._op = 0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\top\n")
            for s in self.spans:
                fh.write(f"{s.id}\t{s.parent}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.op}\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children = defaultdict(float)
    for s in spans:
        children[s.parent] += s.seconds
    return {s.id: s.seconds - children[s.id] for s in spans}
