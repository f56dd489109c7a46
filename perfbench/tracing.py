"""Spans and counters around sumrep's public functions, for traced runs only.

The tracer rebinds the names that each calling module looks up at call
time (``sumrep.verify.rep_table``, ``sumrep.construct.check_premise``,
``sumrep.cli.main``, ...) to timing wrappers, and restores every binding
on ``uninstall``.  Spans (name, start, end, parent) are kept in memory.
A span opened on a worker thread with no open span of its own takes the
innermost open span of the installing thread as its parent: that is the
call blocked on the worker pool.  Per-x helpers are counted, not timed.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
from bisect import bisect_right
from collections import Counter
from time import perf_counter


def _rep_table_cells(fn, args, kwargs, result):
    """h * #(elements <= hi) * (hi + 1): computed from the call, not measured."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    A, h = bound.arguments["A"], bound.arguments["h"]
    return "repcount.rep_table.cells", h * bisect_right(A.elements, result.hi) * (result.hi + 1)


def _bound_checks(fn, args, kwargs, result):
    return "verify.bound_checks", len(result.checks)


# (module, attribute, label, kind, work annotation).  ``span`` times the
# call; ``count`` only counts it.  Several bindings may share one label
# when different callers look the same function up in different modules.
BINDINGS = (
    ("sumrep.cli", "main", "cli.main", "span", None),
    ("sumrep.cli", "load_set", "intset.load_set", "span", None),
    ("sumrep.cli", "rep_count", "repcount.rep_count", "span", None),
    ("sumrep.cli", "rep_table", "repcount.rep_table", "span", _rep_table_cells),
    ("sumrep.cli", "sumset", "repcount.sumset", "span", None),
    ("sumrep.verify", "rep_table", "repcount.rep_table", "span", _rep_table_cells),
    ("sumrep.verify", "blocks", "intset.blocks", "span", None),
    ("sumrep.verify", "counting", "intset.counting", "count", None),
    ("sumrep.verify", "bound_value", "verify.bound_value", "count", None),
    ("sumrep.verify", "min_threshold", "verify.min_threshold", "span", None),
    ("sumrep.verify", "check_premise", "verify.check_premise", "span", None),
    ("sumrep.verify", "is_bhs", "verify.is_bhs", "span", None),
    ("sumrep.verify", "block_growth_check", "verify.block_growth_check", "span", None),
    ("sumrep.verify", "witness_certificate", "verify.witness_certificate", "span", None),
    ("sumrep.verify", "distinct_tops", "verify.distinct_tops", "span", None),
    ("sumrep.verify", "verify_counting_bound", "verify.verify_counting_bound", "span",
     _bound_checks),
    ("sumrep.verify", "run_theorem", "verify.run_theorem", "span", None),
    ("sumrep.construct", "min_threshold", "verify.min_threshold", "span", None),
    ("sumrep.construct", "check_premise", "verify.check_premise", "span", None),
    ("sumrep.construct", "counting", "intset.counting", "count", None),
    ("sumrep.construct", "bound_value", "verify.bound_value", "count", None),
    ("sumrep.construct", "greedy_repair", "construct.greedy_repair", "span", None),
    ("sumrep.construct", "density_report", "construct.density_report", "span", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._owner = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, label, fn, annotate):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = self._owner_stack
                parent = owner[-1] if owner and stack is not owner else None
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, label, start, end, parent))
            if annotate is not None:
                key, amount = annotate(fn, args, kwargs, result)
                self.add(key, amount)
            return result

        return wrapper

    def _counted(self, label, fn):
        key = label + ".calls"

        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] += amount

    def install(self) -> None:
        """Rebind every binding whose module still defines the name."""
        self._owner = threading.get_ident()
        for module_name, attr, label, kind, annotate in BINDINGS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            wrapped = (self._span(label, original, annotate) if kind == "span"
                       else self._counted(label, original))
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def totals(self) -> dict[str, float]:
        """Inclusive seconds, self seconds and call counts per label."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: Counter = Counter(self.counts)
        for sid, label, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[label + ".s"] += end - start
            out[label + ".self_s"] += end - start - covered
            out[label + ".calls"] += 1
        return dict(out)

    def span_records(self) -> list[dict]:
        return [{"id": sid, "name": label, "start": start, "end": end, "parent": parent}
                for sid, label, start, end, parent in self.spans]
