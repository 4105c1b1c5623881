"""Spans around calls into the library, recorded from outside it.

The tracer replaces module attributes with timing wrappers, so it sees the
calls whose callers look the name up in that module: ``decision.term_table``
is the table builder as the decision procedures call it, while the same
function reached through ``algebra.term_table`` is not traced.  Spans are kept
in memory; a layer's self time is a span's duration minus the part its child
spans cover.  A name that no longer exists is reported as an absent layer.
"""
from __future__ import annotations

import time


def _arity(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["arity"]


# (module, attribute, layer, work): work(args, kwargs, result) is the amount
# of work a call did, or (amount, hit) for a search that can succeed
TARGETS = (
    ("decision", "has_k_qwnu", "decision", None),
    ("decision", "has_k_wnu_idemp", "decision", None),
    ("decision", "has_n_local_k_qwnu", "decision", None),
    ("decision", "has_quasi_taylor", "decision", None),
    ("decision", "term_table", "term_table", lambda a, k, r: a[0].size ** _arity(a, k)),
    ("decision", "generate_until", "until", lambda a, k, r: (len(r[0]), r[1] is not None)),
    ("decision", "generate_subpower", "replay", lambda a, k, r: len(r)),
    ("decision", "extract_witness", "extract", None),
    ("subpower", "generate_subpower", "closure", lambda a, k, r: len(r)),
    ("algebra", "unary_term_monoid", "monoid", lambda a, k, r: len(r)),
    ("digraph", "is_admissible", "admissible", lambda a, k, r: (1, bool(r))),
    ("digraph", "has_algebraic_length_one", "length_one", None),
    ("io", "parse_algebra", "parse", None),
    ("io", "report_to_json", "render", lambda a, k, r: len(r)),
)


class Tracer:
    """Records spans [layer, start, end, parent index, work] while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self):
        self.absent = []
        for module_name, attr, layer, work in TARGETS:
            module = getattr(self.package, module_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, work))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def begin(self, name) -> int:
        """Open a span that the benchmark itself owns, such as one op."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._parent(), None])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _parent(self):
        return self._stack[-1] if self._stack else -1

    def _wrap(self, fn, layer, work):
        def traced(*args, **kwargs):
            idx = self.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if work is not None:
                self.spans[idx][4] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layers(self) -> dict:
        """Per layer: self seconds, call count and summed work."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, work) in enumerate(self.spans):
            entry = out.setdefault(name, {"self_s": 0.0, "calls": 0, "work": 0, "hits": 0})
            entry["self_s"] += end - start - child_time[i]
            entry["calls"] += 1
            if isinstance(work, tuple):
                entry["hits"] += work[1]
                work = work[0]
            if work is not None:
                entry["work"] += work
        return out
