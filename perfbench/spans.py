"""In-memory spans recorded by the benchmark around calls into toricstab.

A span is (name, start, end, parent, op).  Spans are kept in a list and
written out once the run ends; the benchmark never prints them.  The layer
of a span is the part of its name before the first dot, so
"exactgeom.dual_polytope" belongs to the exactgeom layer.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, op: int):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "op": op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        except Exception:
            rec["error"] = True
            self.errors[layer_of(name)] += 1
            raise
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def call(self, name: str, op: int, fn, *args):
        with self.span(name, op):
            return fn(*args)

    def tree(self, root_id: int) -> list[dict]:
        """The span with id root_id and every span below it."""
        ids = {root_id}
        out = []
        for rec in self.spans[root_id:]:
            if rec["id"] in ids or rec["parent"] in ids:
                ids.add(rec["id"])
                out.append(rec)
        return out

    def duration(self, rec) -> float:
        return rec["end"] - rec["start"]

    def self_times(self, spans) -> dict[str, float]:
        """Self time per span name: duration minus the time covered by child spans."""
        child = defaultdict(float)
        for rec in spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += self.duration(rec)
        out = defaultdict(float)
        for rec in spans:
            out[rec["name"]] += self.duration(rec) - child[rec["id"]]
        return dict(out)

    def totals(self, spans) -> dict[str, float]:
        out = defaultdict(float)
        for rec in spans:
            out[rec["name"]] += self.duration(rec)
        return dict(out)

