"""In-memory spans around the benchmark's calls into parmon.

A span records name, start, end, parent span and the id of the item it
worked on (a table or a word).  Spans opened while ``probing`` is set
belong to extra calls the traced pass makes only to time a lower layer
on its own, outside the pass's timed parts.

``NullTracer`` has the same surface and returns every function
unwrapped, so the untraced pass calls parmon directly.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns


class NullTracer:
    on = False
    item = None

    def wrap(self, name, fn):
        return fn

    def span(self, name):
        return nullcontext()

    def probing(self):
        return nullcontext()


class Tracer:
    on = True

    def __init__(self):
        # (id, name, start_ns, end_ns, parent_id or None, item, probe)
        self.spans: list = []
        self.item = None
        self._stack: list[int] = []
        self._probe = False

    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, name, start, parent):
        end = perf_counter_ns()
        self._stack.pop()
        self.spans[sid] = (sid, name, start, end, parent, self.item, self._probe)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, name, start, parent)
        return traced

    @contextmanager
    def span(self, name):
        sid, parent = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, name, start, parent)

    @contextmanager
    def probing(self):
        self._probe = True
        try:
            yield
        finally:
            self._probe = False

    # -------------------------------------------------- summaries

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_ns = [0] * len(self.spans)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, float] = {}
        for sid, name, start, end, _, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - child_ns[sid]) / 1e9
        return out

    def seconds_by_item(self, name: str, probe: bool) -> dict:
        """Total duration of spans called name, per item."""
        out: dict = {}
        for _, n, start, end, _, item, p in self.spans:
            if n == name and p == probe:
                out[item] = out.get(item, 0.0) + (end - start) / 1e9
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, item, probe in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "item": item, "probe": probe}) + "\n")
