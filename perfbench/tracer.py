"""In-memory span tracer for the benchmark's traced run.

Spans are opened and closed around calls into the library from outside
(see ``layers.py``); nothing inside the library is edited.  Each span
records its layer name, start and end (``perf_counter_ns``), its own id,
its parent's id and the run id of the job repetition it belongs to.

Self time is computed as the spans are closed: a span's duration minus
the durations of its direct children.  Per-layer totals are therefore
exact for every span, while the list of individual spans kept for the
Chrome export is capped so that a traced run with millions of
per-record spans does not exhaust memory.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

#: Individual spans kept for :meth:`Tracer.chrome`; later spans still
#: count in the totals but are not stored.
MAX_SPANS = 200_000


class Tracer:
    """Stack-based span recorder with per-layer self-time totals."""

    def __init__(self):
        self.spans = []          # (name, start, end, span_id, parent_id, run)
        self.dropped = 0
        self.run_id = 0
        #: layer -> [self ns, total ns, spans, longest span ns]
        self.layers = defaultdict(lambda: [0, 0, 0, 0])
        self.counts = defaultdict(int)
        self._stack = []         # [name, start, child_ns, span_id]
        self._next_id = 0

    # ------------------------------------------------------------------
    def enter(self, name: str) -> None:
        """Open a span of layer ``name`` as a child of the current one."""
        self._next_id += 1
        self._stack.append([name, perf_counter_ns(), 0, self._next_id])

    def exit(self) -> None:
        """Close the innermost open span."""
        end = perf_counter_ns()
        stack = self._stack
        name, start, child_ns, span_id = stack.pop()
        duration = end - start
        layer = self.layers[name]
        layer[0] += duration - child_ns
        layer[1] += duration
        layer[2] += 1
        if duration > layer[3]:
            layer[3] = duration
        parent = -1
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][3]
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (name, start, end, span_id, parent, self.run_id))
        else:
            self.dropped += 1

    def self_ns(self, name: str) -> int:
        """Total self time of layer ``name``."""
        return self.layers[name][0] if name in self.layers else 0

    def total_ns(self, name: str) -> int:
        """Total inclusive time of layer ``name``'s spans."""
        return self.layers[name][1] if name in self.layers else 0

    def max_ns(self, name: str) -> int:
        """Duration of layer ``name``'s longest span."""
        return self.layers[name][3] if name in self.layers else 0

    # ------------------------------------------------------------------
    def chrome(self) -> dict:
        """The kept spans as Chrome trace events on one wall-clock lane
        (microseconds from the first span)."""
        origin = min((span[1] for span in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": "wall-clock",
                "args": {"span": span_id, "parent": parent, "run": run},
            }
            for name, start, end, span_id, parent, run in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped},
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome(), handle)


class TimedIter:
    """Proxy over an iterator or generator that opens one span per
    ``next()``/``send()``/``throw()``, so work done lazily between a
    call's return and the generator's exhaustion is charged to the layer
    that does it.  ``yield from`` and the service's ``send``/``throw``
    driving work through the proxy unchanged."""

    __slots__ = ("_tracer", "_name", "_it", "_count")

    def __init__(self, tracer: Tracer, name: str, iterator,
                 count: str = None):
        self._tracer = tracer
        self._name = name
        self._it = iterator
        self._count = count

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        tracer.enter(self._name)
        try:
            if value is None:
                item = next(self._it)
            else:
                item = self._it.send(value)
        finally:
            tracer.exit()
        if self._count is not None:
            tracer.counts[self._count] += 1
        return item

    def throw(self, *args):
        tracer = self._tracer
        tracer.enter(self._name)
        try:
            return self._it.throw(*args)
        finally:
            tracer.exit()

    def close(self):
        close = getattr(self._it, "close", None)
        if close is not None:
            tracer = self._tracer
            tracer.enter(self._name)
            try:
                close()
            finally:
                tracer.exit()
