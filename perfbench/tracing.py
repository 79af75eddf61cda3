"""Spans and exact counters for the benchmark's traced run.

Layer functions are wrapped at the names their callers bind (for example
``ppdfl.protocol.min_iterations`` or ``ppdfl.sharing._inverse_int``), so the
program's own files stay untouched. A span is (operation, span id, parent
span id, name, start, end); spans of one operation share its id. Counters
count every call, and run.py takes their difference across one
operation. Spans and counters stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._op = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def begin(self, op) -> None:
        """Attribute spans to operation ``op`` until end() is called."""
        self._op = op
        # A deadline can interrupt a span between its push and its pop.
        self._stack = []

    def end(self) -> None:
        self._op = None

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent, name: str, start: float) -> None:
        end = time.perf_counter()
        if self._stack and self._stack[-1] == sid:
            self._stack.pop()
        self.spans.append((self._op, sid, parent, name, start, end))

    @contextmanager
    def span(self, name: str):
        """Span around a call the benchmark itself makes into a layer."""
        if self._op is None:
            yield
            return
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def wrap(self, owner, attr: str, span: str | None = None,
             count: str | None = None, observe=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span and/or a count.

        ``observe(counts, args, result)`` may add exact sizes to the counters.
        """
        fn = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if span is None or self._op is None:
                result = fn(*args, **kwargs)
            else:
                sid, parent = self._open()
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(sid, parent, span, start)
            if observe is not None:
                observe(counts, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def times(self) -> dict:
        """Per operation: {span name: (total seconds, self seconds)}.

        Self time is a span's duration minus the time its direct children
        cover.
        """
        child = Counter()
        for op, sid, parent, name, start, end in self.spans:
            if parent is not None:
                child[(op, parent)] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
        for op, sid, parent, name, start, end in self.spans:
            slot = out[op][name]
            slot[0] += end - start
            slot[1] += end - start - child[(op, sid)]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
