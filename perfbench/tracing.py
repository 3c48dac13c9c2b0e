"""In-memory spans recorded around the public calls into each layer.

A span is ``(name, start, end, parent)``; every span of one traced run shares
the tracer's ``run_id``.  Spans nest on the thread that drives the
benchmark.  Sink calls made on another thread (the node backend delivers
segments from its transport reader threads) are recorded as leaves whose
parent is the span the driving thread has open at the time, so their time is
subtracted from that hub call's self time.  Nothing here reaches into the
program: spans wrap calls the benchmark itself makes, plus the sinks it hands
to the hub.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._open: list[int] = []
        self._lock = threading.Lock()  # sink threads append concurrently

    def _parent(self) -> int | None:
        return self._open[-1] if self._open else None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A nesting span; only the driving thread opens these."""
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._parent()])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished leaf span under the span the driving thread has open."""
        with self._lock:
            self.spans.append([name, start, end, self._parent()])

    def timed_sinks(self, factory: Callable[..., object]) -> Callable[..., "TimedSink"]:
        """Wrap a sink factory so every sink it makes records its calls."""

        def make(*key: object) -> TimedSink:
            return TimedSink(factory(*key), self)

        return make

    # ------------------------------------------------------------------ #
    # Reading the trace
    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = []
        for index, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for child_start, child_end in sorted(children.get(index, ())):
                low = max(child_start, reach)
                high = min(child_end, end)
                if high > low:
                    covered += high - low
                    reach = high
            out.append(end - start - covered)
        return out

    def subtree(self, root: int) -> list[int]:
        """Indices of ``root`` and every span below it."""
        members = {root}
        for index, (_, _, _, parent) in enumerate(self.spans):
            if parent in members:
                members.add(index)
        return sorted(members)

    def index_of(self, name: str) -> int:
        return next(i for i, span in enumerate(self.spans) if span[0] == name)

    def self_time(self, name: str, within: list[int] | None = None) -> float:
        selves = self.self_times()
        indices = range(len(self.spans)) if within is None else within
        return sum(selves[i] for i in indices if self.spans[i][0] == name)

    def dump(self, path: Path, **meta: object) -> None:
        payload = {
            "run_id": self.run_id,
            **meta,
            "spans": [
                {"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")


class TimedSink:
    """A segment sink proxy that records each call into the store's sink."""

    __slots__ = ("_sink", "_tracer")

    def __init__(self, sink: object, tracer: Tracer) -> None:
        self._sink = sink
        self._tracer = tracer

    def accept(self, segment: object) -> None:
        start = time.perf_counter()
        self._sink.accept(segment)
        self._tracer.record("store.sink", start, time.perf_counter())

    def flush(self) -> None:
        start = time.perf_counter()
        self._sink.flush()
        self._tracer.record("store.sink", start, time.perf_counter())

    def close(self) -> None:
        start = time.perf_counter()
        self._sink.close()
        self._tracer.record("store.sink", start, time.perf_counter())
