"""The seeded query mix and its full-scan reference answers.

Query kinds:

- ``device``: one device over the hour ending at one of its fixes;
- ``bbox``: a bounding box over the hour around a fix, across every device;
- ``aggregate``: ``window_aggregates`` of one device over four hours in eight
  tumbling windows, at a random pyramid level when the store holds several;
- ``level``: one device over the hour ending at one of its fixes, at a
  ``level=`` or a ``max_deviation=`` resolution.

Specs are drawn from the input log alone (raw fixes and extents), never from
what the store holds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

from repro.store import QuerySpec, Store

from workloads import LogSummary

KINDS = ("device", "bbox", "aggregate", "level")
MIN_QUERIES = 1000
"""Queries per run, so that p99 has at least ten samples beyond it."""
TINY_MIN_QUERIES = 50
WINDOW = 3600.0
"""Query window, in seconds: the hour ending at a raw fix.  One hour is also
the store's default time bucket, so a device query touches at most two of
the device's partitions and its latencies stay in a narrow band."""
AGGREGATE_WINDOW = 4 * WINDOW
AGGREGATE_SLOTS = 8
BBOX_SHARE = 0.05
"""Side of a bbox query, as a share of the log's x and y extents."""
POOL = 256
"""Distinct queries of each device-scoped kind per run, repeated in the mix.
The store caches nothing between queries, so a repeat costs what the first
one did, and the full-scan reference is paid once per distinct query.  p99
sits among the costliest few percent of a kind's pool, so a small pool
makes it depend on the seed's draw."""
BBOX_POOL = 64
"""Distinct bbox queries per run: each reference filters every stored row."""


@dataclass(frozen=True)
class Query:
    spec: QuerySpec
    width: float | None = None
    """Aggregate window width; ``None`` for plain queries."""


class QueryMaker:
    def __init__(self, summary: LogSummary, ladder: tuple[float, ...], seed: int) -> None:
        self._summary = summary
        self._ladder = ladder
        self._rng = random.Random(seed)
        self._devices = summary.devices
        self._pools: dict[str, list[Query]] = {}

    def kinds(self, mix: tuple[tuple[str, int], ...]) -> Iterator[str]:
        """An endless shuffled deck holding each kind ``weight`` times."""
        deck = [kind for kind, weight in mix for _ in range(weight)]
        while True:
            self._rng.shuffle(deck)
            yield from deck

    def make(self, kind: str) -> Query:
        """A query of ``kind`` drawn from this run's pool of that kind."""
        pool = self._pools.get(kind)
        if pool is None:
            size = BBOX_POOL if kind == "bbox" else POOL
            pool = self._pools[kind] = [self._draw(kind) for _ in range(size)]
        return self._rng.choice(pool)

    def _draw(self, kind: str) -> Query:
        rng = self._rng
        s = self._summary
        if kind == "bbox":
            centre = rng.choice(s.points_by_device[rng.choice(self._devices)])
            half_x = (s.x_max - s.x_min) * BBOX_SHARE / 2.0
            half_y = (s.y_max - s.y_min) * BBOX_SHARE / 2.0
            spec = QuerySpec(
                bbox=(centre.x - half_x, centre.y - half_y, centre.x + half_x, centre.y + half_y),
                window=(centre.t - WINDOW / 2.0, centre.t + WINDOW / 2.0),
            )
            return Query(spec)
        device = rng.choice(self._devices)
        if kind == "device":
            return Query(QuerySpec(device=device, window=self._window(device, WINDOW)))
        if kind == "aggregate":
            window = self._window(device, AGGREGATE_WINDOW)
            level = rng.randrange(len(self._ladder)) if len(self._ladder) > 1 else None
            spec = QuerySpec(device=device, window=window, level=level)
            return Query(spec, AGGREGATE_WINDOW / AGGREGATE_SLOTS)
        if kind == "level":
            window = self._window(device, WINDOW)
            if rng.random() < 0.5:
                level = rng.randrange(len(self._ladder))
                spec = QuerySpec(device=device, window=window, level=level)
            else:
                bound = rng.uniform(self._ladder[0], self._ladder[-1] * 1.25)
                spec = QuerySpec(device=device, window=window, max_deviation=bound)
            return Query(spec)
        raise ValueError(f"unknown query kind {kind!r}")

    def _window(self, device: str, width: float) -> tuple[float, float]:
        """A ``width``-second window ending at a random fix of the device."""
        end = self._rng.choice(self._summary.points_by_device[device]).t
        return (end - width, end)


def execute(store: Store, query: Query):
    if query.width is None:
        return store.query(query.spec)
    return store.window_aggregates(query.spec, width=query.width)


class Reference:
    """Each distinct query's answer from the same spec run with ``full_scan=True``.

    A fleet-wide spec without a level selector is answered by filtering one
    shared unpruned scan of every partition with the spec's own predicate.
    That is what ``full_scan=True`` does for such a spec, with the partition
    reads paid once instead of once per spec.  Aggregates are folded from
    the full scan's rows by the documented window semantics: tumbling
    windows from the spec's window start, and a segment counts in every
    window its closed time span touches.
    """

    def __init__(self, store: Store) -> None:
        self._store = store
        self._answers: dict[Query, object] = {}
        self._every_row: tuple | None = None

    def agrees(self, query: Query, result) -> bool:
        expected = self._answers.get(query)
        if expected is None:
            expected = self._answers[query] = self._answer(query)
        if query.width is None:
            return result.segments == expected
        got = [
            (w.t_start, w.t_end, w.segments, w.device_ids, w.points, w.total_length)
            for w in result.windows
        ]
        return len(got) == len(expected) and all(
            g[:5] == e[:5] and math.isclose(g[5], e[5], rel_tol=1e-9, abs_tol=1e-9)
            for g, e in zip(got, expected)
        )

    def _rows(self, spec: QuerySpec) -> tuple:
        if spec.device is not None or spec.level is not None or spec.max_deviation is not None:
            return self._store.query(spec, full_scan=True).segments
        if self._every_row is None:
            self._every_row = self._store.query(full_scan=True).segments
        return tuple(
            s for s in self._every_row if spec.matches(s.device_id, s.epsilon, s.record)
        )

    def _answer(self, query: Query):
        rows = self._rows(query.spec)
        if query.width is None:
            return rows
        t_low, t_high = query.spec.window
        windows = []
        index = 0
        while (w_start := t_low + index * query.width) <= t_high:
            w_end = w_start + query.width
            hits = [
                s for s in rows
                if min(s.record.start.t, s.record.end.t) <= w_end
                and max(s.record.start.t, s.record.end.t) >= w_start
            ]
            windows.append((
                w_start,
                w_end,
                len(hits),
                tuple(sorted({s.device_id for s in hits})),
                sum(s.record.point_count for s in hits),
                sum(s.record.length for s in hits),
            ))
            index += 1
        return windows
