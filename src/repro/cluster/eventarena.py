"""Columnar event storage + calendar-queue scheduling (the distsim engine core).

PR 1's ScheduleArena replaced per-task Python objects with
struct-of-array columns; this module does the same for the *event queue*
of :mod:`repro.cluster.distsim`.  Events live in append-only columns
(time / kind / rank / payload — no per-event tuple objects on a global
heap) and are ordered by a calendar queue (a bucketed time wheel): a
small heap holds one entry per *non-empty* time bucket instead of one
per event, and each bucket is drained as a cohort — one stable sort over
the bucket replaces thousands of heap sift-downs.  Small cohorts sort in
Python (constant cost wins), wide cohorts through a vectorized
``np.argsort`` — the crossover is :data:`EventArena.VEC_COHORT_MIN`.

Determinism contract (DESIGN.md, "The EventArena engine"): events are
processed in exactly the order a single ``heapq`` of ``(t, seq)`` tuples
would pop them, where ``seq`` is the global push counter (the fuzz tests
in ``tests/test_distsim_engines.py`` hold it to that reference).  The arena row index *is* the sequence number (rows
append monotonically), buckets sort by ``(t, row)`` — a stable sort on
``t`` over rows already in seq order — and pushes landing inside the
bucket currently being drained go through a spill heap merged against
the cohort by the same ``(t, row)`` key.  Simulated time never runs
backwards, so a new event's bucket is never *behind* the one being
drained.  The bucket width therefore affects only performance counters,
never the processing order — traces and digests are bit-identical for
any width, which is what lets the width adapt freely at run time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

#: Arena event kinds.  The payload column's meaning depends on the kind:
#: inline data (a task id) or an index into an engine-owned side list for
#: tuple-shaped payloads.
K_READY = 0    #: payload = task id
K_DONE = 1     #: payload = index into the engine's batch side list
K_WAKE = 2     #: payload unused (-1)
K_XMIT = 3     #: payload = index into the engine's xmit side list
K_DELIVER = 4  #: payload = index into the engine's deliver side list
K_DEATH = 5    #: payload unused (-1)


@dataclass
class EventLoopStats:
    """Event-engine observability counters.

    Attached to :class:`~repro.cluster.distsim.DistributedResult` as
    ``.events`` and nested under the ``"events"`` key of ``summary()``.
    """

    events: int = 0
    cohorts: int = 0
    max_cohort: int = 0
    peak_depth: int = 0
    width_shrinks: int = 0
    wall_s: float = 0.0

    @property
    def events_per_sec(self) -> float:
        """Simulated events processed per wall-clock second."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> dict:
        """JSON-serializable counter dict for ``summary()`` / CLI."""
        return {
            "events": self.events,
            "cohorts": self.cohorts,
            "max_cohort": self.max_cohort,
            "peak_depth": self.peak_depth,
            "events_per_sec": round(self.events_per_sec, 1),
        }


class EventArena:
    """Calendar-queue event store with ``heapq``'s ``(t, seq)`` pop order.

    Parameters
    ----------
    width:
        Initial bucket width in simulated seconds.  A good starting
        point is the dominant inter-event spacing (the engine uses the
        internode latency); the width self-tunes downwards when too many
        pushes land in the bucket being drained (spill ratio ≥ 1/2 over
        an :data:`ADAPT_WINDOW`-push window), deterministically — the
        shrink schedule depends only on the event stream.
    capacity:
        Accepted for compatibility with preallocating stores; the
        append-only columns need no preallocation.
    """

    #: pushes between width-adaptation checks
    ADAPT_WINDOW = 4096
    #: hard floor for the adaptive bucket width (seconds)
    MIN_WIDTH = 1e-9
    #: cohorts at least this wide sort via ``np.argsort`` instead of
    #: a Python sort (numpy call overhead dominates below this)
    VEC_COHORT_MIN = 128

    def __init__(self, width: float, capacity: int = 1024):
        if width <= 0:
            raise ValueError("bucket width must be positive")
        self._w = float(width)
        self._inv_w = 1.0 / self._w
        # append-only columns; the row index is the push sequence number
        self._t: list[float] = []
        self._kind: list[int] = []
        self._rank: list[int] = []
        self._payload: list[int] = []
        #: non-empty buckets: bucket id -> row list in push (seq) order
        self._buckets: dict[int, list[int]] = {}
        self._bidheap: list[int] = []
        #: (t, row) pushes that landed in the bucket being drained
        self._spill: list[tuple[float, int]] = []
        self._cur_bid: int | None = None
        # materialized current cohort (column lists, sorted by (t, row))
        self._ct: list = []
        self._ck: list = []
        self._cr: list = []
        self._cp: list = []
        self._crow: list = []
        self._ci = 0
        self._cn = 0
        self._live = 0
        self._pushes_window = 0
        self._spills_window = 0
        self.stats = EventLoopStats()

    def __len__(self) -> int:
        return self._live

    @property
    def width(self) -> float:
        """Current (possibly adapted) bucket width in seconds."""
        return self._w

    def push(self, t: float, kind: int, rank: int, payload: int) -> None:
        """Append one event; its row index is its tie-break sequence."""
        col = self._t
        n = len(col)
        col.append(t)
        self._kind.append(kind)
        self._rank.append(rank)
        self._payload.append(payload)
        live = self._live + 1
        self._live = live
        if live > self.stats.peak_depth:
            self.stats.peak_depth = live
        self._pushes_window += 1
        bid = int(t * self._inv_w)
        cur = self._cur_bid
        if cur is not None and bid <= cur:
            # lands in (or, defensively, behind) the bucket being
            # drained: merge by (t, row) against the cohort remainder
            heapq.heappush(self._spill, (t, n))
            self._spills_window += 1
            return
        rows = self._buckets.get(bid)
        if rows is None:
            self._buckets[bid] = [n]
            heapq.heappush(self._bidheap, bid)
        else:
            rows.append(n)

    def pop(self):
        """Earliest event as ``(t, kind, rank, payload)``; None if empty."""
        ci = self._ci
        if ci < self._cn:
            spill = self._spill
            if spill:
                ts, rs = spill[0]
                tc = self._ct[ci]
                if ts < tc or (ts == tc and rs < self._crow[ci]):
                    heapq.heappop(spill)
                    return self._emit_row(ts, rs)
            self._ci = ci + 1
            self.stats.events += 1
            self._live -= 1
            return self._ct[ci], self._ck[ci], self._cr[ci], self._cp[ci]
        if self._spill:
            ts, rs = heapq.heappop(self._spill)
            return self._emit_row(ts, rs)
        if not self._next_cohort():
            return None
        return self.pop()

    def take_cohort(self, spill_pops: int = 0) -> int:
        """Hand the next cohort's column lists to the caller.

        The fault-free engine drains cohorts inline (reading ``_ct`` /
        ``_ck`` / ``_cr`` / ``_cp`` / ``_crow`` directly and merging the
        spill heap itself) to avoid one method call per event; this
        loads the next cohort, transfers its event accounting in one
        batch, and marks it consumed for :meth:`pop`.  ``spill_pops``
        flushes the caller's spill-heap pops since the last call.  With
        batched accounting, ``peak_depth`` is tracked at cohort
        granularity on this path (exact at cohort boundaries).

        Returns the cohort size, 0 when the arena is drained.
        """
        if spill_pops:
            self._live -= spill_pops
            self.stats.events += spill_pops
        if not self._next_cohort():
            return 0
        m = self._cn
        self._live -= m
        self.stats.events += m
        self._ci = m
        return m

    def _emit_row(self, ts: float, row: int):
        self.stats.events += 1
        self._live -= 1
        return ts, self._kind[row], self._rank[row], self._payload[row]

    def _next_cohort(self) -> bool:
        self._maybe_adapt()
        buckets = self._buckets
        t_l = self._t
        while self._bidheap:
            bid = heapq.heappop(self._bidheap)
            rows = buckets.pop(bid, None)
            if not rows:
                continue
            self._cur_bid = bid
            m = len(rows)
            if m == 1:
                r = rows[0]
                self._ct = [t_l[r]]
                self._ck = [self._kind[r]]
                self._cr = [self._rank[r]]
                self._cp = [self._payload[r]]
                self._crow = rows
            elif m < self.VEC_COHORT_MIN:
                # Timsort on (t, row) pairs: stable total order by the
                # (t, seq) key, cheap at bucket-sized m
                pairs = sorted(zip((t_l[r] for r in rows), rows))
                kind_l = self._kind
                rank_l = self._rank
                pay_l = self._payload
                self._ct = [p[0] for p in pairs]
                crow = [p[1] for p in pairs]
                self._crow = crow
                self._ck = [kind_l[r] for r in crow]
                self._cr = [rank_l[r] for r in crow]
                self._cp = [pay_l[r] for r in crow]
            else:
                r = np.asarray(rows, dtype=np.int64)
                ts = np.fromiter((t_l[x] for x in rows), np.float64, m)
                # stable sort on t over rows already in seq order ==
                # total order by (t, seq)
                order = np.argsort(ts, kind="stable")
                crow = r[order].tolist()
                self._ct = ts[order].tolist()
                self._crow = crow
                kind_l = self._kind
                rank_l = self._rank
                pay_l = self._payload
                self._ck = [kind_l[x] for x in crow]
                self._cr = [rank_l[x] for x in crow]
                self._cp = [pay_l[x] for x in crow]
            self._ci = 0
            self._cn = m
            st = self.stats
            st.cohorts += 1
            if m > st.max_cohort:
                st.max_cohort = m
            return True
        return False

    def _maybe_adapt(self) -> None:
        """Deterministic shrink-only width adaptation.

        Checked only at cohort boundaries (spill empty, cohort drained),
        so re-bucketing never has to reconcile a half-drained bucket.
        """
        if self._pushes_window < self.ADAPT_WINDOW:
            return
        if (self._spills_window * 2 >= self._pushes_window
                and self._w > self.MIN_WIDTH):
            self._w = max(self._w * 0.5, self.MIN_WIDTH)
            self._inv_w = 1.0 / self._w
            self.stats.width_shrinks += 1
            self._rebucket()
        self._pushes_window = 0
        self._spills_window = 0

    def _rebucket(self) -> None:
        rows: list[int] = []
        for rs in self._buckets.values():
            rows.extend(rs)
        self._buckets.clear()
        self._bidheap.clear()
        self._cur_bid = None
        if not rows:
            return
        rows.sort()  # restore global seq order before regrouping
        t_l = self._t
        inv = self._inv_w
        buckets = self._buckets
        for r in rows:
            bid = int(t_l[r] * inv)
            grp = buckets.get(bid)
            if grp is None:
                buckets[bid] = [r]
            else:
                grp.append(r)
        # sorted bucket ids are already a valid min-heap
        self._bidheap = sorted(buckets)
