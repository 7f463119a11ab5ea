"""Whole-plan happens-before certification (``repro.verify.plan``).

The distributed simulator executes a *plan*: a task DAG, a per-rank
program order, 2-D block-cyclic tile ownership, and (optionally) a fault
protocol.  ``TraceVerifier`` audits one *recorded run* of such a plan;
this module certifies the plan itself, **before** any rank executes it,
so races the simulator's particular timing never exercises are still
caught.  Four passes, all emitting stable-coded
:class:`~repro.verify.report.VerificationReport` violations:

1. **Effect-footprint inference** — per-task read/write footprints come
   from the shared :mod:`repro.verify.effects` layer (the same
   derivation ``ScheduleVerifier`` and the Executor use).  A DAG edge
   connecting two *disjoint* footprints is reported
   (``PLAN_EFFECT_EDGE``): the dependency structure and the access
   semantics disagree, so the remaining passes would be proving the
   wrong theorem.
2. **Happens-before race detection** — vector clocks propagate over
   intra-rank program order plus every DAG edge (same-rank completion
   order, cross-rank eager message).  Two tasks conflict when their
   footprints overlap with at least one write; a conflicting cross-rank
   pair not ordered by HB is a race (``PLAN_RACE_WW`` /
   ``PLAN_RACE_RW``).  The atomic SSSSM serial-apply escape is
   *per-device* and deliberately not honoured across ranks.
3. **Deadlock / liveness** — a cycle in the HB graph (program order
   composed with message edges) stalls every rank on the cycle forever;
   the retransmit protocol of :mod:`repro.cluster.faults` cannot help,
   because retransmits re-deliver payloads but never reorder program
   order (``PLAN_WAIT_CYCLE``).  Unscheduled producers/consumers orphan
   their cross-rank edges (``PLAN_ORPHAN_RECV`` / ``PLAN_ORPHAN_SEND``),
   and a rank death with checkpoint re-homing disabled makes every send
   into or out of the dead rank unsendable (``PLAN_DEAD_SEND``).
4. **Per-rank memory high-water mark** — factors are never freed during
   a factorisation and an HB-consistent worst-case interleaving may
   leave *every* remotely received panel resident simultaneously, so
   the certified high-water mark is owned factor bytes plus all distinct
   received tiles.  Exceeding the :mod:`repro.cluster.memory` budget is
   ``PLAN_MEM_HWM`` — strictly stronger than the trace verifier's
   owned-bytes check, which is the point: a budget that only survives
   because one simulated timing happened to stagger the receives is not
   certified.

What stays dynamic-only: properties of the *recorded event log* itself
— a simulator that executes correctly but fails to log a send
(``TRACE_MISSING_SEND``) is invisible to any static analysis (see
:data:`DYNAMIC_ONLY` / :data:`STATIC_TWIN`).

Like :mod:`repro.verify.golden`, this module is deliberately **not**
imported from ``repro.verify.__init__``: it needs the fully built
:mod:`repro.cluster` (grid, faults, memory constants), which itself
imports the verify leaf modules.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cluster.faults import FaultSpec
from repro.cluster.grid import ProcessGrid
from repro.cluster.memory import BYTES_PER_NNZ, USABLE_FRACTION
from repro.core.task import TaskType
from repro.verify import report as rep
from repro.verify.effects import EffectFootprints, footprints_from_arrays
from repro.verify.report import VerificationReport, Violation

#: Cap on per-code violation listings (mirrors ScheduleVerifier).
MAX_PER_CODE = 100

#: Dynamic trace-verifier codes with a static plan-analysis twin: every
#: adversarial golden the dynamic side catches under the key code must
#: be caught statically under the value code (asserted by the
#: differential consistency test).
STATIC_TWIN = {
    rep.TRACE_UNMATCHED_SEND: rep.PLAN_ORPHAN_SEND,
    rep.TRACE_EARLY_CONSUME: rep.PLAN_RACE_RW,
    rep.TRACE_MEM_BUDGET: rep.PLAN_MEM_HWM,
    rep.TRACE_TASK_MISSING: rep.TASK_MISSING,
    rep.TRACE_DEAD_SEND: rep.PLAN_DEAD_SEND,
}

#: Dynamic codes with no static twin — they describe defects of the
#: *recorded log*, not of the plan: a run whose trace omits a send that
#: must have happened can only be caught by inspecting that trace.
DYNAMIC_ONLY = frozenset({rep.TRACE_MISSING_SEND})


@dataclass
class PlanSpec:
    """One distributed plan, normalised to flat arrays.

    Built either from a real :class:`~repro.core.dag.TaskDAG` plus a
    :class:`~repro.cluster.grid.ProcessGrid`
    (:meth:`from_dag` — ranks follow owner-compute, program order is the
    canonical level-schedule linearisation), or from a hand-written JSON
    plan (:meth:`from_dict` — explicit per-task ranks and per-rank
    orders, the form the adversarial golden plans use).

    Attributes
    ----------
    type_code, i, j, k, nnz:
        Per-task columns (``TaskType`` as int, tile coordinates,
        structural nonzeros).
    edges:
        DAG edges as an ``(E, 2)`` ``(producer, consumer)`` array.
    nb:
        Block count — flat tile ids are ``i * nb + j``.
    nprocs, rank:
        Rank count and the executing rank per task.
    order:
        Per-rank program order (list of task-id arrays, one per rank).
    faults:
        Optional fault protocol the liveness pass composes with.
    checkpointing:
        Whether checkpoint re-homing is available after a rank death
        (False when the spec's ``checkpoint_interval`` is infinite).
    mem_budget_bytes:
        Per-rank memory budget; ``None`` skips the memory pass.
    msg_scale:
        Message-size multiplier, matching ``DistributedSimulator``.
    lvl:
        Optional per-task level hint: any labelling every DAG edge
        strictly increases.  :meth:`from_dag` fills it from the level
        schedule and :meth:`from_execution` from the batch index, so the
        verifier's sweep gear skips recomputing it; the verifier
        validates the hint before trusting it.
    """

    type_code: np.ndarray
    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    nnz: np.ndarray
    edges: np.ndarray
    nb: int
    nprocs: int
    rank: np.ndarray
    order: list = field(default_factory=list)
    faults: FaultSpec | None = None
    checkpointing: bool = True
    mem_budget_bytes: float | None = None
    msg_scale: float = 1.0
    lvl: np.ndarray | None = None

    @property
    def n_tasks(self) -> int:
        return int(self.type_code.shape[0])

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {self.nprocs}")
        if len(self.order) != self.nprocs:
            raise ValueError(
                f"order must list one sequence per rank "
                f"({len(self.order)} != {self.nprocs})")
        if self.rank.size and (
                self.rank.min() < 0 or self.rank.max() >= self.nprocs):
            raise ValueError("task rank outside the process grid")

    @classmethod
    def _owner_compute(cls, dag, grid: ProcessGrid, key: np.ndarray,
                       lvl: np.ndarray, faults: FaultSpec | None, gpu,
                       mem_budget_bytes: float | None,
                       msg_scale: float) -> "PlanSpec":
        """Owner-compute plan over ``dag``: each rank runs the tasks
        whose output tile it owns, in ascending ``key`` order."""
        arrays = dag.task_arrays()
        n = dag.n_tasks
        rank = (grid.owner_array(arrays.i, arrays.j) if n
                else np.empty(0, dtype=np.int64))
        indptr, indices = dag.successor_csr()
        prod = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        edges = (np.stack([prod, indices], axis=1) if indices.size
                 else np.empty((0, 2), dtype=np.int64))
        by_rank = np.lexsort((key, rank))
        bounds = np.searchsorted(rank[by_rank], np.arange(grid.nprocs + 1))
        order = [by_rank[bounds[r]:bounds[r + 1]]
                 for r in range(grid.nprocs)]
        if mem_budget_bytes is None and gpu is not None:
            mem_budget_bytes = USABLE_FRACTION * gpu.memory_gb * 1e9
        return cls(
            type_code=arrays.type_code.astype(np.int64) if n
            else np.empty(0, dtype=np.int64),
            i=arrays.i if n else np.empty(0, dtype=np.int64),
            j=arrays.j if n else np.empty(0, dtype=np.int64),
            k=arrays.k if n else np.empty(0, dtype=np.int64),
            nnz=arrays.nnz if n else np.empty(0, dtype=np.int64),
            edges=edges, nb=dag.part.nblocks, nprocs=grid.nprocs,
            rank=rank, order=order, faults=faults,
            checkpointing=(faults is None
                           or math.isfinite(faults.checkpoint_interval)),
            mem_budget_bytes=mem_budget_bytes, msg_scale=msg_scale,
            lvl=lvl,
        )

    @classmethod
    def from_dag(cls, dag, grid: ProcessGrid,
                 faults: FaultSpec | None = None, gpu=None,
                 mem_budget_bytes: float | None = None,
                 msg_scale: float = 1.0) -> "PlanSpec":
        """The plan ``DistributedSimulator`` would execute.

        Ranks follow owner-compute (a task runs on the owner of its
        output tile) and the per-rank program order is the canonical
        level-schedule linearisation restricted to each rank — the
        HB-consistent order every dynamic policy refines.
        """
        n = dag.n_tasks
        lvl = np.zeros(n, dtype=np.int64)
        lin_pos = np.empty(n, dtype=np.int64)
        if n:
            levels = dag.level_schedule()
            for d, ids in enumerate(levels):
                lvl[ids] = d
            lin_pos[np.concatenate(levels)] = np.arange(n, dtype=np.int64)
        return cls._owner_compute(dag, grid, lin_pos, lvl, faults, gpu,
                                  mem_budget_bytes, msg_scale)

    @classmethod
    def from_execution(cls, dag, grid: ProcessGrid, batches,
                       faults: FaultSpec | None = None, gpu=None,
                       mem_budget_bytes: float | None = None,
                       msg_scale: float = 1.0) -> "PlanSpec":
        """The plan a real batched execution dispatches.

        Same owner-compute ranks as :meth:`from_dag`, but the per-rank
        program order comes from the *actual* batch sequence: batches
        run in emission order, and within a batch each rank executes
        its owner-slice in batch order — exactly how
        ``repro.parallel.ParallelExecutor`` drives its workers.  The
        batch sequence must cover every DAG task exactly once.

        The level hint is each task's *batch index*: a dispatchable
        sequence puts every DAG edge's consumer in a strictly later
        batch than its producer (``verify_schedule`` checks exactly
        that) and every rank's program order is non-decreasing in it by
        construction, so the verifier's sweep gear applies.  A sequence
        that breaks the first property fails the hint's validation and
        is certified by the exact engine instead.
        """
        n = dag.n_tasks
        sizes = [len(b) for b in batches]
        flat = (np.concatenate([np.asarray(b, dtype=np.int64)
                                for b in batches])
                if sizes else np.empty(0, dtype=np.int64))
        if flat.size != n or np.unique(flat).size != n:
            raise ValueError(
                "batch sequence does not cover the DAG exactly once")
        pos = np.empty(n, dtype=np.int64)
        pos[flat] = np.arange(n, dtype=np.int64)
        bidx = np.empty(n, dtype=np.int64)
        bidx[flat] = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        return cls._owner_compute(dag, grid, pos, bidx, faults, gpu,
                                  mem_budget_bytes, msg_scale)

    def to_dict(self) -> dict:
        """Serialise to the :meth:`from_dict` golden-plan JSON payload.

        Fault specs are not serialised — golden plans derived from real
        executions are fault-free.
        """
        if self.faults is not None:
            raise ValueError("to_dict serialises fault-free plans only")
        tasks = [
            {"type": TaskType(int(c)).name, "i": int(i), "j": int(j),
             "k": int(k), "nnz": int(z), "rank": int(r)}
            for c, i, j, k, z, r in zip(
                self.type_code.tolist(), self.i.tolist(), self.j.tolist(),
                self.k.tolist(), self.nnz.tolist(), self.rank.tolist())
        ]
        payload = {
            "tasks": tasks,
            "edges": self.edges.tolist(),
            "nb": int(self.nb),
            "nprocs": int(self.nprocs),
            "order": [np.asarray(o).tolist() for o in self.order],
            "msg_scale": float(self.msg_scale),
        }
        if self.mem_budget_bytes is not None:
            payload["mem_budget_bytes"] = float(self.mem_budget_bytes)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "PlanSpec":
        """Hand-written plan (the ``tests/golden/plans`` JSON format).

        Tasks carry explicit ``rank`` entries (defaulting to the
        ``grid`` owner of their output tile when given); ``order``
        defaults to ascending task id per rank.  A ``faults`` block with
        ``"checkpoint_interval": null`` means checkpointing is *off*
        (internally: an infinite interval, so no checkpoint ever
        exists to re-home from).
        """
        tasks = payload["tasks"]
        n = len(tasks)
        type_code = np.fromiter(
            (int(TaskType[t["type"]]) for t in tasks), np.int64, count=n)
        ti = np.fromiter((int(t["i"]) for t in tasks), np.int64, count=n)
        tj = np.fromiter((int(t["j"]) for t in tasks), np.int64, count=n)
        tk = np.fromiter((int(t.get("k", 0)) for t in tasks),
                         np.int64, count=n)
        nnz = np.fromiter((int(t.get("nnz", 1)) for t in tasks),
                          np.int64, count=n)
        nb = int(payload.get(
            "nb", (max(int(ti.max()), int(tj.max())) + 1) if n else 1))
        nprocs = int(payload["nprocs"])
        gspec = payload.get("grid")
        grid = (ProcessGrid(nprocs) if gspec is None
                else ProcessGrid(nprocs, int(gspec["pr"]), int(gspec["pc"])))
        rank = np.fromiter(
            (int(t["rank"]) if "rank" in t
             else grid.owner(int(t["i"]), int(t["j"])) for t in tasks),
            np.int64, count=n)
        raw_edges = payload.get("edges", [])
        edges = (np.asarray(raw_edges, dtype=np.int64).reshape(-1, 2)
                 if raw_edges else np.empty((0, 2), dtype=np.int64))
        if "order" in payload:
            order = [np.asarray(o, dtype=np.int64)
                     for o in payload["order"]]
        else:
            order = [np.flatnonzero(rank == r) for r in range(nprocs)]
        checkpointing = True
        faults = None
        fpay = payload.get("faults")
        if fpay is not None:
            fpay = dict(fpay)
            if "checkpoint_interval" in fpay \
                    and fpay["checkpoint_interval"] is None:
                del fpay["checkpoint_interval"]
                faults = replace(FaultSpec.from_dict(fpay),
                                 checkpoint_interval=math.inf)
                checkpointing = False
            else:
                faults = FaultSpec.from_dict(fpay)
        budget = payload.get("mem_budget_bytes")
        return cls(
            type_code=type_code, i=ti, j=tj, k=tk, nnz=nnz, edges=edges,
            nb=nb, nprocs=nprocs, rank=rank, order=order, faults=faults,
            checkpointing=checkpointing,
            mem_budget_bytes=None if budget is None else float(budget),
            msg_scale=float(payload.get("msg_scale", 1.0)),
        )

    @classmethod
    def from_json(cls, path) -> "PlanSpec":
        """Load :meth:`from_dict` from a JSON file."""
        return cls.from_dict(json.loads(
            pathlib.Path(path).read_text(encoding="utf-8")))


class PlanVerifier:
    """Static certification of one :class:`PlanSpec` (see module doc)."""

    def __init__(self, plan: PlanSpec):
        self.plan = plan
        self._gear: str | None = None
        p = plan
        self._fp: EffectFootprints = footprints_from_arrays(
            p.type_code, p.i, p.j, p.k, p.nb)
        # scheduled := appears in some rank's program order (first
        # occurrence wins); pos1 := 1-based position within that order
        n = p.n_tasks
        self._pos1 = np.zeros(n, dtype=np.int64)
        self._sched = np.zeros(n, dtype=bool)
        orders = [np.asarray(o, dtype=np.int64) for o in p.order]
        lens = np.array([o.size for o in orders], dtype=np.int64)
        flat = (np.concatenate(orders) if int(lens.sum())
                else np.empty(0, dtype=np.int64))
        rk = np.repeat(np.arange(p.nprocs, dtype=np.int64), lens)
        starts = np.cumsum(lens) - lens
        pos = np.arange(flat.size, dtype=np.int64) - np.repeat(starts, lens)
        valid = (flat >= 0) & (flat < n)
        self._unknown: list[int] = [int(t) for t in flat[~valid]]
        fv, rv, pv = flat[valid], rk[valid], pos[valid]
        srt = np.argsort(fv, kind="stable")
        fs = fv[srt]
        first = (np.r_[True, fs[1:] != fs[:-1]] if fs.size
                 else np.zeros(0, dtype=bool))
        self._dupes: list[int] = [int(t) for t in fs[~first]]
        keep = srt[first]
        self._sched[fv[keep]] = True
        self._pos1[fv[keep]] = pv[keep] + 1
        # an order entry overrides the task's declared rank — program
        # order is what the ranks actually execute
        p.rank[fv[keep]] = rv[keep]
        self._orders = [o[(o >= 0) & (o < n)] for o in orders]

    @property
    def gear(self) -> "str | None":
        """Which happens-before engine the last :meth:`verify` chose:
        ``"sweep"`` (:meth:`_hb_fast`, candidates confirmed exactly) or
        ``"exact"`` (:meth:`_build_hb`); ``None`` before any run."""
        return self._gear

    # ------------------------------------------------------------------
    # pass 1 · effect-footprint consistency
    # ------------------------------------------------------------------
    def _check_effects(self, out: VerificationReport) -> None:
        p, fp = self.plan, self._fp
        if not p.edges.size:
            return
        prod = p.edges[:, 0]
        cons = p.edges[:, 1]
        wt = fp.write_tile
        # membership of (task, tile) in the read set, via one sorted key
        rkey = fp.read_owner * fp.ntiles + fp.read_tile
        rkey = np.sort(rkey)

        def reads(task, tile):
            if not rkey.size:
                return np.zeros(np.shape(task), dtype=bool)
            key = task * fp.ntiles + tile
            pos = np.searchsorted(rkey, key)
            return (pos < rkey.size) & (rkey[np.minimum(pos, rkey.size - 1)]
                                        == key)

        justified = (wt[prod] == wt[cons]) | reads(cons, wt[prod]) \
            | reads(prod, wt[cons])
        nb = p.nb
        for e in np.flatnonzero(~justified)[:MAX_PER_CODE]:
            pr, co = int(prod[e]), int(cons[e])
            out.add(Violation(
                code=rep.PLAN_EFFECT_EDGE,
                message=f"edge {pr}->{co} connects disjoint footprints "
                        f"(writes ({int(wt[pr]) // nb},{int(wt[pr]) % nb})"
                        f" vs ({int(wt[co]) // nb},{int(wt[co]) % nb})): "
                        "the DAG and the task access semantics disagree",
                task_ids=(pr, co),
            ))

    # ------------------------------------------------------------------
    # pass 2+3 · happens-before (vector clocks) and wait cycles
    # ------------------------------------------------------------------
    def _dag_levels(self):
        """A per-task level every DAG edge strictly increases.

        A :attr:`PlanSpec.lvl` hint is validated — every edge must
        strictly increase it — before being trusted, so a corrupt hint
        degrades to a recomputation, never to a wrong certificate.
        Without a valid hint the longest-path level over the DAG edges
        is computed; ``None`` when those edges contain a cycle (the
        exact engine then reports it).
        """
        p = self.plan
        n = p.n_tasks
        if p.lvl is not None:
            lvl = np.asarray(p.lvl, dtype=np.int64)
            ok = lvl.shape == (n,) and (not n or int(lvl.min()) >= 0)
            if ok and p.edges.size:
                ok = bool((lvl[p.edges[:, 1]] > lvl[p.edges[:, 0]]).all())
            if ok:
                return lvl
        if not p.edges.size:
            return np.zeros(n, dtype=np.int64)
        prod, cons = p.edges[:, 0], p.edges[:, 1]
        indeg = np.bincount(cons, minlength=n)
        eo = np.argsort(prod, kind="stable")
        ps, cs = prod[eo], cons[eo]
        estarts = np.searchsorted(ps, np.arange(n + 1))
        lvl = np.full(n, -1, dtype=np.int64)
        frontier = np.flatnonzero(indeg == 0)
        d = 0
        seen = 0
        while frontier.size:
            lvl[frontier] = d
            seen += frontier.size
            d += 1
            counts = estarts[frontier + 1] - estarts[frontier]
            total = int(counts.sum())
            if not total:
                break
            ends = np.cumsum(counts)
            at = (np.arange(total, dtype=np.int64)
                  - np.repeat(ends - counts, counts)
                  + np.repeat(estarts[frontier], counts))
            nxt = cs[at]
            np.subtract.at(indeg, nxt, 1)
            frontier = np.unique(nxt[indeg[nxt] == 0])
        return lvl if seen == n else None

    def _order_level_monotone(self, lvl) -> bool:
        """Is every rank's program order non-decreasing in ``lvl``?

        When it is (true by construction for :meth:`PlanSpec.from_dag`
        plans, whose orders restrict the level schedule, and for
        :meth:`PlanSpec.from_execution` plans, whose level is the batch
        index), the composite HB graph is provably acyclic: sort tasks
        by ``(level, rank, position)`` — DAG edges strictly increase
        the level and program-order edges never decrease it while
        strictly increasing the position, so no edge goes backwards.
        The argument needs nothing of ``lvl`` beyond those two
        properties, so any validated hint serves.
        """
        for o in self._orders:
            if o.size > 1 and bool(np.any(np.diff(lvl[o]) < 0)):
                return False
        return True

    def _hb_fast(self, lvl):
        """Vector clocks without the Kahn peel, for level-monotone plans.

        Two relaxation sweeps, each a handful of full-width numpy ops:
        a per-rank prefix-max along program order, then one pass over
        the DAG edges sorted by producer level — ``np.maximum.at``
        applies updates sequentially, so sorted edges relax entire DAG
        paths transitively within the single pass.  The result can only
        *under*-approximate happens-before (every propagation step
        follows a real HB edge), so the caller confirms any surviving
        race candidates against the exact engine before reporting.
        Preconditions (checked by :meth:`_hb`): no duplicate or unknown
        order entries, acyclic DAG edges, level-monotone orders — which
        also certify the plan free of wait cycles.
        """
        p = self.plan
        n = p.n_tasks
        vc = np.zeros((n, p.nprocs), dtype=np.int64)
        ids = np.flatnonzero(self._sched)
        vc[ids, p.rank[ids]] = self._pos1[ids]
        if p.edges.size:
            prod, cons = p.edges[:, 0], p.edges[:, 1]
            keep = self._sched[prod] & self._sched[cons]
            prod, cons = prod[keep], cons[keep]
            eo = np.argsort(lvl[prod], kind="stable")
            prod, cons = prod[eo], cons[eo]
        else:
            prod = cons = np.empty(0, dtype=np.int64)
        for _ in range(2):
            for o in self._orders:
                if o.size > 1:
                    vc[o] = np.maximum.accumulate(vc[o], axis=0)
            if prod.size:
                np.maximum.at(vc, cons, vc[prod])
        return vc, self._sched

    def _hb(self, out: VerificationReport):
        """Dispatch to the fast or exact HB engine.

        Returns ``(vc, live, exact)``.  The fast path never emits
        violations (its preconditions rule out wait cycles); the exact
        path reports stuck tasks as ``PLAN_WAIT_CYCLE``.
        """
        if not self._dupes and not self._unknown:
            lvl = self._dag_levels()
            if lvl is not None and self._order_level_monotone(lvl):
                self._gear = "sweep"
                vc, live = self._hb_fast(lvl)
                return vc, live, False
        self._gear = "exact"
        vc, live = self._build_hb(out)
        return vc, live, True

    def _build_hb(self, out: VerificationReport):
        """Kahn-peel the HB graph while propagating vector clocks.

        Returns ``(vc, live)`` where ``vc[t, r]`` is the largest 1-based
        program-order position on rank ``r`` known to happen before (or
        be) task ``t``, and ``live`` marks scheduled tasks the peel
        reached — tasks left behind sit on a wait cycle.  Exact but
        frontier-serialised (program order narrows each peel step to at
        most one task per rank), so :meth:`_hb` prefers the sweep
        engine for well-formed plans.
        """
        p = self.plan
        n = p.n_tasks
        sched = self._sched
        # HB edges: DAG edges + consecutive program-order pairs, both
        # restricted to scheduled endpoints
        srcs = [p.edges[:, 0]] if p.edges.size else []
        dsts = [p.edges[:, 1]] if p.edges.size else []
        for o in self._orders:
            if o.size > 1:
                srcs.append(o[:-1])
                dsts.append(o[1:])
        if srcs:
            src = np.concatenate(srcs)
            dst = np.concatenate(dsts)
            keep = sched[src] & sched[dst]
            src, dst = src[keep], dst[keep]
        else:
            src = dst = np.empty(0, dtype=np.int64)
        # CSR over src for frontier expansion
        order_e = np.argsort(src, kind="stable")
        src_s, dst_s = src[order_e], dst[order_e]
        starts = np.searchsorted(src_s, np.arange(n + 1))
        indeg = np.bincount(dst, minlength=n)
        vc = np.zeros((n, p.nprocs), dtype=np.int64)
        live = np.zeros(n, dtype=bool)
        frontier = np.flatnonzero(sched & (indeg == 0))
        while frontier.size:
            live[frontier] = True
            vc[frontier, p.rank[frontier]] = np.maximum(
                vc[frontier, p.rank[frontier]], self._pos1[frontier])
            counts = starts[frontier + 1] - starts[frontier]
            total = int(counts.sum())
            if not total:
                break
            ends = np.cumsum(counts)
            at = (np.arange(total, dtype=np.int64)
                  - np.repeat(ends - counts, counts)
                  + np.repeat(starts[frontier], counts))
            e_dst = dst_s[at]
            e_src = np.repeat(frontier, counts)
            np.maximum.at(vc, e_dst, vc[e_src])
            np.subtract.at(indeg, e_dst, 1)
            frontier = np.unique(e_dst[indeg[e_dst] == 0])
        stuck = np.flatnonzero(sched & ~live)
        if stuck.size:
            lossy = (p.faults is not None and p.faults.link.lossy)
            out.add(Violation(
                code=rep.PLAN_WAIT_CYCLE,
                message=f"{stuck.size} task(s) sit on a wait-for cycle "
                        "(program order composed with message edges): "
                        "every rank on the cycle blocks forever"
                        + (", and the retransmit protocol only re-delivers"
                           " payloads — it cannot reorder program order"
                           if lossy else ""),
                task_ids=tuple(int(t) for t in stuck[:MAX_PER_CODE]),
            ))
        return vc, live

    def _ordered(self, vc, a, b):
        """Vectorized HB test: does ``a[q]`` order with ``b[q]``?"""
        p = self.plan
        a_before_b = vc[b, p.rank[a]] >= self._pos1[a]
        b_before_a = vc[a, p.rank[b]] >= self._pos1[b]
        return a_before_b | b_before_a

    def _find_races(self, vc, live) -> list[Violation]:
        """Collect (not emit) race violations under the given clocks.

        Returned rather than added to the report so the caller can
        discard candidates produced by the approximate clocks and
        re-derive them from the exact engine.
        """
        found: list[Violation] = []
        p, fp = self.plan, self._fp
        nb = p.nb
        # --- WW: same write tile, different ranks, unordered ---------
        wr = np.flatnonzero(live)
        if wr.size:
            tiles = fp.write_tile[wr]
            order = np.argsort(tiles, kind="stable")
            ts = tiles[order]
            w_sorted = wr[order]
            run_starts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]])
            run_len = np.diff(np.r_[run_starts, ts.size])
            ranks_sorted = p.rank[w_sorted]
            rmin = np.minimum.reduceat(ranks_sorted, run_starts)
            rmax = np.maximum.reduceat(ranks_sorted, run_starts)
            # owner-compute plans put every writer of a tile on one rank,
            # so mixed-rank runs only exist in broken plans — iterating
            # them is O(#suspect tiles), not O(tasks)
            emitted = 0
            for ridx in np.flatnonzero(rmin != rmax):
                if emitted >= MAX_PER_CODE:
                    break
                s = run_starts[ridx]
                members = w_sorted[s:s + run_len[ridx]][:200]
                aa, bb = np.triu_indices(members.size, k=1)
                a, b = members[aa], members[bb]
                cross = p.rank[a] != p.rank[b]
                bad = cross & ~self._ordered(vc, a, b)
                tile = int(ts[s])
                for q in np.flatnonzero(bad):
                    if emitted >= MAX_PER_CODE:
                        break
                    emitted += 1
                    found.append(Violation(
                        code=rep.PLAN_RACE_WW,
                        message=f"tasks {int(a[q])} (rank "
                                f"{int(p.rank[a[q]])}) and {int(b[q])} "
                                f"(rank {int(p.rank[b[q]])}) both write "
                                f"tile ({tile // nb},{tile % nb}) with no"
                                " happens-before ordering (no message"
                                " between them)",
                        task_ids=(int(a[q]), int(b[q])),
                    ))
        # --- RW: reader vs writers of its tile, cross-rank -----------
        r_owner = fp.read_owner
        r_live = live[r_owner]
        r_owner = r_owner[r_live]
        r_tile = fp.read_tile[r_live]
        if not (r_owner.size and wr.size):
            return found
        uniq_t = ts[run_starts]
        ti = np.searchsorted(uniq_t, r_tile)
        has = (ti < uniq_t.size) & (uniq_t[np.minimum(ti, uniq_t.size - 1)]
                                    == r_tile)
        rd = r_owner[has]
        rt = r_tile[has]
        cnt = run_len[ti[has]]
        total = int(cnt.sum())
        if not total:
            return found
        ends = np.cumsum(cnt)
        within = (np.arange(total, dtype=np.int64)
                  - np.repeat(ends - cnt, cnt))
        writer = w_sorted[np.repeat(run_starts[ti[has]], cnt) + within]
        reader = np.repeat(rd, cnt)
        tile_of = np.repeat(rt, cnt)
        pairable = (writer != reader) & (p.rank[writer] != p.rank[reader])
        writer, reader, tile_of = (writer[pairable], reader[pairable],
                                   tile_of[pairable])
        bad = ~self._ordered(vc, writer, reader)
        for q in np.flatnonzero(bad)[:MAX_PER_CODE]:
            tile = int(tile_of[q])
            found.append(Violation(
                code=rep.PLAN_RACE_RW,
                message=f"task {int(reader[q])} (rank "
                        f"{int(p.rank[reader[q]])}) reads tile "
                        f"({tile // nb},{tile % nb}) that task "
                        f"{int(writer[q])} (rank "
                        f"{int(p.rank[writer[q]])}) writes, with no "
                        "happens-before ordering",
                task_ids=(int(reader[q]), int(writer[q])),
            ))
        return found

    # ------------------------------------------------------------------
    # pass 3 · coverage + fault-protocol liveness
    # ------------------------------------------------------------------
    def _check_coverage(self, out: VerificationReport) -> None:
        p = self.plan
        n = p.n_tasks
        for t in self._unknown[:MAX_PER_CODE]:
            out.add(Violation(
                code=rep.TASK_UNKNOWN,
                message=f"plan schedules task id {t} outside the DAG "
                        f"(0..{n - 1})",
                task_ids=(t,),
            ))
        for t in self._dupes[:MAX_PER_CODE]:
            out.add(Violation(
                code=rep.TASK_DUPLICATE,
                message=f"task {t} appears twice in the program order",
                task_ids=(t,),
            ))
        missing = np.flatnonzero(~self._sched)
        if missing.size:
            out.add(Violation(
                code=rep.TASK_MISSING,
                message=f"{missing.size} task(s) appear in no rank's "
                        "program order",
                task_ids=tuple(int(t) for t in missing[:MAX_PER_CODE]),
            ))
        if not p.edges.size:
            return
        prod = p.edges[:, 0]
        cons = p.edges[:, 1]
        cross = p.rank[prod] != p.rank[cons]
        orphan_send = cross & self._sched[prod] & ~self._sched[cons]
        for e in np.flatnonzero(orphan_send)[:MAX_PER_CODE]:
            out.add(Violation(
                code=rep.PLAN_ORPHAN_SEND,
                message=f"task {int(prod[e])} sends its tile to rank "
                        f"{int(p.rank[cons[e]])} but the receiving task "
                        f"{int(cons[e])} is never scheduled — the send "
                        "has no receiver",
                task_ids=(int(prod[e]), int(cons[e])),
                rank=int(p.rank[cons[e]]),
            ))
        orphan_recv = cross & self._sched[cons] & ~self._sched[prod]
        for e in np.flatnonzero(orphan_recv)[:MAX_PER_CODE]:
            out.add(Violation(
                code=rep.PLAN_ORPHAN_RECV,
                message=f"task {int(cons[e])} waits for a tile from task "
                        f"{int(prod[e])}, which is never scheduled — the "
                        "receive has no send and blocks forever",
                task_ids=(int(cons[e]), int(prod[e])),
                rank=int(p.rank[cons[e]]),
            ))

    def _check_dead_sends(self, out: VerificationReport) -> None:
        p = self.plan
        if p.faults is None or not p.faults.deaths or p.checkpointing:
            return
        if not p.edges.size:
            return
        prod = p.edges[:, 0]
        cons = p.edges[:, 1]
        cross = p.rank[prod] != p.rank[cons]
        emitted = 0
        for d in p.faults.deaths:
            into = cross & (p.rank[cons] == d.rank)
            outof = cross & (p.rank[prod] == d.rank)
            for e in np.flatnonzero(into | outof):
                if emitted >= MAX_PER_CODE:
                    return
                emitted += 1
                direction = ("into" if p.rank[cons[e]] == d.rank
                             else "out of")
                out.add(Violation(
                    code=rep.PLAN_DEAD_SEND,
                    message=f"send {int(prod[e])}->{int(cons[e])} "
                            f"{direction} rank {d.rank} cannot be "
                            f"certified: rank {d.rank} dies at "
                            f"t={d.time:g} and checkpoint re-homing is "
                            "disabled, so there is no surviving holder "
                            "to re-send from",
                    task_ids=(int(prod[e]), int(cons[e])),
                    rank=int(d.rank),
                ))

    # ------------------------------------------------------------------
    # pass 4 · per-rank memory high-water mark
    # ------------------------------------------------------------------
    def _check_memory(self, out: VerificationReport) -> None:
        p, fp = self.plan, self._fp
        budget = p.mem_budget_bytes
        if budget is None:
            return
        owned = np.zeros(p.nprocs)
        keep = self._sched & ~fp.is_atomic
        if keep.any():
            np.add.at(owned, p.rank[keep],
                      BYTES_PER_NNZ * p.nnz[keep].astype(np.float64))
        received = np.zeros(p.nprocs)
        if p.edges.size:
            prod = p.edges[:, 0]
            cons = p.edges[:, 1]
            cross = (p.rank[prod] != p.rank[cons]) & self._sched[prod] \
                & self._sched[cons]
            if cross.any():
                # one resident copy per (receiving rank, producer tile),
                # sized exactly like the simulator's messages
                key = np.unique(p.rank[cons[cross]] * p.n_tasks
                                + prod[cross])
                src = key % p.n_tasks
                dst = key // p.n_tasks
                nbytes = (p.nnz[src].astype(np.float64) * 8.0
                          * p.msg_scale).astype(np.int64)
                np.add.at(received, dst, nbytes.astype(np.float64))
        hwm = owned + received
        for r in np.flatnonzero(hwm > budget)[:MAX_PER_CODE]:
            out.add(Violation(
                code=rep.PLAN_MEM_HWM,
                message=f"rank {int(r)} worst-case high-water mark "
                        f"{hwm[r]:.0f} B (owned factors {owned[r]:.0f} B"
                        f" + resident received tiles {received[r]:.0f} B)"
                        f" exceeds the {budget:.0f} B budget under an "
                        "HB-consistent worst-case interleaving",
                rank=int(r),
            ))

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def verify(self, subject: str = "plan") -> VerificationReport:
        """Run all four passes; returns the full violation set."""
        checks = ["coverage", "effects", "races", "liveness"]
        if self.plan.mem_budget_bytes is not None:
            checks.append("memory")
        out = VerificationReport(subject=subject, checks=tuple(checks))
        if self.plan.n_tasks == 0:
            return out
        self._check_coverage(out)
        self._check_effects(out)
        vc, live, exact = self._hb(out)
        races = self._find_races(vc, live)
        if races and not exact:
            # the fast clocks only under-approximate HB: confirm the
            # candidates against the exact peel before reporting them
            vc, live = self._build_hb(out)
            races = self._find_races(vc, live)
        for v in races:
            out.add(v)
        self._check_dead_sends(out)
        self._check_memory(out)
        return out


def verify_plan(plan: PlanSpec, subject: str = "plan") -> VerificationReport:
    """One-shot convenience wrapper around :class:`PlanVerifier`."""
    return PlanVerifier(plan).verify(subject=subject)
