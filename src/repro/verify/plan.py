"""Static plan certification (``repro.verify.plan``) — the one certifier.

A *plan* is a task DAG, the rank each task runs on, per-rank program
orders, optionally a per-task batch index and a fault protocol.  This
module certifies it **before** anything executes, so orderings a
particular timing never exercises are still caught (``TraceVerifier``
audits one recorded run).  A single-GPU batch schedule is a one-rank
plan (:func:`repro.verify.schedule.verify_schedule`), a worker-pool
phase an owner-compute plan over its batch sequence.

**A batch is a concurrent group.**  The Executor runs a batch as one
kernel launch and the worker pool runs each rank's slice of it as one
stacked step, so the tasks sharing ``(rank, batch)`` form one
program-order step whose members run concurrently — the superstep rule:
precedence must cross batches, order within one is free.  A rank runs
its steps in ascending batch order; a plan without batches makes every
task its own step.  Findings and their stable codes:

==========================================================  ==============
missing, duplicate or unknown task ids                      ``TASK_*``
cyclic DAG                                                  ``DAG_CYCLE``
edge whose consumer is not in a strictly later batch        ``DEP_ORDER``
timed launch starting before its producer ends              ``DEP_ORDER``
same-batch write/write pair (unless atomic SSSSMs, 1 rank)  ``HAZARD_WW``
same-batch read/write pair                                  ``HAZARD_RW``
over-budget multi-task batch (a GPU given)                  ``CAPACITY_*``
edge connecting disjoint footprints                         ``PLAN_EFFECT_EDGE``
cross-rank pair in different batches nothing orders         ``PLAN_RACE_*``
wait-for cycle of program order and messages                ``PLAN_WAIT_CYCLE``
send without receiver, receive without send                 ``PLAN_ORPHAN_*``
send through a dead rank without checkpoint re-homing       ``PLAN_DEAD_SEND``
worst-case resident bytes over budget                       ``PLAN_MEM_HWM``
==========================================================  ==============

Happens-before is program order (a step ends before its rank's next one
starts) plus message edges (a consumer's step starts after its
producer's step ends), decided by vector clocks over steps.  Barriers
are *not* modelled: a certificate that relied on the pool's barrier
between batches would stop holding the moment one is relaxed, so
cross-batch ordering is proved from messages and program order alone.
The memory pass bounds each rank by owned factor bytes plus every
distinct received tile — an HB-consistent worst case may leave them all
resident.  A send that is never logged (``TRACE_MISSING_SEND``) is a
defect of a recorded log, invisible statically (:data:`DYNAMIC_ONLY`).

Not imported from ``repro.verify.__init__``: this module needs the
fully built :mod:`repro.cluster`, which itself imports the verify leaf
modules.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from repro.cluster.faults import FaultSpec
from repro.cluster.grid import ProcessGrid
from repro.cluster.memory import BYTES_PER_NNZ, USABLE_FRACTION
from repro.core.dag import _gather_csr
from repro.core.task import TaskType
from repro.verify import report as rep
from repro.verify.effects import EffectFootprints, footprints_from_arrays
from repro.verify.report import VerificationReport, Violation
from repro.verify.trace import MAX_PER_CODE, TIME_EPS

#: Bounds on a JSON plan's grid: flat tile ids ``i * nb + j`` and the
#: verifier's combined sort keys must stay inside int64.
MAX_BLOCKS = 1 << 16
MAX_RANKS = 1 << 16

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


def _dag_columns(dag) -> dict:
    """The per-task :class:`PlanSpec` columns of a task DAG."""
    n = dag.n_tasks
    none = np.empty(0, dtype=np.int64)
    if not n:
        return dict(type_code=none, i=none, j=none, k=none, nnz=none,
                    edges=np.empty((0, 2), dtype=np.int64),
                    nb=dag.part.nblocks)
    arrays = dag.task_arrays()
    indptr, indices = dag.successor_csr()
    prod = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    edges = (np.stack([prod, indices], axis=1) if indices.size
             else np.empty((0, 2), dtype=np.int64))
    return dict(type_code=arrays.type_code.astype(np.int64), i=arrays.i,
                j=arrays.j, k=arrays.k, nnz=arrays.nnz, edges=edges,
                nb=dag.part.nblocks)


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray):
    """``(pos, hit)``: where each key would sit in ``sorted_keys`` and
    whether it is there."""
    pos = np.searchsorted(sorted_keys, keys)
    if not sorted_keys.size:
        return pos, np.zeros(pos.shape, dtype=bool)
    return pos, sorted_keys[np.minimum(pos, sorted_keys.size - 1)] == keys


def _scatter_max(vc: np.ndarray, rows: np.ndarray,
                 values: np.ndarray) -> None:
    """``np.maximum.at(vc, rows, values)`` for a C-contiguous 2-D ``vc``,
    routed through ufunc.at's much faster one-dimensional path."""
    width = vc.shape[1]
    np.maximum.at(vc.reshape(-1),
                  (rows[:, None] * width + np.arange(width)).ravel(),
                  values.ravel())


def _as_int(value, what: str, lo: int | None = 0,
            hi: int | None = None) -> int:
    """``value`` as an int in ``[lo, hi)`` (open ends stay well inside
    int64), or a ``ValueError`` naming the offending field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    v = int(value)
    lo = -(1 << 62) if lo is None else lo
    hi = 1 << 62 if hi is None else hi
    if v < lo or v >= hi:
        raise ValueError(f"{what} = {v} is outside [{lo}, {hi})")
    return v


def _as_float(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _as_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


@dataclass
class PlanSpec:
    """One plan, normalised to flat arrays.

    Built from a real :class:`~repro.core.dag.TaskDAG` plus a
    :class:`~repro.cluster.grid.ProcessGrid` (:meth:`from_dag`,
    :meth:`from_batches`, :meth:`from_execution` — owner-compute ranks)
    or from a hand-written JSON plan (:meth:`from_dict`).

    Attributes
    ----------
    type_code, i, j, k, nnz:
        Per-task columns (``TaskType`` as int, tile coordinates,
        structural nonzeros); flat tile ids are ``i * nb + j``.
    edges:
        DAG edges as an ``(E, 2)`` ``(producer, consumer)`` array.
    nprocs, rank, order:
        Rank count, executing rank per task, and per-rank program order
        (one task-id array per rank; in a batched plan it only says
        which tasks a rank runs).
    faults, checkpointing:
        Optional fault protocol the liveness pass composes with, and
        whether checkpoint re-homing survives a rank death.
    mem_budget_bytes, msg_scale:
        Per-rank memory budget (``None`` skips the memory pass) and the
        ``DistributedSimulator`` message-size multiplier.
    lvl:
        Optional level hint every DAG edge strictly increases — it only
        spares recomputing DAG levels and is validated before use.
    batch:
        Optional per-task batch index — semantics, not a hint (see the
        module doc).  ``None``: every task is its own step.
    times:
        Optional ``(n, 2)`` launch start/end for timed schedules whose
        launches overlap (``streams``): dependency order uses them.
    gpu, cuda_blocks, shared_mem:
        Collector budgets (``max_resident_blocks``,
        ``shared_mem_total_bytes``) and the per-task demands checked
        against them, batch by batch.
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
    batch: np.ndarray | None = None
    times: np.ndarray | None = None
    gpu: object = None
    cuda_blocks: np.ndarray | None = None
    shared_mem: np.ndarray | None = None

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
        if self.batch is not None and (
                np.shape(self.batch) != (self.n_tasks,)
                or (self.n_tasks and int(np.min(self.batch)) < 0)):
            raise ValueError("batch must hold one non-negative index "
                             "per task")

    @classmethod
    def from_dag(cls, dag, grid: ProcessGrid,
                 faults: FaultSpec | None = None, gpu=None,
                 mem_budget_bytes: float | None = None,
                 msg_scale: float = 1.0) -> "PlanSpec":
        """The plan ``DistributedSimulator`` would execute.

        Ranks follow owner-compute (a task runs on the owner of its
        output tile) and the per-rank program order is the canonical
        level-schedule linearisation restricted to each rank — the
        HB-consistent order every dynamic policy refines.  No batches:
        the simulator's policies compose them at run time.  ``gpu``
        sets the default memory budget (its usable memory).
        """
        cols = _dag_columns(dag)
        n = dag.n_tasks
        lvl = np.zeros(n, dtype=np.int64)
        lin_pos = np.empty(n, dtype=np.int64)
        if n:
            levels = dag.level_schedule()
            for d, ids in enumerate(levels):
                lvl[ids] = d
            lin_pos[np.concatenate(levels)] = np.arange(n, dtype=np.int64)
        rank = (grid.owner_array(cols["i"], cols["j"]) if n
                else np.empty(0, dtype=np.int64))
        by_rank = np.lexsort((lin_pos, rank))
        bounds = np.searchsorted(rank[by_rank], np.arange(grid.nprocs + 1))
        if mem_budget_bytes is None and gpu is not None:
            mem_budget_bytes = USABLE_FRACTION * gpu.memory_gb * 1e9
        return cls(
            **cols, nprocs=grid.nprocs, rank=rank,
            order=[by_rank[bounds[r]:bounds[r + 1]]
                   for r in range(grid.nprocs)],
            faults=faults,
            checkpointing=(faults is None
                           or math.isfinite(faults.checkpoint_interval)),
            mem_budget_bytes=mem_budget_bytes, msg_scale=msg_scale,
            lvl=lvl,
        )

    @classmethod
    def from_batches(cls, dag, grid: ProcessGrid, batches, gpu=None,
                     msg_scale: float = 1.0) -> "PlanSpec":
        """The plan a batch sequence describes, taken as written.

        Each task runs on its owner-compute rank in the batch of its
        first occurrence; ids the sequence repeats, omits or does not
        know become ``TASK_*`` findings of the verifier instead of
        errors.  ``batches`` holds task-id sequences or
        :class:`~repro.core.executor.BatchRecord` launches; when every
        entry is a record, their start/end times become :attr:`times`.
        ``gpu`` enables the Collector capacity check.
        """
        cols = _dag_columns(dag)
        n = dag.n_tasks
        ids = [getattr(b, "task_ids", b) for b in batches]
        sizes = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids))
        if ids and all(isinstance(a, np.ndarray) for a in ids):
            flat = np.concatenate(ids).astype(np.int64, copy=False)
        else:
            flat = np.fromiter(chain.from_iterable(ids), dtype=np.int64,
                               count=int(sizes.sum()))
        bidx = np.repeat(np.arange(len(ids), dtype=np.int64), sizes)
        valid = (flat >= 0) & (flat < n)
        batch = np.zeros(n, dtype=np.int64)
        first = np.full(n, flat.size, dtype=np.int64)
        np.minimum.at(first, flat[valid], np.flatnonzero(valid))
        seen = first < flat.size
        batch[seen] = bidx[first[seen]]
        times = None
        if ids and all(hasattr(b, "t_start") for b in batches):
            span = np.array([(b.t_start, b.t_end) for b in batches],
                            dtype=np.float64)
            times = np.zeros((n, 2))
            times[seen] = span[batch[seen]]
        owner = (grid.owner_array(cols["i"], cols["j"]) if n
                 else np.empty(0, dtype=np.int64))
        entry_rank = np.zeros(flat.size, dtype=np.int64)
        entry_rank[valid] = owner[flat[valid]]
        by_rank = np.argsort(entry_rank, kind="stable")
        bounds = np.searchsorted(entry_rank[by_rank],
                                 np.arange(grid.nprocs + 1))
        arrays = dag.task_arrays() if (n and gpu is not None) else None
        return cls(
            **cols, nprocs=grid.nprocs, rank=owner,
            order=[flat[by_rank[bounds[r]:bounds[r + 1]]]
                   for r in range(grid.nprocs)],
            msg_scale=msg_scale, lvl=batch, batch=batch, times=times,
            gpu=gpu,
            cuda_blocks=None if arrays is None else arrays.cuda_blocks,
            shared_mem=None if arrays is None else arrays.shared_mem,
        )

    @classmethod
    def from_execution(cls, dag, grid: ProcessGrid,
                       batches) -> "PlanSpec":
        """The plan a real batched execution dispatches.

        :meth:`from_batches` for a sequence that covers every DAG task
        exactly once (``ValueError`` otherwise): batches run in emission
        order, and each rank executes its owner-slice of a batch as one
        concurrent step — exactly how ``repro.parallel.ParallelExecutor``
        drives its workers.  The batch index is validated, not trusted:
        an edge that does not reach a strictly later batch is reported
        as ``DEP_ORDER``, never re-certified under a sequential reading
        of the batch.
        """
        flat = [np.asarray(b, dtype=np.int64).ravel() for b in batches]
        if not np.array_equal(np.sort(np.concatenate(flat or [[]])),
                              np.arange(dag.n_tasks)):
            raise ValueError(
                "batch sequence does not cover the DAG exactly once")
        return cls.from_batches(dag, grid, batches)

    def to_dict(self) -> dict:
        """Serialise to the :meth:`from_dict` golden-plan JSON payload.

        Fault specs are not serialised — golden plans derived from real
        executions are fault-free — and neither are launch times or
        Collector budgets.
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
        if self.batch is not None:
            for t, b in zip(tasks, np.asarray(self.batch).tolist()):
                t["batch"] = int(b)
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
        ``grid`` owner of their output tile when given) and optionally a
        ``batch`` index (on every task or on none); ``order`` defaults
        to ascending task id per rank.  A ``faults`` block with
        ``"checkpoint_interval": null`` means checkpointing is *off*
        (internally: an infinite interval, so no checkpoint ever exists
        to re-home from).  The payload comes from outside the program:
        every malformed field is a ``ValueError`` naming it.
        """
        if not isinstance(payload, dict):
            raise ValueError("a plan must be a JSON object")
        tasks = _as_list(payload.get("tasks"), "tasks")
        n = len(tasks)
        for q, t in enumerate(tasks):
            if not isinstance(t, dict):
                raise ValueError(f"tasks[{q}] must be an object")
            ttype = t.get("type")
            if not isinstance(ttype, str) or ttype not in TaskType.__members__:
                raise ValueError(
                    f"tasks[{q}].type: unknown task type {ttype!r}")

        def column(name, default=None, lo=0, hi=None):
            out = np.empty(n, dtype=np.int64)
            for q, t in enumerate(tasks):
                if name not in t and default is None:
                    raise ValueError(f"tasks[{q}].{name} is missing")
                out[q] = _as_int(t.get(name, default), f"tasks[{q}].{name}",
                                 lo, hi)
            return out

        type_code = np.fromiter(
            (int(TaskType[t["type"]]) for t in tasks), np.int64, count=n)
        ti, tj, tk = column("i"), column("j"), column("k", 0)
        nnz = column("nnz", 1)
        nb = (_as_int(payload["nb"], "nb", 1) if "nb" in payload
              else max(int(ti.max()), int(tj.max())) + 1 if n else 1)
        if nb > MAX_BLOCKS:
            raise ValueError(f"nb = {nb} exceeds {MAX_BLOCKS} blocks")
        for name, col in (("i", ti), ("j", tj), ("k", tk)):
            # flat tile ids i * nb + j of distinct tiles would collide
            bad = np.flatnonzero(col >= nb)
            if bad.size:
                raise ValueError(f"tasks[{bad[0]}].{name} = "
                                 f"{col[bad[0]]} is outside [0, {nb}) "
                                 f"(nb = {nb})")
        nprocs = _as_int(payload.get("nprocs"), "nprocs", 1, MAX_RANKS + 1)
        gspec = payload.get("grid")
        if gspec is None:
            grid = ProcessGrid(nprocs)
        elif isinstance(gspec, dict):
            grid = ProcessGrid(nprocs, _as_int(gspec.get("pr"), "grid.pr"),
                               _as_int(gspec.get("pc"), "grid.pc"))
        else:
            raise ValueError("grid must be an object with pr and pc")
        rank = np.fromiter(
            (_as_int(t["rank"], f"tasks[{q}].rank", 0, nprocs)
             if "rank" in t else grid.owner(int(ti[q]), int(tj[q]))
             for q, t in enumerate(tasks)), np.int64, count=n)
        batch = None
        if any("batch" in t for t in tasks):
            # a plan of n tasks needs at most n launches
            batch = column("batch", hi=n)
        raw_edges = _as_list(payload.get("edges", []), "edges")
        edges = np.empty((len(raw_edges), 2), dtype=np.int64)
        for e, pair in enumerate(raw_edges):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"edges[{e}] must be a [producer, "
                                 f"consumer] pair, got {pair!r}")
            edges[e] = [_as_int(v, f"edges[{e}] endpoint", 0, n)
                        for v in pair]
        if "order" in payload:
            order = [np.array(
                [_as_int(t, f"order[{r}][{q}]", None) for q, t in
                 enumerate(_as_list(o, f"order[{r}]"))], dtype=np.int64)
                for r, o in enumerate(_as_list(payload["order"], "order"))]
        else:
            order = [np.flatnonzero(rank == r) for r in range(nprocs)]
        checkpointing = True
        faults = None
        fpay = payload.get("faults")
        if fpay is not None:
            if not isinstance(fpay, dict):
                raise ValueError("faults must be an object")
            fpay = dict(fpay)
            try:
                if "checkpoint_interval" in fpay \
                        and fpay["checkpoint_interval"] is None:
                    del fpay["checkpoint_interval"]
                    faults = replace(FaultSpec.from_dict(fpay),
                                     checkpoint_interval=math.inf)
                    checkpointing = False
                else:
                    faults = FaultSpec.from_dict(fpay)
            except (KeyError, TypeError) as exc:
                raise ValueError(f"faults: malformed ({exc!r})") from exc
        budget = payload.get("mem_budget_bytes")
        return cls(
            type_code=type_code, i=ti, j=tj, k=tk, nnz=nnz, edges=edges,
            nb=nb, nprocs=nprocs, rank=rank, order=order, faults=faults,
            checkpointing=checkpointing,
            mem_budget_bytes=(None if budget is None
                              else _as_float(budget, "mem_budget_bytes")),
            msg_scale=_as_float(payload.get("msg_scale", 1.0), "msg_scale"),
            batch=batch,
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
        n = p.n_tasks
        self._fp: EffectFootprints = footprints_from_arrays(
            p.type_code, p.i, p.j, p.k, p.nb)
        self._batch = (None if p.batch is None
                       else np.asarray(p.batch, dtype=np.int64))
        # scheduled := appears in some rank's program order (first
        # occurrence wins, later ones are duplicates)
        orders = [np.asarray(o, dtype=np.int64) for o in p.order]
        lens = np.array([o.size for o in orders], dtype=np.int64)
        flat = (np.concatenate(orders) if int(lens.sum())
                else np.empty(0, dtype=np.int64))
        rk = np.repeat(np.arange(p.nprocs, dtype=np.int64), lens)
        valid = (flat >= 0) & (flat < n)
        self._unknown: list[int] = [int(t) for t in flat[~valid]]
        fv, rv = flat[valid], rk[valid]
        srt = np.argsort(fv, kind="stable")
        fs = fv[srt]
        first = (np.r_[True, fs[1:] != fs[:-1]] if fs.size
                 else np.zeros(0, dtype=bool))
        self._dupes: list[int] = [int(t) for t in fs[~first]]
        keep = np.zeros(fv.size, dtype=bool)
        keep[srt[first]] = True
        tv, rv = fv[keep], rv[keep]
        self._sched = np.zeros(n, dtype=bool)
        self._sched[tv] = True
        # an order entry overrides the task's declared rank — program
        # order is what the ranks actually execute
        p.rank[tv] = rv
        # program-order steps: one per task, or one per (rank, batch)
        # group in ascending batch order within each rank
        if self._batch is None or not tv.size:
            step = np.ones(tv.size, dtype=bool)
        else:
            key = rv * (int(self._batch.max()) + 1) + self._batch[tv]
            if bool(np.any(key[1:] < key[:-1])):
                o = np.argsort(key, kind="stable")
                tv, rv, key = tv[o], rv[o], key[o]
            step = np.r_[True, key[1:] != key[:-1]]
        gid = np.cumsum(step) - 1
        # per step: its rank, 1-based position in the rank's sequence,
        # and one member task; steps are grouped by rank
        self._grank = rv[step]
        self._gpos1 = (np.arange(self._grank.size, dtype=np.int64)
                       - np.searchsorted(self._grank, self._grank) + 1)
        self._gtask = tv[step]
        self._rank_bounds = np.searchsorted(
            self._grank, np.arange(p.nprocs + 1))
        self._gid = np.full(n, -1, dtype=np.int64)
        self._gid[tv] = gid
        self._pos1 = np.zeros(n, dtype=np.int64)
        self._pos1[tv] = self._gpos1[gid]

    @property
    def gear(self) -> "str | None":
        """Which happens-before engine the last :meth:`verify` chose:
        ``"sweep"`` (:meth:`_hb_fast`, candidates confirmed exactly) or
        ``"exact"`` (:meth:`_build_hb`); ``None`` before any run."""
        return self._gear

    # ------------------------------------------------------------------
    # completeness · cycles · dependency order
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
                message=f"{missing.size} task(s) never executed: they "
                        "appear in no rank's program order",
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

    def _dag_levels(self) -> np.ndarray:
        """A per-task level every DAG edge strictly increases.

        A :attr:`PlanSpec.lvl` hint is validated — every edge must
        strictly increase it — before being trusted, so a corrupt hint
        degrades to a recomputation, never to a wrong certificate.
        Without a valid hint the longest-path level over the DAG edges
        is computed; tasks on a dependency cycle keep level ``-1``.
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
        estarts = np.searchsorted(prod[eo], np.arange(n + 1))
        lvl = np.full(n, -1, dtype=np.int64)
        frontier = np.flatnonzero(indeg == 0)
        d = 0
        while frontier.size:
            lvl[frontier] = d
            d += 1
            nxt, _ = _gather_csr(estarts, cons[eo], frontier)
            np.subtract.at(indeg, nxt, 1)
            frontier = np.unique(nxt[indeg[nxt] == 0])
        return lvl

    def _check_cycles(self, out: VerificationReport) -> np.ndarray:
        lvl = self._dag_levels()
        stuck = np.flatnonzero(lvl < 0)
        if stuck.size:
            out.add(Violation(
                code=rep.DAG_CYCLE,
                message=f"{stuck.size} task(s) sit on a dependency cycle "
                        "and can never become ready",
                task_ids=tuple(int(t) for t in stuck[:MAX_PER_CODE]),
            ))
        return lvl

    def _check_dependencies(self, out: VerificationReport) -> np.ndarray:
        """``DEP_ORDER`` for every edge whose consumer is not in a
        strictly later batch — or, for timed launches, starts before its
        producer ends.  Returns the mask of edges that order their
        endpoints' steps (the happens-before message edges)."""
        p, b = self.plan, self._batch
        prod, cons = p.edges[:, 0], p.edges[:, 1]
        both = self._sched[prod] & self._sched[cons]
        forward = b[cons] > b[prod]
        if p.times is None:
            bad = both & ~forward
        else:
            bad = both & (p.times[cons, 0] < p.times[prod, 1] - TIME_EPS)
            forward &= ~bad
        for e in np.flatnonzero(bad)[:MAX_PER_CODE]:
            pr, co = int(prod[e]), int(cons[e])
            out.add(Violation(
                code=rep.DEP_ORDER,
                message=f"task {co} started before its dependency {pr} "
                        "finished",
                task_ids=(co, pr),
                batch_ids=(int(b[co]), int(b[pr])),
            ))
        return forward

    # ------------------------------------------------------------------
    # hazards · capacity (footprints, batch by batch)
    # ------------------------------------------------------------------
    def _check_effects(self, out: VerificationReport) -> None:
        """``PLAN_EFFECT_EDGE``: an edge between disjoint footprints
        means the DAG and the access semantics disagree, so the other
        passes would be proving the wrong theorem."""
        p, fp = self.plan, self._fp
        if not p.edges.size:
            return
        prod = p.edges[:, 0]
        cons = p.edges[:, 1]
        wt = fp.write_tile
        # membership of (task, tile) in the read set, via one sorted key
        rkey = np.sort(fp.read_owner * fp.ntiles + fp.read_tile)

        def reads(task, tile):
            return _lookup(rkey, task * fp.ntiles + tile)[1]

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

    def _check_hazards(self, out: VerificationReport) -> None:
        """Same-batch write-write and read-write tile conflicts.

        Same-target SSSSM groups on one rank are legal (the Executor
        flags them atomic and applies the stacked products serially in
        batch order); every other pair sharing a written tile inside one
        batch is a race, as is reading a tile a batch-mate writes.
        """
        p, fp = self.plan, self._fp
        ids = np.flatnonzero(self._sched)
        if not ids.size:
            return
        nb, ntiles = p.nb, fp.ntiles
        bx = self._batch[ids]
        key = bx * ntiles + fp.write_tile[ids]
        order = np.argsort(key, kind="stable")
        sk = key[order]
        members_sorted = ids[order]
        run_starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
        run_len = np.diff(np.r_[run_starts, sk.size])
        atomic = np.add.reduceat(
            fp.is_atomic[members_sorted].astype(np.int64), run_starts)
        ranks = p.rank[members_sorted]
        one_rank = (np.minimum.reduceat(ranks, run_starts)
                    == np.maximum.reduceat(ranks, run_starts))
        ww = np.flatnonzero((run_len > 1)
                            & ((atomic < run_len) | ~one_rank))
        for r in ww[:MAX_PER_CODE]:
            members = sorted(int(t) for t in members_sorted[
                run_starts[r]:run_starts[r] + run_len[r]])
            tile = int(sk[run_starts[r]] % ntiles)
            out.add(Violation(
                code=rep.HAZARD_WW,
                message=f"non-atomic write-write conflict on tile "
                        f"({tile // nb},{tile % nb}): tasks {members} "
                        "share one batch",
                task_ids=tuple(members),
                batch_ids=(int(sk[run_starts[r]] // ntiles),),
            ))
        # read-write: look every scheduled read's (batch, tile) key up
        # among the batch's writes
        r_owner = fp.read_owner[self._sched[fp.read_owner]]
        r_tile = fp.read_tile[self._sched[fp.read_owner]]
        pos, hit = _lookup(sk, self._batch[r_owner] * ntiles + r_tile)
        for q in np.flatnonzero(hit)[:MAX_PER_CODE]:
            writer = int(members_sorted[pos[q]])
            reader = int(r_owner[q])
            if writer == reader:  # pragma: no cover - defensive
                continue
            tile = int(r_tile[q])
            out.add(Violation(
                code=rep.HAZARD_RW,
                message=f"task {reader} reads tile "
                        f"({tile // nb},{tile % nb}) that task {writer} "
                        "writes in the same batch",
                task_ids=(reader, writer),
                batch_ids=(int(self._batch[reader]),),
            ))

    def _check_capacity(self, out: VerificationReport) -> None:
        """Collector budgets per multi-task batch; a single oversized
        task may run alone (the Collector's own escape hatch)."""
        p = self.plan
        ids = np.flatnonzero(self._sched)
        bx = self._batch[ids]
        size = int(bx.max()) + 1 if bx.size else 0
        count = np.bincount(bx, minlength=size)
        blocks = np.bincount(bx, weights=np.asarray(p.cuda_blocks)[ids],
                             minlength=size)
        shmem = np.bincount(bx, weights=np.asarray(p.shared_mem)[ids],
                            minlength=size)
        max_blocks = p.gpu.max_resident_blocks
        max_shmem = p.gpu.shared_mem_total_bytes
        multi = count > 1
        for b in np.flatnonzero(multi & (blocks > max_blocks))[:MAX_PER_CODE]:
            out.add(Violation(
                code=rep.CAPACITY_BLOCKS,
                message=f"batch {int(b)} needs {int(blocks[b])} CUDA "
                        f"blocks, budget is {int(max_blocks)}",
                batch_ids=(int(b),),
            ))
        for b in np.flatnonzero(multi & (shmem > max_shmem))[:MAX_PER_CODE]:
            out.add(Violation(
                code=rep.CAPACITY_SHMEM,
                message=f"batch {int(b)} stages {int(shmem[b])} B of "
                        f"shared memory, budget is {int(max_shmem)} B",
                batch_ids=(int(b),),
            ))

    # ------------------------------------------------------------------
    # happens-before (vector clocks over steps) and wait cycles
    # ------------------------------------------------------------------
    def _order_level_monotone(self, glvl) -> bool:
        """Is every rank's step sequence non-decreasing in ``glvl``?

        When it is, and every happens-before message edge strictly
        increases ``glvl``, the step graph is provably acyclic: sort
        steps by ``(level, rank, position)`` — message edges strictly
        increase the level and program-order edges never decrease it
        while strictly increasing the position, so no edge goes
        backwards.  True by construction for :meth:`PlanSpec.from_dag`
        plans (orders restrict the level schedule) and for every batched
        plan (steps ascend in batch, message edges are the forward ones).
        """
        rb = self._rank_bounds
        for r in range(self.plan.nprocs):
            seq = glvl[rb[r]:rb[r + 1]]
            if seq.size > 1 and bool(np.any(seq[1:] < seq[:-1])):
                return False
        return True

    def _hb_fast(self, gp, gc):
        """Vector clocks without the Kahn peel, for acyclic step graphs.

        Two relaxation sweeps, each a handful of full-width numpy ops:
        a per-rank prefix-max along the step sequence, then one
        scatter-max over the message edges (producer clocks are gathered
        before the scatter, so a sweep carries each message one hop).
        The result can only *under*-approximate happens-before (every
        propagation step follows a real HB edge), so the caller
        confirms any surviving race candidates against the exact engine.
        """
        rb = self._rank_bounds
        vc = np.zeros((self._grank.size, self.plan.nprocs), dtype=np.int64)
        vc[np.arange(self._grank.size), self._grank] = self._gpos1
        for _ in range(2):
            for r in range(self.plan.nprocs):
                if rb[r + 1] - rb[r] > 1:
                    vc[rb[r]:rb[r + 1]] = np.maximum.accumulate(
                        vc[rb[r]:rb[r + 1]], axis=0)
            if gp.size:
                _scatter_max(vc, gc, vc[gp])
        return vc, self._sched

    def _build_hb(self, out: VerificationReport, gp, gc):
        """Kahn-peel the step graph while propagating vector clocks.

        Returns ``(vc, live)`` where ``vc[s, r]`` is the largest 1-based
        step position on rank ``r`` known to happen before (or be) step
        ``s``, and ``live`` marks scheduled tasks whose step the peel
        reached — tasks left behind sit on a wait cycle.  Exact but
        frontier-serialised (program order narrows each peel step to at
        most one step per rank), so :meth:`_hb` prefers the sweep
        engine whenever the step graph is provably acyclic.
        """
        p = self.plan
        ng = self._grank.size
        po = np.flatnonzero(self._grank[1:] == self._grank[:-1])
        src = np.concatenate([gp, po])
        dst = np.concatenate([gc, po + 1])
        order_e = np.argsort(src, kind="stable")
        src_s, dst_s = src[order_e], dst[order_e]
        starts = np.searchsorted(src_s, np.arange(ng + 1))
        indeg = np.bincount(dst, minlength=ng)
        vc = np.zeros((ng, p.nprocs), dtype=np.int64)
        live_g = np.zeros(ng, dtype=bool)
        frontier = np.flatnonzero(indeg == 0)
        while frontier.size:
            live_g[frontier] = True
            vc[frontier, self._grank[frontier]] = np.maximum(
                vc[frontier, self._grank[frontier]], self._gpos1[frontier])
            e_dst, counts = _gather_csr(starts, dst_s, frontier)
            _scatter_max(vc, e_dst, vc[np.repeat(frontier, counts)])
            np.subtract.at(indeg, e_dst, 1)
            frontier = np.unique(e_dst[indeg[e_dst] == 0])
        live = self._sched.copy()
        live[self._sched] = live_g[self._gid[self._sched]]
        stuck = np.flatnonzero(self._sched & ~live)
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
        p, gid, pos1 = self.plan, self._gid, self._pos1
        a_before_b = vc[gid[b], p.rank[a]] >= pos1[a]
        b_before_a = vc[gid[a], p.rank[b]] >= pos1[b]
        return a_before_b | b_before_a

    def _concurrent_batchmates(self, a, b):
        """Pairs sharing a batch: already judged by the hazard pass."""
        if self._batch is None:
            return np.zeros(np.shape(a), dtype=bool)
        return self._batch[a] == self._batch[b]

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
                bad = cross & ~self._ordered(vc, a, b) \
                    & ~self._concurrent_batchmates(a, b)
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
        ti, has = _lookup(ts[run_starts], r_tile)
        writer, cnt = _gather_csr(np.r_[run_starts, ts.size], w_sorted,
                                  ti[has])
        reader = np.repeat(r_owner[has], cnt)
        tile_of = np.repeat(r_tile[has], cnt)
        pairable = (writer != reader) & (p.rank[writer] != p.rank[reader]) \
            & ~self._concurrent_batchmates(writer, reader)
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
    # fault-protocol liveness · per-rank memory high-water mark
    # ------------------------------------------------------------------
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

    def _check_memory(self, out: VerificationReport) -> None:
        p, fp = self.plan, self._fp
        budget = p.mem_budget_bytes
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
    def verify(self, subject: str = "plan",
               hazards: bool = True) -> VerificationReport:
        """Run every applicable pass; returns the full violation set.

        ``hazards=False`` skips the footprint passes (effect edges and
        same-batch conflicts) — for DAGs whose tile coordinates are
        synthetic metadata rather than real access sets (random
        property-test DAGs), where the edges alone define correctness.
        The race and liveness passes run unless the plan is one rank of
        batches: no pair is then cross-rank and ascending batches with
        forward-only message edges cannot wait on each other.
        """
        p = self.plan
        batched = self._batch is not None
        capacity = batched and p.gpu is not None
        clocks = p.nprocs > 1 or not batched
        checks = ["completeness", "cycles"]
        checks += ["dependencies"] if batched else []
        checks += ["hazards"] if hazards else []
        checks += ["capacity"] if capacity else []
        checks += ["races", "liveness"] if clocks else []
        checks += ["memory"] if p.mem_budget_bytes is not None else []
        out = VerificationReport(subject=subject, checks=tuple(checks))
        self._check_coverage(out)
        if p.n_tasks == 0:
            return out
        lvl = self._check_cycles(out)
        prod, cons = p.edges[:, 0], p.edges[:, 1]
        if batched and p.edges.size:
            hb = self._check_dependencies(out)
            prod, cons = prod[hb], cons[hb]
        if hazards:
            self._check_effects(out)
            if batched:
                self._check_hazards(out)
        if capacity:
            self._check_capacity(out)
        # message edges between scheduled tasks
        if not self._sched.all():
            keep = self._sched[prod] & self._sched[cons]
            prod, cons = prod[keep], cons[keep]
        gp, gc = self._gid[prod], self._gid[cons]
        glvl = (self._batch if batched else lvl)[self._gtask]
        acyclic = (batched or bool(np.all(glvl >= 0))) \
            and self._order_level_monotone(glvl)
        self._gear = "sweep" if acyclic else "exact"
        if clocks:
            if acyclic:
                vc, live = self._hb_fast(gp, gc)
            else:
                vc, live = self._build_hb(out, gp, gc)
            races = self._find_races(vc, live)
            if races and acyclic:
                # the fast clocks only under-approximate HB: confirm the
                # candidates against the exact peel before reporting them
                vc, live = self._build_hb(out, gp, gc)
                races = self._find_races(vc, live)
            for v in races:
                out.add(v)
            self._check_dead_sends(out)
        if p.mem_budget_bytes is not None:
            self._check_memory(out)
        return out


def verify_plan(plan: PlanSpec, subject: str = "plan") -> VerificationReport:
    """One-shot convenience wrapper around :class:`PlanVerifier`."""
    return PlanVerifier(plan).verify(subject=subject)
