"""The event engine of the cluster simulator.

A per-message loop — one Python tuple per event on one ``heapq``, task
and edge *objects* walked per message — is intractable past a few
hundred ranks, so the simulator is built column-first, in the spirit of
PR 1's ScheduleArena:

* events live in an :class:`~repro.cluster.eventarena.EventArena`
  (SoA numpy columns, calendar-queue cohort pops);
* everything static is precomputed once into :class:`SimStatics`
  columns — tile owners, per-edge destination/bytes/latency (one
  vectorized ``message_times`` pass), and per-task single-launch times
  (one vectorized cost-model pass);
* per-rank ready heaps hold scalar ``int`` keys instead of tuples
  (:class:`_ProcState`) — a monotone encoding of the policy's priority
  tuple, so the heap *structure* (which a rank death's
  ``drain_pending`` exposes) is the tuple heap's;
* predecessor accounting for wide fan-outs runs through
  ``np.maximum.at``/``np.subtract.at`` with the newly-ready set pushed
  in last-decrement order — provably the sequential push order.

:func:`run_arena` is the lean lossless loop, :func:`run_arena_faulty`
the loop with per-edge delivery tracking, retransmit timers and
death/recovery events; ``DistributedSimulator.run`` picks between them
from ``faults is not None``.  What pins their behaviour — the frozen
goldens of the removed heap loops, execute == replay, the TraceVerifier
— is listed in DESIGN.md ("What pins the engine").

Nothing created per run (``SimStatics``, the per-rank states, the
``EventArena``) may sit on a reference cycle: the statics hold per-task
Python-int lists for DAGs up to ``4096x192``, and a cycle would keep
them alive until the cyclic collector's next old-generation pass, so
consecutive simulations would overlap in memory.  Hence no bound method
and no closure over an instance is ever stored *on* that instance; the
loops pick per-policy dispatch into locals.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

from repro.cluster.distsim import DistributedResult
from repro.cluster.eventarena import (
    EventArena,
    K_DEATH,
    K_DELIVER,
    K_DONE,
    K_READY,
    K_WAKE,
    K_XMIT,
)
from repro.cluster.faults import FaultStats
from repro.cluster.memory import USABLE_FRACTION, factor_bytes_per_rank
from repro.core.executor import EstimateBackend, Executor, ReplayBackend
from repro.gpusim.costmodel import GPUCostModel, KernelLaunch
from repro.verify.hazards import batch_atomic_flags
from repro.verify.trace import DistTrace, SendRecord

#: scalar-key encodings below this are built as int64 columns; wider
#: ones are built on Python ints (same encoding, same order)
_MAX_KEY = 2 ** 62

#: concurrent streams of the ``streams`` policy (the four-stream ablation)
_N_STREAMS = 4

#: fan-outs at least this wide take the numpy propagate path; narrower
#: ones run a scalar loop over the precomputed edge columns
_VEC_EDGE_MIN = 48


def single_launch_times(model: GPUCostModel, cuda_blocks: np.ndarray,
                        flops: np.ndarray, nbytes: np.ndarray) -> np.ndarray:
    """``model.launch_time`` of every task's single-task launch, vectorized.

    Replicates :meth:`GPUCostModel.launch_time` operation-for-operation
    (same operands, same association order), so each element is
    bit-identical to the scalar call — the engine's fast path feeds
    these into the same ``t_end - t_start`` arithmetic
    ``BatchRecord.duration`` performs.
    """
    gpu = model.gpu
    overhead = gpu.launch_overhead_us * 1e-6
    blocks = np.asarray(cuda_blocks, dtype=np.int64)
    flops = np.asarray(flops, dtype=np.int64)
    nbytes = np.asarray(nbytes, dtype=np.int64)
    pos = blocks > 0
    blocks_f = blocks.astype(np.float64)
    occ = np.where(pos, np.minimum(1.0, blocks_f / gpu.sm_count),
                   1.0 / gpu.sm_count)
    flops_f = flops.astype(np.float64)
    per_block = np.where(pos, flops_f / np.where(pos, blocks_f, 1.0), 0.0)
    eff = np.where(
        pos & (flops > 0),
        np.maximum(0.05, np.minimum(
            1.0, per_block / model.block_saturation_flops)),
        0.05)
    gflops = gpu.fp64_gflops * occ * eff * model.base_efficiency
    t_compute = np.where(flops != 0, flops_f / (gflops * 1e9), 0.0)
    t_mem = np.where(nbytes != 0,
                     nbytes.astype(np.float64)
                     / (gpu.mem_bw_gbs * occ * 1e9), 0.0)
    lt = overhead + np.maximum(t_compute, t_mem)
    return np.where((flops <= 0) & (nbytes <= 0), overhead, lt)


def _int_keys(major: np.ndarray, minor: np.ndarray) -> list[int]:
    """Scalar heap keys ordering task ids as the tuple ``(major, minor,
    tid)`` would — ``key % n`` is the task id.

    ``heapq``'s array layout depends only on comparison outcomes, so a
    heap of these keys has exactly the structure of the tuple heap.
    Encodings too wide for an int64 column are computed on Python ints
    instead: the same keys, just slower to build.
    """
    n = major.size
    width = int(minor.max()) + 1
    if (int(major.max()) + 1) * width * n < _MAX_KEY:
        return ((major * width + minor) * n
                + np.arange(n, dtype=np.int64)).tolist()
    return [(a * width + b) * n + tid for tid, (a, b)
            in enumerate(zip(major.tolist(), minor.tolist()))]


class SimStatics:
    """Everything about a run that never changes, as columns.

    Built once per :func:`run_arena`/:func:`run_arena_faulty` call:
    tile owners, the CSR edge table with per-edge destination / bytes /
    lossless latency, per-task single-launch times for replay/estimate
    backends, and the scalar ready-heap keys of the run's policy.  Hot
    columns are also materialized as Python lists — element reads off a
    list are ~5x cheaper than numpy scalar indexing, and the event loop
    does millions of them.
    """

    def __init__(self, sim, model: GPUCostModel, cp: np.ndarray):
        dag = sim.dag
        n = dag.n_tasks
        self.n = n
        arrays = dag.task_arrays()
        self.arrays = arrays
        self.model = model
        self.backend = sim.backend
        if n:
            owner = np.asarray(
                sim.grid.owner_array(arrays.i, arrays.j), dtype=np.int64)
        else:
            owner = np.zeros(0, dtype=np.int64)
        self.owner = owner
        self.owner_l = owner.tolist()
        indptr, indices = dag.successor_csr()
        self.indptr = indptr
        self.indptr_l = indptr.tolist()
        self.e_cons = indices.astype(np.int64)
        self.e_cons_l = self.e_cons.tolist()
        self.e_prod = np.repeat(np.arange(n, dtype=np.int64),
                                np.diff(indptr))
        # per-task output-tile bytes: float(nnz) * 8 is exact (a power
        # of two scale), so this truncation matches the scalar
        # int(8 * nnz * msg_scale) bit-for-bit
        out_bytes = (arrays.nnz.astype(np.float64) * 8.0
                     * sim.msg_scale).astype(np.int64)
        self.out_bytes = out_bytes
        self.e_bytes = out_bytes[self.e_prod]
        self.e_bytes_l = self.e_bytes.tolist()
        self.e_src = owner[self.e_prod]
        self.e_dst = owner[self.e_cons]
        self.e_dst_l = self.e_dst.tolist()
        self.e_delay = sim.cluster.message_times(
            self.e_src, self.e_dst, self.e_bytes)
        self.e_delay_l = self.e_delay.tolist()
        self.e_cross = self.e_src != self.e_dst
        self.e_cross_l = self.e_cross.tolist()

        # -- single-task launch columns (stat-replay backends only;
        # -- numeric / record-once backends go through the executor so
        # -- execution side effects are preserved) ----------------------
        self.lt1_l: list | None = None
        self.body1_l: list | None = None
        self.flops1_l: list | None = None
        self.have1_l: list | None = None
        self.needs_atomic = False
        flops1 = bytes1 = have1 = None
        if type(self.backend) is ReplayBackend:
            flops1, bytes1, have1 = self.backend.stat_arrays(n)
        elif type(self.backend) is EstimateBackend:
            flops1 = arrays.flops_est.astype(np.int64)
            bytes1 = arrays.bytes_est.astype(np.int64)
            self.needs_atomic = True  # atomic SSSSMs add 8*nnz bytes
        if flops1 is not None and n:
            lt1 = single_launch_times(model, arrays.cuda_blocks,
                                      flops1, bytes1)
            overhead = model.gpu.launch_overhead_us * 1e-6
            self.lt1_l = lt1.tolist()
            self.body1_l = (lt1 - overhead).tolist()
            self.flops1_l = flops1.tolist()
            self.have1_l = have1.tolist() if have1 is not None else None
        self._atomic_scratch = np.zeros(64, dtype=bool)
        if self.lt1_l is None:
            #: executor path: per-task objects through the shared Executor
            self.tasks = dag.tasks
            self.executor = Executor(model, sim.backend)

        # -- scalar ready-heap keys of this run's policy -----------------
        #   serial/streams: (distance, k, tid)
        #   dmdas:          (-cp, k, tid)
        #   trojan:         (-cp, distance, tid)
        cp64 = cp.astype(np.int64)
        dist = arrays.distance.astype(np.int64)
        kcol = arrays.k.astype(np.int64)
        self.key_l: list[int] = []
        if n:
            inv_cp = int(cp64.max()) - cp64
            if sim.policy == "trojan":
                self.key_l = _int_keys(inv_cp, dist)
            elif sim.policy == "dmdas":
                self.key_l = _int_keys(inv_cp, kcol)
            else:
                self.key_l = _int_keys(dist, kcol)
        if sim.policy == "trojan":
            # the Aggregate/Batch round reads these per admission
            self.cp_l = cp64.tolist()
            self.dist_l = dist.tolist()
            self.k_l = kcol.tolist()
            self.blocks_l = arrays.cuda_blocks.astype(np.int64).tolist()
            self.shmem_l = arrays.shared_mem.astype(np.int64).tolist()
            self.max_blocks = model.gpu.max_resident_blocks
            self.max_shmem = model.gpu.shared_mem_total_bytes

    def batch_time(self, tids_list: list[int]) -> tuple[float, int]:
        """``(launch_time, flops)`` of a multi-task batch, array-side.

        Matches ``Executor.run_batch`` exactly: the same hazard kernel
        flags atomic SSSSMs (the batch-local and global target
        encodings flag identical duplicate groups), the same int sums
        feed the same cost-model call.
        """
        tids = np.asarray(tids_list, dtype=np.int64)
        m = tids.size
        if self._atomic_scratch.size < m:
            self._atomic_scratch = np.zeros(max(m, 64), dtype=bool)
        if self.needs_atomic:
            atomic = batch_atomic_flags(self.arrays.target[tids],
                                        out=self._atomic_scratch)
        else:
            atomic = self._atomic_scratch  # replay ignores the flags
        flops, nbytes = self.backend.batch_stats(tids, atomic, self.arrays)
        launch = KernelLaunch(
            cuda_blocks=int(self.arrays.cuda_blocks[tids].sum()),
            flops=int(flops),
            bytes=int(nbytes),
            shared_mem_bytes=int(self.arrays.shared_mem[tids].sum()),
            n_tasks=m,
        )
        return self.model.launch_time(launch), int(flops)


class _ProcState:
    """Scheduler state of one simulated process: one rank, one policy.

    Ready tasks wait in :attr:`heap`, a ``heapq`` of the policy's scalar
    keys (:attr:`SimStatics.key_l`; ``key % n`` is the task id).  The
    Trojan Horse policy adds :attr:`deferred`, the Container of the
    paper's Aggregate stage, and forms batches against the Collector's
    two budgets inline (:meth:`_form_trojan_batch`).  Timing comes from
    the precomputed stat columns; backends with execution side effects
    (numeric, record-once) have none, and go through the two executor
    hooks :meth:`_run_batch_time` / :meth:`_task_body_time` instead.
    """

    def __init__(self, policy: str, statics: SimStatics, slowdown=None):
        self.policy = policy
        self._st = statics
        self._n = statics.n
        self.kernels = 0
        self.busy = 0.0
        #: latency stretch ``t -> factor`` (straggler injection)
        self.slowdown = slowdown or (lambda _t: 1.0)
        #: ``x * 1.0`` is a bitwise identity, so the identity slowdown
        #: can be skipped without perturbing a single float
        self._no_slow = slowdown is None
        #: task ids launched but not yet completed (fault path only —
        #: a rank death loses exactly this set)
        self.running: set[int] = set()
        self.heap: list[int] = []
        if policy == "trojan":
            #: deferred tasks: ``(not urgent, distance, k, seq, tid)``
            self.deferred: list[tuple[bool, int, int, int, int]] = []
            self._seq = 0
            #: is the Collector full after the batch just formed?  (that
            #: drives the double-buffer push-back in _launch_trojan)
            self._batch_full = False
            # Algorithm 1 launches batches with GPU.AsyncExecutor: the CPU
            # may prepare and enqueue the next batch while one executes
            # (double buffering); the GPU itself runs batches in order
            self.gpu_free = 0.0
            self.inflight = 0
        elif policy in ("serial", "dmdas"):
            self.busy_until = 0.0
        elif policy == "streams":
            self.clocks = [0.0] * _N_STREAMS
            self.device_clock = 0.0    # SM time shared across streams
            self.dispatch_clock = 0.0  # CPU submission serialised
        else:
            raise ValueError(f"unknown policy {policy!r}")

    # -- ready bookkeeping ------------------------------------------------
    def add_ready(self, tid: int) -> None:
        heapq.heappush(self.heap, self._st.key_l[tid])

    def _defer(self, tid: int, urgent: bool = False) -> None:
        st = self._st
        heapq.heappush(
            self.deferred,
            (not urgent, st.dist_l[tid], st.k_l[tid], self._seq, tid))
        self._seq += 1

    def drain_pending(self) -> list[int]:
        """Remove and return every queued-but-unlaunched task id.

        Rank death re-homes this backlog onto the recovery rank; tasks
        already *running* are in :attr:`running`, not here.  The ready
        heap drains in heap-array order, the deferred tasks in priority
        order.
        """
        n = self._n
        out = [k % n for k in self.heap]
        self.heap.clear()
        if self.policy == "trojan":
            deferred = self.deferred
            while deferred:
                out.append(heapq.heappop(deferred)[4])
        return out

    def on_done(self) -> None:
        """A previously-enqueued batch finished (async-executor slot free)."""
        if self.policy == "trojan":
            self.inflight -= 1

    def next_wake(self, t: float) -> float | None:
        """Earliest future time this process could start new work.

        Wakes are coalesced (one pending wake per process) and only
        cover *scheduler* stalls — a busy device with queued work.
        Retransmit deadlines must never be expressed as process wakes: a
        rank waiting on a lost message has no ready tasks, so its wake
        would be ``None`` and the coalescing would silently swallow the
        timer.  The fault loop therefore keeps every retransmit timer as
        a first-class event on the global queue.
        """
        policy = self.policy
        if policy == "trojan":
            # async executor: launches happen on arrivals and batch
            # completions; no timed wake needed
            return None
        elif policy == "streams":
            pending = [c for c in self.clocks if c > t]
            return min(pending) if pending and self.heap else None
        bu = self.busy_until
        return bu if (bu > t and self.heap) else None

    # -- launching --------------------------------------------------------
    def launch(self, t: float):
        """Start work at time ``t`` if the policy allows.

        Returns the ``(start, end, task_ids, flops)`` launches.  The
        lossless loop binds the per-policy method into a local instead.
        """
        policy = self.policy
        if policy == "trojan":
            return self._launch_trojan(t)
        elif policy == "streams":
            return self._launch_streams(t)
        elif policy == "serial" or policy == "dmdas":
            return self._launch_single(t)
        raise AssertionError(f"unknown policy {policy!r}")

    def _form_trojan_batch(self) -> list[int]:
        """One Aggregate/Batch round (paper Algorithm 1) over int columns.

        Aggregate: pop ready tasks most-urgent first; the ones on the
        round's critical path (``cp`` == the round's maximum) go straight
        into the batch until a Collector budget (resident CUDA blocks,
        shared memory) would overflow — the first task of a batch is
        always admitted, an oversized task runs alone — and the overflow
        task is deferred as urgent, everything else as ordinary.  Batch:
        top the batch up from the deferred heap while both budgets hold.
        """
        st = self._st
        n = self._n
        pheap = self.heap
        cheap = self.deferred
        blocks_l = st.blocks_l
        shmem_l = st.shmem_l
        max_blocks = st.max_blocks
        max_shmem = st.max_shmem
        if len(pheap) == 1 and not cheap:
            # the dominant shape at high rank counts: one ready task,
            # nothing deferred — it is trivially critical and trivially
            # admitted, so skip the round machinery
            tid = pheap[0] % n
            pheap.clear()
            self._batch_full = (blocks_l[tid] >= max_blocks
                                or shmem_l[tid] >= max_shmem)
            return [tid]
        cp_l = st.cp_l
        heappop = heapq.heappop
        batch: list[int] = []
        tot_b = 0
        tot_s = 0
        round_max = cp_l[pheap[0] % n] if pheap else None
        while pheap:
            tid = heappop(pheap) % n
            if cp_l[tid] >= round_max:
                cb = blocks_l[tid]
                sm = shmem_l[tid]
                if batch and (tot_b + cb > max_blocks
                              or tot_s + sm > max_shmem):
                    self._defer(tid, urgent=True)
                    for key in pheap:  # heap-array order
                        self._defer(key % n)
                    pheap.clear()
                    break
                batch.append(tid)
                tot_b += cb
                tot_s += sm
            else:
                self._defer(tid)
        while (tot_b < max_blocks and tot_s < max_shmem) and cheap:
            tid = cheap[0][4]
            cb = blocks_l[tid]
            sm = shmem_l[tid]
            if batch and (tot_b + cb > max_blocks
                          or tot_s + sm > max_shmem):
                break
            batch.append(tid)
            tot_b += cb
            tot_s += sm
            heappop(cheap)
        if not batch:
            raise AssertionError("trojan process stalled with ready work")
        self._batch_full = (tot_b >= max_blocks or tot_s >= max_shmem)
        return batch

    def _launch_trojan(self, t):
        inflight = self.inflight
        if inflight >= 2:
            return ()
        pheap = self.heap
        cheap = self.deferred
        if not pheap and not cheap:
            return ()
        out = []
        no_slow = self._no_slow
        while True:
            tids = self._form_trojan_batch()
            if inflight >= 1 and not self._batch_full:
                # GPU busy with a batch already queued behind it: keep
                # aggregating instead of enqueueing a partial batch —
                # push the formed tasks back and wait for a completion
                add_ready = self.add_ready
                for tid in tids:
                    add_ready(tid)
                break
            gpu_free = self.gpu_free
            start = t if gpu_free <= t else gpu_free
            dur, flops = self._run_batch_time(tids, start)
            end = (start + dur if no_slow
                   else start + dur * self.slowdown(t))
            self.gpu_free = end
            inflight += 1
            self.busy += end - start
            self.kernels += 1
            out.append((start, end, tids, flops))
            if inflight >= 2 or not (pheap or cheap):
                break
        self.inflight = inflight
        return out

    def _launch_single(self, t):
        """Serial/dmdas: one task at a time off the ready heap.

        Reads the stat columns directly — the double rounding
        ``(t + lt) - t`` of ``BatchRecord.duration`` is preserved, and
        the identity slowdown multiply is skipped (bitwise no-op).
        """
        if self.busy_until > t:
            return ()
        heap = self.heap
        if not heap:
            return ()
        tid = heapq.heappop(heap) % self._n
        st = self._st
        if st.lt1_l is None:
            dur, flops = self._run_batch_time([tid], t)
        else:
            if st.have1_l is not None and not st.have1_l[tid]:
                raise KeyError(tid)
            t_end = t + st.lt1_l[tid]
            dur = t_end - t
            flops = st.flops1_l[tid]
        end = t + dur if self._no_slow else t + dur * self.slowdown(t)
        self.busy_until = end
        self.busy += end - t
        self.kernels += 1
        return [(t, end, [tid], flops)]

    def _launch_streams(self, t):
        out = []
        gpu = self._st.model.gpu
        overhead = gpu.launch_overhead_us * 1e-6
        dispatch = gpu.dispatch_serial_us * 1e-6
        while self.heap:
            free = [s for s in range(len(self.clocks)) if self.clocks[s] <= t]
            if not free:
                break
            s = free[0]
            tid = heapq.heappop(self.heap) % self._n
            raw, flops = self._task_body_time(tid)
            issue = max(t, self.dispatch_clock)
            self.dispatch_clock = issue + dispatch
            body = raw * self.slowdown(t)
            start = max(issue + overhead, self.device_clock)
            end = start + body
            self.clocks[s] = end
            self.device_clock = end
            self.busy += end - t
            self.kernels += 1
            out.append((t, end, [tid], flops))
        return out

    # -- timing hooks -----------------------------------------------------
    def _run_batch_time(self, tids: list[int],
                        t_start: float) -> tuple[float, int]:
        """Simulated ``(duration, flops)`` of launching ``tids`` at
        ``t_start``.

        The duration is ``(t_start + launch_time) - t_start`` — the
        subtraction is part of the contract (``BatchRecord.duration``
        computes exactly that), and the column path reproduces its
        floating-point rounding to stay bit-identical with the executor.
        """
        st = self._st
        if st.lt1_l is None:
            record = st.executor.run_batch(
                [st.tasks[x] for x in tids], t_start)
            return record.duration, record.flops
        if len(tids) == 1:
            tid = tids[0]
            if st.have1_l is not None and not st.have1_l[tid]:
                raise KeyError(tid)
            lt = st.lt1_l[tid]
            flops = st.flops1_l[tid]
        else:
            lt, flops = st.batch_time(tids)
        t_end = t_start + lt
        return t_end - t_start, flops

    def _task_body_time(self, tid: int) -> tuple[float, int]:
        """Kernel-body seconds (launch time minus overhead) and flops of
        one task — the streams policy's dispatch/body split."""
        st = self._st
        if st.body1_l is None:
            task = st.tasks[tid]
            stats = st.backend.run_task(task, False)
            launch = KernelLaunch()
            launch.add_task(task.cuda_blocks, stats.flops, stats.bytes,
                            task.shared_mem_bytes)
            overhead = st.model.gpu.launch_overhead_us * 1e-6
            return st.model.launch_time(launch) - overhead, stats.flops
        if st.have1_l is not None and not st.have1_l[tid]:
            raise KeyError(tid)
        return st.body1_l[tid], st.flops1_l[tid]


def _initial_width(cluster) -> float:
    """Starting calendar bucket width: the dominant event spacing.

    The internode latency separates most send/deliver event pairs;
    widths only shrink from here (deterministically), and the width
    never affects results — only cohort sizes.
    """
    width = max(cluster.internode.latency_us,
                cluster.intranode.latency_us) * 1e-6
    return width if width > 0 else 1e-6


# verify: effects(arena)
def run_arena(sim) -> DistributedResult:
    """The fault-free event loop.

    Events are processed in ``(t, push-seq)`` order — the arena's
    determinism contract — and a DAG edge's predecessor count drops at
    *send* time: the consumer's ready event is pushed at its latest
    arrival.
    """
    t_wall = time.perf_counter()
    dag = sim.dag
    model = GPUCostModel(sim.cluster.gpu)
    cp = dag.critical_path_lengths()
    st = SimStatics(sim, model, cp)
    nprocs = sim.nprocs
    n = dag.n_tasks
    procs = [_ProcState(sim.policy, st) for _ in range(nprocs)]
    pred = dag.pred_count.copy()
    arrival = np.zeros(n)
    owner_l = st.owner_l
    indptr_l = st.indptr_l
    e_cons_l = st.e_cons_l
    e_dst_l = st.e_dst_l
    e_delay_l = st.e_delay_l
    e_bytes_l = st.e_bytes_l
    e_cross_l = st.e_cross_l
    e_cons_np = st.e_cons
    e_delay_np = st.e_delay
    e_bytes_np = st.e_bytes
    e_cross_np = st.e_cross
    e_dst_np = st.e_dst

    arena = EventArena(_initial_width(sim.cluster),
                       capacity=max(1024, 2 * n))
    push = arena.push

    messages = 0
    comm_bytes = 0
    done_tasks = 0
    makespan = 0.0
    total_flops = 0
    timeline = [] if sim.record_timeline else None
    tracing = sim.record_trace
    if tracing:
        task_t_start = np.full(n, -1.0)
        task_t_done = np.full(n, -1.0)
        send_log: list[SendRecord] = []

    def propagate_vec(t_done: float, tid: int, lo: int, hi: int) -> None:
        """Vectorized predecessor accounting for one wide fan-out.

        Ready pushes happen in order of each consumer's *last* edge in
        the slice — exactly where the sequential loop's decrement hits
        zero — so the arena sees the identical push sequence.
        """
        nonlocal messages, comm_bytes
        cons = e_cons_np[lo:hi]
        arr = t_done + e_delay_np[lo:hi]
        cross = e_cross_np[lo:hi]
        nx = int(cross.sum())
        if nx:
            messages += nx
            comm_bytes += int(e_bytes_np[lo:hi][cross].sum())
            if tracing:
                src = owner_l[tid]
                for idx in np.flatnonzero(cross).tolist():
                    send_log.append(SendRecord(
                        tid=tid, succ=int(cons[idx]), src=src,
                        dst=e_dst_l[lo + idx], t_send=t_done,
                        t_recv=float(arr[idx]),
                        nbytes=e_bytes_l[lo + idx]))
        np.maximum.at(arrival, cons, arr)
        np.subtract.at(pred, cons, 1)
        rev = cons[::-1]
        u, first_rev = np.unique(rev, return_index=True)
        zero = pred[u] == 0
        if zero.any():
            uz = u[zero]
            last_pos = (cons.size - 1) - first_rev[zero]
            order = np.argsort(last_pos, kind="stable")
            for s in uz[order].tolist():
                push(float(arrival[s]), K_READY, owner_l[s], s)

    for tid in dag.initial_ready():
        push(0.0, K_READY, owner_l[tid], tid)

    # at most one pending wake per process — without this, every
    # arrival during a busy period schedules another wake at the same
    # instant and the event loop degenerates to O(events × backlog)
    wake_pending = [float("inf")] * nprocs
    batches: list[list[int]] = []
    # per-rank methods prebound into locals (never onto the instances:
    # that would be a reference cycle): the loop below runs once per
    # event, and attribute lookups on _ProcState dominate at 1000+ ranks
    if sim.policy == "trojan":
        launch_of = [p._launch_trojan for p in procs]
    elif sim.policy == "streams":
        launch_of = [p._launch_streams for p in procs]
    elif sim.policy == "serial" or sim.policy == "dmdas":
        launch_of = [p._launch_single for p in procs]
    else:
        raise AssertionError(f"unknown policy {sim.policy!r}")

    def _mk_push_ready(heap, key=st.key_l, _hp=heapq.heappush):
        # per-rank closure over the heap list (not the rank object): one
        # heappush, no method dispatch — the ready heaps are
        # append/pop-only lists, never rebound
        def _push_ready(tid):
            _hp(heap, key[tid])
        return _push_ready

    add_ready_of = [_mk_push_ready(p.heap) for p in procs]
    next_wake_of = [p.next_wake for p in procs]
    # trojan never schedules wakes (launches happen on arrivals and
    # batch completions), so the whole wake path can be skipped
    no_wakes = sim.policy == "trojan"
    inf = float("inf")
    # inline cohort drain: read the arena's cohort columns directly and
    # merge the spill heap by (t, row) — one method call per *cohort*
    # instead of per event (the column/spill lists are never rebound by
    # EventArena, so aliasing them here is safe)
    kind_l = arena._kind
    rank_l = arena._rank
    pay_l = arena._payload
    spill = arena._spill
    heappop = heapq.heappop
    ct: list = []
    ck: list = []
    cr: list = []
    cp_: list = []
    crow: list = []
    i = 0
    m = 0
    spill_pops = 0

    while True:
        if i < m:
            if spill:
                sp = spill[0]
                ts = sp[0]
                tc = ct[i]
                if ts < tc or (ts == tc and sp[1] < crow[i]):
                    heappop(spill)
                    row = sp[1]
                    t = ts
                    kind = kind_l[row]
                    rank = rank_l[row]
                    payload = pay_l[row]
                    spill_pops += 1
                else:
                    t = tc
                    kind = ck[i]
                    rank = cr[i]
                    payload = cp_[i]
                    i += 1
            else:
                t = ct[i]
                kind = ck[i]
                rank = cr[i]
                payload = cp_[i]
                i += 1
        elif spill:
            ts, row = heappop(spill)
            t = ts
            kind = kind_l[row]
            rank = rank_l[row]
            payload = pay_l[row]
            spill_pops += 1
        else:
            m = arena.take_cohort(spill_pops)
            spill_pops = 0
            if not m:
                break
            ct = arena._ct
            ck = arena._ck
            cr = arena._cr
            cp_ = arena._cp
            crow = arena._crow
            i = 0
            continue
        if kind == K_READY:
            add_ready_of[rank](payload)
        elif kind == K_DONE:
            proc = procs[rank]
            tids_done = batches[payload]
            proc.on_done()
            done_tasks += len(tids_done)
            for tid in tids_done:
                lo = indptr_l[tid]
                hi = indptr_l[tid + 1]
                if hi - lo >= _VEC_EDGE_MIN:
                    propagate_vec(t, tid, lo, hi)
                    continue
                for e in range(lo, hi):
                    s = e_cons_l[e]
                    arr = t + e_delay_l[e]
                    if e_cross_l[e]:
                        messages += 1
                        comm_bytes += e_bytes_l[e]
                        if tracing:
                            send_log.append(SendRecord(
                                tid=tid, succ=s, src=owner_l[tid],
                                dst=e_dst_l[e], t_send=t, t_recv=arr,
                                nbytes=e_bytes_l[e]))
                    if arr > arrival[s]:
                        arrival[s] = arr
                    p = pred[s] - 1
                    pred[s] = p
                    if p == 0:
                        push(float(arrival[s]), K_READY, e_dst_l[e], s)
            if t > makespan:
                makespan = t
        elif kind == K_WAKE:
            pass  # wakes only exist to reach the launch tail below
        else:
            # K_XMIT / K_DELIVER / K_DEATH never enter the lossless loop
            raise AssertionError(
                f"unexpected event kind {kind} in the lossless loop")
        if no_wakes:
            # trojan never schedules wakes, so skip the wake-pending
            # bookkeeping entirely on this (hot) variant of the tail
            for start, end, tids, flops in launch_of[rank](t):
                total_flops += flops
                if timeline is not None:
                    timeline.append((rank, start, end, list(tids)))
                if tracing:
                    task_t_start[tids] = start
                    task_t_done[tids] = end
                push(end, K_DONE, rank, len(batches))
                batches.append(tids)
            continue
        if t >= wake_pending[rank]:
            wake_pending[rank] = inf
        for start, end, tids, flops in launch_of[rank](t):
            total_flops += flops
            if timeline is not None:
                timeline.append((rank, start, end, list(tids)))
            if tracing:
                task_t_start[tids] = start
                task_t_done[tids] = end
            push(end, K_DONE, rank, len(batches))
            batches.append(tids)
        wake = next_wake_of[rank](t)
        if wake is not None and wake < wake_pending[rank]:
            wake_pending[rank] = wake
            push(wake, K_WAKE, rank, -1)

    arena.stats.wall_s = time.perf_counter() - t_wall
    if done_tasks != n:
        raise AssertionError(
            f"distributed sim finished {done_tasks}/{n} tasks")
    trace = None
    if tracing:
        edges = (np.stack([st.e_prod, st.e_cons], axis=1)
                 if st.e_cons.size else np.empty((0, 2), dtype=np.int64))
        trace = DistTrace(
            nprocs=nprocs,
            rank=st.owner.copy(),
            t_start=task_t_start,
            t_done=task_t_done,
            edges=edges,
            sends=send_log,
            per_rank_bytes=factor_bytes_per_rank(dag, sim.grid),
            mem_budget_bytes=USABLE_FRACTION
            * sim.cluster.gpu.memory_gb * 1e9,
        )
    return DistributedResult(
        cluster=sim.cluster.name,
        policy=sim.policy,
        nprocs=nprocs,
        makespan=makespan,
        total_tasks=n,
        total_kernels=sum(p.kernels for p in procs),
        total_flops=total_flops,
        per_proc_kernels=[p.kernels for p in procs],
        per_proc_busy=[p.busy for p in procs],
        messages=messages,
        comm_bytes=comm_bytes,
        timeline=timeline,
        trace=trace,
        events=arena.stats,
    )


# verify: effects(arena)
def run_arena_faulty(sim) -> DistributedResult:
    """The event loop with fault injection (``faults`` was given).

    Differences from the lossless loop:

    * every DAG edge is tracked individually — a predecessor count
      drops at payload *arrival* (a ``K_DELIVER`` event), not at send
      time, so deliveries can be undone when a rank dies;
    * cross-rank shipments go through ``K_XMIT`` events that draw
      drop/duplication outcomes from the spec's seeded RNG and schedule
      retransmits with exponential backoff.  Retransmit timers are
      first-class events, never per-process wakes —
      ``_ProcState.next_wake`` coalescing would swallow a timer on a
      rank with no ready work;
    * a ``K_DEATH`` event marks the rank dead, re-homes its tile
      ownership onto a recovery rank (the flat chain-compressed
      ``rank_map``), restores the last periodic checkpoint there (task
      outputs and received payloads up to the checkpoint survive;
      everything later is re-executed or re-delivered) and re-queues
      the lost work after ``recovery_delay``.

    Tuple-shaped payloads live in side lists indexed by the arena's int
    payload column.  Everything stochastic comes from one ``numpy``
    Generator drawn in deterministic event order, so identical (spec,
    seed) pairs reproduce bit-identical traces.
    """
    t_wall = time.perf_counter()
    dag = sim.dag
    spec = sim.faults
    link = spec.link
    drop_table = link.drop_table()
    model = GPUCostModel(sim.cluster.gpu)
    cp = dag.critical_path_lengths()
    st = SimStatics(sim, model, cp)
    rng = np.random.default_rng(spec.seed)
    fstats = FaultStats()
    nprocs = sim.nprocs
    n = dag.n_tasks
    procs = [
        _ProcState(sim.policy, st,
                   slowdown=(lambda t, _r=r: spec.slowdown(_r, t)))
        for r in range(nprocs)
    ]

    owner_l = st.owner_l
    indptr_l = st.indptr_l
    e_cons = st.e_cons
    e_cons_l = st.e_cons_l
    e_prod = st.e_prod
    e_prod_l = e_prod.tolist()
    e_bytes_l = st.e_bytes_l
    n_edges = e_cons.size
    # per-edge delivery state (CSR edge ids over successor lists)
    edge_recv = np.full(n_edges, -1.0)     # arrival time, -1 = not yet
    edge_dst = np.full(n_edges, -1, dtype=np.int64)
    edge_epoch = np.zeros(n_edges, dtype=np.int64)  # cancellation token

    # task lifecycle: 0 idle, 1 queued, 2 running, 3 done
    state = np.zeros(n, dtype=np.int8)
    exec_rank = np.full(n, -1, dtype=np.int64)
    done_at = np.full(n, -1.0)
    ready_after = np.zeros(n)  # earliest requeue time after recovery
    pred = dag.pred_count.copy()
    alive = np.ones(nprocs, dtype=bool)
    #: chain-compressed owner re-homing: rank_map[r] is the alive rank
    #: currently responsible for home rank r (identity before deaths)
    rank_map = list(range(nprocs))
    death_log: list[tuple[int, int, float]] = []

    def cur_owner(tid: int) -> int:
        return rank_map[owner_l[tid]]

    def holder(tid: int) -> int:
        """Alive rank holding a done task's output (checkpoint chain)."""
        return rank_map[int(exec_rank[tid])]

    # scalar link costs, identical arithmetic to ClusterSpec.message_time
    gpn = sim.cluster.gpus_per_node
    lat_intra = sim.cluster.intranode.latency_us * 1e-6
    bps_intra = sim.cluster.intranode.bandwidth_gbs * 1e9
    lat_inter = sim.cluster.internode.latency_us * 1e-6
    bps_inter = sim.cluster.internode.bandwidth_gbs * 1e9

    def pair_delay(src: int, dst: int, nbytes: int) -> float:
        if src == dst:
            return 0.0
        if src // gpn == dst // gpn:
            return lat_intra + nbytes / bps_intra
        return lat_inter + nbytes / bps_inter

    arena = EventArena(_initial_width(sim.cluster),
                       capacity=max(1024, 2 * n))
    push = arena.push
    #: tuple payloads, indexed by the arena's int payload column
    xmit_list: list[tuple[int, int, int, int]] = []
    deliver_list: list[tuple[int, int, int, int]] = []
    batches: list[list[int]] = []

    messages = 0
    comm_bytes = 0
    done_tasks = 0
    makespan = 0.0
    total_flops = 0
    timeline = [] if sim.record_timeline else None
    tracing = sim.record_trace
    if tracing:
        task_t_start = np.full(n, -1.0)
        task_t_done = np.full(n, -1.0)
        send_log: list[SendRecord] = []

    def push_deliver(t: float, e: int, epoch: int, src: int,
                     dst: int) -> None:
        deliver_list.append((e, epoch, src, dst))
        push(t, K_DELIVER, dst, len(deliver_list) - 1)

    def push_xmit(t: float, e: int, attempt: int, epoch: int,
                  src: int) -> None:
        xmit_list.append((e, attempt, epoch, src))
        push(t, K_XMIT, src, len(xmit_list) - 1)

    def send_edge(e: int, src: int, t: float, resend: bool = False) -> None:
        """Start shipping edge ``e``'s payload from ``src``."""
        nonlocal messages
        if resend:
            fstats.resends += 1
        dst = cur_owner(e_cons_l[e])
        if dst == src:
            if resend and tracing:
                # recovery delivery that became rank-local (the consumer
                # re-homed onto the payload's holder); record it so
                # earlier dropped attempts of this (producer, consumer)
                # pair have a matched delivery
                send_log.append(SendRecord(
                    tid=e_prod_l[e], succ=e_cons_l[e], src=src,
                    dst=dst, t_send=t, t_recv=t,
                    nbytes=e_bytes_l[e], attempt=0))
            push_deliver(t, e, int(edge_epoch[e]), src, dst)
        else:
            messages += 1
            push_xmit(t, e, 0, int(edge_epoch[e]), src)

    def handle_xmit(t: float, payload: int) -> None:
        """One transmission attempt; draws drop/dup from the RNG."""
        nonlocal comm_bytes
        e, attempt, epoch, src = xmit_list[payload]
        if (epoch != edge_epoch[e] or not alive[src]
                or edge_recv[e] >= 0):
            return
        p, c = e_prod_l[e], e_cons_l[e]
        dst = cur_owner(c)  # re-routes to the recovery rank if dead
        if dst == src:
            # the consumer re-homed onto this very rank mid-flight;
            # deliver locally, with a record matching any earlier
            # dropped attempts of the pair
            if tracing:
                send_log.append(SendRecord(
                    tid=p, succ=c, src=src, dst=dst, t_send=t,
                    t_recv=t, nbytes=e_bytes_l[e], attempt=attempt))
            push_deliver(t, e, epoch, src, dst)
            return
        nbytes = e_bytes_l[e]
        comm_bytes += nbytes
        delay = pair_delay(src, dst, nbytes)
        pdrop = drop_table.get((src, dst), link.drop_prob)
        if (pdrop > 0.0 and attempt + 1 < link.max_attempts
                and rng.random() < pdrop):
            # lost on the wire; the final attempt always lands
            # (reliable-transport fallback), so no payload is lost
            # forever and the run always completes
            fstats.drops += 1
            fstats.retransmits += 1
            if tracing:
                send_log.append(SendRecord(
                    tid=p, succ=c, src=src, dst=dst, t_send=t,
                    t_recv=None, nbytes=nbytes, attempt=attempt))
            base = (link.timeout_s if link.timeout_s is not None
                    else link.timeout_factor * delay)
            push_xmit(t + base * link.backoff ** attempt,
                      e, attempt + 1, epoch, src)
            return
        stretch = max(spec.slowdown(src, t), spec.slowdown(dst, t))
        arr = t + delay * stretch
        if tracing:
            send_log.append(SendRecord(
                tid=p, succ=c, src=src, dst=dst, t_send=t,
                t_recv=arr, nbytes=nbytes, attempt=attempt))
        push_deliver(arr, e, epoch, src, dst)
        if link.dup_prob > 0.0 and rng.random() < link.dup_prob:
            fstats.dups += 1
            push_deliver(arr, e, epoch, src, dst)

    def handle_deliver(t: float, payload: int) -> None:
        e, epoch, src, dst = deliver_list[payload]
        if epoch != edge_epoch[e] or edge_recv[e] >= 0:
            return  # cancelled, or a suppressed duplicate
        c = e_cons_l[e]
        if not alive[dst]:
            # receiver died while the payload was in flight: invalidate
            # this shipment and re-send to the consumer's current owner
            edge_epoch[e] += 1
            send_edge(e, src, t, resend=True)
            return
        edge_recv[e] = t
        edge_dst[e] = dst
        pred[c] -= 1
        if pred[c] == 0 and state[c] == 0:
            push(max(t, ready_after[c]), K_READY, cur_owner(c), c)

    def propagate(t_done: float, tids, src: int) -> None:
        for tid in tids:
            for e in range(indptr_l[tid], indptr_l[tid + 1]):
                if edge_recv[e] >= 0:
                    continue  # already delivered (re-execution)
                send_edge(e, src, t_done)

    def handle_death(t: float, r: int) -> None:
        nonlocal done_tasks
        if not alive[r]:
            return
        alive[r] = False
        fstats.deaths += 1
        rec = next((r + off) % nprocs for off in range(1, nprocs)
                   if alive[(r + off) % nprocs])
        t_rec = t + spec.recovery_delay
        tc = math.floor(t / spec.checkpoint_interval) \
            * spec.checkpoint_interval
        # everything r ever executed, before the resets below — its
        # undelivered payloads all died with the NIC
        was_r = exec_rank == r
        # in-flight batches die with the GPU
        for tid in procs[r].running:
            state[tid] = 0
            exec_rank[tid] = -1
            fstats.reexecuted += 1
        procs[r].running.clear()
        # queued work re-homes to the recovery rank
        for tid in procs[r].drain_pending():
            state[tid] = 0
        # work completed after the last checkpoint is lost
        lost = np.flatnonzero((state == 3) & (exec_rank == r)
                              & (done_at > tc))
        for tid in lost:
            state[tid] = 0
            exec_rank[tid] = -1
            done_tasks -= 1
            fstats.reexecuted += 1
        # tasks whose home was r now belong to the recovery rank,
        # available once the checkpoint is restored there
        moved = [tid for tid in range(n)
                 if state[tid] != 3 and cur_owner(tid) == r]
        for i in range(nprocs):
            if rank_map[i] == r:
                rank_map[i] = rec
        death_log.append((r, rec, t))
        for tid in moved:
            ready_after[tid] = max(ready_after[tid], t_rec)
        # deliveries r had received: kept if checkpointed, undone (and
        # re-sent by whoever durably holds the payload) if not
        for e in np.flatnonzero((edge_dst == r) & (edge_recv >= 0)):
            c, p = e_cons_l[e], e_prod_l[e]
            if state[c] == 3:
                continue  # consumer survived via the checkpoint
            if edge_recv[e] > tc:
                edge_recv[e] = -1.0
                edge_dst[e] = -1
                edge_epoch[e] += 1
                pred[c] += 1
                if state[p] == 3:
                    send_edge(e, holder(p), t_rec, resend=True)
                # else: p itself re-executes and re-propagates
            elif state[p] == 3 and exec_rank[p] == r and tracing:
                # local payload restored from the checkpoint on the
                # recovery rank — record it so the verifier can match
                # the (now cross-rank-looking) edge to a delivery
                send_log.append(SendRecord(
                    tid=p, succ=c, src=rec, dst=rec, t_send=t_rec,
                    t_recv=t_rec, nbytes=e_bytes_l[e], attempt=0))
        # undelivered payloads r produced: cancel anything still in
        # flight from the dead NIC; checkpointed (durable) outputs are
        # re-sent from the restored checkpoint, while reset tasks
        # re-deliver naturally when they re-execute
        for e in np.flatnonzero(was_r[e_prod] & (edge_recv < 0)):
            edge_epoch[e] += 1
            if state[e_prod_l[e]] == 3:
                send_edge(e, rec, t_rec, resend=True)
        # requeue everything runnable once recovery completes
        for tid in np.flatnonzero((pred == 0) & (state == 0)):
            tid = int(tid)
            push(max(t_rec, ready_after[tid]), K_READY,
                 cur_owner(tid), tid)

    for tid in dag.initial_ready():
        push(0.0, K_READY, owner_l[tid], tid)
    for d in spec.deaths:
        push(d.time, K_DEATH, d.rank, -1)

    wake_pending = [float("inf")] * nprocs
    pop = arena.pop

    while True:
        ev = pop()
        if ev is None:
            break
        t, kind, rank, payload = ev
        if t >= wake_pending[rank]:
            wake_pending[rank] = float("inf")
        if kind == K_DEATH:
            handle_death(t, rank)
            continue
        elif kind == K_XMIT:
            handle_xmit(t, payload)
            continue
        elif kind == K_DELIVER:
            handle_deliver(t, payload)
            rank = deliver_list[payload][3]  # try launching on the receiver
        elif kind == K_READY:
            tid = payload
            if state[tid] != 0 or pred[tid] != 0:
                continue  # stale (already queued/launched or undone)
            if t < ready_after[tid]:
                push(float(ready_after[tid]), K_READY, cur_owner(tid),
                     tid)
                continue
            rank = cur_owner(tid)
            state[tid] = 1
            procs[rank].add_ready(tid)
        elif kind == K_DONE:
            if not alive[rank]:
                continue  # the batch died with its GPU
            proc = procs[rank]
            proc.on_done()
            finished = []
            for tid in batches[payload]:
                if state[tid] == 2 and exec_rank[tid] == rank:
                    state[tid] = 3
                    done_at[tid] = t
                    proc.running.discard(tid)
                    done_tasks += 1
                    finished.append(tid)
            propagate(t, finished, rank)
            makespan = max(makespan, t)
        elif kind == K_WAKE:
            pass  # wakes only exist to reach the launch tail below
        else:
            raise AssertionError(
                f"unexpected event kind {kind} in the faulty loop")
        if not alive[rank]:
            continue
        proc = procs[rank]
        for start, end, tids, flops in proc.launch(t):
            total_flops += flops
            for tid in tids:
                state[tid] = 2
                exec_rank[tid] = rank
                proc.running.add(tid)
            if timeline is not None:
                timeline.append((rank, start, end, list(tids)))
            if tracing:
                task_t_start[tids] = start
                task_t_done[tids] = end
            push(end, K_DONE, rank, len(batches))
            batches.append(tids)
        wake = proc.next_wake(t)
        if wake is not None and wake < wake_pending[rank]:
            wake_pending[rank] = wake
            push(wake, K_WAKE, rank, -1)

    arena.stats.wall_s = time.perf_counter() - t_wall
    if done_tasks != n:
        raise AssertionError(
            f"faulty distributed sim finished {done_tasks}/{n} tasks")
    trace = None
    if tracing:
        edges = (np.stack([e_prod, e_cons], axis=1) if n_edges
                 else np.empty((0, 2), dtype=np.int64))
        per_rank = factor_bytes_per_rank(dag, sim.grid).astype(float)
        for r, rec, _t in death_log:
            per_rank[rec] += per_rank[r]
            per_rank[r] = 0.0
        trace = DistTrace(
            nprocs=nprocs,
            rank=exec_rank.copy(),
            t_start=task_t_start,
            t_done=task_t_done,
            edges=edges,
            sends=send_log,
            deaths=[(r, t) for r, _rec, t in death_log],
            per_rank_bytes=per_rank,
            mem_budget_bytes=USABLE_FRACTION
            * sim.cluster.gpu.memory_gb * 1e9,
        )
    return DistributedResult(
        cluster=sim.cluster.name,
        policy=sim.policy,
        nprocs=nprocs,
        makespan=makespan,
        total_tasks=n,
        total_kernels=sum(p.kernels for p in procs),
        total_flops=total_flops,
        per_proc_kernels=[p.kernels for p in procs],
        per_proc_busy=[p.busy for p in procs],
        messages=messages,
        comm_bytes=comm_bytes,
        timeline=timeline,
        trace=trace,
        faults=fstats,
        events=arena.stats,
    )
