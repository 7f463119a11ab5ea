"""The cluster event engine (``repro.cluster.engine``) and what pins it.

* **Goldens.**  Every policy, fault-free and on every fault fixture in
  ``tests/faults/``, must reproduce the trace digest, summary and event
  count frozen in ``tests/golden/distsim_traces.json`` — captured from
  the per-message heap loops at the last commit that carried them (see
  the file's header and ``tests/golden/generate_distsim.py``).  Each
  cell's plan is certified statically before and its trace verified
  after, so the two views of one plan can never disagree.
* **Execute == replay.**  A run that *executes* through a numeric
  backend and a replay over the stats it recorded are the same
  simulation: the executor-path timing hooks and the stat columns agree.
* **Refcount lifetime.**  Nothing a run creates sits on a reference
  cycle; simulations die when ``run()``'s result is dropped.
* The EventArena data structure itself (ordering contract against a
  ``heapq`` reference, width adaptation), the vectorized launch-time
  kernel and the scalar heap-key builder.
"""

import gc
import heapq
import importlib.util
import json
import pathlib
import weakref

import numpy as np
import pytest

from repro.cluster import (
    DistributedSimulator,
    EventArena,
    FaultSpec,
    H100_CLUSTER,
    ProcessGrid,
    RecordOnceBackend,
    banded_block_dag,
)
from repro.cluster import engine
from repro.cluster.engine import SimStatics, single_launch_times
from repro.core.executor import EstimateBackend, ReplayBackend
from repro.gpusim.costmodel import GPUCostModel, KernelLaunch
from repro.matrices import poisson2d
from repro.ordering import compute_ordering
from repro.solvers.engine import NumericBackend, NumericEngine
from repro.sparse import permute_symmetric, uniform_partition
from repro.verify.plan import PlanSpec, verify_plan
from repro.verify.trace import verify_trace

POLICIES = ["serial", "dmdas", "streams", "trojan"]
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
FAULT_DIR = pathlib.Path(__file__).parent / "faults"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate_distsim", GOLDEN_DIR / "generate_distsim.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_GEN = _load_generator()
_GOLDEN = _GEN.load()


def assert_matches_golden(name, nprocs, policy, fault=None):
    # differential consistency: a plan the static analyzer certifies
    # clean must also simulate to a trace the TraceVerifier accepts —
    # the two views of the same plan can never disagree
    dag, _ = _GEN.workload(name)
    plan_report = verify_plan(PlanSpec.from_dag(
        dag, ProcessGrid(nprocs), faults=_GEN.fault_spec(fault),
        gpu=H100_CLUSTER.gpu))
    assert plan_report.ok, plan_report.describe()
    res = _GEN.simulate(name, nprocs, policy, fault)
    assert _GEN.record(res) == \
        _GOLDEN["cells"][_GEN.cell_key(name, nprocs, policy, fault)]
    trace_report = verify_trace(res.trace)
    assert trace_report.ok, trace_report.describe()


@pytest.mark.parametrize("policy", POLICIES)
def test_fault_free_identical(policy):
    assert_matches_golden("c71", 8, policy)


@pytest.mark.parametrize("fixture", _GEN.FIXTURES)
@pytest.mark.parametrize("policy", POLICIES)
def test_fault_matrix_identical(policy, fixture):
    assert_matches_golden("c71", 8, policy, fixture)


@pytest.mark.parametrize("policy", POLICIES)
def test_synthetic_estimate_identical(policy):
    """EstimateBackend + banded DAG: the scale-out sweep configuration."""
    assert_matches_golden("banded24x4", 16, policy)


# -- the golden tool -------------------------------------------------------


def test_golden_check_is_clean_and_never_writes():
    before = _GEN.GOLDEN_PATH.read_bytes()
    assert _GEN.main([]) == 0
    assert _GEN.GOLDEN_PATH.read_bytes() == before


def test_golden_check_reports_drift():
    cell = ("banded24x4", 16, "trojan", None, None)
    key = _GEN.cell_key(*cell)
    tampered = json.loads(json.dumps(_GOLDEN))
    tampered["cells"][key]["summary"]["kernels"] += 1
    assert _GEN.drift(tampered, [cell]) == [f"{key}: differs in summary"]
    assert _GEN.drift(_GOLDEN, [cell]) == []


def test_golden_rewrite_keeps_provenance(tmp_path):
    key = _GEN.cell_key("banded24x4", 16, "serial")
    tampered = json.loads(json.dumps(_GOLDEN))
    tampered["cells"][key]["digest"] = "0" * 64
    path = tmp_path / "traces.json"
    path.write_text(json.dumps(tampered), encoding="utf-8")
    assert _GEN.main(["--rewrite"], path=path) == 0
    rewritten = json.loads(path.read_text(encoding="utf-8"))
    assert rewritten["header"] == _GOLDEN["header"]
    assert rewritten["cells"] == _GOLDEN["cells"]
    assert rewritten["rewritten_cells"] == [key]


@pytest.mark.parametrize("header", [
    {}, {"event_loop": "legacy"}, {"event_loop": "arena", "parent_sha": "x"}])
def test_golden_tool_refuses_without_provenance(tmp_path, header):
    path = tmp_path / "traces.json"
    path.write_text(json.dumps({"header": header, "cells": {}}))
    for argv in ([], ["--rewrite"]):
        with pytest.raises(SystemExit, match="provenance"):
            _GEN.main(argv, path=path)
    with pytest.raises(SystemExit, match="no golden file"):
        _GEN.main(["--rewrite"], path=tmp_path / "missing.json")


# -- execute == replay -----------------------------------------------------


def _numeric_engine():
    a = poisson2d(14)
    pa = permute_symmetric(a, compute_ordering(a, "mindeg"))
    return NumericEngine(pa, uniform_partition(a.nrows, 16),
                         sparse_tiles=True)


def _assert_execute_equals_replay(make_backend, policy, spec=None):
    eng = _numeric_engine()
    backend = make_backend(eng)
    executed = DistributedSimulator(
        eng.dag, backend, H100_CLUSTER, 4, policy, record_trace=True,
        faults=spec).run()
    replayed = DistributedSimulator(
        eng.dag, ReplayBackend(backend.stats), H100_CLUSTER, 4, policy,
        record_trace=True, faults=spec).run()
    assert executed.trace.digest() == replayed.trace.digest()
    assert executed.makespan == replayed.makespan
    assert executed.total_flops == replayed.total_flops


@pytest.mark.parametrize("policy", POLICIES)
def test_numeric_execution_equals_replay(policy):
    """The executor-path timing hooks == the stat columns, per policy."""
    _assert_execute_equals_replay(NumericBackend, policy)


@pytest.mark.parametrize("fault", [None, "chaos"])
def test_record_once_execution_equals_replay(fault):
    _assert_execute_equals_replay(
        lambda eng: RecordOnceBackend(eng, eng.dag), "trojan",
        _GEN.fault_spec(fault))


# -- no reference cycle in per-run state -----------------------------------


@pytest.mark.parametrize("fault", [None, "chaos"], ids=["lossless", "chaos"])
@pytest.mark.parametrize("policy", POLICIES)
def test_simulation_dies_by_refcount(monkeypatch, policy, fault):
    """A run's statics and rank states are freed without the cyclic GC."""
    born = {}

    class SpyStatics(engine.SimStatics):
        def __init__(self, *args):
            super().__init__(*args)
            born["statics"] = weakref.ref(self)

    class SpyProc(engine._ProcState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            born.setdefault("proc", weakref.ref(self))

    monkeypatch.setattr(engine, "SimStatics", SpyStatics)
    monkeypatch.setattr(engine, "_ProcState", SpyProc)
    dag = banded_block_dag(24, 4)
    gc.collect()
    gc.disable()
    try:
        sim = DistributedSimulator(dag, EstimateBackend(), H100_CLUSTER, 16,
                                   policy, faults=_GEN.fault_spec(fault))
        res = sim.run()
        assert res.total_tasks == dag.n_tasks
        assert set(born) == {"statics", "proc"}  # the spies saw the run
        del sim, res
        assert born["statics"]() is None
        assert born["proc"]() is None
    finally:
        gc.enable()


# -- scalar heap keys ------------------------------------------------------


def test_int_keys_wide_columns_keep_tuple_order():
    """Columns too wide for an int64 key take the Python-int path: the
    same encoding, so still ordered as the (major, minor, tid) tuples."""
    rng = np.random.default_rng(11)
    n = 500
    major = rng.integers(0, 40, n)
    minor = rng.integers(0, 25, n)
    by_tuple = sorted(range(n), key=lambda t: (major[t], minor[t], t))
    narrow = engine._int_keys(major, minor)
    wide = engine._int_keys(major * 2 ** 40, minor * 2 ** 20)
    assert max(narrow) < engine._MAX_KEY <= max(wide)
    for keys in (narrow, wide):
        assert [k % n for k in keys] == list(range(n))
        assert sorted(range(n), key=keys.__getitem__) == by_tuple


@pytest.mark.parametrize("policy", POLICIES)
def test_wide_key_path_reproduces_golden(monkeypatch, policy):
    """Forcing every key through the Python-int path changes nothing."""
    monkeypatch.setattr(engine, "_MAX_KEY", 0)
    assert_matches_golden("banded24x4", 16, policy)


# -- EventArena data structure -------------------------------------------


def _drain(arena):
    out = []
    while True:
        ev = arena.pop()
        if ev is None:
            return out
        out.append(ev)


def test_arena_orders_by_time_then_seq():
    arena = EventArena(width=1.0)
    arena.push(5.0, 0, 0, 10)
    arena.push(1.0, 1, 1, 11)
    arena.push(5.0, 2, 2, 12)  # same t as the first push: seq breaks tie
    arena.push(0.5, 3, 3, 13)
    assert _drain(arena) == [
        (0.5, 3, 3, 13), (1.0, 1, 1, 11), (5.0, 0, 0, 10), (5.0, 2, 2, 12)]
    assert len(arena) == 0


def test_arena_rejects_bad_width():
    with pytest.raises(ValueError, match="width"):
        EventArena(width=0.0)
    with pytest.raises(ValueError, match="width"):
        EventArena(width=-1.0)


@pytest.mark.parametrize("width", [1e-6, 1e-3, 0.1, 10.0])
def test_arena_matches_heapq_reference(width):
    """Fuzzed interleaved push/pop vs a (t, seq) heap — any width."""
    rng = np.random.default_rng(7)
    arena = EventArena(width=width)
    ref = []
    seq = 0
    t_now = 0.0
    popped = []
    for _ in range(300):
        # simulated time never runs backwards: new pushes land at or
        # after the last popped timestamp, like the real event loop
        for _ in range(int(rng.integers(0, 5))):
            t = t_now + float(rng.random()) * 3.0
            payload = seq
            arena.push(t, seq % 4, seq % 8, payload)
            heapq.heappush(ref, (t, seq))
            seq += 1
        for _ in range(int(rng.integers(0, 4))):
            ev = arena.pop()
            if ev is None:
                assert not ref
                break
            t, _, _, payload = ev
            rt, rseq = heapq.heappop(ref)
            assert t == rt and payload == rseq
            t_now = t
            popped.append(payload)
    while ref:
        ev = arena.pop()
        rt, rseq = heapq.heappop(ref)
        assert ev[0] == rt and ev[3] == rseq
    assert arena.pop() is None
    assert arena.stats.events == seq


def test_arena_width_adaptation_is_deterministic():
    """The same event stream shrinks the width identically every time."""

    def run_stream():
        arena = EventArena(width=100.0)  # absurdly wide: forces spills
        t = 0.0
        for k in range(3 * EventArena.ADAPT_WINDOW):
            arena.push(t + 0.001 * (k % 7), k % 4, 0, k)
            if k % 2 == 0:
                arena.pop()
        _drain(arena)
        return arena.width, arena.stats.width_shrinks, arena.stats.events

    first = run_stream()
    assert first == run_stream()
    assert first[1] >= 1  # the stream above must actually trigger shrinks


def test_arena_take_cohort_accounting():
    arena = EventArena(width=1.0)
    for k in range(10):
        arena.push(0.25, 0, 0, k)
    m = arena.take_cohort()
    assert m == 10
    assert arena._cp == list(range(10))  # seq order within the tie
    assert arena.stats.events == 10
    assert len(arena) == 0
    assert arena.take_cohort() == 0


# -- vectorized launch-time kernel ----------------------------------------


def test_single_launch_times_bitwise():
    """The vectorized kernel equals per-task ``launch_time`` bit-for-bit."""
    model = GPUCostModel(H100_CLUSTER.gpu)
    rng = np.random.default_rng(3)
    m = 200
    blocks = rng.integers(1, 2000, m)
    flops = rng.integers(0, 10**10, m)
    nbytes = rng.integers(0, 10**8, m)
    # exercise the degenerate rows the scalar code special-cases
    blocks[:3] = 0
    flops[3:6] = 0
    nbytes[6:9] = 0
    flops[9] = 0
    nbytes[9] = 0
    vec = single_launch_times(model, blocks, flops, nbytes)
    for idx in range(m):
        launch = KernelLaunch()
        launch.add_task(int(blocks[idx]), int(flops[idx]),
                        int(nbytes[idx]), 0)
        assert vec[idx] == model.launch_time(launch), idx


def test_simstatics_message_costs_bitwise():
    """Edge delays priced in one vector pass == scalar message_time."""
    dag = banded_block_dag(12, 3)
    sim = DistributedSimulator(dag, EstimateBackend(), H100_CLUSTER, 8,
                               "serial")
    st = SimStatics(sim, GPUCostModel(H100_CLUSTER.gpu),
                    dag.critical_path_lengths())
    for e in range(len(st.e_src)):
        assert st.e_delay[e] == sim.cluster.message_time(
            int(st.e_src[e]), int(st.e_dst[e]), int(st.e_bytes[e]))
