"""Property-based cluster-simulator tests over random runs (hypothesis).

The goldens pin a fixed battery of cells bit for bit; this layer checks
the invariants that must hold on *any* cell — random banded DAG × rank
count × per-rank policy × fault scenario (none, seeded link drops, one
straggler, one rank death):

1. the recorded trace passes the TraceVerifier;
2. every task is accounted for exactly once (``total_tasks``), and
   batching only ever merges launches (``total_kernels <= total_tasks``,
   plus the tasks a rank death forces to run again);
3. the same (spec, seed) reproduces the same trace digest.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster import (
    DistributedSimulator,
    FaultSpec,
    H100_CLUSTER,
    LinkFaults,
    RankDeath,
    Straggler,
    banded_block_dag,
)
from repro.cluster.distsim import POLICIES
from repro.core.executor import EstimateBackend
from repro.verify.trace import verify_trace


def _fault_spec(kind: str, seed: int, nprocs: int, makespan: float):
    """The scenario ``kind`` scaled to a run of length ``makespan``."""
    if kind == "none":
        return None
    if kind == "drops":
        return FaultSpec(seed=seed, link=LinkFaults(drop_prob=0.1,
                                                    dup_prob=0.05))
    if kind == "straggler":
        return FaultSpec(seed=seed, stragglers=(
            Straggler(rank=seed % nprocs, factor=3.0),))
    return FaultSpec(
        seed=seed, deaths=(RankDeath(rank=seed % nprocs,
                                     time=makespan * 0.4),),
        checkpoint_interval=makespan * 0.15,
        recovery_delay=makespan * 0.05)


@settings(max_examples=25, deadline=None)
@given(nb=st.integers(2, 9), bw=st.integers(0, 3),
       nprocs=st.integers(1, 6), policy=st.sampled_from(POLICIES),
       kind=st.sampled_from(["none", "drops", "straggler", "death"]),
       seed=st.integers(0, 2 ** 16))
def test_random_runs_hold_the_invariants(nb, bw, nprocs, policy, kind, seed):
    dag = banded_block_dag(nb, bw)
    if kind == "death" and nprocs == 1:
        kind = "none"  # the last rank alive cannot die

    def run(spec):
        return DistributedSimulator(
            dag, EstimateBackend(), H100_CLUSTER, nprocs, policy,
            record_trace=True, faults=spec).run()

    spec = _fault_spec(kind, seed, nprocs, run(None).makespan)
    res = run(spec)
    report = verify_trace(res.trace)
    assert report.ok, report.describe()
    assert res.total_tasks == dag.n_tasks
    # batching only merges launches; a death launches its lost tasks again
    relaunched = res.faults.reexecuted if res.faults is not None else 0
    assert 1 <= res.total_kernels <= res.total_tasks + relaunched
    assert relaunched == 0 or kind == "death"
    assert res.trace.digest() == run(spec).trace.digest()
