"""Distributed GPU-cluster simulation (the scale-out substitution).

The paper's scale-out evaluation runs MPI, one process per GPU, tiles
distributed 2-D block-cyclically, results exchanged over InfiniBand.
This package reproduces that environment as a discrete-event simulation:

* :class:`~repro.cluster.grid.ProcessGrid` — 2-D block-cyclic tile
  ownership;
* :class:`~repro.cluster.network.NetworkModel` /
  :class:`~repro.cluster.network.ClusterSpec` — latency+bandwidth message
  costs, intra- vs inter-node links, H100 and MI50 cluster presets
  (Table 3);
* :class:`~repro.cluster.distsim.DistributedSimulator` — event-driven
  execution with a per-process scheduler (baseline, streams or Trojan
  Horse), producing makespans for the Figure-12 strong-scaling study;
* :class:`~repro.cluster.faults.FaultSpec` — seeded, reproducible fault
  injection (lossy links with retransmission, stragglers, rank death +
  checkpoint recovery) for the CI chaos gate.

Link contention and MPI protocol effects are not modelled (DESIGN.md §3).
"""

from repro.cluster.grid import ProcessGrid
from repro.cluster.network import (
    NetworkModel,
    ClusterSpec,
    IB_400G,
    IB_200G,
    NVLINK,
    PCIE4,
    H100_CLUSTER,
    MI50_CLUSTER,
)
from repro.cluster.distsim import DistributedSimulator, DistributedResult
from repro.cluster.eventarena import EventArena, EventLoopStats
from repro.cluster.synthetic import banded_block_dag
from repro.cluster.faults import (
    FaultSpec,
    FaultStats,
    LinkFaults,
    RankDeath,
    RecordOnceBackend,
    Straggler,
)
from repro.cluster.memory import factor_bytes_per_rank, fits_in_memory

__all__ = [
    "FaultSpec",
    "FaultStats",
    "LinkFaults",
    "RankDeath",
    "RecordOnceBackend",
    "Straggler",
    "ProcessGrid",
    "NetworkModel",
    "ClusterSpec",
    "IB_400G",
    "IB_200G",
    "NVLINK",
    "PCIE4",
    "H100_CLUSTER",
    "MI50_CLUSTER",
    "DistributedSimulator",
    "DistributedResult",
    "EventArena",
    "EventLoopStats",
    "banded_block_dag",
    "factor_bytes_per_rank",
    "fits_in_memory",
]
