"""Shared per-task effect footprints (``repro.verify.effects``).

Everything that reasons about data access — the Executor's in-batch
atomic scan and :class:`~repro.verify.plan.PlanVerifier`'s same-batch
hazard and happens-before race passes — must agree on *what each task
reads and writes*.  This leaf
module is the single definition of those footprints, derived from the
task coordinate columns alone, so the analyzers can never drift apart:

========================  =====================  =========================
TaskType                  writes                 reads (hazard-relevant)
========================  =====================  =========================
``GETRF(k)``              tile ``(k, k)``        — (factors in place)
``TSTRF(i, k)``           tile ``(i, k)``        tile ``(k, k)``
``GEESM(k, j)``           tile ``(k, j)``        tile ``(k, k)``
``SSSSM(i, j, k)``        tile ``(i, j)``        tiles ``(i, k)``, ``(k, j)``
``SPTRSV_DIAG(k)``        RHS block ``(k, k)``   — (factor tiles frozen)
``SPTRSV_UPDATE(i, k)``   RHS block ``(i, i)``   RHS block ``(k, k)``
========================  =====================  =========================

The SSSSM *target* read (its accumulate destination) is deliberately not
a read footprint: same-target SSSSM groups are the paper's atomic
serial-apply case (Figure 4's 9S0/9S1), the one legal same-tile overlap
inside a batch.  That atomic escape is per-device only — the plan
analyzer does *not* honour it across ranks.  Solve tasks have no atomic
escape at all: their destination accumulates are ordered by the solve
DAG's canonical chains.

Import-order note: this module may import only :mod:`numpy` and
:mod:`repro.core.task` — it is pulled in by ``repro.verify.__init__`` and lazily by
:meth:`repro.core.dag.TaskDAG.task_arrays`, both of which run while
``repro.core`` may still be mid-import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.task import TaskType

#: Task types whose same-tile write groups may co-batch with atomic
#: accumulation (the serial-apply escape hatch).  Exactly the Schur
#: update; solve-phase accumulates are ordered by canonical chains and
#: get no escape.
ATOMIC_TASK_TYPES = frozenset({TaskType.SSSSM})


@dataclass(frozen=True)
class EffectFootprints:
    """Column-oriented read/write footprints for one DAG's tasks.

    Attributes
    ----------
    nb, ntiles:
        Block count and flat tile-id space (``nb * nb``); RHS block
        ``b`` is encoded as tile ``(b, b)`` so solve and factor
        schedules verify through identical machinery.
    write_tile:
        Flat output tile ``i * nb + j`` per task (every task type writes
        exactly one tile/RHS block).
    is_atomic:
        True where the task's write participates in the atomic
        serial-apply escape (:data:`ATOMIC_TASK_TYPES`).
    read_owner, read_tile:
        Parallel arrays: entry ``q`` says task ``read_owner[q]`` reads
        tile ``read_tile[q]``.  One task may own several entries (SSSSM
        reads both factor panels).
    """

    nb: int
    ntiles: int
    write_tile: np.ndarray
    is_atomic: np.ndarray
    read_owner: np.ndarray
    read_tile: np.ndarray


def atomic_type_mask(type_code: np.ndarray) -> np.ndarray:
    """Boolean mask of atomic-capable tasks (:data:`ATOMIC_TASK_TYPES`)."""
    code = np.asarray(type_code)
    mask = np.zeros(code.shape, dtype=bool)
    for t in ATOMIC_TASK_TYPES:
        mask |= code == int(t)
    return mask


def atomic_write_targets(type_code: np.ndarray, i: np.ndarray,
                         j: np.ndarray, nb: int) -> np.ndarray:
    """``TaskArrays.target`` column: flat output tile for atomic-capable
    tasks, ``-1`` otherwise — the key the in-batch write-conflict scan
    (:func:`repro.verify.hazards.batch_atomic_flags`) groups on."""
    return np.where(atomic_type_mask(type_code),
                    np.asarray(i) * nb + np.asarray(j), -1)


def footprints_from_arrays(type_code: np.ndarray, i: np.ndarray,
                           j: np.ndarray, k: np.ndarray,
                           nb: int) -> EffectFootprints:
    """Derive :class:`EffectFootprints` from the task coordinate columns.

    The read-entry concatenation order (TSTRF/GEESM diagonal reads,
    SSSSM L-panel reads, SSSSM U-panel reads, SPTRSV source reads) is
    part of the contract: downstream verdict ordering — and therefore
    golden-suite bit-identity — depends on it.
    """
    code = np.asarray(type_code)
    i = np.asarray(i)
    j = np.asarray(j)
    k = np.asarray(k)
    write_tile = i * nb + j
    is_atomic = atomic_type_mask(code)
    tri = (code == int(TaskType.TSTRF)) | (code == int(TaskType.GEESM))
    sel_tri = np.flatnonzero(tri)
    sel_s = np.flatnonzero(is_atomic)
    sel_u = np.flatnonzero(code == int(TaskType.SPTRSV_UPDATE))
    read_owner = np.concatenate([sel_tri, sel_s, sel_s, sel_u])
    read_tile = np.concatenate([
        k[sel_tri] * nb + k[sel_tri],
        i[sel_s] * nb + k[sel_s],
        k[sel_s] * nb + j[sel_s],
        k[sel_u] * nb + k[sel_u],
    ])
    return EffectFootprints(
        nb=nb, ntiles=nb * nb, write_tile=write_tile, is_atomic=is_atomic,
        read_owner=read_owner, read_tile=read_tile,
    )


def effect_footprints(dag) -> EffectFootprints:
    """Footprints for a :class:`~repro.core.dag.TaskDAG` (cached columns)."""
    arrays = dag.task_arrays()
    return footprints_from_arrays(arrays.type_code, arrays.i, arrays.j,
                                  arrays.k, dag.part.nblocks)
