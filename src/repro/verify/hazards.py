"""Vectorized in-batch hazard kernels shared by Executor and verifier.

The Executor must flag same-target Schur updates inside one batch as
atomic (the paper's 9S0/9S1 accumulation case) — the rule the static
:class:`~repro.verify.plan.PlanVerifier` hazard pass proves over whole
schedules.  The duplicate-target scan lives here, as a leaf module
(NumPy only) the Executor and the worker pool import.
"""

from __future__ import annotations

import numpy as np


def batch_atomic_flags(target: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Mark batch members whose shared write target needs atomicity.

    Parameters
    ----------
    target:
        Per-batch-member flat output-tile id for atomic-capable tasks
        (SSSSM), ``-1`` for everything else — the
        :attr:`~repro.core.dag.TaskArrays.target` column gathered over
        the batch.
    out:
        Optional preallocated boolean buffer of at least ``len(target)``
        entries; its leading slice is reset and returned, keeping the
        Executor's per-launch path free of fresh flag allocations.

    Returns
    -------
    np.ndarray
        Boolean array: ``True`` where the member's target tile appears
        more than once in the batch (accumulation must be atomic and the
        products applied serially in batch order).
    """
    target = np.asarray(target)
    n = target.shape[0]
    if out is None:
        flags = np.zeros(n, dtype=bool)
    else:
        flags = out[:n]
        flags[:] = False
    mask = target >= 0
    if mask.any():
        _, inverse, counts = np.unique(target[mask], return_inverse=True,
                                       return_counts=True)
        flags[mask] = counts[inverse] > 1
    return flags
