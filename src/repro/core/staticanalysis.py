"""Static DAG parallelism analysis (paper §2.2, Figure 3).

The paper motivates aggregation by iteratively removing zero-in-degree
nodes from the task DAG and recording how many tasks could run in
parallel at each step.  :func:`parallelism_profile` reproduces exactly
that peel; :func:`dag_statistics` condenses it into the summary values a
violin plot encodes (max width, mean width, distribution quantiles).

Schedule validation (:func:`validate_schedule`) is a thin wrapper over
:func:`repro.verify.schedule.verify_schedule` — the one-rank case of the
plan certifier that also serves the worker pool and the
``python -m repro verify`` CLI.
"""

from __future__ import annotations

import numpy as np

from repro.core.dag import TaskDAG


def validate_schedule(dag: TaskDAG, batches, strict: bool = True,
                      gpu=None, hazards: bool = True):
    """Statically verify a schedule is a correct execution of the DAG.

    Runs :func:`~repro.verify.schedule.verify_schedule` — completeness,
    dependency order, intra-batch tile hazards, DAG acyclicity and (with
    ``gpu``) Collector capacity budgets — over ``batches``
    (:class:`~repro.core.executor.BatchRecord` launches or task-id
    sequences) and returns the report of **every** violation.  With
    ``strict`` (the default) any violation raises ``AssertionError``
    listing them all.  ``hazards=False`` skips the footprint passes, for
    DAGs whose tile coordinates are synthetic metadata (random
    property-test DAGs) rather than real access sets.
    """
    # imported here, not at module level: repro.verify imports
    # repro.core, so a top-level import would be circular whichever
    # package loads first
    from repro.verify.schedule import verify_schedule

    report = verify_schedule(dag, batches, gpu=gpu, hazards=hazards)
    if strict:
        report.raise_if_violations()
    return report


def parallelism_profile(dag: TaskDAG) -> np.ndarray:
    """Parallelisable-task count per time step (DAG level widths)."""
    return np.asarray([lvl.size for lvl in dag.level_schedule()],
                      dtype=np.int64)


def dag_statistics(dag: TaskDAG) -> dict:
    """Summary of the parallelism distribution for one matrix/solver.

    Returns the quantities Figure 3 visualises: number of time steps,
    total task count, maximum/mean parallel width, and quartiles of the
    width distribution.
    """
    widths = parallelism_profile(dag)
    q25, q50, q75 = np.percentile(widths, [25, 50, 75])
    return {
        "tasks": int(widths.sum()),
        "time_steps": int(widths.size),
        "max_parallel": int(widths.max()),
        "mean_parallel": float(widths.mean()),
        "p25": float(q25),
        "median": float(q50),
        "p75": float(q75),
        "critical_path": int(dag.critical_path_lengths().max()),
    }
