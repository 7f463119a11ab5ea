"""Single-GPU schedule verification: a batch sequence as a one-rank plan.

A batch sequence is a correct execution of a
:class:`~repro.core.dag.TaskDAG` iff every task runs exactly once, every
dependency lands in a strictly later batch (or, for timed launches that
overlap, starts after its producer ends), no two batch-mates write one
tile without the atomic-SSSSM escape, no task reads a tile a batch-mate
writes, and every batch respects the Collector's hardware budgets.  That
is exactly what :class:`~repro.verify.plan.PlanVerifier` proves about a
one-rank plan whose batches are concurrent groups, so there is no second
verifier here — only the adapter from a schedule to that plan.
"""

from __future__ import annotations

from repro.verify.report import VerificationReport


def verify_schedule(dag, batches, gpu=None, subject: str = "schedule",
                    hazards: bool = True) -> VerificationReport:
    """Certify one device's batch sequence; returns every violation.

    ``batches`` holds :class:`~repro.core.executor.BatchRecord` launches
    (timed: dependency order is checked on their start/end times) or
    plain task-id sequences (taken to run strictly in list order).
    Missing, repeated and unknown ids are ``TASK_*`` findings.  ``gpu``
    enables the Collector capacity check.  ``hazards=False`` skips the
    footprint passes — for DAGs whose tile coordinates are synthetic
    metadata rather than real access sets (random property-test DAGs),
    where the dependency edges alone define correctness.
    """
    # imported here: repro.verify.plan needs the fully built
    # repro.cluster, which must not load during repro.verify.__init__
    from repro.cluster.grid import ProcessGrid
    from repro.verify.plan import PlanSpec, PlanVerifier

    plan = PlanSpec.from_batches(dag, ProcessGrid(1), batches, gpu=gpu)
    return PlanVerifier(plan).verify(subject=subject, hazards=hazards)
