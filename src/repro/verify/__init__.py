"""``repro.verify`` — static schedule/race verification + repo linting.

Three analyzers prove safety properties *without executing anything*:

* :class:`~repro.verify.plan.PlanVerifier` — the one certifier of plans
  and schedules: a task DAG, per-rank program orders of concurrent
  batches, grid ownership and a fault spec, certified *before*
  execution — completeness, DAG cycles, dependency order across
  batches, same-batch write/read tile hazards (honouring the
  atomic-SSSSM serial-apply rule), Collector capacity budgets,
  vector-clock happens-before races, wait-cycle/orphaned-send liveness
  composed with the fault protocol, effect-footprint/edge consistency
  and per-rank memory high-water marks.  A single-GPU batch sequence is
  a one-rank plan (:func:`~repro.verify.schedule.verify_schedule`).
* :class:`~repro.verify.trace.TraceVerifier` — distributed comm traces:
  every send delivered, no early tile consumption, per-rank memory
  budgets.
* :func:`~repro.verify.lint.lint_paths` — AST lint pass enforcing the
  repo's own invariants (vectorized hot modules, picklable sweep
  recipes, immutable cached analysis, exhaustive TaskType and
  event-kind dispatch, effect-declared arena mutation).

All three emit :class:`~repro.verify.report.VerificationReport` and are
wired into ``python -m repro verify`` plus the CI ``verify`` job.

Import-order note: :mod:`repro.core.executor` imports the leaf
:mod:`repro.verify.hazards` at module scope and
:mod:`repro.verify.effects` lazily (``effects`` needs
:mod:`repro.core.task`, which re-enters a mid-import ``repro.core``),
so this ``__init__`` pulls the leaf modules first and never imports
:mod:`repro.verify.plan`/``golden``/``cases`` — those need the fully
built :mod:`repro.core` (and ``plan`` also :mod:`repro.cluster`);
:func:`~repro.verify.schedule.verify_schedule` imports ``plan`` when
called.
"""

from repro.verify.report import Violation, VerificationReport
from repro.verify.hazards import batch_atomic_flags
from repro.verify.effects import (
    ATOMIC_TASK_TYPES,
    EffectFootprints,
    atomic_write_targets,
    effect_footprints,
    footprints_from_arrays,
)
from repro.verify.schedule import verify_schedule
from repro.verify.trace import (
    DistTrace,
    SendRecord,
    TraceVerifier,
    verify_trace,
)
from repro.verify.lint import lint_file, lint_paths, lint_source, RULES

__all__ = [
    "Violation",
    "VerificationReport",
    "batch_atomic_flags",
    "ATOMIC_TASK_TYPES",
    "EffectFootprints",
    "atomic_write_targets",
    "effect_footprints",
    "footprints_from_arrays",
    "verify_schedule",
    "DistTrace",
    "SendRecord",
    "TraceVerifier",
    "verify_trace",
    "lint_file",
    "lint_paths",
    "lint_source",
    "RULES",
]
