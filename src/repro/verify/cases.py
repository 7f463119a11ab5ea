"""Seeded adversarial verification cases (``tests/golden/adversarial``).

Each case is a small JSON file describing either a deliberately broken
schedule (a named golden configuration plus a deterministic mutation of
its batch sequence) or a hand-written distributed trace.  The CLI runs
them through the matching verifier and must exit non-zero — they are
the negative half of the CI ``verify`` gate, proving the analyzers
actually catch what they claim to.

Schedule case::

    {"kind": "schedule",
     "golden_config": "poisson256_b8_trojan",
     "mutation": "reverse_batches",
     "expect": ["DEP_ORDER"]}

Solve-schedule case (the SpTRSV DAGs of the solve phase)::

    {"kind": "solve_schedule",
     "solve_config": "poisson256_b8_lsolve_r4",
     "mutation": "update_before_diag_solve",
     "expect": ["DEP_ORDER"]}

Trace case::

    {"kind": "trace",
     "expect": ["TRACE_UNMATCHED_SEND"],
     "trace": {"nprocs": 2, "tasks": [...], "edges": [...],
               "sends": [...]}}

Plan case (a whole distributed plan, certified statically by
:mod:`repro.verify.plan` — see ``tests/golden/plans``)::

    {"kind": "plan",
     "expect": ["PLAN_RACE_WW"],
     "plan": {"nprocs": 2, "nb": 2, "tasks": [...], "edges": [...]}}

``expect`` lists violation codes the case must trigger; the CLI checks
them so a silently weakened check fails the build too.
"""

from __future__ import annotations

import json
import pathlib

from repro.core.task import TaskType
from repro.verify.golden import schedule_for_config, solve_schedule_for_config
from repro.verify.report import VerificationReport
from repro.verify.schedule import verify_schedule
from repro.verify.trace import DistTrace, TraceVerifier


def _mutate_reverse(batches, dag):
    """Run the whole schedule backwards: every edge flips."""
    return batches[::-1]


def _mutate_drop_last(batches, dag):
    """Silently drop the final batch's tasks."""
    return batches[:-1]


def _mutate_write_conflict(batches, dag):
    """Co-schedule a GETRF with an SSSSM targeting its diagonal tile.

    Picks the smallest step ``k`` that has both, moves the GETRF into
    the SSSSM's batch (removing it from its own), so the pair writes
    tile ``(k, k)`` inside one launch without the all-SSSSM atomic
    escape — a non-atomic same-target pair.
    """
    ssssm_targets = {}
    for t in dag.tasks:
        if t.type == TaskType.SSSSM and t.i == t.j:
            ssssm_targets.setdefault(t.i, t.tid)
    getrfs = {t.k: t.tid for t in dag.tasks if t.type == TaskType.GETRF}
    k = min(k for k in getrfs if k in ssssm_targets)
    g_tid, s_tid = getrfs[k], ssssm_targets[k]
    out = [list(b) for b in batches]
    for b in out:
        if g_tid in b:
            b.remove(g_tid)
    for b in out:
        if s_tid in b:
            b.append(g_tid)
            break
    return [b for b in out if b]


def _mutate_merge_all(batches, dag):
    """Collapse the whole schedule into one launch — blows every
    Collector budget (and most dependencies)."""
    return [[tid for b in batches for tid in b]]


def _mutate_merge_first(batches, dag):
    """Fuse the first two batches into one launch — producers and their
    consumers side by side, the superstep rule broken once."""
    return [list(batches[0]) + list(batches[1])] + list(batches[2:])


def _mutate_update_before_diag(batches, dag):
    """Hoist the first RHS accumulate to the schedule front.

    The update then runs before the diagonal solve of its *source*
    block, consuming an unsolved RHS block — the accumulate-ordering
    violation the solve DAG's edges exist to prevent.
    """
    tid = min(t.tid for t in dag.tasks
              if t.type == TaskType.SPTRSV_UPDATE)
    out = [[x for x in b if x != tid] for b in batches]
    return [[tid]] + [b for b in out if b]


def _mutate_co_schedule_rhs_updates(batches, dag):
    """Put two accumulates of one RHS block into a single launch.

    Solve tasks have no atomic escape hatch (their ordering is fixed by
    the canonical chains), so the pair is a non-atomic write-write
    conflict on the shared RHS tile.
    """
    by_dest: dict = {}
    for t in dag.tasks:
        if t.type == TaskType.SPTRSV_UPDATE:
            by_dest.setdefault(t.i, []).append(t.tid)
    dest = min(d for d, tids in by_dest.items() if len(tids) >= 2)
    first, second = sorted(by_dest[dest])[:2]
    out = [[x for x in b if x != second] for b in batches]
    for b in out:
        if first in b:
            b.append(second)
            break
    return [b for b in out if b]


MUTATIONS = {
    "reverse_batches": _mutate_reverse,
    "drop_last_batch": _mutate_drop_last,
    "co_schedule_write_conflict": _mutate_write_conflict,
    "merge_all_batches": _mutate_merge_all,
    "merge_first_batches": _mutate_merge_first,
    "update_before_diag_solve": _mutate_update_before_diag,
    "co_schedule_rhs_updates": _mutate_co_schedule_rhs_updates,
}


def load_case(path) -> dict:
    """Read one adversarial case file."""
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


def run_case(case: dict, subject: str = "case") -> VerificationReport:
    """Execute one case through the matching verifier."""
    kind = case.get("kind")
    if kind in ("schedule", "solve_schedule"):
        dag, gpu, records = (
            schedule_for_config(case["golden_config"]) if kind == "schedule"
            else solve_schedule_for_config(case["solve_config"]))
        batches = [sorted(int(t) for t in b.task_ids) for b in records]
        mutation = case.get("mutation")
        if mutation is not None:
            batches = MUTATIONS[mutation](batches, dag)
        return verify_schedule(dag, batches, gpu=gpu, subject=subject)
    if kind == "trace":
        trace = DistTrace.from_dict(case["trace"])
        return TraceVerifier(trace).verify(subject=subject)
    if kind == "plan":
        # lazy import: repro.verify.plan pulls in repro.cluster, which
        # must not load during repro.verify.__init__
        from repro.verify.plan import PlanSpec, PlanVerifier
        plan = PlanSpec.from_dict(case["plan"])
        return PlanVerifier(plan).verify(subject=subject)
    raise ValueError(f"unknown case kind {kind!r}")


def run_case_file(path) -> tuple:
    """Run a case file; returns ``(report, expected_codes, missed)``.

    ``missed`` lists the declared ``expect`` codes the verifier failed
    to raise — non-empty means the analyzer has lost a check.
    """
    case = load_case(path)
    report = run_case(case, subject=f"case:{pathlib.Path(path).name}")
    expected = list(case.get("expect", []))
    found = report.codes()
    missed = [c for c in expected if c not in found]
    return report, expected, missed
