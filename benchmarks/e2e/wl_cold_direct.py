"""cold_direct — the first-contact pipeline.

Six structurally different matrices × {PanguLU, SuperLU}, no analysis
cache: construct → ``factorize()`` → one ``solve(b)``.  The front-end
layers (ordering, symbolic, sparse, core.dag) do most of the work here
and nowhere else, so a front-end optimisation shows on this workload
and should leave the warm ones still.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.solvers import PanguLUSolver, SuperLUSolver

import pipeline
from common import (
    ANALOGUES,
    analogue,
    bits_equal,
    residual_ok,
    trace_quality,
)
from stats import median

SOLVERS = {"pangulu": PanguLUSolver, "superlu": SuperLUSolver}


def _cell(a, kind, b):
    solver = SOLVERS[kind](a, scheduler="trojan", analysis_cache=None)
    result = solver.factorize()
    return result, solver.solve(b)


def setup(size: dict, seed: int) -> dict:
    t0 = perf_counter()
    mats = {name: analogue(name, size["scale"], seed) for name in ANALOGUES}
    gen_s = perf_counter() - t0
    rng = np.random.default_rng(seed)
    rhs = {name: rng.standard_normal(a.nrows) for name, a in mats.items()}
    cells = [(name, kind) for name in mats for kind in SOLVERS]
    cells = cells[:size.get("cells", len(cells))]
    name, kind = cells[0]
    _cell(mats[name], kind, rhs[name])  # untimed warm-up cell
    return {"mats": mats, "rhs": rhs, "cells": cells, "gen_s": gen_s,
            "ref": {}}


def run(state: dict, size: dict, ops) -> dict:
    sweeps = []
    for _ in range(size["reps"]["sweeps"]):
        wall = 0.0
        for name, kind in state["cells"]:
            a, b = state["mats"][name], state["rhs"][name]
            t0 = perf_counter()
            result, x = _cell(a, kind, b)
            wall += perf_counter() - t0
            ops.done(residual_ok(a, b, x), f"cold {name}/{kind}: residual")
            batches = [batch.task_ids for batch in result.schedule.batches]
            before = state["ref"].get((name, kind))
            ops.require(before is None or before[3] == batches,
                        f"cold {name}/{kind}: batches differ across sweeps")
            state["ref"][name, kind] = (result.L, result.U, x, batches)
        sweeps.append(wall)
    state["untraced_wall"] = sum(sweeps)
    return {"cold_solve_s": (median(sweeps), len(sweeps))}


def traced(state: dict, size: dict, ops, rec) -> dict:
    wall = 0.0
    by_kind = dict.fromkeys(SOLVERS, 0.0)
    by_type = dict.fromkeys(pipeline.TASK_TYPE_NAMES, 0.0)
    n_sweeps = size["reps"]["sweeps"]
    for sweep in range(n_sweeps):
        for name, kind in state["cells"]:
            a, b = state["mats"][name], state["rhs"][name]
            rec.op = f"{name}/{kind}/{sweep}"
            t0 = perf_counter()
            session = pipeline.traced_factorize(rec, a, kind)
            x = pipeline.traced_solve(rec, session, b)
            dt = perf_counter() - t0
            wall += dt
            by_kind[kind] += dt
            L, U, x_ref, batches = state["ref"][name, kind]
            res = session.result
            ops.require(bits_equal(res.L, L) and bits_equal(res.U, U)
                        and bits_equal(x, x_ref),
                        f"cold {name}/{kind}: traced path not bit-equal")
            ops.require([batch.task_ids for batch in res.schedule.batches]
                        == batches,
                        f"cold {name}/{kind}: timing wrapper changed the "
                        "batch composition")
            if sweep == 0:  # per-type kernel time, outside the traced wall
                with rec.paused():
                    secs = pipeline.replay_batches(
                        session.engine, pipeline.recorded_batches(session),
                        by_type=True)
                L2, U2 = session.engine.extract_factors()
                ops.require(bits_equal(L2, L) and bits_equal(U2, U),
                            f"cold {name}/{kind}: replay not bit-equal")
                for key, val in secs.items():
                    by_type[key] += val * n_sweeps
    rec.op = None
    extras = trace_quality(rec, wall, state["untraced_wall"])
    extras.update({f"kernels.{k}_s": v for k, v in by_type.items()})
    extras["solvers.cold_pangulu_s"] = by_kind["pangulu"]
    extras["solvers.cold_superlu_s"] = by_kind["superlu"]
    extras["matrices.gen_s"] = state["gen_s"]
    return extras


def teardown(state: dict) -> None:
    state.clear()
