"""warm_newton — two resident sessions driven by Newton steps.

Same-pattern new values every step: ``refactorize()`` both sessions,
single-RHS refined solves on each, then one multi-column solve on each.
The front-end is bypassed entirely (an ordering/symbolic change should
not move anything here); ``refactorize`` is the *write* use of the tile
arena (stamp, admission loop, kernels, ``extract_factors``) and
``solve`` the *read* use, so a gain for one that costs the other shows.
Solves take the default solve path, whatever it is.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core import DEFAULT_ANALYSIS_CACHE
from repro.matrices import generators as g
from repro.solvers import PanguLUSolver, SuperLUSolver

import pipeline
from common import (
    bits_equal,
    new_values,
    residual_ok,
    seeded,
    trace_quality,
)
from stats import median

PANGULU_BLOCK = 32
KINDS = ("pangulu", "superlu")


def session_matrices(size: dict, seed: int) -> dict:
    """The circuit-like (pangulu) and cage-band (superlu) systems every
    Newton workload, in-process or served, is driven on."""
    return {
        "pangulu": seeded(g.circuit_like(size["n_pangulu"], avg_degree=4.0,
                                         seed=71), seed, 0),
        "superlu": seeded(g.cage_like(size["n_superlu"], bandwidth=14,
                                      seed=12), seed, 1),
    }


def newton_inputs(mats: dict, size: dict, seed: int, steps: int,
                  solves: int) -> list:
    """Per step: the new matrices, the single right-hand sides and the
    multi-column block — generated before the timed region."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(steps):
        step = {"a": {k: new_values(a, rng) for k, a in mats.items()},
                "b": {k: [rng.standard_normal(a.nrows)
                          for _ in range(solves)]
                      for k, a in mats.items()},
                "B": {k: rng.standard_normal((a.nrows, size["nrhs"]))
                      for k, a in mats.items()}}
        out.append(step)
    return out


def setup(size: dict, seed: int) -> dict:
    # every set-up pays the cold analysis, as a fresh process would
    DEFAULT_ANALYSIS_CACHE.clear()
    t0 = perf_counter()
    mats = session_matrices(size, seed)
    inputs = newton_inputs(mats, size, seed, size["reps"]["steps"],
                           size["solves_per_step"])
    gen_s = perf_counter() - t0
    solvers = {
        "pangulu": PanguLUSolver(mats["pangulu"], scheduler="trojan",
                                 block_size=PANGULU_BLOCK),
        "superlu": SuperLUSolver(mats["superlu"], scheduler="trojan"),
    }
    for solver in solvers.values():
        solver.factorize()
    return {"mats": mats, "inputs": inputs, "solvers": solvers,
            "gen_s": gen_s, "ref": []}


def run(state: dict, size: dict, ops) -> dict:
    solvers = state["solvers"]
    refactor, solve, multi = [], [], []
    for step in state["inputs"]:
        ref = {"L": {}, "U": {}, "x": {}, "X": {}}
        t0 = perf_counter()
        results = {k: solvers[k].refactorize(step["a"][k]) for k in KINDS}
        refactor.append(perf_counter() - t0)
        for k in KINDS:
            ops.done(True, f"warm refactorize {k}")
            ref["L"][k], ref["U"][k] = results[k].L, results[k].U
            ref["x"][k] = []
        for i in range(size["solves_per_step"]):
            wall = 0.0
            for k in KINDS:
                a, b = step["a"][k], step["b"][k][i]
                t0 = perf_counter()
                x = results[k].solve(b, refine=1, a=a)
                wall += perf_counter() - t0
                ops.done(residual_ok(a, b, x), f"warm solve {k}: residual")
                ref["x"][k].append(x)
            solve.append(wall)
        t0 = perf_counter()
        X = {k: results[k].solve(step["B"][k]) for k in KINDS}
        multi.append(perf_counter() - t0)
        for k in KINDS:
            ops.done(residual_ok(step["a"][k], step["B"][k], X[k]),
                     f"warm multi-RHS {k}: residual")
        ref["X"] = X
        state["ref"].append(ref)
    state["untraced_wall"] = sum(refactor) + sum(solve) + sum(multi)
    cols = 2 * size["nrhs"]
    return {
        "refactor_ms": (1e3 * median(refactor), len(refactor)),
        "solve_ms": (1e3 * median(solve), len(solve)),
        "multirhs_cols_per_s": (cols / median(multi), len(multi)),
    }


def traced(state: dict, size: dict, ops, rec) -> dict:
    mats = state["mats"]
    with rec.paused():  # traced twins of the two sessions: set-up
        sessions = {
            "pangulu": pipeline.traced_factorize(
                rec, mats["pangulu"], "pangulu", block_size=PANGULU_BLOCK),
            "superlu": pipeline.traced_factorize(
                rec, mats["superlu"], "superlu"),
        }
    wall = 0.0
    refactor = {k: [] for k in KINDS}
    solve = {k: [] for k in KINDS}
    for n, (step, ref) in enumerate(zip(state["inputs"], state["ref"])):
        for k in KINDS:
            rec.op = f"step{n}/refactor/{k}"
            t0 = perf_counter()
            pipeline.traced_refactorize(rec, sessions[k], step["a"][k])
            refactor[k].append(perf_counter() - t0)
            wall += refactor[k][-1]
            res = sessions[k].result
            ops.require(bits_equal(res.L, ref["L"][k])
                        and bits_equal(res.U, ref["U"][k]),
                        f"warm refactorize {k}: traced path not bit-equal")
        for i in range(size["solves_per_step"]):
            for k in KINDS:
                rec.op = f"step{n}/solve{i}/{k}"
                t0 = perf_counter()
                x = pipeline.traced_solve(rec, sessions[k],
                                          step["b"][k][i], refine=1)
                solve[k].append(perf_counter() - t0)
                wall += solve[k][-1]
                ops.require(bits_equal(x, ref["x"][k][i]),
                            f"warm solve {k}: traced path not bit-equal")
        for k in KINDS:
            rec.op = f"step{n}/multi/{k}"
            t0 = perf_counter()
            X = pipeline.traced_solve(rec, sessions[k], step["B"][k])
            wall += perf_counter() - t0
            ops.require(bits_equal(X, ref["X"][k]),
                        f"warm multi-RHS {k}: traced path not bit-equal")
    rec.op = None
    extras = trace_quality(rec, wall, state["untraced_wall"])
    extras["matrices.gen_s"] = state["gen_s"]
    for k in KINDS:
        extras[f"solvers.refactor_{k}_ms"] = 1e3 * median(refactor[k])
        extras[f"solvers.solve_{k}_ms"] = 1e3 * median(solve[k])
    steps = len(state["inputs"])
    by_type = dict.fromkeys(pipeline.TASK_TYPE_NAMES, 0.0)
    for k, session in sessions.items():
        with rec.paused():
            secs = pipeline.replay_batches(
                session.engine, pipeline.recorded_batches(session),
                by_type=True)
        L2, U2 = session.engine.extract_factors()
        ops.require(bits_equal(L2, session.result.L)
                    and bits_equal(U2, session.result.U),
                    f"warm {k}: per-type replay not bit-equal")
        for key, val in secs.items():
            by_type[key] += val * steps
    extras.update({f"kernels.{k}_s": v for k, v in by_type.items()})
    _dag_solve_beside_csr(rec, sessions, state["inputs"][-1], ops)
    extras["core.cache_hit_rate"] = DEFAULT_ANALYSIS_CACHE.stats()["hit_rate"]
    return extras


def _dag_solve_beside_csr(rec, sessions, step, ops) -> None:
    """The batched SpTRSV DAG path, timed on the last step's right-hand
    sides beside the CSR substitutions the default path just ran."""
    for k, session in sessions.items():
        with rec.span("solvers.sptrsv_ctx_build"):
            session.result.solve_contexts()
        for b in step["b"][k] + [step["B"][k]]:
            x = pipeline.substitute(rec, session.result, b, dag_path=True)
            ops.require(residual_ok(session.a, b, x),
                        f"warm DAG-path solve {k}: residual")


def teardown(state: dict) -> None:
    state.clear()
