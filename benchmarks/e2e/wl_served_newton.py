"""served_newton — warm_newton's sessions behind the solver server.

``BackgroundServer()`` with constructor defaults and one
``SolverClient``: Newton steps of data-only ``refactorize`` on both
sessions, a steady phase of sequential refined solves, and pipelined
``solve_many`` bursts.  The numeric work is warm_newton's, so the
``served_*`` metrics minus their in-process twins are the serve layer
(wire, admission queue, batch window); the bursts are the only traffic
where cross-request micro-batching can pay.  Closed loop, one
connection.
"""

from __future__ import annotations

import io
from time import perf_counter

import numpy as np

from repro.serve import (
    BackgroundServer,
    ServerError,
    SolverClient,
    pack_message,
    read_message_sync,
)
from repro.sparse import CSRMatrix

from common import new_values, residual_ok, trace_quality
from spans import span
from stats import median, percentile, tail_percentile
from wl_warm_newton import PANGULU_BLOCK, session_matrices

#: a request that takes longer than this is a failed operation
REQUEST_TIMEOUT_S = 60.0
#: what a hung or failing server raises at the client
REQUEST_ERRORS = (ServerError, OSError, EOFError)


def setup(size: dict, seed: int) -> dict:
    t0 = perf_counter()
    mats = session_matrices(size, seed)
    rng = np.random.default_rng(seed)
    reps = size["reps"]
    n = mats["pangulu"].nrows
    inputs = {
        "data": [{k: new_values(a, rng).data for k, a in mats.items()}
                 for _ in range(reps["steps"])],
        "steady": [rng.standard_normal(n) for _ in range(reps["solves"])],
        "bursts": [[rng.standard_normal(n) for _ in range(size["burst"])]
                   for _ in range(reps["bursts"])],
    }
    gen_s = perf_counter() - t0
    server = BackgroundServer().start()
    client = SolverClient(server.host, server.port,
                          timeout=REQUEST_TIMEOUT_S)
    t0 = perf_counter()
    sessions = {
        "pangulu": client.factorize(mats["pangulu"], solver="pangulu",
                                    block_size=PANGULU_BLOCK)["session"],
        "superlu": client.factorize(mats["superlu"],
                                    solver="superlu")["session"],
    }
    cold_ms = 1e3 * (perf_counter() - t0)
    return {"mats": mats, "inputs": inputs, "server": server,
            "client": client, "sessions": sessions, "gen_s": gen_s,
            "cold_factorize_ms": cold_ms}


def _traffic(state: dict, size: dict, ops, rec=None) -> dict:
    """The timed request sequence; with ``rec`` every request is a
    client-side span."""
    client, sessions = state["client"], state["sessions"]
    mats = dict(state["mats"])
    refactor, wire, steady, bursts = [], [], [], []
    for data in state["inputs"]["data"]:
        try:
            t0 = perf_counter()
            with span(rec, "serve.refactorize"):
                replies = [client.refactorize(sessions[k], data=data[k])
                           for k in mats]
            refactor.append(perf_counter() - t0)
            wire.append(refactor[-1] - sum(r["seconds"] for r in replies))
            for k in mats:
                a = mats[k]
                mats[k] = CSRMatrix(a.shape, a.indptr, a.indices, data[k])
                ops.done(True, f"served refactorize {k}")
        except REQUEST_ERRORS as exc:
            ops.done(False, f"served refactorize: {exc!r}")
    a = mats["pangulu"]
    for b in state["inputs"]["steady"]:
        try:
            t0 = perf_counter()
            with span(rec, "serve.solve"):
                x = client.solve(sessions["pangulu"], b, refine=1)
            steady.append(perf_counter() - t0)
            ops.done(residual_ok(a, b, x), "served solve: residual")
        except REQUEST_ERRORS as exc:
            ops.done(False, f"served solve: {exc!r}")
    for bs in state["inputs"]["bursts"]:
        try:
            t0 = perf_counter()
            with span(rec, "serve.burst"):
                xs = client.solve_many(sessions["pangulu"], bs,
                                       batch_solve=True)
            bursts.append(perf_counter() - t0)
            for b, x in zip(bs, xs):
                ops.done(residual_ok(a, b, x), "served burst: residual")
        except REQUEST_ERRORS as exc:
            ops.done(False, f"served burst: {exc!r}")
    return {"refactor": refactor, "wire": wire, "steady": steady,
            "bursts": bursts}


def run(state: dict, size: dict, ops) -> dict:
    t = _traffic(state, size, ops)
    if not (t["refactor"] and t["steady"] and t["bursts"]):
        return {}  # every request of a phase failed; ops says so
    state["untraced_wall"] = sum(map(sum, (t["refactor"], t["steady"],
                                           t["bursts"])))
    steady_ms = [1e3 * s for s in t["steady"]]
    # p95 wants ten samples beyond it (200 solves); with fewer, the
    # percentile rule lowers the percentile rather than trust the tail
    tail = min(95.0, tail_percentile(len(steady_ms)))
    return {
        "served_refactor_ms": (1e3 * median(t["refactor"]),
                               len(t["refactor"])),
        "served_solve_ms": (median(steady_ms), len(steady_ms)),
        "served_solve_p95_ms": (percentile(steady_ms, tail),
                                len(steady_ms)),
        # a burst folds into one launch or splits into two, about
        # evenly, so a median would flip between the two modes: the
        # rate over the whole burst phase is the steady statistic
        "served_rps": (size["burst"] * len(t["bursts"]) / sum(t["bursts"]),
                       len(t["bursts"])),
    }


def traced(state: dict, size: dict, ops, rec) -> dict:
    before = state["client"].stats()["metrics"]
    t = _traffic(state, size, ops, rec)
    wall = sum(map(sum, (t["refactor"], t["steady"], t["bursts"])))
    extras = trace_quality(rec, wall, state["untraced_wall"])
    stats = state["client"].stats()
    m = stats["metrics"]
    lat = m["latency"]["solve"]
    extras.update({
        "serve.wire_overhead_ms": 1e3 * median(t["wire"]),
        "serve.queue_wait_ms": lat["queue"]["mean_ms"],
        "serve.execute_ms": lat["execute"]["p50_ms"],
        "serve.batch_launches": (m["batching"]["launches"]
                                 - before["batching"]["launches"]),
        "serve.batch_mean_requests": m["batching"]["mean_requests"],
        "serve.session_hit_rate": m["session_cache"]["hit_rate"],
        "serve.cache_hit_rate": stats["analysis_cache"]["hit_rate"],
        "serve.errors": sum(m["errors"].values()),
        "serve.rejections": sum(m["rejections"].values()),
        "serve.cold_factorize_ms": state["cold_factorize_ms"],
        "matrices.gen_s": state["gen_s"],
    })
    extras.update(_wire_codec_us(state["mats"]["pangulu"].nrows,
                                 size["burst"]))
    return extras


def _wire_codec_us(n: int, cols: int, repeats: int = 50) -> dict:
    """Encode and decode cost of one ``n × cols`` float64 payload."""
    payload = {"b": np.random.default_rng(0).standard_normal((n, cols))}
    header = {"op": "solve", "id": 0}
    t0 = perf_counter()
    for _ in range(repeats):
        wire = pack_message(header, payload)
    pack = (perf_counter() - t0) / repeats
    t0 = perf_counter()
    for _ in range(repeats):
        read_message_sync(io.BytesIO(wire))
    unpack = (perf_counter() - t0) / repeats
    return {"serve.pack_us": 1e6 * pack, "serve.unpack_us": 1e6 * unpack}


def teardown(state: dict) -> None:
    if state:
        state["client"].close()
        state["server"].stop()
        state.clear()
