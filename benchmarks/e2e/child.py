"""One workload, in this process.  Started by ``run.py`` with ``REPRO_*``
removed and BLAS threads pinned before numpy is imported.

Prints two JSON lines: a detail line (every metric it measured, sample
counts, host stamp, failures) and, last, the result line of the
benchmark contract.

A run measures its named workload at ``FULL`` size and then makes one
reduced lap (``PROBE`` sizes) over the other four, because the contract
wants every end-to-end metric from every run; the traced run skips the
lap and reports 0 for layers its workload never enters.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
from time import perf_counter

import config
from common import Ops, host_stamp, peak_rss_mb
from spans import Recorder
from stats import median

#: wall seconds each workload took in this process, set-up to teardown
ELAPSED: dict[str, float] = {}
#: spans whose metric is not simply ``<span>_s``
SPAN_METRICS = {"core.sched": "core.sched_self_s",
                "core.replay": "core.replay_self_s"}


def _measure(workload: str, size: dict, seed: int, ops: Ops,
             setups: int, rec: Recorder | None):
    """Set up ``setups`` times, run the timed region once (then its
    traced mirror if ``rec``); returns metrics, samples, set-up times
    and the traced extras."""
    mod = importlib.import_module(f"wl_{workload}")
    began = perf_counter()
    state, setup_s = {}, []
    for _ in range(setups):
        mod.teardown(state)
        gc.collect()
        t0 = perf_counter()
        state = mod.setup(size, seed)
        setup_s.append(perf_counter() - t0)
    try:
        gc.collect()
        measured = mod.run(state, size, ops)
        extras = None
        if rec is not None and not ops.failed:
            gc.collect()
            extras = mod.traced(state, size, ops, rec)
    finally:
        mod.teardown(state)
    metrics = {k: v for k, (v, _) in measured.items()}
    samples = {k: n for k, (_, n) in measured.items()}
    ELAPSED[workload] = perf_counter() - began
    return metrics, samples, setup_s, extras


def layer_metrics(rec: Recorder, extras: dict) -> dict:
    """The per-layer table: span self times, counters, workload extras
    and the ratios derived from them; 0 for what was never entered."""
    unknown = set(extras) - set(config.PER_LAYER)
    if unknown:
        raise KeyError(f"not in BENCHMARK.json per_layer: {sorted(unknown)}")
    out = dict.fromkeys(config.PER_LAYER, 0.0)
    for span, seconds in rec.self_times().items():
        name = SPAN_METRICS.get(span, f"{span}_s")
        if name in out:
            out[name] += seconds
    for name, n in rec.counts.items():
        if name in out:
            out[name] += n
    out.update(extras)
    tasks = rec.counts.get("core.sched_tasks", 0)
    if tasks:
        admission_s = out["core.sched_self_s"] + out["core.replay_self_s"]
        out["core.sched_us_per_task"] = 1e6 * admission_s / tasks
        out["core.mean_batch_size"] = tasks / out["core.batches"]
    if out["kernels.busy_s"]:
        out["kernels.gflops"] = (out["kernels.flops"]
                                 / out["kernels.busy_s"] / 1e9)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=config.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=config.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probes", type=int, choices=(0, 1), default=None)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)
    probes = (not args.trace) if args.probes is None else bool(args.probes)
    probes = probes and not args.quick
    named = args.workload
    table = config.QUICK if args.quick else config.FULL
    size = config.scaled(table[named], args.seconds)
    setups = config.SETUP_REPEATS if probes else 1

    ops = Ops()
    rec = Recorder() if args.trace else None
    metrics, samples, setup_s, extras = _measure(
        named, size, args.seed, ops, setups, rec)
    native = sorted(metrics)
    if probes:
        for other in config.WORKLOADS:
            if other != named:
                m, n, _, _ = _measure(other, config.PROBE[other], args.seed,
                                      ops, 1, None)
                metrics.update(m)
                samples.update(n)
    metrics["setup_s"] = median(setup_s)
    samples["setup_s"] = len(setup_s)
    metrics["peak_rss_mb"] = peak_rss_mb()
    samples["peak_rss_mb"] = 1

    layers = None
    if extras is not None:
        layers = layer_metrics(rec, extras)
        if args.spans_out:
            rec.dump(args.spans_out)

    chosen, spec = ((layers, config.PER_LAYER) if args.trace
                    else (metrics, config.END_TO_END))
    # only the probe-less smoke run may report a subset of the metrics
    expect_all = bool(args.trace) or probes
    complete = chosen is not None and (not expect_all
                                       or set(chosen) == set(spec))
    correct = not ops.failed and complete
    detail = {
        "workload": named, "stamp": host_stamp(args.seed),
        "seconds": args.seconds, "quick": args.quick, "probes": probes,
        "size": size, "elapsed_s": ELAPSED, "native": native, "end_to_end": metrics,
        "samples": samples, "per_layer": layers,
        "attempted": ops.attempted, "failed": ops.failed,
        "failures": ops.failures[:20],
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": correct, "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": spec[k]["unit"]}
                    for k, v in (chosen or {}).items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
