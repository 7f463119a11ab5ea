"""Frozen workload sizes (stdlib only; imported by parent and child).

``BENCHMARK.json`` may hold only the keys its contract names, so the
tuned input sizes and repeat counts live here instead.  Three tables:

* ``FULL``  — the named workload of a run, sized for ``RUN_SECONDS`` of
  timed work on a 2-core host;
* ``PROBE`` — the reduced lap every run makes over the *other* four
  workloads, so that each run observes every end-to-end metric;
* ``QUICK`` — the smoke mode of ``run.py --quick`` (never recorded).

``reps`` entries are repeat counts and scale with ``--seconds``; every
other entry is an input size and never changes.
"""

from __future__ import annotations

import json
import pathlib

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

RUN_SECONDS = SPEC["run_seconds"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: times the named workload is set up per run; ``setup_s`` is the median
SETUP_REPEATS = 3
#: a solve whose relative residual exceeds this is a failed operation
RESIDUAL_LIMIT = 1e-10

FULL = {
    "cold_direct": {"scale": 0.55, "reps": {"sweeps": 3}},
    "warm_newton": {"n_pangulu": 600, "n_superlu": 760, "nrhs": 32,
                    "solves_per_step": 4, "reps": {"steps": 8}},
    "served_newton": {"n_pangulu": 600, "n_superlu": 760, "burst": 32,
                      "reps": {"steps": 2, "solves": 200, "bursts": 16}},
    "worker_pool": {"nx": 10, "block_size": 24, "workers": 2,
                    "solves": 4, "reps": {"lifecycles": 4}},
    "model_replay": {"scale": 0.3, "synthetic": [[256, 64, 8],
                                                  [1024, 128, 8],
                                                  [4096, 192, 10]],
                     "faulty_cells": 2, "ranks": 16,
                     "reps": {"replays": 6, "sims": 3}},
}

PROBE = {
    "cold_direct": {"scale": 0.3, "cells": 2, "reps": {"sweeps": 3}},
    "warm_newton": {"n_pangulu": 240, "n_superlu": 300, "nrhs": 32,
                    "solves_per_step": 2, "reps": {"steps": 4}},
    "served_newton": {"n_pangulu": 240, "n_superlu": 300, "burst": 32,
                      "reps": {"steps": 3, "solves": 100, "bursts": 10}},
    "worker_pool": {"nx": 6, "block_size": 24, "workers": 2,
                    "solves": 4, "reps": {"lifecycles": 2}},
    "model_replay": {"scale": 0.15, "synthetic": [[256, 64, 8]],
                     "faulty_cells": 1, "ranks": 16,
                     "reps": {"replays": 3, "sims": 2}},
}

QUICK = {
    "cold_direct": {"scale": 0.3, "cells": 4, "reps": {"sweeps": 1}},
    "warm_newton": {**PROBE["warm_newton"], "reps": {"steps": 2}},
    "served_newton": {**PROBE["served_newton"],
                      "reps": {"steps": 2, "solves": 30, "bursts": 2}},
    "worker_pool": {**PROBE["worker_pool"], "reps": {"lifecycles": 1}},
    "model_replay": {**PROBE["model_replay"],
                     "reps": {"replays": 1, "sims": 1}},
}


def scaled(size: dict, seconds: float) -> dict:
    """``size`` with its repeat counts scaled to a ``seconds`` run."""
    factor = seconds / RUN_SECONDS
    reps = {k: max(1, round(v * factor)) for k, v in size["reps"].items()}
    return {**size, "reps": reps}
