"""The golden schedule configurations, importable by CLI and tests.

``tests/golden/trojan_batches.json`` pins the trojan scheduler's batch
decomposition for five (matrix, GPU, kwargs) configurations.  The
configs used to live only in ``tests/golden/generate.py``; they moved
here so ``python -m repro verify --golden`` can rebuild each DAG and
statically verify the checked-in batch sequences, and the generator
script now imports them from this module.

This module imports solver-side machinery, so it is deliberately *not*
re-exported from :mod:`repro.verify`'s ``__init__`` (which must stay
importable from inside :mod:`repro.core`'s own import).
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.core import build_block_dag, make_scheduler
from repro.core.solve_dag import build_solve_dag, make_solve_scheduler
from repro.core.executor import EstimateBackend
from repro.gpusim import GPUCostModel, RTX5060TI, RTX5090
from repro.matrices import circuit_like, poisson2d
from repro.ordering import compute_ordering
from repro.sparse import permute_symmetric, uniform_partition
from repro.symbolic import block_fill
from repro.verify.report import VerificationReport
from repro.verify.schedule import verify_schedule

#: Default location of the checked-in golden batch sequences, relative
#: to a repo-root working directory.
DEFAULT_GOLDEN_PATH = pathlib.Path("tests") / "golden" / \
    "trojan_batches.json"


def golden_configs():
    """The ``(name, dag, gpu, kwargs)`` tuples the goldens cover."""
    def dag_of(a, bs, sparse):
        b = permute_symmetric(a, compute_ordering(a, "mindeg"))
        part = uniform_partition(a.nrows, bs)
        return build_block_dag(block_fill(b, part), part,
                               sparse_tiles=sparse)

    circuit = dag_of(circuit_like(180, seed=2), 12, True)
    poisson = dag_of(poisson2d(16), 8, False)
    wide = dag_of(circuit_like(240, seed=7), 16, True)
    return [
        ("circuit180_b12_trojan", circuit, RTX5090, {}),
        ("circuit180_b12_trojan_slack2", circuit, RTX5090,
         {"critical_slack": 2}),
        ("poisson256_b8_trojan", poisson, RTX5090, {}),
        ("poisson256_b8_trojan_small_gpu", poisson, RTX5060TI, {}),
        ("circuit240_b16_trojan_cap24", wide, RTX5090,
         {"max_batch_tasks": 24}),
    ]


def solve_golden_configs():
    """The ``(name, dag, gpu)`` solve-phase (SpTRSV) configurations.

    The DAGs are purely structural — built from the block fill of the
    permuted matrix's triangular half, which is exactly the factor
    pattern a numeric run would produce — so the adversarial gate needs
    no factorisation to rebuild them.
    """
    def solve_dag_of(a, bs, nrhs, lower=True):
        b = permute_symmetric(a, compute_ordering(a, "mindeg"))
        part = uniform_partition(a.nrows, bs)
        bf = block_fill(b, part)
        pat = np.tril(bf) if lower else np.triu(bf)
        return build_solve_dag(pat, part, nrhs=nrhs, lower=lower)

    return [
        ("poisson256_b8_lsolve_r4",
         solve_dag_of(poisson2d(16), 8, 4), RTX5090),
        ("circuit180_b12_usolve_r1",
         solve_dag_of(circuit_like(180, seed=2), 12, 1, lower=False),
         RTX5090),
    ]


def solve_schedule_for_config(name: str):
    """Re-run the trojan scheduler for a named solve-phase config.

    Returns ``(dag, gpu, batches)``, mirroring
    :func:`schedule_for_config` for the solve DAGs.
    """
    for cfg_name, dag, gpu in solve_golden_configs():
        if cfg_name == name:
            result = make_solve_scheduler("trojan", dag, EstimateBackend(),
                                          GPUCostModel(gpu)).run()
            return dag, gpu, result.batches
    raise KeyError(f"unknown solve golden config {name!r}")


def golden_config_by_name(name: str):
    """One named golden configuration (raises ``KeyError`` if absent)."""
    for cfg in golden_configs():
        if cfg[0] == name:
            return cfg
    raise KeyError(f"unknown golden config {name!r}")


def schedule_for_config(name: str):
    """Re-run the trojan scheduler for a named config.

    Returns ``(dag, gpu, batches)`` with ``batches`` as the scheduler's
    list of :class:`~repro.core.executor.BatchRecord`.
    """
    _, dag, gpu, kwargs = golden_config_by_name(name)
    result = make_scheduler("trojan", dag, EstimateBackend(),
                            GPUCostModel(gpu), **kwargs).run()
    return dag, gpu, result.batches


def verify_golden_file(path=DEFAULT_GOLDEN_PATH) -> VerificationReport:
    """Statically verify every checked-in golden batch sequence.

    Rebuilds each configuration's DAG, then runs the full
    :func:`verify_schedule` battery (with the config's GPU budgets)
    over the recorded batches.  Configs present in the file but unknown
    to :func:`golden_configs` are skipped — the golden *content* test
    lives in ``tests/test_golden_schedule.py``; this gate proves the
    sequences are safe schedules.
    """
    payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    configs = {name: (dag, gpu) for name, dag, gpu, _ in golden_configs()}
    out = VerificationReport(subject=f"golden:{path}")
    for name, record in payload.items():
        if name not in configs:
            continue
        dag, gpu = configs[name]
        report = verify_schedule(dag, record["batches"], gpu=gpu,
                                 subject=f"golden:{name}")
        out.merge(report)
    return out
