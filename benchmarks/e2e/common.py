"""Pieces every workload shares: operation accounting, the backend
timing wrapper, seeded inputs and the host stamp."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from time import perf_counter

import numpy as np

from repro.matrices import generators as g
from repro.sparse import CSRMatrix, matvec

from config import RESIDUAL_LIMIT, ROOT

SCHEMA_VERSION = 1


class Ops:
    """Operations attempted and failed by one workload process.

    An operation is one cell, refactorisation, solve, request, pool
    lifecycle step, replay or simulated cell.  ``done(False, ...)`` — a
    residual over the limit, a bit mismatch, a server error, a crashed
    or hung pool — marks the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def done(self, ok: bool, what: str) -> None:
        self.attempted += 1
        self.require(ok, what)

    def require(self, ok: bool, what: str) -> None:
        """A correctness check that is not itself an operation."""
        if not ok:
            self.failed += 1
            self.failures.append(what)


class TimedBackend:
    """Execution-backend wrapper that accumulates time spent inside it.

    ``Executor.run_batch_ids`` picks its path with ``hasattr`` on
    ``batch_stats`` / ``run_batch_tasks``, so the wrapper exposes exactly
    the optional methods its inner backend has — always defining one
    would crash on ``FusedBackend`` or silently change the path.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.seconds = 0.0
        self.calls = 0
        self.run_task = self._timed(inner.run_task)
        for name in ("batch_stats", "run_batch_tasks"):
            if hasattr(inner, name):
                setattr(self, name, self._timed(getattr(inner, name)))

    def _timed(self, fn):
        def call(*args):
            t0 = perf_counter()
            out = fn(*args)
            self.seconds += perf_counter() - t0
            self.calls += 1
            return out
        return call


def trace_quality(rec, traced_wall: float, untraced_wall: float) -> dict:
    """Coverage and cost of the traced mirror of a timed region; call it
    when the mirror ends, before any extra probe records more spans."""
    return {"trace.coverage": rec.top_level_seconds() / traced_wall,
            "trace.overhead": traced_wall / untraced_wall - 1.0}


def bits_equal(x, y) -> bool:
    """Bitwise equality of two CSR matrices or two arrays."""
    if isinstance(x, CSRMatrix):
        return (x.shape == y.shape and np.array_equal(x.indptr, y.indptr)
                and np.array_equal(x.indices, y.indices)
                and np.array_equal(x.data, y.data))
    return x.shape == y.shape and np.array_equal(x, y)


def residual_ok(a: CSRMatrix, b: np.ndarray, x: np.ndarray) -> bool:
    """Every column's relative residual within ``RESIDUAL_LIMIT``."""
    r = matvec(a, x) - b
    worst = np.max(np.linalg.norm(r, axis=0) / np.linalg.norm(b, axis=0))
    return bool(np.isfinite(worst) and worst <= RESIDUAL_LIMIT)


def _sz(base: int, scale: float) -> int:
    return max(24, int(round(base * scale)))


def _dim(base: int, scale: float) -> int:
    return max(3, int(round(base * scale ** (1.0 / 3.0))))


#: The six structurally different analogues of ``repro.matrices.paper``
#: (same generators, base sizes and generator seeds).
ANALOGUES = {
    "c-71": lambda s: g.circuit_like(_sz(600, s), avg_degree=4.0, seed=71),
    "cage12": lambda s: g.cage_like(_sz(760, s), bandwidth=14, seed=12),
    "para-8": lambda s: g.banded_random(_sz(700, s), bandwidth=10,
                                        density=0.6, seed=8),
    "Lin": lambda s: g.poisson3d(_dim(9, s), _dim(9, s), _dim(10, s)),
    "RM07R": lambda s: g.banded_random(_sz(840, s), bandwidth=18,
                                       density=0.7, seed=7),
    "audikw_1": lambda s: g.elasticity3d_like(
        _dim(7, s), _dim(7, s), _dim(8, s), dofs=3, seed=1),
}


def new_values(a: CSRMatrix, rng) -> CSRMatrix:
    """Same pattern, perturbed values (a Newton step's new Jacobian);
    a 1% perturbation keeps the generators' diagonal dominance."""
    data = a.data * (1.0 + 0.01 * rng.standard_normal(a.nnz))
    return CSRMatrix(a.shape, a.indptr, a.indices, data)


def seeded(a: CSRMatrix, seed: int, salt: int = 0) -> CSRMatrix:
    """``a``'s pattern with values drawn from the benchmark seed.

    The pattern stays the generator's: it fixes the work (fill, tasks,
    flops), and the contract gates the spread of every timing *across
    seeds*, so a seed may change what the numbers are but not how much
    there is to compute.
    """
    return new_values(a, np.random.default_rng([seed, salt]))


def analogue(name: str, scale: float, seed: int) -> CSRMatrix:
    salt = list(ANALOGUES).index(name)
    return seeded(ANALOGUES[name](scale), seed, salt)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_stamp(seed: int) -> dict:
    """Where and on what a result was measured."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # the benchmark also runs from a plain checkout
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "schema": SCHEMA_VERSION,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "seed": seed,
    }
