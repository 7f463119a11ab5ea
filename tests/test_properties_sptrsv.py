"""Property tests for the SpTRSV solve DAG over random triangular systems.

Three families of invariants, each over randomly generated blocked
triangular matrices:

* every batch the Collector emits for a solve DAG is statically
  hazard-free (dependency order, no same-tile write pairs, no
  read-before-solve of an RHS block);
* the solve DAG itself is acyclic, covers the block pattern exactly
  (one diagonal solve per block row, one accumulate per off-diagonal
  tile) and every accumulate chain is anchored on its source's
  diagonal solve;
* the solve operator is column-equivariant: permuting RHS columns
  permutes solution columns bit-for-bit (columns never mix).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.solve_dag import build_solve_dag, solve_sources
from repro.core.task import TaskType
from repro.gpusim import RTX5090
from repro.solvers import sptrsv_solve
from repro.sparse import CSRMatrix, uniform_partition
from repro.verify.schedule import verify_schedule


def random_triangular(n: int, density: float, seed: int,
                      lower: bool = True) -> CSRMatrix:
    """A random sparse triangular matrix with a safely nonzero diagonal."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density) * rng.standard_normal((n, n))
    dense = np.tril(dense, -1) if lower else np.triu(dense, 1)
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    np.fill_diagonal(dense, signs * rng.uniform(1.0, 2.0, n))
    return CSRMatrix.from_dense(dense)


def _batch_ids(result) -> list[list[int]]:
    return [sorted(int(t) for t in br.task_ids)
            for br in result.schedule.batches]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
@pytest.mark.parametrize("scheduler", ["trojan", "levelbatch", "levelset"])
def test_every_collector_batch_is_hazard_free(seed, lower, scheduler):
    tri = random_triangular(96, 0.15, seed, lower=lower)
    rng = np.random.default_rng(100 + seed)
    b = rng.standard_normal((96, 4))
    result = sptrsv_solve(tri, b, block_size=16, lower=lower,
                          scheduler=scheduler)
    batches = _batch_ids(result)
    # full coverage: each task launched exactly once
    flat = sorted(t for batch in batches for t in batch)
    assert flat == list(range(result.dag.n_tasks))
    report = verify_schedule(result.dag, batches, gpu=RTX5090,
                             subject=f"sptrsv-{scheduler}-{seed}")
    assert not report.violations, report.describe()
    # and the schedule actually solved the system
    expect = np.linalg.solve(tri.to_dense(), b)
    np.testing.assert_allclose(result.x, expect, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
def test_solve_dag_acyclic_and_covers_pattern(seed, lower):
    rng = np.random.default_rng(seed)
    nb, bs = 6, 12
    part = uniform_partition(nb * bs, bs)
    pat = rng.random((nb, nb)) < 0.4
    pat = np.tril(pat) if lower else np.triu(pat)
    np.fill_diagonal(pat, True)
    dag = build_solve_dag(pat, part, nrhs=3, lower=lower)
    dag.validate()
    dag.critical_path_lengths()  # full Kahn peel; raises on a cycle
    assert dag.is_verified_acyclic()
    counts = dag.counts_by_type()
    offdiag = int(pat.sum()) - nb
    assert counts.get("SPTRSV_DIAG", 0) == nb
    assert counts.get("SPTRSV_UPDATE", 0) == offdiag
    assert dag.n_tasks == nb + offdiag
    # level schedule covers every task exactly once
    levels = dag.level_schedule()
    flat = sorted(int(t) for lvl in levels for t in lvl)
    assert flat == list(range(dag.n_tasks))
    # every accumulate maps onto an off-diagonal pattern tile, in the
    # canonical source order the chains serialise
    updates = [t for t in dag.tasks if t.type == TaskType.SPTRSV_UPDATE]
    by_dest: dict[int, list[int]] = {}
    for t in updates:
        assert t.i == t.j and t.k != t.i
        assert pat[t.i, t.k]
        by_dest.setdefault(t.i, []).append(t.k)
    for dest, srcs in by_dest.items():
        assert srcs == list(solve_sources(pat, dest, lower))


@pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
def test_rhs_column_permutation_equivariance(lower):
    """Permuting RHS columns permutes solution columns exactly: the
    stacked kernels never mix columns, by construction of the folded
    per-column cores."""
    tri = random_triangular(80, 0.2, 7, lower=lower)
    rng = np.random.default_rng(8)
    b = rng.standard_normal((80, 6))
    perm = rng.permutation(6)
    x = sptrsv_solve(tri, b, block_size=16, lower=lower).x
    xp = sptrsv_solve(tri, b[:, perm], block_size=16, lower=lower).x
    assert np.array_equal(xp, x[:, perm])
