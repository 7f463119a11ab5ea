"""Pool-wise ``NumericEngine.extract_factors`` vs the per-tile loop.

The engine assembles ``L``/``U`` with one nonzero scan per shape pool.
The per-tile Python loop it replaced is frozen here as the oracle: same
``indptr``/``indices``/``data`` to the bit on sparse tiles, supernodal
panels, a drop tolerance, factors with exact cancellation zeros, and a
shared-memory arena.
"""

import numpy as np
import pytest

from repro.matrices import cage_like, circuit_like
from repro.parallel.shmem import SharedTileArena
from repro.solvers import NumericEngine, PanguLUSolver, SuperLUSolver
from repro.sparse import COOMatrix, CSRMatrix, uniform_partition


def extract_factors_per_tile(engine, tol: float = 0.0):
    """The parent commit's ``extract_factors``: one pass per tile."""
    n = engine.part.n
    bounds = engine.part.boundaries
    l_rows, l_cols, l_vals = [], [], []
    u_rows, u_cols, u_vals = [], [], []
    for (bi, bj), tile in engine.tiles.items():
        r0, c0 = int(bounds[bi]), int(bounds[bj])
        if bi > bj:
            rr, cc = np.nonzero(np.abs(tile) > tol)
            l_rows.append(rr + r0); l_cols.append(cc + c0)
            l_vals.append(tile[rr, cc])
        elif bi < bj:
            rr, cc = np.nonzero(np.abs(tile) > tol)
            u_rows.append(rr + r0); u_cols.append(cc + c0)
            u_vals.append(tile[rr, cc])
        else:
            low = np.tril(tile, -1)
            rr, cc = np.nonzero(np.abs(low) > tol)
            l_rows.append(rr + r0); l_cols.append(cc + c0)
            l_vals.append(low[rr, cc])
            up = np.triu(tile)
            rr, cc = np.nonzero(np.abs(up) > tol)
            u_rows.append(rr + r0); u_cols.append(cc + c0)
            u_vals.append(up[rr, cc])
    diag = np.arange(n, dtype=np.int64)
    l_rows.append(diag); l_cols.append(diag)
    l_vals.append(np.ones(n))
    L = COOMatrix((n, n), np.concatenate(l_rows), np.concatenate(l_cols),
                  np.concatenate(l_vals)).to_csr()
    U = COOMatrix((n, n), np.concatenate(u_rows), np.concatenate(u_cols),
                  np.concatenate(u_vals)).to_csr()
    return L, U


def _assert_same_factors(engine, tol: float = 0.0):
    got = engine.extract_factors(tol)
    want = extract_factors_per_tile(engine, tol)
    for x, y in zip(got, want):
        assert x.shape == y.shape
        assert np.array_equal(x.indptr, y.indptr)
        assert np.array_equal(x.indices, y.indices)
        assert np.array_equal(x.data, y.data)
    return got


@pytest.mark.parametrize("solver", [
    PanguLUSolver(circuit_like(150, seed=3), block_size=16,
                  scheduler="trojan"),
    PanguLUSolver(circuit_like(81, seed=5), block_size=8),  # ragged tail
    SuperLUSolver(cage_like(120, bandwidth=8, seed=12), max_supernode=8,
                  scheduler="trojan"),
], ids=["pangulu-sparse-tiles", "pangulu-ragged", "superlu-panels"])
def test_factored_tiles(solver):
    result = solver.factorize()
    L, U = _assert_same_factors(solver._engine)
    assert np.array_equal(L.data, result.L.data)
    assert np.array_equal(U.data, result.U.data)


def test_drop_tolerance():
    solver = PanguLUSolver(circuit_like(150, seed=3), block_size=16)
    solver.factorize()
    L0, U0 = _assert_same_factors(solver._engine)
    L1, U1 = _assert_same_factors(solver._engine, tol=1e-2)
    assert L1.nnz < L0.nnz and U1.nnz < U0.nnz


def test_exact_cancellation_zeros_are_dropped():
    # eliminating column 0 cancels (1,2) and (2,1) exactly: structurally
    # filled, numerically zero — neither implementation may keep them
    dense = np.array([[1.0, 1.0, 1.0],
                      [1.0, 3.0, 1.0],
                      [1.0, 1.0, 4.0]])
    solver = PanguLUSolver(CSRMatrix.from_dense(dense), block_size=2,
                           ordering="natural")
    solver.factorize()
    L, U = _assert_same_factors(solver._engine)
    assert U.to_dense()[1, 2] == 0.0 and L.to_dense()[2, 1] == 0.0
    assert U.nnz == 5 and L.nnz == 5
    assert np.allclose(L.to_dense() @ U.to_dense(), dense)


def test_shared_memory_arena():
    a = circuit_like(100, seed=9)
    engine = NumericEngine(a, uniform_partition(a.nrows, 16),
                           sparse_tiles=True, arena_factory=SharedTileArena)
    try:
        _assert_same_factors(engine)  # stamped input values
        _assert_same_factors(engine, tol=0.5)
    finally:
        engine.arena.close()
        engine.arena.unlink()
