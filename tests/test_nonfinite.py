"""NaN/Inf matrix values are refused up front, naming the entry.

Factor extraction keeps entries with ``abs(x) > tol`` — false for NaN —
so an unchecked NaN would not fail the factorisation: it would silently
truncate L/U and only surface as a zero pivot at ``solve()``.  Every
entry point (both block solvers, ``refactorize``, the worker pool, the
server) must reject such a matrix before touching any state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.matrices import poisson2d
from repro.parallel import ParallelExecutor
from repro.serve import BackgroundServer, ServerError, SolverClient
from repro.solvers import PanguLUSolver, SuperLUSolver
from repro.solvers.base import require_finite

SOLVERS = [(PanguLUSolver, {"block_size": 16}),
           (SuperLUSolver, {"max_supernode": 16})]


def _entry(a, q):
    row = int(np.searchsorted(a.indptr, q, side="right")) - 1
    return row, int(a.indices[q])


def _poisoned(a, value=np.nan, q=None):
    bad = a.copy()
    q = bad.nnz // 2 if q is None else q
    bad.data[q] = value
    return bad, _entry(bad, q)


def _rescaled(a, s):
    out = a.copy()
    out.data = out.data * s
    return out


@pytest.fixture(scope="module")
def a():
    return poisson2d(12)


@pytest.mark.parametrize("cls, kwargs", SOLVERS,
                         ids=[c.__name__ for c, _ in SOLVERS])
class TestSolvers:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_factorize_names_the_entry(self, a, cls, kwargs, value):
        bad, (row, col) = _poisoned(a, value)
        solver = cls(bad, scheduler="trojan", **kwargs)
        with pytest.raises(ValueError, match=rf"\({row}, {col}\)"):
            solver.factorize()
        assert solver.result is None

    def test_refactorize_keeps_result_and_warm_plan(self, a, cls, kwargs):
        solver = cls(a, scheduler="trojan", **kwargs)
        solver.factorize()
        solver.refactorize(_rescaled(a, 2.0))  # compiles the warm plan
        result, plan = solver.result, solver._plan
        assert plan is not None
        bad, (row, col) = _poisoned(a, q=0)
        with pytest.raises(ValueError, match=rf"\({row}, {col}\)"):
            solver.refactorize(bad)
        assert solver.result is result and solver._plan is plan
        # the next good step is bit-identical to a fresh factorisation
        good = _rescaled(a, 3.0)
        got = solver.refactorize(good)
        fresh = cls(good, scheduler="trojan", **kwargs).factorize()
        assert np.array_equal(got.L.data, fresh.L.data)
        assert np.array_equal(got.U.data, fresh.U.data)


def test_huge_finite_values_are_accepted(a):
    # their sum overflows to inf; only a real NaN/Inf is refused
    big = a.copy()
    big.data[:] = np.finfo(np.float64).max
    require_finite(big)


def test_pool_refuses_before_dispatch(a):
    bad, (row, col) = _poisoned(a)
    with ParallelExecutor(bad, workers=2, block_size=24) as ex:
        with pytest.raises(ValueError, match=rf"\({row}, {col}\)"):
            ex.factorize()
        assert ex.worker_pids() == []


def test_server_replies_bad_request_and_keeps_serving(a):
    bad, (row, col) = _poisoned(a)
    good = _rescaled(a, 2.0)
    b = np.ones(a.nrows)
    with BackgroundServer() as bg:
        with SolverClient(bg.host, bg.port) as client:
            with pytest.raises(ServerError) as exc:
                client.factorize(bad, solver="pangulu", block_size=16)
            assert exc.value.code == "BAD_REQUEST"
            assert f"({row}, {col})" in str(exc.value)
            session = client.factorize(a, solver="pangulu", block_size=16,
                                       scheduler="trojan")["session"]
            for kwargs in ({"a": bad}, {"data": bad.data}):
                with pytest.raises(ServerError) as exc:
                    client.refactorize(session, **kwargs)
                assert exc.value.code == "BAD_REQUEST"
            client.refactorize(session, data=good.data)
            x = client.solve(session, b)
    fresh = PanguLUSolver(good, block_size=16, scheduler="trojan")
    assert np.array_equal(x, fresh.factorize().solve(b))
