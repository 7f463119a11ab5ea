"""Tests of the benchmark harness itself (not tier-1: run them with
``PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py``)."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


class FakeClock:
    """perf_counter stand-in that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans, "perf_counter", fake)
    return fake


def test_self_time_with_nested_and_sibling_spans(clock):
    rec = spans.Recorder()
    with rec.span("outer"):
        clock.now += 1.0                      # outer's own second
        with rec.span("child"):
            clock.now += 2.0
            with rec.span("grandchild"):
                clock.now += 4.0
        with rec.span("child"):               # sibling, same name
            clock.now += 8.0
        clock.now += 16.0
    with rec.span("outer"):                   # second top-level span
        clock.now += 32.0
    assert rec.totals() == {"outer": 63.0, "child": 14.0, "grandchild": 4.0}
    # self = duration - direct children only (grandchild is child's)
    assert rec.self_times() == {"outer": 49.0, "child": 10.0,
                                "grandchild": 4.0}
    assert rec.top_level_seconds() == 63.0
    assert sum(rec.self_times().values()) == rec.top_level_seconds()
    parents = [s[spans.PARENT] for s in rec.spans]
    assert parents == [-1, 0, 1, 0, -1]


def test_aggregate_is_a_child_of_the_open_span(clock):
    rec = spans.Recorder()
    with rec.span("sched"):
        clock.now += 10.0
        rec.aggregate("kernels", 7.0)         # many short calls, one span
    assert rec.self_times() == {"sched": 3.0, "kernels": 7.0}


def test_paused_recorder_records_nothing(clock):
    rec = spans.Recorder()
    rec.op = "cell-0"
    with rec.paused():
        with rec.span("setup"):
            clock.now += 1.0
        rec.aggregate("setup", 1.0)
        rec.count("setup.calls")
    with rec.span("work"):
        clock.now += 1.0
    assert [s[spans.NAME] for s in rec.spans] == ["work"]
    assert rec.spans[0][spans.OP] == "cell-0"
    assert not rec.counts


@pytest.mark.parametrize("n, expected", [
    (5, 50.0), (19, 50.0), (20, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (300, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_percentile_rule(n, expected):
    """Highest percentile with at least ten samples beyond it."""
    q = stats.tail_percentile(n)
    assert q == expected
    if q > 50.0:
        assert stats.samples_beyond(n, q) >= stats.MIN_BEYOND


def test_percentile_matches_linear_interpolation():
    data = [float(x) for x in range(1, 11)]
    assert stats.percentile(data, 50) == 5.5
    assert stats.percentile(data, 95) == pytest.approx(9.55)
    assert stats.percentile(data, 100) == 10.0


def test_metric_names_and_spec_shape():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(SPEC["workloads"]) == 5
    assert len(SPEC["end_to_end"]) == 15
    assert len(SPEC["per_layer"]) <= 128
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_compare_flags_a_regression_and_an_inexact_count():
    def result(cold, speedup, tasks):
        return {"stamp": {"seed": 0, "git_sha": None, "nproc": 2,
                          "blas": "", "python": "", "numpy": ""},
                "quick": False,
                "workloads": {w["name"]: {
                    "attempted": 10, "failed": 0,
                    "end_to_end": {"cold_solve_s": cold,
                                   "th_speedup_geomean": speedup},
                    "per_layer": {m["name"]: (tasks if m["name"]
                                              == "core.dag_tasks" else 0.0)
                                  for m in SPEC["per_layer"]},
                } for w in SPEC["workloads"]}}

    base = result(1.00, 4.0, 100)
    assert compare.compare(base, result(1.05, 4.0, 100), SPEC)[1] == 0
    assert compare.compare(base, result(0.50, 4.0, 100), SPEC)[1] == 0
    n = len(SPEC["workloads"])
    assert compare.compare(base, result(1.20, 4.0, 100), SPEC)[1] == n
    assert compare.compare(base, result(1.00, 4.0001, 100), SPEC)[1] == n
    assert compare.compare(base, result(1.00, 4.0, 101), SPEC)[1] == n


def test_compare_merges_a_set_of_runs_by_median(tmp_path):
    paths = []
    for seed, value in enumerate([1.0, 9.0, 2.0]):
        path = tmp_path / f"run{seed}.json"
        path.write_text(json.dumps({
            "stamp": {"seed": seed}, "quick": False,
            "workloads": {"cold_direct": {
                "attempted": 5, "failed": 0,
                "end_to_end": {"cold_solve_s": value}, "per_layer": None}}}))
        paths.append(str(path))
    side = compare.merge(paths)
    cold = side["workloads"]["cold_direct"]
    assert cold["end_to_end"] == {"cold_solve_s": 2.0}  # one outlier ignored
    assert (cold["attempted"], cold["failed"]) == (15, 0)
    assert side["stamp"]["seed"] == [0, 1, 2]
    assert "per_layer" not in cold


def test_quick_run_emits_every_metric_and_nothing_else(tmp_path):
    """``run.py --quick --traced``: the union over the five workloads of
    what is emitted equals what BENCHMARK.json declares."""
    out = tmp_path / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--traced",
         "--out", str(out)], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(out.read_text())
    e2e, layers = set(), set()
    for name, w in result["workloads"].items():
        assert w["failed"] == 0 and w["attempted"] > 0, name
        e2e |= set(w["end_to_end"])
        layers |= set(w["per_layer"])
        for key in ("git_sha", "nproc", "blas", "blas_threads", "python",
                    "numpy", "seed", "schema"):
            assert key in w["stamp"], key
        assert set(w["samples"]) == set(w["end_to_end"])
    assert e2e == {m["name"] for m in SPEC["end_to_end"]}
    assert layers == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["end_to_end"]:  # printed by name, with its unit
        assert re.search(rf"^{re.escape(m['name'])}\s+\S+\s+"
                         rf"{re.escape(m['unit'])}\b", proc.stdout, re.M), m
