"""``python -m repro verify``: exit codes and case handling."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent
ADVERSARIAL = REPO / "tests" / "golden" / "adversarial"
CASES = sorted(ADVERSARIAL.glob("*.json"))


def test_adversarial_cases_exist():
    names = {p.name for p in CASES}
    assert names == {"reversed_dep.json", "dropped_task.json",
                     "write_conflict.json", "over_budget.json",
                     "unmatched_send.json", "dead_rank_send.json",
                     "solve_update_before_diag.json",
                     "solve_rhs_write_conflict.json",
                     "merged_batches.json"}


@pytest.mark.parametrize("case", CASES, ids=lambda p: p.stem)
def test_adversarial_case_exits_nonzero(case, capsys):
    code = main(["verify", "--case", str(case)])
    out = capsys.readouterr().out
    assert code == 1, out
    expected = json.loads(case.read_text(encoding="utf-8"))["expect"]
    for want in expected:
        assert want in out


def test_case_expectations_all_met():
    from repro.verify.cases import run_case_file

    for case in CASES:
        report, expected, missed = run_case_file(case)
        assert expected, case.name
        assert not missed, \
            f"{case.name} missed expected codes {missed}: " \
            f"{report.describe()}"


def test_trace_case_fast_and_standalone(capsys):
    # the trace case needs no scheduler run: cheap enough to assert the
    # printed report precisely
    code = main(["verify", "--case",
                 str(ADVERSARIAL / "unmatched_send.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "TRACE_UNMATCHED_SEND" in out
    assert "never received" in out


def test_lint_only_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "fine.py").write_text("x = 1\n", encoding="utf-8")
    code = main(["verify", "--no-golden", "--lint-root", str(tmp_path)])
    assert code == 0
    assert "ok" in capsys.readouterr().out


def test_lint_violation_exits_one(tmp_path, capsys):
    bad = tmp_path / "sparse"
    bad.mkdir()
    (bad / "loopy.py").write_text(
        "def f(m):\n    for c in m.indices:\n        pass\n",
        encoding="utf-8")
    code = main(["verify", "--no-golden", "--lint-root", str(tmp_path)])
    assert code == 1
    assert "LINT_NNZ_LOOP" in capsys.readouterr().out


def test_missing_golden_file_is_an_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["verify", "--no-lint",
              "--golden", str(tmp_path / "nope.json")])


def test_weakened_check_exit_two(tmp_path, capsys):
    # a case whose expected code can never fire (valid trace) must exit
    # 2 — the "analyzer silently weakened" signal for CI
    case = {
        "kind": "trace",
        "expect": ["TRACE_UNMATCHED_SEND"],
        "trace": {
            "nprocs": 1,
            "tasks": [{"tid": 0, "rank": 0,
                       "t_start": 0.0, "t_done": 1.0}],
            "edges": [],
            "sends": [],
        },
    }
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(case), encoding="utf-8")
    code = main(["verify", "--case", str(path)])
    assert code == 2
    assert "MISSED" in capsys.readouterr().out
