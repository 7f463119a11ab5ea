#!/usr/bin/env python3
"""The repo's end-to-end benchmark (see README.md beside this file).

Two ways in, one measurement:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` — one run of
  one workload, as the benchmark driver calls it; the last line printed
  is the result object of the benchmark contract.
* ``run.py [--seed N] [--traced] [--quick] [--out F] [--spans-dir D]`` —
  all five workloads, each in its own process; prints every end-to-end
  metric by name with unit, operations attempted/failed, and
  (``--traced``) the per-layer table, and writes one JSON result.

Every workload runs in a fresh subprocess with every ``REPRO_*``
variable removed and the BLAS thread knobs pinned to 1 before numpy is
imported.  Exits non-zero on any failed operation or correctness check.
Standard library only (``stats`` is the harness's own stdlib-only
module): numpy and ``repro`` are the child's business.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

from stats import format_table

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
#: a workload process that runs longer than this is killed
CHILD_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{path}" if path else str(SRC)
    return env


def run_child(workload: str, extra: list[str]) -> tuple[int, list[str]]:
    """Run one workload process to completion; returns its exit code and
    stdout lines.  The child leads its own process group, so a hang or
    an interrupt takes its worker pool down with it."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           *extra]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out.splitlines()


def parse_child(lines: list[str]) -> tuple[dict, dict]:
    """The child's detail and result objects (its last two lines)."""
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def one_run(args) -> int:
    extra = ["--seed", str(args.seed), "--trace", str(args.trace)]
    if args.seconds is not None:
        extra += ["--seconds", str(args.seconds)]
    code, lines = run_child(args.workload, extra)
    if code not in (0, 1) or len(lines) < 2:
        return code or 1  # crashed before it could report: no result line
    print("\n".join(lines))
    return code


def suite(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    extra = ["--seed", str(args.seed), "--trace", str(int(args.traced)),
             "--probes", str(int(not args.quick))]
    if args.quick:
        extra.append("--quick")
    results, failed = {}, False
    for w in (x["name"] for x in spec["workloads"]):
        spans = []
        if args.spans_dir:
            os.makedirs(args.spans_dir, exist_ok=True)
            spans = ["--spans-out", os.path.abspath(
                os.path.join(args.spans_dir, f"{w}.spans.json"))]
        code, lines = run_child(w, extra + spans)
        if code not in (0, 1) or len(lines) < 2:
            print(f"{w}: workload process failed (exit {code})")
            return code or 1
        detail, result = parse_child(lines)
        results[w] = detail
        failed |= code != 0 or not result["correct"]
        print(f"\n== {w}: {detail['attempted']} operations attempted, "
              f"{detail['failed']} failed ==")
        for msg in detail["failures"]:
            print(f"   FAILED {msg}")
        rows = [("metric", "value", "unit", "n", "")]
        for name, value in detail["end_to_end"].items():
            where = "" if name in detail["native"] + [
                "setup_s", "peak_rss_mb"] else "(probe lap)"
            rows.append((name, f"{value:.6g}", e2e[name]["unit"],
                         detail["samples"][name], where))
        print(format_table(rows))
        if detail["per_layer"]:
            print(f"-- {w}: per-layer (traced run) --")
            print(format_table([("metric", "value", "unit")] + [
                (name, f"{value:.6g}", layers[name]["unit"])
                for name, value in detail["per_layer"].items() if value]))
    out = {"schema": 1, "stamp": next(iter(results.values()))["stamp"],
           "quick": args.quick, "traced": args.traced, "workloads": results}
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(out, indent=1),
                                          encoding="utf-8")
        print(f"\nwritten to {args.out}")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run this one workload (driver mode)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="timed seconds of the named workload "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true",
                    help="suite mode: also make the traced run")
    ap.add_argument("--quick", action="store_true",
                    help="suite mode: smoke sizes, never recorded")
    ap.add_argument("--out", help="suite mode: write the JSON result here")
    ap.add_argument("--spans-dir",
                    help="suite mode with --traced: dump raw spans here")
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure at {SRC}", file=sys.stderr)
        return 2
    return one_run(args) if args.workload else suite(args)


if __name__ == "__main__":
    sys.exit(main())
