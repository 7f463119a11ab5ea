#!/usr/bin/env python3
"""Compare two sets of result files of ``run.py --out``.

    python benchmarks/e2e/compare.py A.json B.json
    python benchmarks/e2e/compare.py A0.json A1.json A2.json \
        --against B0.json B1.json B2.json

A is the baseline (the parent commit, or the first of two sets of runs
of one commit), B the candidate.  Each side is one run or several; with
several, every metric is the median over the side's runs, which is what
keeps a single noisy run from deciding the verdict — give both sides the
same seeds.  For every (workload, end-to-end metric) the
relative worsening of B against A is held to the metric's ``bound`` in
``BENCHMARK.json``; ``th_speedup_geomean`` and every per-layer metric
counted in whole units (``count``, ``flop``, ``B``) must be *equal*,
because simulated statistics and operation counts repeat exactly for a
change that claims only host speed.  The failed-operation share of both
files is shown side by side.  Exits non-zero on any breach.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from stats import format_table, median

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: a bound this small asks for equality, not for a tolerance
EXACT_BOUND = 1e-6
EXACT_UNITS = ("count", "flop", "B")


def worsening(a: float, b: float, better: str) -> float:
    """Relative change of ``b`` against ``a`` in the direction that is
    worse for the metric (negative when ``b`` improved)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    delta = (b - a) / abs(a)
    return delta if better == "lower" else -delta


def merge(paths: list[str]) -> dict:
    """One side of the comparison: the runs' medians per metric, their
    operation counts summed, their seeds listed."""
    runs = [json.loads(pathlib.Path(p).read_text(encoding="utf-8"))
            for p in paths]
    first = runs[0]
    out = {"quick": any(r["quick"] for r in runs), "workloads": {},
           "stamp": {**first["stamp"],
                     "seed": sorted(r["stamp"]["seed"] for r in runs)}}
    for w in first["workloads"]:
        parts = [r["workloads"][w] for r in runs if w in r["workloads"]]
        merged = {"attempted": sum(p["attempted"] for p in parts),
                  "failed": sum(p["failed"] for p in parts)}
        for table in ("end_to_end", "per_layer"):
            if all(p.get(table) for p in parts):
                merged[table] = {
                    name: median([p[table][name] for p in parts])
                    for name in parts[0][table]
                    if all(name in p[table] for p in parts)}
        out["workloads"][w] = merged
    return out


def _same_inputs(a: dict, b: dict) -> bool:
    """Exact equality is only owed by runs of the same seed and sizes."""
    return (a["stamp"]["seed"] == b["stamp"]["seed"]
            and a["quick"] == b["quick"])


def compare(a: dict, b: dict, spec: dict) -> tuple[list[tuple], int]:
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    same_inputs = _same_inputs(a, b)
    rows, breaches = [], 0
    for w in (x["name"] for x in spec["workloads"]):
        wa, wb = a["workloads"].get(w), b["workloads"].get(w)
        if wa is None or wb is None:
            rows.append((w, "(workload)", "", "", "", "", "MISSING"))
            breaches += 1
            continue
        share = [f"{d['failed']}/{d['attempted']}" for d in (wa, wb)]
        bad = wa["failed"] or wb["failed"]
        breaches += bool(bad)
        rows.append((w, "operations failed", *share, "", "0",
                     "FAILED" if bad else "ok"))
        for name, m in e2e.items():
            if name not in wa["end_to_end"] or name not in wb["end_to_end"]:
                continue
            va, vb = wa["end_to_end"][name], wb["end_to_end"][name]
            worse = worsening(va, vb, m["better"])
            if m["bound"] <= EXACT_BOUND:
                ok = va == vb or not same_inputs
                limit = "exact"
            else:
                ok = worse <= m["bound"]
                limit = f"{m['bound']:.0%}"
            breaches += not ok
            rows.append((w, name, f"{va:.6g}", f"{vb:.6g}",
                         f"{worse:+.2%}", limit, "ok" if ok else "BREACH"))
        if same_inputs and wa.get("per_layer") and wb.get("per_layer"):
            for name, m in layers.items():
                if m["unit"] not in EXACT_UNITS:
                    continue
                va, vb = wa["per_layer"][name], wb["per_layer"][name]
                if va != vb:
                    breaches += 1
                    rows.append((w, name, f"{va:.6g}", f"{vb:.6g}", "",
                                 "exact", "BREACH"))
    return rows, breaches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="+", help="A's result files (or A B)")
    ap.add_argument("--against", nargs="+", help="B's result files")
    args = ap.parse_args(argv)
    if args.against:
        a, b = merge(args.files), merge(args.against)
    elif len(args.files) == 2:
        a, b = merge(args.files[:1]), merge(args.files[1:])
    else:
        ap.error("give two files, or A's files --against B's files")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, breaches = compare(a, b, spec)
    rows.insert(0, ("workload", "metric", "A", "B", "worse by", "bound",
                    "verdict"))
    print(format_table(rows))
    for side, d in (("A", a), ("B", b)):
        s = d["stamp"]
        print(f"{side}: commit {s['git_sha']} seeds {s['seed']} "
              f"nproc {s['nproc']} {s['blas']} python {s['python']} "
              f"numpy {s['numpy']}")
    if not _same_inputs(a, b):
        print("different seeds or sizes: exact-equality checks skipped")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
