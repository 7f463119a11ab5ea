"""Check (default) or rewrite the cluster-simulator trace goldens.

Run from the repo root::

    PYTHONPATH=src python tests/golden/generate_distsim.py            # --check
    PYTHONPATH=src python tests/golden/generate_distsim.py --rewrite

``tests/golden/distsim_traces.json`` freezes what the per-message heap
event loops (``DistributedSimulator._run_legacy`` / ``_run_faulty``)
produced at the commit named in the file's header, the last one that
carried them: per cell the public :meth:`DistTrace.digest`, the
``summary()`` without its engine-specific ``events`` block (fault
counters included) and the number of simulated events processed.  The
arena engine reproduced every entry at that same commit and is pinned to
them since, by ``tests/test_distsim_engines.py`` (the 28 tier-1 cells),
``benchmarks/test_distsim_scale.py`` (the 256/1024-rank cells) and CI's
``distsim-scale`` job (the 512-rank chaos cell plus a full ``--check``).

The default mode never writes: it recomputes every cell and exits
non-zero on drift.  ``--rewrite`` is for a *deliberate* behaviour change
of the simulator; it keeps the header (the frozen provenance) verbatim,
refuses to run without it, and lists the cells that no longer descend
from that event loop under ``rewritten_cells``.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys

from repro.cluster import (
    DistributedSimulator,
    FaultSpec,
    H100_CLUSTER,
    banded_block_dag,
)
from repro.core.executor import EstimateBackend, ReplayBackend
from repro.matrices import paper_matrix
from repro.solvers import PanguLUSolver

GOLDEN_DIR = pathlib.Path(__file__).parent
GOLDEN_PATH = GOLDEN_DIR / "distsim_traces.json"
FAULT_DIR = GOLDEN_DIR.parent / "faults"
FIXTURES = sorted(p.stem for p in FAULT_DIR.glob("*.json"))
POLICIES = ("serial", "dmdas", "streams", "trojan")


@functools.lru_cache(maxsize=None)
def workload(name: str):
    """``(dag, backend)`` of a named golden workload.

    ``c71`` is the factorised c-71 analogue replayed from its recorded
    stats; ``banded<NB>x<BW>`` the synthetic scale-out DAG with estimated
    costs.
    """
    if name == "c71":
        run = PanguLUSolver(paper_matrix("c-71", scale=0.6), block_size=32,
                            scheduler="serial").factorize()
        return run.dag, ReplayBackend(run.stats)
    nb, bw = (int(x) for x in name.removeprefix("banded").split("x"))
    return banded_block_dag(nb, bw), EstimateBackend()


def cell_key(name: str, nprocs: int, policy: str,
             fault: str | None = None, seed: int | None = None) -> str:
    """Golden key ``workload/ranks/policy/fault[@seed]``."""
    tail = "none" if fault is None else fault
    if seed is not None:
        tail += f"@{seed}"
    return f"{name}/{nprocs}/{policy}/{tail}"


def all_cells() -> list[tuple]:
    """Every golden cell as ``(workload, nprocs, policy, fault, seed)``."""
    cells = [("c71", 8, p, f, None)
             for p in POLICIES for f in (None, *FIXTURES)]
    cells += [("banded24x4", 16, p, None, None) for p in POLICIES]
    cells += [(w, r, p, None, None)
              for w, r in (("banded64x8", 256), ("banded128x8", 1024))
              for p in ("trojan", "serial")]
    cells.append(("banded96x8", 512, "trojan", "chaos", 42))
    return cells


def fault_spec(fault: str | None, seed: int | None = None):
    """The :class:`FaultSpec` of a fixture name (``None`` = fault-free)."""
    if fault is None:
        return None
    spec = FaultSpec.from_json(FAULT_DIR / f"{fault}.json")
    return spec if seed is None else spec.with_seed(seed)


def simulate(name: str, nprocs: int, policy: str,
             fault: str | None = None, seed: int | None = None):
    """Run one golden cell with a recorded trace."""
    dag, backend = workload(name)
    return DistributedSimulator(
        dag, backend, H100_CLUSTER, nprocs, policy, record_trace=True,
        faults=fault_spec(fault, seed)).run()


def record(res) -> dict:
    """The golden entry of one result, as it reads back from JSON."""
    summary = res.summary()
    summary.pop("events")  # cohort shapes and wall clock: not behaviour
    return json.loads(json.dumps({
        "digest": res.trace.digest(),
        "summary": summary,
        "events": res.events.events,
    }))


def compute(cells=None) -> dict:
    """Golden entries of ``cells`` (default: all), keyed by cell key."""
    return {cell_key(*c): record(simulate(*c))
            for c in (all_cells() if cells is None else cells)}


def drift(golden: dict, cells=None) -> list[str]:
    """Messages for every cell whose recomputed entry differs."""
    out = []
    want = golden["cells"]
    for key, got in compute(cells).items():
        if key not in want:
            out.append(f"{key}: not in the golden file")
        elif got != want[key]:
            fields = [f for f in got if got[f] != want[key].get(f)]
            out.append(f"{key}: differs in {', '.join(fields)}")
    if cells is None:
        known = {cell_key(*c) for c in all_cells()}
        out += [f"{key}: golden entry without a cell"
                for key in want if key not in known]
    return out


def load(path=GOLDEN_PATH) -> dict:
    """The golden file; ``SystemExit`` when its provenance is missing."""
    try:
        golden = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SystemExit(f"{path}: no golden file (its provenance cannot "
                         "be regenerated; restore it from git)")
    header = golden.get("header", {})
    if header.get("event_loop") != "legacy" or not header.get("parent_sha"):
        raise SystemExit(f"{path}: header lacks the frozen provenance "
                         "(event_loop: legacy, parent_sha); refusing to "
                         "go on")
    return golden


def main(argv=None, path=GOLDEN_PATH) -> int:
    """CLI entry point; returns the exit status."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="recompute and compare, never write (default)")
    mode.add_argument("--rewrite", action="store_true",
                      help="overwrite the cell entries, keeping the header")
    args = ap.parse_args(argv)
    golden = load(path)
    if not args.rewrite:
        problems = drift(golden)
        for line in problems:
            print(f"DRIFT {line}")
        print(f"{len(golden['cells'])} golden cells, "
              f"{len(problems)} drifted")
        return 1 if problems else 0
    cells = compute()
    changed = sorted(k for k in cells.keys() | golden["cells"].keys()
                     if cells.get(k) != golden["cells"].get(k))
    if changed:
        # cells that no longer descend from the header's event loop
        golden["rewritten_cells"] = sorted(
            {*golden.get("rewritten_cells", ()), *changed})
        golden["cells"] = cells
        pathlib.Path(path).write_text(json.dumps(golden, indent=1),
                                      encoding="utf-8")
    print(f"{len(changed)} cells rewritten in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
