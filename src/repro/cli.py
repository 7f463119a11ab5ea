"""Command-line interface: factor, solve and simulate from the shell.

Examples::

    python -m repro info
    python -m repro factor --matrix cage12 --solver pangulu --scheduler trojan
    python -m repro factor --mtx system.mtx --solver superlu --gpu a100 --solve
    python -m repro sptrsv --matrix cage12 --nrhs 8 --solve-scheduler trojan
    python -m repro scaleout --matrix cage13 --cluster h100 --policy trojan
    python -m repro distsim --matrix c-71 --gpus 4 \\
        --faults tests/faults/chaos.json --seed 42 --verify
    python -m repro compare --matrix c-71 --solver superlu
    python -m repro sweep --count 24 --workers 4
    python -m repro serve --port 7070 --max-inflight 4
    python -m repro client --port 7070 --matrix c-71 --steps 10
    python -m repro verify
    python -m repro verify --case tests/golden/adversarial/reversed_dep.json
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.analysis import format_table
from repro.cluster import DistributedSimulator, H100_CLUSTER, MI50_CLUSTER
from repro.core import SOLVE_SCHEDULER_NAMES, compare_solve_schedulers
from repro.core.baselines import SCHEDULER_NAMES
from repro.core.executor import ReplayBackend
from repro.gpusim import GPU_PRESETS
from repro.io import read_matrix_market
from repro.matrices import PAPER_MATRICES, paper_matrix, suite_kinds
from repro.ordering import ORDERING_METHODS
from repro.solvers import SOLVER_REGISTRY, resimulate
from repro.sparse import CSRMatrix, matvec
from repro.sweep import (
    cache_stats_table,
    default_workers,
    fig10_items,
    fig10_table,
    run_sweep,
)

CLUSTERS = {"h100": H100_CLUSTER, "mi50": MI50_CLUSTER}

SOLVERS = SOLVER_REGISTRY


def _load_matrix(args):
    if args.mtx:
        return read_matrix_market(args.mtx)
    if args.matrix:
        return paper_matrix(args.matrix, scale=args.scale)
    raise SystemExit("provide --matrix <paper-name> or --mtx <file>")


def _make_solver(args, a):
    cls = SOLVERS[args.solver]
    kwargs = {"ordering": args.ordering, "gpu": GPU_PRESETS[args.gpu]}
    if args.solver != "pastix":  # dmdas is PaStiX's native policy
        kwargs["scheduler"] = args.scheduler
    return cls(a, **kwargs)


def cmd_info(args) -> int:
    """List the available matrices, devices and policies."""
    print(format_table(
        ["paper matrix", "group", "analogue kind"],
        [[n, i.group, i.kind] for n, i in sorted(PAPER_MATRICES.items())],
        title="matrices (also: --mtx <MatrixMarket file>)"))
    print()
    print(format_table(
        ["gpu key", "name", "SMs", "FP64 GFLOPS", "BW GB/s", "mem GB"],
        [[k, g.name, g.sm_count, g.fp64_gflops, g.mem_bw_gbs, g.memory_gb]
         for k, g in GPU_PRESETS.items()],
        title="GPU models"))
    print()
    print(f"solvers:    {', '.join(sorted(SOLVERS))}")
    print(f"schedulers: {', '.join(SCHEDULER_NAMES)} (+ dmdas for pastix)")
    print(f"orderings:  {', '.join(ORDERING_METHODS)}")
    print(f"clusters:   {', '.join(CLUSTERS)}")
    print(f"suite:      200-matrix collection over {len(suite_kinds())} kinds")
    return 0


def cmd_factor(args) -> int:
    """Factorise one matrix and report the schedule."""
    a = _load_matrix(args)
    solver = _make_solver(args, a)
    result = solver.factorize()
    s = result.schedule
    print(format_table(
        ["n", "nnz(A)", "nnz(L+U)", "tasks", "kernels", "tasks/kernel",
         "sim time (ms)", "GFLOPS"],
        [[a.nrows, a.nnz,
          getattr(result, "fill_nnz", result.L.nnz),
          s.task_count, s.kernel_count, round(s.mean_batch_size, 1),
          s.total_time * 1e3, round(s.gflops, 2)]],
        title=f"{args.solver} / {s.scheduler} on {s.device}"))
    if args.solve:
        rng = np.random.default_rng(0)
        x_true = rng.standard_normal(a.nrows)
        b = matvec(a, x_true)
        x = result.solve(b)
        err = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
        print(f"solve check: relative error {err:.2e}")
    return 0


def cmd_sptrsv(args) -> int:
    """Solve-phase report: batched SpTRSV vs the per-column oracle.

    Factorises the matrix, solves a random multi-RHS system through the
    batched solve DAG, bit-compares against the tiled per-column oracle,
    and prints the trojan-vs-level-set scheduler comparison for both the
    L-solve and U-solve DAGs under the GPU cost model.
    """
    a = _load_matrix(args)
    solver = SOLVERS[args.solver](a, ordering=args.ordering,
                                  gpu=GPU_PRESETS[args.gpu])
    result = solver.factorize()
    rng = np.random.default_rng(0)
    x_true = rng.standard_normal((a.nrows, args.nrhs))
    b = np.column_stack([matvec(a, x_true[:, c])
                         for c in range(args.nrhs)])
    x = result.solve(b, batch_solve=True,
                     solve_scheduler=args.solve_scheduler)
    oracle = result.solve_per_column_oracle(b)
    err = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
    print(format_table(
        ["n", "nrhs", "scheduler", "oracle bitwise", "relative error"],
        [[a.nrows, args.nrhs, args.solve_scheduler,
          "yes" if np.array_equal(x, oracle) else "NO",
          f"{err:.2e}"]],
        title=f"{args.solver} batched SpTRSV on {args.gpu}"))
    lctx, uctx = result.solve_contexts()
    for phase, ctx in (("L-solve", lctx), ("U-solve", uctx)):
        info = compare_solve_schedulers(ctx.dag_for(args.nrhs),
                                        GPU_PRESETS[args.gpu])
        rows = [[name, s["kernels"], round(s["mean_batch"], 1),
                 round(s["makespan_ms"], 3)]
                for name, s in info["schedulers"].items()]
        print()
        print(format_table(
            ["scheduler", "kernels", "tasks/kernel", "time (ms)"],
            rows,
            title=f"{phase}: {info['tasks']} tasks, depth "
                  f"{info['depth']}"))
    return 0


def cmd_parallel(args) -> int:
    """Multiprocess factor + solve, bit-checked against the in-process
    engine.

    Runs the coordinator/worker engine over shared-memory tile pools,
    then replays the identical configuration on the single-process
    engine and bit-compares L, U and the solve vectors.  Exit status 1
    on any mismatch — this is the CI gate's workhorse.
    """
    from repro.parallel import ParallelExecutor

    a = _load_matrix(args)
    kwargs = {"ordering": args.ordering, "gpu": GPU_PRESETS[args.gpu]}
    if args.solver == "superlu":
        # the fusion rewrite bypasses batched groups; keep both sides on
        # the same unfused DAG (ParallelExecutor defaults this off too)
        kwargs["merge_schur"] = False
    rng = np.random.default_rng(0)
    b = rng.standard_normal((a.nrows, args.nrhs)) if args.nrhs > 1 \
        else rng.standard_normal(a.nrows)
    t0 = time.perf_counter()
    with ParallelExecutor(a, solver=args.solver, workers=args.workers,
                          scheduler=args.scheduler,
                          solve_scheduler=args.solve_scheduler,
                          log_dir=args.log_dir, pin_blas=args.pin_blas,
                          **kwargs) as ex:
        res = ex.factorize()
        x = ex.solve(b)
        solve_messages = ex.solve_messages
    wall = time.perf_counter() - t0
    ref = SOLVERS[args.solver](a, scheduler=args.scheduler,
                               **kwargs).factorize()
    xr = ref.solve(b, batch_solve=True,
                   solve_scheduler=args.solve_scheduler)
    lu_ok = (np.array_equal(res.L.data, ref.L.data)
             and np.array_equal(res.U.data, ref.U.data))
    stats_ok = res.stats == ref.stats
    x_ok = np.array_equal(x, xr)
    print(format_table(
        ["workers", "grid", "tasks", "batches", "msgs", "solve msgs",
         "comm MB", "L/U bitwise", "stats", "x bitwise", "wall (s)"],
        [[res.workers, f"{res.grid.pr}x{res.grid.pc}",
          res.batch_plan.n_tasks, len(res.batch_plan.batches),
          res.messages, solve_messages,
          round(res.comm_bytes / 1e6, 3),
          "yes" if lu_ok else "NO",
          "yes" if stats_ok else "NO",
          "yes" if x_ok else "NO",
          round(wall, 3)]],
        title=f"{args.solver} / {args.scheduler} multiprocess vs "
              "in-process"))
    phases = res.phase_seconds
    print("phases: " + "  ".join(f"{k}={v * 1e3:.1f}ms"
                                 for k, v in sorted(phases.items())))
    return 0 if (lu_ok and stats_ok and x_ok) else 1


def cmd_compare(args) -> int:
    """Compare all schedulers for one matrix on one GPU."""
    a = _load_matrix(args)
    cls = SOLVERS[args.solver]
    if args.solver not in ("pangulu", "superlu"):
        raise SystemExit("compare supports pangulu and superlu")
    gpu = GPU_PRESETS[args.gpu]
    run = cls(a, ordering=args.ordering, scheduler="serial",
              gpu=gpu).factorize()
    rows = []
    for sched in SCHEDULER_NAMES:
        r = resimulate(run, sched, gpu,
                       merge_schur=args.solver == "superlu"
                       and sched == "trojan")
        rows.append([sched, r.kernel_count, round(r.mean_batch_size, 1),
                     r.total_time * 1e3, round(r.gflops, 2)])
    print(format_table(
        ["scheduler", "kernels", "tasks/kernel", "time (ms)", "GFLOPS"],
        rows, title=f"{args.solver} on {gpu.name}: scheduler comparison"))
    return 0


def cmd_scaleout(args) -> int:
    """Strong-scaling simulation on a cluster."""
    a = _load_matrix(args)
    if args.solver not in ("pangulu", "superlu"):
        raise SystemExit("scaleout supports pangulu and superlu")
    cls = SOLVERS[args.solver]
    run = cls(a, ordering=args.ordering, scheduler="serial").factorize()
    backend = ReplayBackend(run.stats)
    cluster = CLUSTERS[args.cluster]
    rows = []
    for g in (1, 2, 4, 8, 16):
        if g > args.gpus:
            break
        res = DistributedSimulator(run.dag, backend, cluster, g,
                                   args.policy).run()
        rows.append([g, res.makespan * 1e3, round(res.gflops, 2),
                     res.total_kernels, res.messages,
                     round(res.load_balance, 3)])
    print(format_table(
        ["GPUs", "time (ms)", "GFLOPS", "kernels", "messages", "balance"],
        rows,
        title=f"{args.solver}/{args.policy} on {cluster.name}"))
    return 0


def cmd_distsim(args) -> int:
    """One distributed simulation, optionally with fault injection.

    Records a communication trace whenever it is needed (``--verify``,
    ``--trace-out`` or ``--out``) and prints its digest — the CI chaos
    gate compares digests across repeated same-seed runs to prove the
    fault injection is deterministic.  With ``--verify`` the trace is
    also run through the TraceVerifier; violations exit 1.
    """
    import json

    from repro.cluster import FaultSpec, banded_block_dag
    from repro.core.executor import EstimateBackend
    from repro.verify.trace import verify_trace

    if args.gpus < 1:
        raise SystemExit(f"--gpus must be >= 1, got {args.gpus}")
    if args.seed is not None and not args.faults:
        raise SystemExit("--seed reseeds the fault spec; it needs --faults")
    if args.synthetic:
        try:
            nb, bw = (int(x) for x in args.synthetic.lower().split("x"))
            if nb < 1 or bw < 0:
                raise ValueError(args.synthetic)
        except ValueError:
            raise SystemExit("--synthetic wants NBxBW with NB >= 1 and "
                             "BW >= 0, e.g. 128x8")
        dag, backend = banded_block_dag(nb, bw), EstimateBackend()
        workload = f"banded {nb}x{bw}"
    else:
        a = _load_matrix(args)
        if args.solver not in ("pangulu", "superlu"):
            raise SystemExit("distsim supports pangulu and superlu")
        run = SOLVERS[args.solver](a, ordering=args.ordering,
                                   scheduler="serial").factorize()
        dag, backend = run.dag, ReplayBackend(run.stats)
        workload = args.solver
    spec = None
    if args.faults:
        try:
            spec = FaultSpec.from_json(args.faults)
        except OSError as exc:
            raise SystemExit(f"--faults: cannot read {args.faults}: "
                             f"{exc.strerror}")
        if args.seed is not None:
            spec = spec.with_seed(args.seed)
    want_trace = bool(args.verify or args.trace_out or args.out)
    res = DistributedSimulator(
        dag, backend, CLUSTERS[args.cluster],
        args.gpus, args.policy, record_trace=want_trace,
        faults=spec, certify=args.certify).run()
    summary = res.summary()
    rows = []
    for k, v in summary.items():
        if isinstance(v, dict):  # the nested event-loop counters
            rows.extend([f"{k}.{kk}", vv] for kk, vv in v.items())
        else:
            rows.append([k, v])
    print(format_table(
        ["metric", "value"], rows,
        title=f"distsim: {workload}/{args.policy} on "
              f"{CLUSTERS[args.cluster].name}"))
    digest = res.trace.digest() if res.trace is not None else None
    if digest:
        print(f"trace digest: {digest}")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(res.trace.to_dict(), fh)
        print(f"trace written to {args.trace_out}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({
                "summary": summary,
                "trace_digest": digest,
                "faults": None if spec is None else spec.to_dict(),
            }, fh, indent=1)
        print(f"summary written to {args.out}")
    if args.verify:
        report = verify_trace(res.trace, subject="distsim-trace")
        print(report.describe())
        if report.violations:
            return 1
    return 0


def cmd_verify(args) -> int:
    """Static verification gate: linter, golden schedules, case files.

    With ``--plan`` the whole-plan analyzer certifies every golden
    configuration's distributed plan (owner-compute ranks on a
    ``--gpus``-wide grid) before any simulation — happens-before races,
    wait cycles, fault-protocol liveness and worst-case memory
    high-water marks — once fault-free plus once per ``--faults`` spec.

    Exit status: 0 when everything verifies clean, 1 when violations are
    found, 2 when an adversarial case misses one of its declared
    ``expect`` codes (a silently weakened analyzer) or cannot be read
    (one line on stderr naming the malformed field, no traceback).
    """
    import pathlib

    from repro.verify.lint import lint_paths

    if args.plan:
        from repro.cluster import FaultSpec, ProcessGrid
        from repro.verify.golden import golden_configs
        from repro.verify.plan import PlanSpec, verify_plan

        specs = [(None, None)]
        for path in args.faults or []:
            specs.append((path, FaultSpec.from_json(path)))
        grid = ProcessGrid(args.gpus)
        gpu = CLUSTERS[args.cluster].gpu
        total = 0
        for name, dag, _, _ in golden_configs():
            for label, spec in specs:
                subject = f"plan:{name}/{label or 'fault-free'}"
                report = verify_plan(
                    PlanSpec.from_dag(dag, grid, faults=spec, gpu=gpu),
                    subject=subject)
                print(report.describe())
                total += len(report.violations)
        return 1 if total else 0

    if args.case:
        from repro.verify.cases import run_case_file
        exit_code = 0
        for path in args.case:
            try:
                report, expected, missed = run_case_file(path)
            except (OSError, KeyError, ValueError) as exc:
                # a case that cannot be read catches nothing it declares
                print(f"{path}: unusable case: {exc}", file=sys.stderr)
                exit_code = 2
                continue
            print(report.describe())
            if report.violations:
                tally = report.counts_by_code()
                print("  codes: " + ", ".join(
                    f"{c}×{tally[c]}" for c in sorted(tally)))
            if missed:
                print(f"  MISSED expected codes: {', '.join(missed)}")
                exit_code = 2
            elif report.violations:
                exit_code = max(exit_code, 1)
        return exit_code

    total = 0
    if not args.no_lint:
        roots = args.lint_root or [
            str(pathlib.Path(__file__).resolve().parent)]
        report = lint_paths(roots, subject="lint:" + ",".join(roots))
        print(report.describe())
        total += len(report.violations)
    if not args.no_golden:
        from repro.verify.golden import DEFAULT_GOLDEN_PATH, \
            verify_golden_file
        golden = pathlib.Path(args.golden) if args.golden \
            else DEFAULT_GOLDEN_PATH
        if golden.exists():
            report = verify_golden_file(golden)
            print(report.describe())
            total += len(report.violations)
        elif args.golden:
            raise SystemExit(f"golden file not found: {golden}")
        else:
            print(f"goldens: skipped ({golden} not present)")
    return 1 if total else 0


def cmd_serve(args) -> int:
    """Run the factorisation-as-a-service solver server (Ctrl-C stops)."""
    import asyncio

    from repro.serve import SolverServer

    async def _run() -> None:
        server = SolverServer(
            host=args.host, port=args.port,
            max_inflight=args.max_inflight, max_queue=args.max_queue,
            batch_window=args.batch_window,
            micro_batch=not args.no_micro_batch,
            cache_capacity=args.cache_capacity,
            default_deadline_ms=args.deadline_ms,
            session_ttl=args.session_ttl,
            max_sessions=args.max_sessions)
        await server.start()
        print(f"repro solver server on {server.host}:{server.port} "
              f"(max_inflight={server.max_inflight}, "
              f"queue={server.max_queue}, "
              f"batch_window={server.batch_window * 1e3:.1f}ms)",
              flush=True)
        await server.serve_until_stopped()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("server stopped")
    return 0


def cmd_client(args) -> int:
    """Drive a demo workload against a running server and print stats.

    The seed scenario of the serve subsystem: one cold factorize, a
    Newton-style refactorise loop (same pattern, perturbed values, one
    solve per step), then a burst of pipelined multi-RHS solves that
    exercises the server's cross-request micro-batching.
    """
    import time as _time

    from repro.serve import SolverClient

    a = _load_matrix(args)
    rng = np.random.default_rng(args.seed)
    rows = np.repeat(np.arange(a.nrows, dtype=np.int64), a.row_lengths())
    off = rows != a.indices
    with SolverClient(args.host, args.port) as client:
        client.ping()
        t0 = _time.perf_counter()
        info = client.factorize(a, solver=args.solver,
                                ordering=args.ordering)
        cold = _time.perf_counter() - t0
        session = info["session"]
        print(f"cold factorize: n={info['n']} fill={info['fill_nnz']} "
              f"{cold * 1e3:.1f}ms (fast_path={info['fast_path']})")
        worst = 0.0
        refact = []
        for _ in range(args.steps):
            data = a.data.copy()
            data[off] *= 1.0 + 0.05 * rng.standard_normal(int(off.sum()))
            t0 = _time.perf_counter()
            client.refactorize(session, data=data)
            refact.append(_time.perf_counter() - t0)
            step = CSRMatrix(a.shape, a.indptr, a.indices, data)
            x_true = rng.standard_normal(a.nrows)
            b = matvec(step, x_true)
            x = client.solve(session, b, refine=args.refine)
            worst = max(worst, float(np.linalg.norm(x - x_true)
                                     / np.linalg.norm(x_true)))
        if refact:
            print(f"refactorise loop: {args.steps} steps, "
                  f"mean {np.mean(refact) * 1e3:.1f}ms "
                  f"({cold / np.mean(refact):.1f}x faster than cold), "
                  f"worst relative error {worst:.2e}")
        bs = [rng.standard_normal(a.nrows) for _ in range(args.burst)]
        t0 = _time.perf_counter()
        client.solve_many(session, bs, batch_solve=True)
        burst = _time.perf_counter() - t0
        print(f"solve burst: {args.burst} pipelined requests in "
              f"{burst * 1e3:.1f}ms "
              f"({args.burst / burst:.1f} req/s)")
        stats = client.stats()
        m = stats["metrics"]
        rows_out = [["requests", sum(m["requests"].values())],
                    ["rejections", sum(m["rejections"].values()) or 0],
                    ["queue peak", m["queue"]["peak"]],
                    ["batch launches", m["batching"]["launches"]],
                    ["mean batch requests",
                     round(m["batching"]["mean_requests"], 2)],
                    ["session-cache hit rate",
                     round(m["session_cache"]["hit_rate"], 3)],
                    ["analysis-cache hit rate",
                     round(stats["analysis_cache"]["hit_rate"], 3)]]
        solve_lat = m["latency"].get("solve", {}).get("total")
        if solve_lat:
            rows_out.append(["solve p50 (ms)",
                            round(solve_lat["p50_ms"], 2)])
            rows_out.append(["solve p99 (ms)",
                            round(solve_lat["p99_ms"], 2)])
        print(format_table(["metric", "value"], rows_out,
                           title="server stats"))
        if args.shutdown:
            client.shutdown()
            print("server shutdown requested")
    return 0


def cmd_sweep(args) -> int:
    """Run the Figure-10 collection sweep, optionally multiprocess."""
    if args.workers is not None and args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    items = fig10_items(count=args.count, base_size=args.base, gpu=args.gpu)
    outcome = run_sweep(items, workers=args.workers)
    print(fig10_table(outcome.rows, args.count))
    print()
    print(cache_stats_table(outcome))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Trojan Horse sparse-direct-solver reproduction",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--matrix", choices=sorted(PAPER_MATRICES),
                        help="paper-matrix analogue name")
        sp.add_argument("--mtx", help="MatrixMarket file to load instead")
        sp.add_argument("--scale", type=float, default=1.0,
                        help="analogue size multiplier")
        sp.add_argument("--solver", default="pangulu",
                        choices=sorted(SOLVERS))
        sp.add_argument("--ordering", default="mindeg",
                        choices=ORDERING_METHODS)
        sp.add_argument("--gpu", default="rtx5090",
                        choices=sorted(GPU_PRESETS))

    sub.add_parser("info", help="list matrices, devices, policies")

    f = sub.add_parser("factor", help="factorise and report the schedule")
    common(f)
    f.add_argument("--scheduler", default="trojan",
                   choices=SCHEDULER_NAMES + ("dmdas",))
    f.add_argument("--solve", action="store_true",
                   help="verify with a random right-hand side")

    t = sub.add_parser(
        "sptrsv", help="batched solve phase vs the per-column oracle")
    common(t)
    t.add_argument("--nrhs", type=int, default=4,
                   help="number of right-hand-side columns")
    t.add_argument("--solve-scheduler", default="trojan",
                   choices=SOLVE_SCHEDULER_NAMES)

    pl = sub.add_parser(
        "parallel",
        help="multiprocess factor+solve over shared-memory tile pools, "
             "bit-checked against the in-process engine")
    common(pl)
    pl.add_argument("--workers", type=int, default=2,
                    help="worker-process count (= owner-compute ranks)")
    pl.add_argument("--scheduler", default="trojan",
                    choices=SCHEDULER_NAMES)
    pl.add_argument("--solve-scheduler", default="trojan",
                    choices=SOLVE_SCHEDULER_NAMES)
    pl.add_argument("--nrhs", type=int, default=1,
                    help="right-hand-side columns for the solve check")
    pl.add_argument("--log-dir", default=None,
                    help="directory for per-worker log files")
    pl.add_argument("--pin-blas", type=int, default=None, metavar="T",
                    help="spawn workers with BLAS pinned to T threads")

    c = sub.add_parser("compare", help="compare all schedulers")
    common(c)

    s = sub.add_parser("scaleout", help="cluster strong-scaling simulation")
    common(s)
    s.add_argument("--cluster", default="h100", choices=sorted(CLUSTERS))
    s.add_argument("--policy", default="trojan",
                   choices=("serial", "streams", "trojan"))
    s.add_argument("--gpus", type=int, default=16)

    d = sub.add_parser(
        "distsim",
        help="one cluster simulation, optionally fault-injected")
    common(d)
    d.add_argument("--cluster", default="h100", choices=sorted(CLUSTERS))
    d.add_argument("--policy", default="trojan",
                   choices=("serial", "streams", "trojan", "dmdas"))
    d.add_argument("--gpus", type=int, default=4)
    d.add_argument("--faults", default=None,
                   help="fault-spec JSON file (see tests/faults/)")
    d.add_argument("--seed", type=int, default=None,
                   help="override the fault spec's RNG seed")
    d.add_argument("--trace-out", default=None,
                   help="write the recorded trace as JSON")
    d.add_argument("--out", default=None,
                   help="write summary + trace digest as JSON")
    d.add_argument("--verify", action="store_true",
                   help="run the TraceVerifier on the recorded trace "
                        "(violations exit 1)")
    d.add_argument("--certify", action="store_true",
                   help="statically certify the whole plan (races, wait "
                        "cycles, liveness, memory) before simulating")
    d.add_argument("--synthetic", default=None, metavar="NBxBW",
                   help="banded synthetic workload (e.g. 128x8) with "
                        "estimated costs — skips the matrix entirely, "
                        "for scale-out sweeps")

    srv = sub.add_parser(
        "serve", help="run the long-lived solver server")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7070,
                     help="TCP port (0 picks a free one)")
    srv.add_argument("--max-inflight", type=int, default=4,
                     help="concurrently executing numeric requests")
    srv.add_argument("--max-queue", type=int, default=64,
                     help="admission-queue bound (beyond: OVERLOADED)")
    srv.add_argument("--batch-window", type=float, default=0.002,
                     help="seconds a solve waits for micro-batch company")
    srv.add_argument("--no-micro-batch", action="store_true",
                     help="disable cross-request solve folding")
    srv.add_argument("--cache-capacity", type=int, default=32,
                     help="pattern-keyed analysis-cache entries")
    srv.add_argument("--deadline-ms", type=float, default=None,
                     help="default per-request deadline while queued")
    srv.add_argument("--session-ttl", type=float, default=None,
                     help="seconds an idle warm session survives "
                          "(default: forever)")
    srv.add_argument("--max-sessions", type=int, default=None,
                     help="resident-session cap; beyond it the "
                          "least-recently-used idle session is evicted")

    cl = sub.add_parser(
        "client", help="drive a demo workload against a running server")
    common(cl)
    cl.add_argument("--host", default="127.0.0.1")
    cl.add_argument("--port", type=int, default=7070)
    cl.add_argument("--steps", type=int, default=10,
                    help="Newton-style refactorise+solve steps")
    cl.add_argument("--burst", type=int, default=16,
                    help="pipelined solves in the micro-batch burst")
    cl.add_argument("--refine", type=int, default=1,
                    help="refinement sweeps per loop solve")
    cl.add_argument("--seed", type=int, default=0)
    cl.add_argument("--shutdown", action="store_true",
                    help="ask the server to exit afterwards")

    w = sub.add_parser(
        "sweep", help="Figure-10 collection sweep over a worker pool")
    w.add_argument("--count", type=int, default=200,
                   help="number of collection matrices (paper: 200)")
    w.add_argument("--base", type=int, default=220,
                   help="nominal matrix size the collection varies around")
    w.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: $REPRO_SWEEP_WORKERS "
                        f"or {default_workers()})")
    w.add_argument("--gpu", default="a100", choices=sorted(GPU_PRESETS))

    v = sub.add_parser(
        "verify",
        help="static verification: repo linter, golden schedules, cases")
    v.add_argument("--lint-root", action="append", default=None,
                   help="file/directory to lint (repeatable; default: the "
                        "installed repro package)")
    v.add_argument("--no-lint", action="store_true",
                   help="skip the AST linter")
    v.add_argument("--golden", default=None,
                   help="golden schedule file to statically verify "
                        "(default: tests/golden/trojan_batches.json when "
                        "present)")
    v.add_argument("--no-golden", action="store_true",
                   help="skip golden schedule verification")
    v.add_argument("--case", action="append", default=None,
                   help="adversarial case JSON to run (repeatable; runs "
                        "only the cases)")
    v.add_argument("--plan", action="store_true",
                   help="statically certify every golden configuration's "
                        "distributed plan (races, wait cycles, liveness, "
                        "memory high-water marks) before simulation")
    v.add_argument("--faults", action="append", default=None,
                   help="fault-spec JSON the plan certification composes "
                        "with (repeatable; used with --plan)")
    v.add_argument("--gpus", type=int, default=8,
                   help="process-grid width for --plan certification")
    v.add_argument("--cluster", default="h100", choices=sorted(CLUSTERS),
                   help="cluster preset supplying the per-rank memory "
                        "budget for --plan")
    return p


def main(argv=None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "factor": cmd_factor,
        "sptrsv": cmd_sptrsv,
        "parallel": cmd_parallel,
        "compare": cmd_compare,
        "scaleout": cmd_scaleout,
        "distsim": cmd_distsim,
        "serve": cmd_serve,
        "client": cmd_client,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
