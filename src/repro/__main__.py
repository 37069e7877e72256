"""Command-line front end: ``python -m repro <command>``.

Commands
--------
tables            print Tables I and II
quick             run one scenario and print its summary
fig5              regenerate Fig. 5 (bounds vs simulation)
sweep             run the Figs. 6-11 sweep and print every series
validate          run a validation tier; exit nonzero on failed claims
chaos             run a fault-injection soak tier; emit a degradation
                  report (structural invariants gate every mix, QoS
                  budgets gate the no-injection baseline mix)
trace             run one scenario with tracing + profiling on; write
                  the JSONL event trace and metrics snapshots, print a
                  CFP/CP timeline and the run's cProfile table
bench             run the pinned-seed perf microbenchmarks and gate
                  them against the committed BENCH_KERNEL.json baseline
                  (``--update`` rewrites the baseline deliberately)
ess               run a multi-BSS Extended Service Set: a microcell
                  grid with roaming stations, AP-to-AP handoffs over
                  node-disjoint backhaul paths (with failover under
                  injected link and whole-AP faults), cross-BSS
                  conservation invariants, and a JSON report of
                  per-cell QoS, handoff-drop rate and backhaul
                  failover counts
redteam           run a seeded adversarial campaign over the fault /
                  load space, delta-debug champions down to minimal
                  reproducers (``--shrink``) and archive genuinely new
                  breaches as chaos-tier fixtures; the campaign JSON is
                  byte-identical for a fixed seed across worker counts
serve             serve capacity-planning queries over the cached sweep
                  surfaces: a stdlib HTTP JSON API (``/query``,
                  ``/healthz``, ``/metrics``, ``/surfaces``) with
                  deterministic interpolation, explicit extrapolation
                  refusal, and on-miss back-fill through the warm
                  sweep executor (202 + Retry-After)

Run with no command to see this help.

Exit codes: 0 success (for ``serve``: clean shutdown on SIGINT);
1 failed validation claims / chaos gates / perf-gate regressions /
ESS conservation violations / redteam execution failures / (serve) an
empty cache directory yielded no surfaces to serve; 2 a malformed flag
or a flag value a config rejects (argparse's ``error:`` line, before
anything is simulated), sweep points permanently failed after retries,
or (redteam) a genuinely new breach was found that is not yet in the
archived reproducer corpus.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .obs.jsonutil import write_json


def _cmd_tables(args: argparse.Namespace) -> int:
    from .experiments import render_table1, render_table2

    print(render_table1())
    print()
    print(render_table2())
    return 0


@contextlib.contextmanager
def _flag_values():
    """Commands build their configs in this block before they simulate
    anything: a ``ValueError`` raised here is a bad flag value, which
    :func:`main` reports like argparse (exit 2, no traceback).  Once a
    run has started, a ``ValueError`` propagates."""
    try:
        yield
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _scenario_config(args: argparse.Namespace, **extra):
    """The single-BSS scenario ``quick`` and ``trace`` run: a sweep point."""
    from .experiments import sweep_config

    return sweep_config(
        args.scheme, args.load, args.seed, args.time, min(5.0, args.time / 6),
        **extra,
    )


def _cmd_quick(args: argparse.Namespace) -> int:
    from .network import BssScenario

    with _flag_values():
        cfg = _scenario_config(args)
    results = BssScenario(cfg).run()
    for key in sorted(results):
        if key.startswith("analytic"):
            continue
        print(f"{key}: {results[key]}")
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from .experiments import fig5, format_table

    with _flag_values():
        # no populations: checks --time, simulates nothing
        fig5(populations=(), seed=args.seed, sim_time=args.time)
    rows = fig5(sim_time=args.time, seed=args.seed)
    table = [
        {
            "sources (voice+video)": f"{r['n_voice']}+{r['n_video']}",
            "jitter bound (ms)": r["analytic_max_jitter"] * 1000,
            "sim jitter (ms)": r["simulated_max_jitter"] * 1000,
            "delay bound (ms)": r["analytic_max_delay"] * 1000,
            "sim delay (ms)": r["simulated_max_delay"] * 1000,
        }
        for r in rows
    ]
    print(
        format_table(
            table,
            list(table[0].keys()),
            title="Fig. 5 - analytical bounds vs simulated maxima",
        )
    )
    return 0


#: the one summary line every grid command prints on stderr
_SUMMARY = (
    "  {label}: {total_points} points, {executed} simulated, "
    "{cache_hits} cached, {resumed} resumed in {wall_time:.1f}s "
    "(workers={workers}, utilization={worker_utilization:.0%}, "
    "{sim_events} sim events, {events_per_sec:,.0f} events/s)"
)


def _run_grid(args: argparse.Namespace, label: str, job):
    """Run ``job(executor)`` on the executor the grid flags describe.

    Shared by ``sweep``, ``validate``, ``chaos`` and ``ess --fidelity
    frames``: streams per-point progress and prints the summary line on
    stderr.  A :class:`~repro.exec.SweepExecutionError` propagates to
    :func:`main`, which maps it to exit 2.
    """
    from .exec import ExecutorConfig, SweepExecutor

    with _flag_values():
        executor = SweepExecutor(
            ExecutorConfig(
                workers=args.workers,
                cache_dir=None if args.no_cache else args.cache_dir,
                journal=args.journal,
                resume=args.resume,
                timeout=args.timeout,
            ),
            progress=lambda rec: print(
                f"  {rec.scheme} load={rec.load} seed={rec.seed} {rec.status}"
                + (f" [{rec.wall_time:.2f}s]" if rec.status == "executed" else ""),
                file=sys.stderr,
            ),
        )
    result = job(executor)
    print(_SUMMARY.format(label=label, **executor.summary()), file=sys.stderr)
    return result


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import (
        BENCH_LOADS,
        FIGURE_METRICS,
        average_over_seeds,
        format_table,
        save_results,
        sweep_grid,
    )

    with _flag_values():
        grid = sweep_grid(
            tuple(args.schemes),
            loads=tuple(args.loads) if args.loads else BENCH_LOADS,
            seeds=tuple(range(1, args.seeds + 1)),
            sim_time=args.time,
            warmup=min(8.0, args.time / 8),
        )
    rows = _run_grid(args, "sweep", lambda executor: executor.run(grid))
    if args.out:
        path = save_results(rows, args.out)
        print(f"  rows archived to {path}", file=sys.stderr)
    for name, metrics in FIGURE_METRICS.items():
        print()
        print(
            format_table(
                average_over_seeds(rows, metrics),
                ["scheme", "load"] + metrics,
                title=name,
            )
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import cProfile
    import os
    import pstats
    import time

    from .network import BssScenario
    from .obs import (
        TraceConfig,
        render_category_counts,
        render_timeline,
        validate_trace_file,
    )

    with _flag_values():
        cfg = _scenario_config(
            args,
            trace=TraceConfig(
                categories=tuple(args.categories),
                capacity=args.capacity,
                snapshot_interval=args.snapshot_interval,
            ),
        )
    scenario = BssScenario(cfg)
    profile = cProfile.Profile()
    # wall-clock profiling never feeds results, so running under it
    # cannot perturb the traced point's identity
    start = time.perf_counter()
    results = profile.runcall(scenario.run)
    wall = time.perf_counter() - start

    os.makedirs(args.out_dir, exist_ok=True)
    trace_path = os.path.join(args.out_dir, "trace.jsonl")
    assert scenario.trace is not None
    lines = scenario.trace.export_jsonl(trace_path)
    validated = validate_trace_file(trace_path)
    assert validated == lines
    metrics_path = write_json(
        os.path.join(args.out_dir, "metrics.json"),
        {
            "final": scenario.metrics.snapshot(now=cfg.sim_time),
            "periodic": scenario.metrics.snapshots,
        },
    )

    print(f"trace written to {trace_path} ({lines} events, schema ok)")
    print(f"metrics written to {metrics_path} "
          f"({len(scenario.metrics.snapshots)} periodic snapshots)")
    print()
    print(render_category_counts(scenario.trace))
    print()
    print(render_timeline(scenario.trace))
    print()
    events = results["events_processed"]
    print(
        f"engine: {events} events in {wall:.3f} s wall, profiled "
        f"({events / wall:,.0f} events/s)"
    )
    pstats.Stats(profile).strip_dirs().sort_stats("tottime").print_stats(15)
    for key in ("scheme", "load", "seed", "events_processed", "obs"):
        print(f"{key}: {results[key]}")
    return 0


def _cmd_tier(args: argparse.Namespace) -> int:
    """``validate`` and ``chaos``: run one tier's grid, write its report."""
    if args.command == "validate":
        from .validate import run_validation as run_tier

        kind = "verdict"
    else:
        from .validate.chaos import run_chaos as run_tier

        kind = "degradation"
    report = _run_grid(
        args, "grid", lambda executor: run_tier(args.tier, executor=executor)
    )
    out = args.out or f".repro-cache/{args.command}-{report.tier}-report.json"
    path = write_json(out, report.to_dict())
    print(f"  {kind} report written to {path}", file=sys.stderr)
    print(report.render())
    return 0 if report.passed else 1


def _parse_link_fault(text: str):
    """``A-B[:start[:end]]`` -> LinkFault (AP ids may contain ``/``)."""
    from .faults import LinkFault

    parts = text.split(":")
    link, windows = parts[0], parts[1:]
    if "-" not in link:
        raise argparse.ArgumentTypeError(
            f"link fault must look like ap/0x0-ap/0x1[:start[:end]], got {text!r}"
        )
    a, _, b = link.partition("-")
    try:
        start = float(windows[0]) if len(windows) > 0 else 0.0
        end = float(windows[1]) if len(windows) > 1 else None
        return LinkFault(a=a, b=b, start=start, end=end)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad link fault {text!r}: {exc}")


def _parse_ap_fault(text: str):
    """``AP[:start[:end]]`` -> ApFault (AP ids may contain ``/``)."""
    from .faults import ApFault

    # AP ids look like ap/1x0 and never contain ":", so every ":"
    # separates window fields
    parts = text.split(":")
    ap, windows = parts[0], parts[1:]
    try:
        start = float(windows[0]) if len(windows) > 0 else 0.0
        end = float(windows[1]) if len(windows) > 1 else None
        return ApFault(ap=ap, start=start, end=end)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad AP fault {text!r}: {exc}")


def _cmd_ess(args: argparse.Namespace) -> int:
    from .ess import EssConfig, run_ess

    with _flag_values():
        config = EssConfig(
            rows=args.rows,
            cols=args.cols,
            seed=args.seed,
            epochs=args.epochs,
            epoch_length=args.epoch,
            new_call_rate=args.new_rate,
            mean_holding=args.holding,
            mean_residence=args.residence,
            capacity=args.capacity,
            overlap=args.overlap,
            disjoint_paths=args.disjoint_paths,
            backhaul_faults=tuple(args.fault or ()),
            ap_faults=tuple(args.ap_fault or ()),
            fidelity=args.fidelity,
            frames_time=args.frames_time,
            scheme=args.scheme,
        )
    if config.fidelity == "frames":
        report = _run_grid(
            args, "frames tier",
            lambda executor: run_ess(config, executor=executor),
        )
    else:
        report = run_ess(config)
    out = args.out or ".repro-cache/ess-report.json"
    path = write_json(out, report)
    print(f"  ESS report written to {path}", file=sys.stderr)
    totals = report["totals"]
    backhaul = report["backhaul"]
    grid = f"{config.rows}x{config.cols}"
    print(f"ESS {grid}, {config.epochs} epochs x {config.epoch_length}s "
          f"({config.fidelity} fidelity, seed {config.seed})")
    print(f"  calls: created={totals['created']} "
          f"completed={totals['completed']} blocked={totals['blocked']} "
          f"resident={totals['resident_final']} "
          f"in-transit={totals['in_transit_final']}")
    print(f"  handoffs: attempts={totals['handoff_attempts']} "
          f"dropped-admission={totals['dropped_admission']} "
          f"dropped-backhaul={totals['dropped_backhaul']} "
          f"dropped-ap-down={totals['dropped_ap_down']} "
          f"drop-rate={totals['handoff_drop_rate']:.3%}")
    print(f"  backhaul: routed={backhaul['routed']} "
          f"failovers={backhaul['failovers']} "
          f"unroutable={backhaul['unroutable']} "
          f"faulted-links={backhaul['faulted_links']}")
    conservation = report["conservation"]
    if report["passed"]:
        print(f"  conservation: OK over {conservation['epochs_checked']} epochs")
        return 0
    print(f"  conservation: {len(conservation['violations'])} violation(s)")
    for message in conservation["violations"][:10]:
        print(f"    {message}")
    return 1


def _cmd_redteam(args: argparse.Namespace) -> int:
    from .exec import ExecutorConfig, SweepExecutor
    from .redteam import (
        CampaignConfig,
        DecodeSettings,
        ExecEvaluator,
        ObjectiveConfig,
        run_campaign,
    )

    with _flag_values():
        config = CampaignConfig(
            budget=args.budget,
            seed=args.seed,
            surface=args.surface,
            batch=args.batch,
            explore_ratio=args.explore,
            settings=DecodeSettings(sim_time=args.time),
            objective=ObjectiveConfig(),
            shrink=args.shrink,
            shrink_budget=args.shrink_budget,
        )
        executor = SweepExecutor(
            ExecutorConfig(
                workers=args.workers,
                timeout=args.timeout,
                on_failure="skip",
            )
        )
    evaluator = ExecEvaluator(config.settings, config.objective, executor)
    archive_dir = None if args.no_archive else args.archive_dir
    try:
        report = run_campaign(config, evaluator, archive_dir=archive_dir)
    except RuntimeError as exc:  # SweepExecutionError included
        print(f"error: campaign execution failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"  campaign: {evaluator.evaluations} scenario evaluations "
        f"(workers={args.workers})",
        file=sys.stderr,
    )
    out = args.out or ".repro-cache/redteam-campaign.json"
    path = write_json(out, report.to_dict())
    print(f"  campaign report written to {path}", file=sys.stderr)
    print(report.render())
    return 2 if report.new_unarchived else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import run_gate

    return run_gate(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import build_server

    server = build_server(
        args.cache_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        backfill=not args.no_backfill,
        max_queue=args.max_queue,
    )
    if not server.index.surfaces:
        print(
            f"error: no sweep surfaces in {args.cache_dir!r} — run a "
            "cached sweep into it first (python -m repro sweep "
            "--cache-dir DIR)",
            file=sys.stderr,
        )
        server.stop()
        return 1
    described = server.index.describe()
    print(
        f"  serving {len(described['surfaces'])} surface(s), "
        f"{described['rows']} rows at {server.url} "
        f"(backfill={'off' if args.no_backfill else 'on'})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("  shutting down", file=sys.stderr)
    finally:
        server.stop()
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """An argparse parent parser: a flag set several commands share."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser, every subcommand and flag included.

    Flags that several commands share are declared once, on argparse
    parent parsers: ``--workers``; ``--cache-dir``; the pool flag
    ``--timeout``; the cached-grid flags (``--resume``, ``--no-cache``,
    and ``--journal``, whose default names the command:
    ``.repro-cache/<command>-journal.jsonl``); and the single-BSS
    scenario flags of ``quick`` and ``trace``.
    """
    from .bench.gate import DEFAULT_BASELINE, MIN_SWEEP_SPEEDUP
    from .network.bss import SCHEMES
    from .obs import CATEGORIES

    workers = _flags()
    workers.add_argument("--workers", type=_positive_int, default=1,
                         help="process-pool size (1 = serial in-process); "
                              "results are byte-identical either way")
    cache_dir = _flags()
    cache_dir.add_argument("--cache-dir", default=".repro-cache",
                           help="result cache directory "
                                "(default: .repro-cache)")
    pool = _flags(workers)
    pool.add_argument("--timeout", type=float, default=None,
                      help="per-point wall-clock budget in s (pool mode)")

    cached = _flags(pool, cache_dir)
    cached.add_argument("--resume", action="store_true",
                        help="skip points already in the checkpoint journal")
    cached.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed result cache")

    def grid(command: str) -> argparse.ArgumentParser:
        flags = _flags(cached)
        flags.add_argument("--journal",
                           default=f".repro-cache/{command}-journal.jsonl",
                           help="checkpoint journal path (JSON-lines)")
        return flags

    def scenario(sim_time: float) -> argparse.ArgumentParser:
        flags = _flags()
        flags.add_argument("--scheme", default="proposed",
                           choices=list(SCHEMES))
        flags.add_argument("--load", type=float, default=1.0)
        flags.add_argument("--seed", type=int, default=1)
        flags.add_argument("--time", type=float, default=sim_time)
        return flags

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="802.11 QoS provisioning reproduction",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  success (for serve: clean shutdown on SIGINT)\n"
            "  1  failed validation claims / chaos gates / perf-gate\n"
            "     regressions / ESS conservation violations / redteam\n"
            "     execution failures / (serve) no surfaces in the cache\n"
            "  2  a malformed flag or a flag value a config rejects,\n"
            "     sweep points permanently failed after retries, or\n"
            "     (redteam) a new breach not yet in the archived corpus"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=False)

    sub.add_parser("tables", help="print Tables I and II")

    sub.add_parser("quick", help="run one scenario", parents=[scenario(30.0)])

    f5 = sub.add_parser("fig5", help="regenerate Fig. 5")
    f5.add_argument("--time", type=float, default=25.0)
    f5.add_argument("--seed", type=int, default=1)

    sweep = sub.add_parser("sweep", help="run the Figs. 6-11 sweep",
                           parents=[grid("sweep")])
    sweep.add_argument("--loads", type=float, nargs="+", default=None,
                       help="load multipliers (default: the benchmark grid)")
    sweep.add_argument("--seeds", type=_positive_int, default=2)
    sweep.add_argument("--time", type=float, default=60.0)
    sweep.add_argument("--schemes", nargs="+", default=list(SCHEMES),
                       choices=list(SCHEMES),
                       help="subset of schemes to sweep")
    sweep.add_argument("--out", default=None,
                       help="also archive result rows to this JSON-lines file")

    for command, help_text, kind in (
        ("validate",
         "run a validation tier (shape claims + invariant monitors)",
         "verdict"),
        ("chaos", "run a fault-injection soak tier (degradation report)",
         "degradation"),
    ):
        tier = sub.add_parser(command, help=help_text,
                              parents=[grid(command)])
        tier.add_argument("--tier", default="smoke", choices=["smoke", "full"],
                          help="which tier to run (default: smoke)")
        tier.add_argument("--out", default=None,
                          help=f"{kind} report path (default: "
                               f".repro-cache/{command}-<tier>-report.json)")

    trace = sub.add_parser(
        "trace",
        help="run one traced scenario; write JSONL trace + metrics, "
             "print timeline and profile",
        parents=[scenario(10.0)],
    )
    trace.add_argument("--categories", nargs="+", default=list(CATEGORIES),
                       choices=list(CATEGORIES),
                       help="event categories to record (default: all)")
    trace.add_argument("--capacity", type=int, default=65536,
                       help="trace ring-buffer size in events (0 = unbounded)")
    trace.add_argument("--snapshot-interval", type=float, default=1.0,
                       help="metrics snapshot period in sim seconds (0 = off)")
    trace.add_argument("--out-dir", default=".repro-cache/trace",
                       help="directory for trace.jsonl and metrics.json")

    ess = sub.add_parser(
        "ess",
        help="run a multi-BSS ESS grid with roaming + disjoint-path "
             "backhaul; emit a JSON report",
        parents=[grid("ess")],
    )
    ess.add_argument("--rows", type=_positive_int, default=3,
                     help="grid rows (default: 3)")
    ess.add_argument("--cols", type=_positive_int, default=3,
                     help="grid columns (default: 3)")
    ess.add_argument("--seed", type=int, default=1)
    ess.add_argument("--epochs", type=_positive_int, default=8,
                     help="number of sharded epochs (default: 8)")
    ess.add_argument("--epoch", type=float, default=30.0,
                     help="epoch length in sim seconds (default: 30)")
    ess.add_argument("--new-rate", type=float, default=0.08,
                     help="fresh-call arrival rate per kind per cell "
                          "(calls/s, default: 0.08)")
    ess.add_argument("--holding", type=float, default=60.0,
                     help="mean call holding time in s (default: 60)")
    ess.add_argument("--residence", type=float, default=45.0,
                     help="mean cell residence time in s (default: 45)")
    ess.add_argument("--capacity", type=_positive_int, default=12,
                     help="per-cell admitted-call capacity (default: 12)")
    ess.add_argument("--overlap", type=float, default=0.25,
                     help="cell-overlap guard fraction in [0,1]: handoffs "
                          "may use capacity*(1+overlap) (default: 0.25)")
    ess.add_argument("--disjoint-paths", type=_positive_int, default=2,
                     help="node-disjoint backhaul paths per AP pair "
                          "(default: 2)")
    ess.add_argument("--fault", action="append", type=_parse_link_fault,
                     metavar="A-B[:START[:END]]",
                     help="fault a backhaul link, e.g. ap/1x0-ap/1x1 or "
                          "ap/0x0-ap/0x1:10:50 (repeatable)")
    ess.add_argument("--ap-fault", action="append", type=_parse_ap_fault,
                     metavar="AP[:START[:END]]",
                     help="take a whole AP down, e.g. ap/1x1 or "
                          "ap/0x0:10:50: its cell sheds residents and "
                          "blocks arrivals, and backhaul routes avoid it "
                          "(repeatable)")
    ess.add_argument("--fidelity", default="calls",
                     choices=["calls", "frames"],
                     help="calls: call-level cells only; frames: also run "
                          "per-cell-epoch frame-level BSS shards through "
                          "the sweep executor, to which the pool and grid "
                          "flags apply (default: calls)")
    ess.add_argument("--frames-time", type=float, default=8.0,
                     help="sim seconds per frame-level cell shard "
                          "(frames fidelity only, default: 8)")
    ess.add_argument("--scheme", default="proposed", choices=list(SCHEMES),
                     help="MAC scheme for frame-level shards")
    ess.add_argument("--out", default=None,
                     help="JSON report path (default: "
                          ".repro-cache/ess-report.json)")

    redteam = sub.add_parser(
        "redteam",
        help="adversarial scenario search: find, shrink and archive "
             "minimal breach reproducers",
        parents=[pool],
    )
    redteam.add_argument("--budget", type=_positive_int, default=32,
                         help="total scenario evaluations to spend "
                              "(default: 32)")
    redteam.add_argument("--seed", type=int, default=0,
                         help="campaign RNG seed (default: 0)")
    redteam.add_argument("--surface", default="bss",
                         choices=["bss", "ess", "both"],
                         help="search surface: frame-level BSS points, "
                              "call-level ESS grids, or both (default: bss)")
    redteam.add_argument("--batch", type=_positive_int, default=8,
                         help="evaluations per batch / pool dispatch "
                              "(default: 8)")
    redteam.add_argument("--explore", type=float, default=0.5,
                         help="fraction of each batch kept pure-random "
                              "(default: 0.5)")
    redteam.add_argument("--time", type=float, default=12.0,
                         help="sim seconds per BSS evaluation (default: 12)")
    redteam.add_argument("--shrink", action="store_true",
                         help="delta-debug every champion down to a "
                              "minimal reproducer before archiving")
    redteam.add_argument("--shrink-budget", type=_positive_int, default=48,
                         help="per-champion shrink evaluation budget "
                              "(default: 48)")
    redteam.add_argument("--archive-dir", default="tests/faults/reproducers",
                         help="reproducer fixture corpus (default: "
                              "tests/faults/reproducers)")
    redteam.add_argument("--no-archive", action="store_true",
                         help="neither read nor write the corpus; every "
                              "champion counts as new")
    redteam.add_argument("--out", default=None,
                         help="campaign report path (default: "
                              ".repro-cache/redteam-campaign.json)")

    serve = sub.add_parser(
        "serve",
        help="serve capacity-planning queries over cached sweep surfaces "
             "(stdlib HTTP JSON API)",
        parents=[workers, cache_dir],
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8011,
                       help="bind port, 0 picks a free one (default: 8011)")
    serve.add_argument("--no-backfill", action="store_true",
                       help="answer only from the existing cache; cache "
                            "misses return 404 instead of 202")
    serve.add_argument("--max-queue", type=_positive_int, default=64,
                       help="back-fill queue depth before shedding "
                            "(default: 64)")

    bench = sub.add_parser(
        "bench",
        help="perf microbenchmarks + regression gate",
        description="kernel perf benchmarks + regression gate",
    )
    bench.add_argument("--baseline", default=DEFAULT_BASELINE,
                       help=f"committed baseline (default: {DEFAULT_BASELINE})")
    bench.add_argument("--out", default=".repro-cache/bench-report.json",
                       help="where the fresh report is written")
    bench.add_argument("--tolerance", type=float, default=0.10,
                       help="relative throughput/allocation slack "
                            "(default: 0.10; CI uses 0.25)")
    bench.add_argument("--with-sweep", action="store_true",
                       help="also measure the serial-vs-pool sweep "
                            "section; on a machine with a core per pool "
                            "worker, fail unless the pool is "
                            f"{MIN_SWEEP_SPEEDUP:g}x faster")
    bench.add_argument("--update", action="store_true",
                       help="rewrite the baseline from this run and exit 0")
    return parser


_HANDLERS = {
    "tables": _cmd_tables,
    "quick": _cmd_quick,
    "fig5": _cmd_fig5,
    "sweep": _cmd_sweep,
    "validate": _cmd_tier,
    "chaos": _cmd_tier,
    "trace": _cmd_trace,
    "bench": _cmd_bench,
    "ess": _cmd_ess,
    "redteam": _cmd_redteam,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    from .exec import SweepExecutionError

    try:
        return _HANDLERS[args.command](args)
    except argparse.ArgumentTypeError as exc:  # from _flag_values
        parser.error(f"{args.command}: {exc}")
    except SweepExecutionError as exc:
        print(
            f"error: {len(exc.failures)} sweep point(s) permanently failed "
            "after retries:",
            file=sys.stderr,
        )
        for f in exc.failures:
            print(
                f"  #{f.index} {f.config.scheme} load={f.config.load} "
                f"seed={f.config.seed}: {f.error}",
                file=sys.stderr,
            )
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
