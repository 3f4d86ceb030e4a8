"""Command-line interface: regenerate any paper artifact from a shell.

Examples
--------
Reproduce Figure 3 with the paper's 1000 repetitions::

    repro-aware exp1a --reps 1000

Quick versions of every figure (reduced repetitions)::

    repro-aware all --quick

Sec. 4.1 hold-out analysis and Sec. 1 motivating arithmetic::

    repro-aware holdout
    repro-aware motivating
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro._version import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-aware",
        description=(
            "AWARE reproduction: controlling false discoveries during "
            "interactive data exploration (Zhao et al., SIGMOD 2017)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_reps: int) -> None:
        p.add_argument("--reps", type=int, default=default_reps,
                       help=f"repetitions per cell (default {default_reps})")
        p.add_argument("--alpha", type=float, default=0.05,
                       help="control level (default 0.05)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the experiment's default seed")
        p.add_argument("--quick", action="store_true",
                       help="cut repetitions for a fast smoke run")

    add_common(sub.add_parser("exp1a", help="Figure 3: static procedures"), 1000)
    add_common(sub.add_parser("exp1b", help="Figure 4: incremental procedures vs m"), 1000)
    add_common(sub.add_parser("exp1c", help="Figure 5: incremental procedures vs sample size"), 1000)
    exp2 = sub.add_parser("exp2", help="Figure 6: census user workflows")
    add_common(exp2, 20)
    exp2.add_argument("--rows", type=int, default=30_000, help="census rows (default 30000)")
    exp2.add_argument("--steps", type=int, default=115, help="workflow length (default 115)")
    exp2.add_argument("--no-randomized", action="store_true",
                      help="skip the randomized-census panels")
    add_common(sub.add_parser("motivating", help="Sec. 1 / 2.4 arithmetic + simulation"), 2000)
    add_common(sub.add_parser("holdout", help="Sec. 4.1 hold-out analysis"), 2000)
    add_common(sub.add_parser("all", help="run every artifact in sequence"), 200)

    serve = sub.add_parser(
        "serve",
        help="serve the v1 wire-protocol API over HTTP (one thread per "
             "connection, stdlib-only)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port; 0 picks a free one (default 8765)")
    serve.add_argument("--rows", type=int, default=30_000,
                       help="rows of the census dataset to register (default 30000)")
    serve.add_argument("--seed", type=int, default=0,
                       help="census generation seed (default 0)")
    serve.add_argument("--max-sessions", type=int, default=None, metavar="N",
                       help="admission-control session cap; 0 disables the cap "
                            "(default: the service's DEFAULT_MAX_SESSIONS)")
    serve.add_argument("--idle-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="evict sessions idle longer than this to a "
                            "recoverable tombstone (default: never)")
    serve.add_argument("--admission-policy", default="reject",
                       choices=["reject", "evict-exhausted"],
                       help="what an at-cap create_session does: flat-reject, "
                            "or first reclaim a wealth-exhausted session "
                            "(default: reject)")
    serve.add_argument("--event-heartbeat", type=float, default=15.0,
                       metavar="SECONDS",
                       help="SSE keep-alive comment interval on "
                            "/v1/events/{session} (default 15)")
    serve.add_argument("--store", default=None, choices=["jsonl", "sqlite"],
                       help="durable write-ahead session store backend; "
                            "sessions survive crashes/restarts and the v2 "
                            "'recover' verb is answerable (default: in-memory "
                            "only)")
    serve.add_argument("--store-path", default=".repro-store", metavar="PATH",
                       help="where the store keeps its files (a directory for "
                            "jsonl, a database file for sqlite; default "
                            ".repro-store)")
    serve.add_argument("--store-fsync", default="batch",
                       choices=["always", "batch", "off"],
                       help="fsync policy for the store: every commit, every "
                            "few commits, or OS-buffered only (default batch)")
    serve.add_argument("--snapshot-every", type=int, default=None, metavar="N",
                       help="every N committed commands, drop the idem "
                            "responses of a session's write-ahead entries "
                            "older than its newest 256; 0 disables "
                            "compaction (default: the manager's "
                            "DEFAULT_SNAPSHOT_EVERY)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="run a sharded cluster: spawn N worker processes "
                            "over the shared --store path and serve a "
                            "consistent-hash router in front of them "
                            "(requires --store; default: single-node)")
    serve.add_argument("--replicas", type=int, default=None, metavar="K",
                       help="virtual points per worker on the router's hash "
                            "ring (cluster mode only; default 64)")

    route = sub.add_parser(
        "route",
        help="front already-running workers with a consistent-hash "
             "session router (workers are not supervised or restarted)",
    )
    route.add_argument("--worker", action="append", dest="workers",
                       metavar="HOST:PORT", required=True,
                       help="a running `repro serve` worker to route to; "
                            "repeat once per worker")
    route.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    route.add_argument("--port", type=int, default=8765,
                       help="bind port; 0 picks a free one (default 8765)")
    route.add_argument("--replicas", type=int, default=None, metavar="K",
                       help="virtual points per worker on the hash ring "
                            "(default 64)")
    route.add_argument("--event-heartbeat", type=float, default=15.0,
                       metavar="SECONDS",
                       help="SSE keep-alive comment interval on "
                            "/v1/events/{session} (default 15)")

    # reprolint declares its own flags (repro.analysis.core.main), and
    # `main` hands it every argument after `lint` unparsed.
    sub.add_parser(
        "lint", add_help=False,
        help="run reprolint, the project's invariant linter, over src/",
    )

    protocol = sub.add_parser(
        "protocol",
        help="inspect the AST-extracted wire-protocol model",
    )
    protocol.add_argument("action", choices=("dump",),
                          help="dump: print the protocol model as canonical JSON")
    protocol.add_argument("--check", metavar="PATH", default=None,
                          help="compare against a committed model instead of"
                               " printing; non-zero exit on drift")
    protocol.add_argument("--src", default="src", metavar="DIR",
                          help="source tree to extract from (default: src)")
    return parser


def _reps(args: argparse.Namespace, quick_reps: int) -> int:
    return quick_reps if args.quick else args.reps


def _run_exp1a(args) -> str:
    from repro.experiments import render_figure, run_exp1a

    kwargs = {} if args.seed is None else {"seed": args.seed}
    return render_figure(
        run_exp1a(n_reps=_reps(args, 100), alpha=args.alpha, **kwargs)
    )


def _run_exp1b(args) -> str:
    from repro.experiments import render_figure, run_exp1b

    kwargs = {} if args.seed is None else {"seed": args.seed}
    return render_figure(
        run_exp1b(n_reps=_reps(args, 100), alpha=args.alpha, **kwargs)
    )


def _run_exp1c(args) -> str:
    from repro.experiments import render_figure, run_exp1c

    kwargs = {} if args.seed is None else {"seed": args.seed}
    return render_figure(
        run_exp1c(n_reps=_reps(args, 100), alpha=args.alpha, **kwargs)
    )


def _run_exp2(args) -> str:
    from repro.experiments import render_figure, run_exp2

    kwargs = {} if args.seed is None else {"seed": args.seed}
    return render_figure(
        run_exp2(
            n_reps=_reps(args, 5),
            alpha=args.alpha,
            n_rows=args.rows,
            n_steps=args.steps,
            include_randomized=not args.no_randomized,
            **kwargs,
        )
    )


def _run_motivating(args) -> str:
    from repro.experiments import (
        expected_discoveries,
        false_discovery_inflation,
        simulate_motivating_example,
    )

    exp = expected_discoveries(alpha=args.alpha)
    seed = 11 if args.seed is None else args.seed
    sim = simulate_motivating_example(
        alpha=args.alpha, n_reps=_reps(args, 200), seed=seed
    )
    lines = [
        "Sec. 1 motivating scenario: 100 tests, 10 true effects, power 0.8",
        f"  closed form: E[R] = {exp.expected_discoveries:.2f} "
        f"(E[V] = {exp.expected_false_discoveries:.2f}, "
        f"bogus fraction = {exp.bogus_fraction:.0%})",
        f"  simulated  : avg discoveries = {sim.avg_discoveries:.2f}, "
        f"avg FDR = {sim.avg_fdr:.2%}",
        "",
        "Sec. 2.4 inflation 1-(1-alpha)^k:",
    ]
    for k in (1, 2, 4, 10, 25):
        lines.append(
            f"  k = {k:>2d}: P(>=1 false discovery) = "
            f"{false_discovery_inflation(k, args.alpha):.3f}"
        )
    return "\n".join(lines)


def _run_holdout(args) -> str:
    from repro.experiments import holdout_analysis, simulate_holdout

    analysis = holdout_analysis(alpha=args.alpha)
    seed = 7 if args.seed is None else args.seed
    reps = _reps(args, 200)
    power_sim = simulate_holdout(alpha=args.alpha, n_reps=reps, seed=seed)
    null_sim = simulate_holdout(
        alpha=args.alpha, n_reps=reps, under_null=True, seed=seed + 1
    )
    return "\n".join(
        [
            "Sec. 4.1 hold-out analysis (d = 0.25, 500/group, one-sided t):",
            f"  closed form: power full = {analysis.power_full:.3f}, "
            f"half = {analysis.power_half:.3f}, "
            f"hold-out = {analysis.power_holdout:.3f}",
            f"  closed form: Type-I single = {analysis.type1_single:.4f}, "
            f"hold-out = {analysis.type1_holdout:.4f}, "
            f"25-test inflation = {analysis.inflation_25_tests:.3f}",
            f"  simulated  : power full = {power_sim['full']:.3f}, "
            f"hold-out = {power_sim['holdout']:.3f}",
            f"  simulated  : Type-I full = {null_sim['full']:.4f}, "
            f"hold-out = {null_sim['holdout']:.4f}",
        ]
    )


def _run_serve(args) -> str:
    from repro.api.http import serve_forever
    from repro.api.service import DEFAULT_MAX_SESSIONS, ExplorationService
    from repro.service.manager import DEFAULT_SNAPSHOT_EVERY, SessionManager
    from repro.workloads.census import make_census

    if args.workers is not None:
        return _run_cluster(args)
    if args.max_sessions is None:
        max_sessions = DEFAULT_MAX_SESSIONS
    elif args.max_sessions == 0:
        max_sessions = None  # 0 on the CLI = no admission cap
    else:
        max_sessions = args.max_sessions
    store = None
    if args.store is not None:
        from repro.store import make_store

        store = make_store(args.store, args.store_path,
                           fsync=args.store_fsync)
    manager = SessionManager(
        idle_timeout=args.idle_timeout,
        store=store,
        snapshot_every=(DEFAULT_SNAPSHOT_EVERY if args.snapshot_every is None
                        else args.snapshot_every),
    )
    service = ExplorationService(
        manager=manager,
        max_sessions=max_sessions,
        admission_policy=args.admission_policy,
    )
    print(f"generating census dataset ({args.rows} rows, seed {args.seed})...",
          flush=True)
    name = service.register_dataset(make_census(args.rows, seed=args.seed),
                                    name="census")
    idle = ("never" if args.idle_timeout is None
            else f"{args.idle_timeout:g}s idle")
    print(f"registered dataset {name!r}; session cap "
          f"{'unbounded' if max_sessions is None else max_sessions}; "
          f"eviction: {idle}, admission policy {args.admission_policy}",
          flush=True)
    if store is not None:
        report = manager.recover_all()
        print(f"store: {args.store} at {args.store_path} "
              f"(fsync {args.store_fsync}); recovered "
              f"{len(report['recovered'])} session(s), "
              f"{len(report['skipped_tombstoned'])} tombstoned, "
              f"{len(report['failed'])} failed", flush=True)
        for sid, why in sorted(report["failed"].items()):
            print(f"  recovery failed for {sid!r}: {why}", flush=True)
    try:
        serve_forever(service, host=args.host, port=args.port,
                      event_heartbeat_s=args.event_heartbeat)
    finally:
        if store is not None:
            store.close()
    return "server stopped"


def _run_cluster(args) -> str:
    from repro.api.http import serve_forever
    from repro.cluster import DEFAULT_REPLICAS, Cluster, RouterHttpServer

    if args.workers < 1:
        raise SystemExit("error: --workers must be >= 1")
    if args.store is None:
        raise SystemExit(
            "error: --workers requires --store (the shared write-ahead "
            "store is what makes worker crashes recoverable)"
        )
    max_sessions = None if args.max_sessions == 0 else args.max_sessions
    cluster = Cluster(
        args.workers,
        rows=args.rows,
        seed=args.seed,
        store=args.store,
        store_path=args.store_path,
        store_fsync=args.store_fsync,
        snapshot_every=args.snapshot_every,
        max_sessions=max_sessions,
        replicas=(DEFAULT_REPLICAS if args.replicas is None
                  else args.replicas),
        announce=lambda line: print(f"cluster: {line}", flush=True),
    )
    print(f"starting {args.workers} worker(s) over {args.store} store "
          f"at {args.store_path} (fsync {args.store_fsync})...", flush=True)
    try:
        cluster.start()
        serve_forever(cluster.router, host=args.host, port=args.port,
                      event_heartbeat_s=args.event_heartbeat,
                      server_factory=RouterHttpServer)
    finally:
        cluster.stop()
    return "cluster stopped"


def _run_route(args) -> str:
    from repro.api.http import serve_forever
    from repro.cluster import (DEFAULT_REPLICAS, RemoteWorker,
                               RouterHttpServer, RouterService)

    router = RouterService(
        replicas=(DEFAULT_REPLICAS if args.replicas is None
                  else args.replicas),
    )
    for index, spec in enumerate(args.workers):
        host, sep, port = spec.rpartition(":")
        if not sep or not port.isdigit():
            raise SystemExit(f"error: --worker expects HOST:PORT, got {spec!r}")
        worker_id = f"w{index}"
        router.add_worker(worker_id, RemoteWorker(worker_id, host, int(port)))
        print(f"route: worker {worker_id} -> {host}:{port}", flush=True)
    try:
        serve_forever(router, host=args.host, port=args.port,
                      event_heartbeat_s=args.event_heartbeat,
                      server_factory=RouterHttpServer)
    finally:
        router.close()
    return "router stopped"


def _run_protocol(args: argparse.Namespace) -> int:
    """`repro protocol dump [--check committed.json]` — the drift gate."""
    import json

    from repro.analysis.callgraph import Project
    from repro.analysis.protocol_model import (
        diff_model, extract_model, model_to_dict, render_model,
    )

    project = Project.from_paths([args.src])
    model = extract_model(project)
    if model is None:
        print(f"error: no api/protocol.py under {args.src}", file=sys.stderr)
        return 2
    if args.check is None:
        print(render_model(model), end="")
        return 0
    with open(args.check, encoding="utf-8") as handle:
        committed = json.load(handle)
    drift = diff_model(committed, model_to_dict(model))
    if drift:
        print(f"protocol drift against {args.check}:")
        for line in drift:
            print(f"  {line}")
        print(
            "regenerate with `repro protocol dump > protocol_model.json`"
            " if the change is intentional"
        )
        return 1
    print(f"protocol model matches {args.check}")
    return 0


_COMMANDS = {
    "exp1a": _run_exp1a,
    "exp1b": _run_exp1b,
    "exp1c": _run_exp1c,
    "exp2": _run_exp2,
    "motivating": _run_motivating,
    "holdout": _run_holdout,
    "serve": _run_serve,
    "route": _run_route,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        # Unlike the other commands, lint has a meaningful exit code.
        from repro.analysis.core import main as lint_main

        return lint_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    if args.command == "protocol":
        return _run_protocol(args)
    if args.command == "all":
        for name in ("motivating", "holdout", "exp1a", "exp1b", "exp1c", "exp2"):
            sub_args = parser.parse_args(
                [name, "--quick"] + (["--seed", str(args.seed)] if args.seed is not None else [])
            )
            print(_COMMANDS[name](sub_args))
            print()
        return 0
    print(_COMMANDS[args.command](args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
