"""Command-line entry point: ``python -m repro <experiment>``.

``python -m repro list`` shows the experiment index; ``all`` runs every
experiment in sequence.  Workload sizes default to scaled-down values —
set ``REPRO_PAPER_SCALE=1`` for paper-scale runs (slow in pure Python).

``python -m repro serve`` runs a session as separate OS processes — an
analyst front-end, K prover servers and a client population — over the
``multiprocessing``-pipe or TCP transport (see :mod:`repro.net`), and
checks the release is byte-identical to the in-process path when seeded.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import EXPERIMENTS, print_table

_DESCRIPTIONS = {
    "table1": "Table 1 — per-stage latency of PiBin (sigma/morra/aggregate/check)",
    "fig3": "Figure 3 — sigma proof create/verify latency vs epsilon, both backends",
    "fig4": "Figure 4 — client one-hot validation: sigma-OR vs PRIO/Poplar sketch",
    "table2": "Table 2 — qualitative properties of MPC-DP systems (validated live)",
    "micro": "Section 6 — single exponentiation latency, modp vs ristretto",
    "multiexp": "Multiexp tiers — naive/Straus/Pippenger crossover (writes BENCH_multiexp.json; nothing reads it back)",
    "streaming": "Streamed vs buffered session verification (emits BENCH_streaming.json)",
    "err": "DP-Error — central O(1/eps) vs local O(sqrt(n)/eps)",
    "comm": "Communication — serialized proof sizes: sigma-OR vs sketch",
    "attacks": "Figure 1 — exclusion/collusion/noise-biasing, baseline vs PiBin",
    "separation": "Theorem 5.2 — impossibility of information-theoretic verifiable DP",
}


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run one verifiable-DP session as separate OS processes",
    )
    parser.add_argument(
        "--transport",
        choices=("memory", "multiprocess", "socket"),
        default="multiprocess",
        help="node substrate: threads over the in-memory bus, pipes, or TCP",
    )
    parser.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="serve over asyncio sockets: one SessionMux front-end process "
        "multiplexes --sessions concurrent sessions (implies --transport "
        "socket; each session is byte-identical to its solo seeded run)",
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help="serve through a dispatcher-orchestrated fleet: --frontends "
        "SessionMux worker processes (capacity --capacity sessions each, "
        "optionally --shards workers per session) behind one admission "
        "point with health checks, work-stealing, drain and crash restart",
    )
    parser.add_argument(
        "--frontends",
        type=int,
        default=2,
        help="fleet front-end process count F (with --fleet)",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=2,
        help="concurrent sessions per fleet front-end (with --fleet)",
    )
    parser.add_argument(
        "--fleet-config",
        default=None,
        help="JSON fleet config file; overrides the individual fleet flags",
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=2,
        help="total session count N for --async / --fleet serving",
    )
    parser.add_argument("--servers", type=int, default=2, help="prover count K")
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="verification shard workers S (0 = single front-end); the "
        "client stream and coin chunks are partitioned across S workers "
        "and the merged release stays byte-identical to unsharded",
    )
    parser.add_argument("--clients", type=int, default=8, help="client count n")
    parser.add_argument("--nb", type=int, default=64, help="noise coins per prover")
    parser.add_argument("--bins", type=int, default=1, help=">1 runs a histogram query")
    parser.add_argument("--group", default="p64-sim", help="group backend name")
    parser.add_argument(
        "--chunk",
        type=int,
        default=None,
        help="clients and coins verified per chunk (default: one chunk of nb)",
    )
    parser.add_argument(
        "--seed",
        default="serve",
        help="RNG seed; enables the byte-identical check ('none' disables)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="socket transport host")
    parser.add_argument("--port", type=int, default=0, help="socket port (0 = ephemeral)")
    parser.add_argument("--timeout", type=float, default=120.0, help="per-recv timeout")
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve Prometheus-text /metrics on this port (0 = ephemeral; "
        "with --async or --fleet: session counters, queue gauges, "
        "per-phase engine histograms)",
    )
    parser.add_argument(
        "--listen",
        type=int,
        default=None,
        help="with --fleet: instead of a fixed --sessions batch, accept a "
        "session stream on this TCP port (JSON lines; the repro loadgen "
        "target; 0 = ephemeral)",
    )
    parser.add_argument(
        "--serve-seconds",
        type=float,
        default=None,
        help="with --listen: serve for this long, then drain and exit "
        "(default: forever, Ctrl-C to stop)",
    )
    return parser


def _bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Declarative experiment harness: run tables, summaries, "
        "regression gates (see DESIGN.md 'Measurement & observability')",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser(
        "run", help="run every cell of a run-table JSON and write BENCH artifacts"
    )
    run.add_argument("table", help="run-table JSON file (factors x levels x reps)")
    run.add_argument(
        "--out",
        default=None,
        help="directory for BENCH artifacts (default: $REPRO_BENCH_DIR or .)",
    )
    run.add_argument(
        "--no-raw",
        action="store_true",
        help="skip the one-JSON-per-run raw artifacts (combined file only)",
    )
    run.add_argument(
        "--summary", default=None, help="also write the mean/stdev summary JSON here"
    )
    run.add_argument(
        "--baseline",
        default=None,
        help="check the summary against this baseline summary JSON "
        "(exit 1 on >--max-slowdown regression)",
    )
    run.add_argument(
        "--max-slowdown",
        type=float,
        default=2.0,
        help="regression gate threshold vs the baseline mean (default 2.0x)",
    )
    summarize = sub.add_parser(
        "summarize", help="fold BENCH row files into a mean/stdev summary"
    )
    summarize.add_argument("files", nargs="+", help="BENCH_*.json files")
    summarize.add_argument("--out", default=None, help="write the summary JSON here")
    summarize.add_argument(
        "--metric", default="wall_s", help="row metric to aggregate (default wall_s)"
    )
    check = sub.add_parser(
        "check", help="compare a summary against a baseline summary"
    )
    check.add_argument("summary", help="summary JSON produced by run/summarize")
    check.add_argument("baseline", help="baseline summary JSON to compare against")
    check.add_argument(
        "--max-slowdown",
        type=float,
        default=2.0,
        help="fail when mean exceeds baseline mean by this factor (default 2.0)",
    )
    return parser


def _loadgen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Open-loop Poisson load generator against a fleet "
        "gateway (repro serve --fleet --listen PORT)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="gateway host")
    parser.add_argument("--port", type=int, required=True, help="gateway TCP port")
    parser.add_argument(
        "--rate", type=float, default=2.0, help="mean session arrivals per second"
    )
    parser.add_argument(
        "--duration", type=float, default=10.0, help="offered-load window in seconds"
    )
    parser.add_argument(
        "--seed",
        default="loadgen",
        help="determinism root: same seed => same arrival schedule, "
        "populations and exact bytes sent",
    )
    parser.add_argument(
        "--clients", type=int, default=6, help="population size per session"
    )
    parser.add_argument(
        "--churn",
        type=int,
        default=1,
        help="population members replaced before each arrival",
    )
    parser.add_argument(
        "--bins", type=int, default=1, help=">1 draws histogram-valued populations"
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=120.0,
        help="how long to wait for outstanding replies after the window",
    )
    parser.add_argument(
        "--json", default=None, help="also write the report as JSON to this path"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        from repro.net.serve import main as serve_main

        args = _serve_parser().parse_args(argv[1:])
        if args.seed == "none":
            args.seed = None
        return serve_main(args)
    if argv and argv[0] == "bench":
        from repro.bench.harness import main as bench_main

        return bench_main(_bench_parser().parse_args(argv[1:]))
    if argv and argv[0] == "loadgen":
        return _loadgen_main(_loadgen_parser().parse_args(argv[1:]))
    if argv and argv[0] == "lint":
        from repro.lint.runner import build_parser as lint_parser
        from repro.lint.runner import main as lint_main

        return lint_main(lint_parser().parse_args(argv[1:]))

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'Verifiable Differential Privacy'",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + ["all", "list", "serve", "bench", "loadgen", "lint"],
        help="experiment id (see DESIGN.md), 'all'/'list', 'serve' "
        "(multi-process serving demo), 'bench' (run-table experiment "
        "harness), 'loadgen' (open-loop fleet load generator), or 'lint' "
        "(protocol-invariant static analysis); run '<name> --help' for "
        "options",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(f"{name:12s} {_DESCRIPTIONS[name]}")
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        rows = EXPERIMENTS[name]()
        print_table(rows, title=f"== {name}: {_DESCRIPTIONS[name]} ==")
        _maybe_chart(name, rows)
    return 0


def _loadgen_main(args) -> int:
    import json

    from repro.loadgen import run_loadgen

    report = run_loadgen(
        host=args.host,
        port=args.port,
        rate=args.rate,
        duration=args.duration,
        seed=args.seed,
        clients=args.clients,
        churn=args.churn,
        bins=args.bins,
        drain_timeout=args.drain_timeout,
    )
    print(
        f"== loadgen (rate={report['rate']}/s x {report['duration_s']}s, "
        f"seed={report['seed']!r}, {report['clients']} clients, "
        f"churn {report['churn']}) =="
    )
    print(
        f"offered:    {report['offered']} sessions "
        f"({report['offered_rate']:.2f}/s)"
    )
    print(
        f"outcomes:   released={report['released']} aborted={report['aborted']} "
        f"crashed={report['crashed']} rejected={report['rejected']} "
        f"timeout={report['timeout']} lost={report['lost']}"
    )
    print(f"throughput: {report['throughput_sessions_per_sec']:.2f} released/s")
    for key in ("p50_s", "p95_s", "p99_s"):
        value = report[key]
        print(f"{key[:-2]}:        {value:.3f}s" if value is not None else f"{key[:-2]}:        n/a")
    print(
        f"wire bytes: {report['bytes_sent']} sent "
        f"(= {report['bytes_planned']} planned, exact per seed), "
        f"{report['bytes_received']} received"
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    # Losing offered sessions (no reply at all) is a failed run; protocol
    # rejections are a reported outcome, not a generator failure.
    return 0 if report["lost"] == 0 else 1


def _maybe_chart(name: str, rows: list[dict]) -> None:
    """Render the figure experiments as ASCII charts under the table."""
    from repro.bench.plot import ascii_chart

    if name == "fig3":
        series: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            series.setdefault(f"{row['backend']} prove", []).append(
                (row["epsilon"], row["prove_total_s"])
            )
        print(ascii_chart(series, title="Figure 3 — total Σ-proof time vs ε",
                          x_label="epsilon", y_label="sec", log_y=True))
        print()
    elif name == "fig4":
        series = {
            "sigma prove+verify": [
                (row["M"], row["sigma_prove_ms"] + row["sigma_verify_ms"]) for row in rows
            ],
            "sketch": [(row["M"], row["sketch_ms"]) for row in rows],
        }
        print(ascii_chart(series, title="Figure 4 — client validation vs M",
                          x_label="M", y_label="ms", log_y=True))
        print()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
