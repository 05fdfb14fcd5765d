"""Command-line interface.

Subcommands: ``measure`` (sample and dump a measure), ``graph`` (generate and
dump an edge list), ``stats`` (edge list to snapshot statistics), ``sweep``
(full config-driven experiment), ``fit`` (log-log fit of two CSV columns),
and ``ccdf`` (survival curve of integer samples).  Exit codes: 0 on success,
1 on usage errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import replace

from . import experiment, graphs, measures, powerlaw, stats
from .fileio import column, read_csv, write_csv

__all__ = ["cli_dispatch", "main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the CLI contract wants 1,
    # so usage problems are turned into exceptions and handled in dispatch
    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="crmgraph",
                     description="Random graphs from completely random measures.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    desk = experiment.DESK_PROFILE
    p = sub.add_parser("measure", help="sample a stick-breaking measure to CSV")
    p.add_argument("--gamma", type=float, default=desk.gamma, help="mass / per-round Poisson rate")
    p.add_argument("--theta", type=float, default=desk.theta, help="concentration")
    p.add_argument("--alpha", type=float, default=desk.alpha, help="discount in [0,1)")
    p.add_argument("--rounds", type=int, default=desk.rounds)
    p.add_argument("--floor", type=float, default=desk.weight_floor,
                   help="drop atoms lighter than this")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")

    p = sub.add_parser("graph", help="generate an edge list from a measure CSV")
    p.add_argument("--weights", required=True, help="measure CSV (atom_id,weight,label)")
    p.add_argument("--n", type=int, required=True, help="number of edge rounds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--binary", action="store_true",
                   help="emit pairs without counts (the binary graph)")
    p.add_argument("--exact-rounds", action="store_true",
                   help="literal round-by-round reference sampler (small inputs only)")
    p.add_argument("--out", default="-")

    p = sub.add_parser("stats", help="snapshot statistics of an edge-list CSV")
    p.add_argument("edges", help="edge CSV as 'graph' writes it, with or without --binary")
    p.add_argument("--n", type=int, default=0, help="round count to label the snapshot with")
    p.add_argument("--long", action="store_true", help="long histogram format")
    p.add_argument("--out", default="-")

    p = sub.add_parser("sweep", help="run a config-driven sweep experiment")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="config.json path")
    source.add_argument("--profile", choices=experiment.PROFILES,
                        help="built-in configuration; 'paper' is 'desk' on the "
                             "paper's finer N grid")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--out", default=None, help="override the config's output directory")
    p.add_argument("--svg", action="store_true", help="also write a V-E scatter SVG")

    p = sub.add_parser("fit", help="log-log fit of one CSV column against another")
    p.add_argument("table", help="CSV file with a header row")
    p.add_argument("--x", required=True, help="x column name")
    p.add_argument("--y", required=True, help="y column name")
    p.add_argument("--lower-q", type=float, default=powerlaw.DEFAULT_LOWER_Q)
    p.add_argument("--upper-q", type=float, default=powerlaw.DEFAULT_UPPER_Q)
    p.add_argument("--out", default="-")

    p = sub.add_parser("ccdf", help="survival curve of integer samples")
    p.add_argument("samples", help="file of integers, one per line, or a CSV with --column")
    p.add_argument("--column", default=None, help="read this column of a CSV file")
    p.add_argument("--out", default="-")
    return parser


def _cmd_measure(args) -> int:
    # the flags are config fields, checked and mapped to the process by the config
    cfg = replace(experiment.DESK_PROFILE, gamma=args.gamma, theta=args.theta,
                  alpha=args.alpha, rounds=args.rounds, weight_floor=args.floor)
    measure = measures.sample_three_param_bp(cfg.params(), cfg.sticks(args.seed))
    measures.write_measure_csv(measure, args.out)
    return 0


def _cmd_graph(args) -> int:
    measure = measures.read_measure_csv(args.weights)
    if args.exact_rounds:
        graph = graphs.generate_exact_rounds(measure, args.n, args.seed)
    else:
        graph = graphs.generate(measure, args.n, args.seed)
    graphs.write_edges_csv(graphs.binarize(graph) if args.binary else graph, args.out)
    return 0


def _cmd_stats(args) -> int:
    graph = graphs.read_edges_csv(args.edges)
    binary = graph if isinstance(graph, graphs.BinaryGraph) else graphs.binarize(graph)
    snap = stats.summarize(binary, args.n)
    writer = stats.write_stats_long_csv if args.long else stats.write_stats_wide_csv
    writer([snap], args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.config is not None:
        try:
            cfg = experiment.load_config(args.config)
        except measures.ParameterError as exc:
            raise UsageError(f"{args.config}: {exc}") from None
    else:
        cfg = experiment.PROFILES[args.profile]
    try:
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
    except measures.ParameterError as exc:
        raise UsageError(exc) from None
    result = experiment.run_sweep(cfg)
    if args.svg:
        points = [(snap.effective_vertices, snap.total_edges)
                  for _, _, snap in result.rows]
        experiment.write_scatter_svg(points, f"{cfg.out_dir}/ve_scatter.svg",
                                     x_label="effective vertices", y_label="edges")
    type_i = result.report.fits.get("I")
    tag = f"{type_i.slope:.3f} ({result.report.type_i_class})" if type_i else "unavailable"
    print(f"wrote {cfg.out_dir}/{{config.json,sweep.csv,hist.csv,fits.csv,fits.json}}")
    print(f"type I slope: {tag}; {result.elapsed_seconds:.1f}s")
    return 0


def _cmd_fit(args) -> int:
    header, rows = read_csv(args.table)
    xs, ys = (column(args.table, header, rows, name, float) for name in (args.x, args.y))
    fit = powerlaw.fit_loglog(xs, ys, args.lower_q, args.upper_q)
    powerlaw.write_fits_csv({f"{args.y}~{args.x}": fit}, args.out)
    return 0


def _cmd_ccdf(args) -> int:
    if args.column is not None:
        name, (header, rows) = args.column, read_csv(args.samples)
    else:  # a plain file reads as a one-column table, one sample per token
        with nullcontext(sys.stdin) if args.samples == "-" else open(args.samples) as fh:
            name, header, rows = "sample", ("sample",), [[t] for t in fh.read().split()]
    curve = powerlaw.ccdf(column(args.samples, header, rows, name, float))
    write_csv(args.out, ("M", "survival"),
              zip(curve.thresholds.tolist(), curve.survival.tolist()))
    return 0


_COMMANDS = {
    "measure": _cmd_measure,
    "graph": _cmd_graph,
    "stats": _cmd_stats,
    "sweep": _cmd_sweep,
    "fit": _cmd_fit,
    "ccdf": _cmd_ccdf,
}


def cli_dispatch(argv: list[str]) -> int:
    """Parse and run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return 0
    except UsageError as exc:
        print(f"crmgraph {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary: report and signal failure
        print(f"crmgraph {args.command}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
