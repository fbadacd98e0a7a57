"""Command-line campaign runner: ``python -m repro.experiments``.

Runs the paper's experiments and prints the corresponding tables.

Usage::

    python -m repro.experiments e1 [--cases-all N] [--cases-ea N] [--signal S]
                                   [--workers N] [--store DIR] [--force]
                                   [--shard I/N] [--no-snapshots]
                                   [--injection-start MS] [--batch]
                                   [--trace JSONL] [--metrics-out JSON]
    python -m repro.experiments e2 [--cases N] [--workers N]
                                   [--store DIR] [--force] [--shard I/N]
                                   [--no-snapshots] [--injection-start MS]
                                   [--batch] [--trace JSONL]
                                   [--metrics-out JSON]
    python -m repro.experiments ablations [--store DIR] [--workers N]
                                          [--save CSV]
    python -m repro.experiments reference
    python -m repro.experiments table6
    python -m repro.experiments merge DEST SHARD [SHARD ...]
    python -m repro.experiments diff A B

``e1`` regenerates Tables 7 and 8, ``e2`` Table 9, ``ablations`` the
ablation rows of EXPERIMENTS.md (:mod:`repro.experiments.ablations`),
``reference`` checks the fault-free precondition over the full 25-case
grid, and ``table6`` prints the error-set composition.  ``--target``
selects the workload (default ``$REPRO_TARGET`` or the arrestor; ``--list-targets`` shows the
registry), accepted both before and after the subcommand.  ``--signal``
restricts E1 to one monitored signal (a quick partial campaign); with
``--load`` it filters the loaded records the same way.

Every campaign runs through the content-addressed task graph
(:mod:`repro.experiments.dag`).  ``--workers`` fans its runs out over a
process pool.  ``--store`` names a node-store directory: each completed
run is recorded there as it finishes, so re-running with the same
``--store`` is both the resume of an interrupted campaign and the
replay of an unchanged one — only runs not yet recorded are simulated
(``--force`` re-simulates everything while refreshing the store).
``--no-snapshots`` disables warm-target snapshot reuse (strict
reboot-per-run), and ``--injection-start`` delays the first injection,
letting the snapshot layer fast-forward every run through the shared
fault-free prefix.  ``--batch`` runs the eligible part of the grid
(bit-flips on monitored RAM signals) through the target's vectorized
kernel — record-for-record identical to the serial path, which stays
the oracle.  ``--trace`` streams the structured event trace
(detections, injections, run and node lifecycle) to a JSONL file; a
traced campaign replays nothing from ``--store``, but keeps its pool
and its snapshot fast paths.  A
campaign always ends with a metrics summary, and ``--metrics-out``
additionally writes the full metrics snapshot as JSON.

``--shard I/N`` executes one content-address partition of the grid,
``merge`` unions shard stores (refusing stores produced by different
code), and ``diff`` compares the per-signal detection probabilities of
two captured campaigns (node stores or ``--save`` CSVs) with Wilson
confidence intervals, exiting non-zero on significant regressions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.obs.metrics import MetricsRegistry

from repro.experiments.analysis import (
    detection_by_bit,
    detection_threshold_bit,
    failure_rate_by_signal,
)
from repro.experiments.persistence import (
    load_results,
    save_results,
    write_text_atomic,
)
from repro.experiments.campaign import (
    CampaignConfig,
    run_campaign_graph,
    run_reference_grid,
)
from repro.experiments.results import ResultSet
from repro.experiments.tables import render_table6, tables_renderer
from repro.targets.registry import default_target_name, get_target, target_names


def _default_workers() -> int:
    raw = os.environ.get("REPRO_WORKERS")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


def _add_target_option(parser: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps an unused subcommand option from writing its default
    # into the namespace, which would clobber a --target given before the
    # subcommand (the subparser namespace is copied over the parent's).
    parser.add_argument(
        "--target",
        default=argparse.SUPPRESS,
        metavar="NAME",
        help="registered workload to run against "
        "(default: $REPRO_TARGET or 'arrestor'; see --list-targets)",
    )


def _list_targets() -> int:
    default = default_target_name()
    for name in target_names():
        target = get_target(name)
        marker = "  (default)" if name == default else ""
        print(f"{name:12s} {target.description}{marker}")
    return 0


def _add_execution_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=_default_workers(),
        metavar="N",
        help="worker processes (default: $REPRO_WORKERS or 1 = serial)",
    )
    parser.add_argument(
        "--store",
        default=os.environ.get("REPRO_STORE") or None,
        metavar="DIR",
        help="node-store directory: every completed run is recorded as it "
        "finishes, and a re-run with the same store (after an interrupt, "
        "or with unchanged code/config) simulates only the runs not yet "
        "recorded (default: $REPRO_STORE or off)",
    )


def _add_campaign_options(parser: argparse.ArgumentParser) -> None:
    _add_target_option(parser)
    _add_execution_options(parser)
    parser.add_argument(
        "--force",
        action="store_true",
        help="re-simulate every run instead of replaying --store records "
        "(the store is still refreshed with the new records)",
    )
    parser.add_argument(
        "--injection-start",
        type=int,
        default=int(os.environ.get("REPRO_INJECTION_START") or 0),
        metavar="MS",
        help="sim-time of the first injection in ms; a positive value lets "
        "the snapshot layer fast-forward the shared fault-free prefix "
        "(default: $REPRO_INJECTION_START or 0)",
    )
    parser.add_argument(
        "--no-snapshots",
        action="store_true",
        help="disable warm-target snapshot reuse (strict reboot-per-run)",
    )
    parser.add_argument(
        "--trace",
        default=os.environ.get("REPRO_TRACE") or None,
        metavar="JSONL",
        help="stream structured trace events to this JSONL file "
        "(default: $REPRO_TRACE or off)",
    )
    parser.add_argument(
        "--batch",
        action="store_true",
        default=os.environ.get("REPRO_BATCH") == "1",
        help="vectorized batch execution of eligible runs (bit-flips on "
        "monitored RAM signals); incompatible with --trace, which falls "
        "back to the serial path (default: $REPRO_BATCH or off)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="JSON",
        help="write the campaign metrics snapshot to this JSON file; "
        "graph_nodes_executed_total and graph_nodes_cached_total (per node "
        "kind) and graph_cache_hit_rate say how much was simulated vs "
        "replayed from --store",
    )
    parser.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="execute only shard I of N of the run grid, partitioned by "
        "node content address (skips aggregation — union shard stores "
        "with the 'merge' command, then re-run unsharded to aggregate "
        "from cache)",
    )


def _print_metrics(registry: MetricsRegistry, out_path) -> None:
    """The campaign-end metrics summary (and optional JSON snapshot)."""
    print("\nCampaign metrics:")
    for line in registry.render().splitlines():
        print(f"  {line}")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(registry.snapshot(), handle, indent=2, default=repr)
            handle.write("\n")
        print(f"metrics snapshot written to {out_path}")


def _progress(done: int, total: int) -> None:
    if done % 25 == 0 or done == total:
        sys.stderr.write(f"\r{done}/{total} runs")
        if done == total:
            sys.stderr.write("\n")
        sys.stderr.flush()


def _fallback_note(counters: dict) -> str:
    """``", N batch fallbacks (reason n, ...)"`` from the counters, or ``""``."""
    prefix = "runs_fallback_total{reason="
    reasons = {
        key[len(prefix):].split(",")[0]: count
        for key, count in counters.items()
        if key.startswith(prefix) and key.endswith(",strategy=batch}")
    }
    if not reasons:
        return ""
    detail = ", ".join(f"{reason} {count}" for reason, count in sorted(reasons.items()))
    return f", {sum(reasons.values())} batch fallbacks ({detail})"


def _run_campaign(args: argparse.Namespace, config, experiment, error_filter):
    """Run one campaign through the task graph and report it; returns the outcome."""
    start = time.time()
    outcome = run_campaign_graph(
        config,
        experiment,
        progress=_progress,
        error_filter=error_filter,
        store=args.store,
        force=args.force,
        shard=args.shard,
    )
    stats = outcome.stats
    shard_note = f" [shard {args.shard}]" if args.shard else ""
    hit_rate = stats.hit_rate
    counters = config.metrics.snapshot()["counters"]
    pruned = counters.get("runs_pruned_total", 0)
    print(
        f"\n{experiment.upper()} campaign{shard_note}: "
        f"{len(outcome.results)} runs in {time.time() - start:.0f}s — "
        f"{stats.executed} nodes executed, {stats.cached} replayed, "
        f"{pruned} pruned"
        + _fallback_note(counters)
        + (f" (hit rate {hit_rate:.0%})" if hit_rate is not None else "")
        + "\n"
    )
    if args.save:
        save_results(outcome.results, args.save)
        print(f"saved run records to {args.save}\n")
    if args.trace:
        print(f"trace events written to {args.trace}\n")
    _print_metrics(config.metrics, args.metrics_out)
    if args.shard:
        print(
            f"shard {args.shard} complete: {len(outcome.results)} runs recorded in "
            f"{args.store or 'memory (no --store!)'}; merge shard stores "
            "and re-run unsharded to aggregate"
        )
    return outcome


def _cmd_e1(args: argparse.Namespace) -> int:
    target = get_target(args.target)
    versions = tuple(args.versions.split(",")) if args.versions else None
    config = CampaignConfig(
        cases_all=args.cases_all,
        cases_per_ea=args.cases_ea,
        workers=args.workers,
        trace_path=args.trace,
        metrics=MetricsRegistry(),
        target=target.name,
        injection_start_ms=args.injection_start,
        snapshots=False if args.no_snapshots else None,
        batch=args.batch,
        **({"versions": versions} if versions else {}),
    )
    error_filter = None
    if args.signal is not None:
        if args.signal not in target.monitored_signals:
            print(
                f"unknown signal {args.signal!r}; "
                f"pick one of {tuple(target.monitored_signals)}"
            )
            return 2
        error_filter = lambda e: e.signal == args.signal  # noqa: E731
    if not args.load:
        outcome = _run_campaign(args, config, "e1", error_filter)
        if outcome.tables is not None:
            print(outcome.tables)
        return 0
    results = load_results(args.load)
    print(f"loaded {len(results)} runs from {args.load}\n")
    if args.signal is not None:
        results = ResultSet(results.subset(signal=args.signal))
        print(f"filtered to {len(results)} runs on signal {args.signal}\n")
    render, _ = tables_renderer("e1", config.versions, target.monitored_signals)
    print(render(results))
    return 0


def _cmd_e2(args: argparse.Namespace) -> int:
    config = CampaignConfig(
        cases_e2=args.cases,
        workers=args.workers,
        trace_path=args.trace,
        metrics=MetricsRegistry(),
        target=args.target,
        injection_start_ms=args.injection_start,
        snapshots=False if args.no_snapshots else None,
        batch=args.batch,
    )
    if not args.load:
        outcome = _run_campaign(args, config, "e2", None)
        if outcome.tables is not None:
            print(outcome.tables)
        return 0
    results = load_results(args.load)
    print(f"loaded {len(results)} runs from {args.load}\n")
    render, _ = tables_renderer("e2", config.versions)
    print(render(results))
    return 0


def _cmd_reference(args: argparse.Namespace) -> int:
    records = run_reference_grid(target=args.target)
    bad = [r for r in records if r.detected or r.failed]
    print(f"fault-free grid: {len(records)} runs, {len(bad)} anomalies")
    for record in bad:
        case = record.result.test_case
        print(
            f"  ANOMALY m={case.mass_kg} v={case.velocity_mps} "
            f"detected={record.detected} verdict={record.result.verdict}"
        )
    return 1 if bad else 0


def _cmd_report(args: argparse.Namespace) -> int:
    results = load_results(args.results)
    print(f"report over {len(results)} saved runs\n")
    versions = results.versions
    e1_signals = results.signals
    if not e1_signals:
        render, _ = tables_renderer("e2", versions)
        print(render(results))
        return 0

    render, _ = tables_renderer("e1", versions, e1_signals)
    print(render(results))
    print()
    print("Detection threshold bit per signal (lowest bit with total")
    print("detection upward; '-' = no such threshold):")
    for signal in e1_signals:
        threshold = detection_threshold_bit(results, signal, version=versions[-1])
        per_bit = detection_by_bit(results, signal, version=versions[-1])
        probed = len(per_bit)
        shown = threshold if threshold is not None else "-"
        print(f"  {signal:12s} threshold bit {shown}  ({probed} bit positions probed)")
    print()
    print("Failure rate per injected signal:")
    for signal, rate in failure_rate_by_signal(results, version=versions[-1]).items():
        print(f"  {signal:12s} {rate.format()} %")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.experiments.graph import StoreMergeError, merge_stores

    try:
        merged, present = merge_stores(args.dest, args.sources)
    except StoreMergeError as error:
        print(f"merge refused: {error}", file=sys.stderr)
        return 1
    print(
        f"merged {merged} node record(s) from {len(args.sources)} store(s) "
        f"into {args.dest} ({present} already present)"
    )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.experiments.diff import diff_results, load_records, render_diff

    try:
        records_a = load_records(args.store_a)
        records_b = load_records(args.store_b)
    except (FileNotFoundError, ValueError) as error:
        print(f"diff failed: {error}", file=sys.stderr)
        return 2
    print(f"A: {len(records_a)} runs from {args.store_a}")
    print(f"B: {len(records_b)} runs from {args.store_b}\n")
    deltas = diff_results(records_a, records_b)
    print(render_diff(deltas, label_a=args.store_a, label_b=args.store_b))
    return 1 if any(delta.regression for delta in deltas) else 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import (
        ablations_to_csv,
        render_ablations,
        run_ablations,
    )

    start = time.time()
    run = run_ablations(store=args.store, workers=args.workers, progress=_progress)
    # Wall time and counts change between runs: stderr, like the progress
    # line, so stdout (the committed results/ablations.txt) is stable.
    print(
        f"\nAblations: {run.executed + run.replayed} runs in "
        f"{time.time() - start:.0f}s — {run.executed} runs executed, "
        f"{run.replayed} replayed\n",
        file=sys.stderr,
    )
    if args.save:
        write_text_atomic(args.save, ablations_to_csv(run.results))
        print(f"saved run records to {args.save}\n")
    print(render_ablations(run.results))
    return 0


def _cmd_table6(args: argparse.Namespace) -> int:
    target = get_target(args.target)
    errors = target.e1_error_set()
    plan, _ = target.lint_target()
    ea_by_signal = {planned.signal: planned.monitor_id for planned in plan}
    print("Table 6. The distribution of errors in the error set E1.")
    print(render_table6(errors, cases_per_error=25, ea_by_signal=ea_by_signal))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Fault-injection campaign runner (Hiller, DSN 2000 reproduction)",
    )
    _add_target_option(parser)
    parser.set_defaults(target=None)
    parser.add_argument(
        "--list-targets",
        action="store_true",
        help="list the registered workloads and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_e1 = sub.add_parser("e1", help="run the E1 experiment (Tables 7 and 8)")
    p_e1.add_argument("--cases-all", type=int, default=3, metavar="N")
    p_e1.add_argument("--cases-ea", type=int, default=1, metavar="N")
    p_e1.add_argument("--signal", default=None, help="restrict to one signal")
    p_e1.add_argument(
        "--versions",
        default=None,
        help="comma-separated system versions (e.g. 'EA4,All'); default all eight",
    )
    p_e1.add_argument("--save", default=None, metavar="CSV", help="write run records to a CSV file")
    p_e1.add_argument("--load", default=None, metavar="CSV", help="render tables from saved run records instead of running")
    _add_campaign_options(p_e1)
    p_e1.set_defaults(func=_cmd_e1)

    p_e2 = sub.add_parser("e2", help="run the E2 experiment (Table 9)")
    p_e2.add_argument("--cases", type=int, default=3, metavar="N")
    p_e2.add_argument("--save", default=None, metavar="CSV", help="write run records to a CSV file")
    p_e2.add_argument("--load", default=None, metavar="CSV", help="render tables from saved run records instead of running")
    _add_campaign_options(p_e2)
    p_e2.set_defaults(func=_cmd_e2)

    p_ref = sub.add_parser("reference", help="fault-free precondition check")
    _add_target_option(p_ref)
    p_ref.set_defaults(func=_cmd_reference)

    p_rep = sub.add_parser("report", help="render tables/analyses from saved run records")
    p_rep.add_argument("results", help="CSV file written with --save")
    p_rep.set_defaults(func=_cmd_report)

    p_abl = sub.add_parser(
        "ablations",
        help="run the ablations beyond the paper's tables (EXPERIMENTS.md)",
    )
    _add_execution_options(p_abl)
    p_abl.add_argument("--save", default=None, metavar="CSV", help="write run records to a CSV file")
    p_abl.set_defaults(func=_cmd_ablations)

    p_t6 = sub.add_parser("table6", help="print the E1 error-set composition")
    _add_target_option(p_t6)
    p_t6.set_defaults(func=_cmd_table6)

    p_merge = sub.add_parser(
        "merge",
        help="union shard node stores into one (descriptor-verified)",
    )
    p_merge.add_argument("dest", help="destination node-store directory")
    p_merge.add_argument(
        "sources", nargs="+", help="shard node-store directories to merge in"
    )
    p_merge.set_defaults(func=_cmd_merge)

    p_diff = sub.add_parser(
        "diff",
        help="per-signal P(d) regression diff between two captured campaigns",
    )
    p_diff.add_argument("store_a", help="baseline: node-store dir or --save CSV")
    p_diff.add_argument("store_b", help="candidate: node-store dir or --save CSV")
    p_diff.set_defaults(func=_cmd_diff)

    args = parser.parse_args(argv)
    if args.list_targets:
        return _list_targets()
    if args.command is None:
        parser.error(
            "a command is required "
            "(e1, e2, ablations, reference, report, table6, merge, diff)"
        )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
