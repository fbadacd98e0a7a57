"""Command-line interface of the assertion linter.

::

    python -m repro.analysis                         # arrestor self-check
    python -m repro.analysis --target tanklevel      # a registered target
    python -m repro.analysis --all-targets           # the whole registry
    python -m repro.analysis --source --target NAME  # + EA4xx/EA5xx source pass
    python -m repro.analysis --list-targets          # registered workloads
    python -m repro.analysis --format json           # machine-readable
    python -m repro.analysis --list-rules            # the rule catalogue
    python -m repro.analysis --target pkg.mod:build  # lint your own plan

A ``--target`` is either a registered workload name (see
``--list-targets``) whose shipped plan is linted via
:meth:`~repro.targets.base.Target.lint_target`, or — when it contains a
``:`` — a zero-argument callable as ``module:function`` that may return
an ``InstrumentationPlan``, a ``(plan, fmeca_entries)`` pair, or a
mapping with ``"plan"`` and optional ``"fmeca"`` keys.

``--source`` additionally parses the modules the target's own module
imports (never importing them) and runs the EA4xx placement and EA5xx
drift rules; such findings carry ``file:line`` in both text and JSON
output.  It requires a registered target (or ``--all-targets``), since
only those ship source to analyse.

Exit status: 0 when no error-severity diagnostics were produced (or with
``--strict``, none at all), 1 on findings, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.process import FmecaEntry, InstrumentationPlan

from repro.analysis.diagnostics import AnalysisOptions, AnalysisReport
from repro.analysis.engine import analyze_plan
from repro.analysis.registry import RuleRegistry, default_registry
from repro.analysis.selfcheck import build_default_target

__all__ = ["main"]

DEFAULT_TARGET = "the arrestor instrumentation (Table 4)"


class UsageError(Exception):
    """Bad CLI input: unknown target, unloadable callable, bad rule id."""


def _resolve_target(
    spec: Optional[str],
) -> Tuple[InstrumentationPlan, Tuple[FmecaEntry, ...], str]:
    if spec is None:
        plan, fmeca = build_default_target()
        return plan, fmeca, DEFAULT_TARGET
    if ":" not in spec:
        from repro.targets import get_target

        try:
            target = get_target(spec)
        except KeyError as exc:
            raise UsageError(str(exc.args[0])) from None
        plan, fmeca = target.lint_target()
        return plan, tuple(fmeca), f"target {target.name!r}"
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise UsageError(f"--target must look like 'module:callable', got {spec!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise UsageError(f"cannot import target module {module_name!r}: {exc}") from exc
    try:
        factory = getattr(module, attr)
    except AttributeError:
        raise UsageError(f"module {module_name!r} has no attribute {attr!r}") from None
    result = factory()
    if isinstance(result, InstrumentationPlan):
        return result, (), spec
    if isinstance(result, dict):
        plan = result.get("plan")
        if not isinstance(plan, InstrumentationPlan):
            raise UsageError(f"target {spec!r} returned no 'plan' entry")
        return plan, tuple(result.get("fmeca", ())), spec
    try:
        plan, fmeca = result
    except (TypeError, ValueError):
        raise UsageError(
            f"target {spec!r} must return an InstrumentationPlan, a "
            f"(plan, fmeca) pair, or a dict with a 'plan' key"
        ) from None
    if not isinstance(plan, InstrumentationPlan):
        raise UsageError(f"target {spec!r} returned {type(plan).__name__}, not a plan")
    return plan, tuple(fmeca), spec


def _split_ids(values: Iterable[str]) -> List[str]:
    ids: List[str] = []
    for value in values:
        ids.extend(part.strip() for part in value.split(",") if part.strip())
    return ids


def _restrict(
    registry: RuleRegistry,
    select: Iterable[str],
    ignore: Iterable[str],
) -> RuleRegistry:
    select_ids = _split_ids(select)
    ignore_ids = _split_ids(ignore)
    if not select_ids and not ignore_ids:
        return registry
    try:
        return registry.select(select_ids or None, ignore_ids)
    except KeyError as exc:
        raise UsageError(str(exc)) from None


def _print_rules(registry: RuleRegistry) -> None:
    width = max(len(rule.id) for rule in registry)
    for rule in sorted(registry, key=lambda r: r.id):
        print(f"{rule.id:<{width}}  {rule.severity.value:<7}  "
              f"[{rule.pack}] {rule.title}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static lint for executable-assertion configurations, "
        "instrumentation plans and coverage holes.",
    )
    parser.add_argument(
        "--target",
        metavar="NAME|MODULE:CALLABLE",
        help="a registered target name, or a zero-argument callable "
        "returning the plan to analyse (default: the arrestor's own "
        "instrumentation)",
    )
    parser.add_argument(
        "--all-targets",
        action="store_true",
        help="lint every registered target's shipped plan",
    )
    parser.add_argument(
        "--source",
        action="store_true",
        help="also run the source-level EA4xx/EA5xx rules over the "
        "modules the target imports (registered targets only)",
    )
    parser.add_argument(
        "--list-targets",
        action="store_true",
        help="print the registered targets and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="IDS",
        help="comma-separated rule ids to run exclusively (repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="IDS",
        help="comma-separated rule ids to skip (repeatable)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings and notes too, not only errors",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--rpn-threshold",
        type=int,
        default=AnalysisOptions.critical_rpn,
        metavar="N",
        help="FMECA RPN at or above which an unmonitored signal is an "
        "error (default: %(default)s)",
    )
    parser.add_argument(
        "--pds-floor",
        type=float,
        default=AnalysisOptions.pds_floor,
        metavar="P",
        help="minimum static per-assertion Pds estimate (default: %(default)s)",
    )
    parser.add_argument(
        "--pem-floor",
        type=float,
        default=AnalysisOptions.pem_floor,
        metavar="P",
        help="minimum RPN-weighted criticality coverage (default: %(default)s)",
    )
    return parser


def _render(report: AnalysisReport, fmt: str, target: str, n_rules: int) -> None:
    if fmt == "json":
        print(report.to_json())
        return
    if report.clean:
        print(f"OK: {target} — no findings from {n_rules} rule(s)")
    else:
        print(f"findings for {target}:")
        print(report.format_text())


def _run_all_targets(
    registry: RuleRegistry,
    options: AnalysisOptions,
    fmt: str,
    strict: bool,
    source: bool = False,
) -> int:
    import json as _json

    from repro.analysis.selfcheck import check_all_targets, check_snapshot_determinism

    reports = check_all_targets(registry=registry, options=options, source=source)
    snapshot_failures = {
        name: failure
        for name in reports
        if (failure := check_snapshot_determinism(name)) is not None
    }
    if fmt == "json":
        payload = {
            name: {
                **_json.loads(report.to_json()),
                "snapshot_determinism": snapshot_failures.get(name),
            }
            for name, report in reports.items()
        }
        print(_json.dumps(payload, indent=2))
    else:
        for name, report in reports.items():
            _render(report, fmt, f"target {name!r}", len(registry))
            if name in snapshot_failures:
                print(f"SNAPSHOT DIVERGENCE: {name}: {snapshot_failures[name]}")
            else:
                print(f"OK: target {name!r} — snapshot-enabled run identical to cold run")
    passed = (
        all(r.clean for r in reports.values())
        if strict
        else all(r.ok for r in reports.values())
    ) and not snapshot_failures
    return 0 if passed else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        registry = _restrict(default_registry(), args.select, args.ignore)
        if args.list_rules:
            _print_rules(registry)
            return 0
        if args.list_targets:
            from repro.targets import default_target_name, get_target, target_names

            default = default_target_name()
            for name in target_names():
                marker = "  (default)" if name == default else ""
                print(f"{name:12s} {get_target(name).description}{marker}")
            return 0
        options = AnalysisOptions(
            critical_rpn=args.rpn_threshold,
            pds_floor=args.pds_floor,
            pem_floor=args.pem_floor,
        )
        if args.all_targets:
            if args.target is not None:
                raise UsageError("--all-targets and --target are mutually exclusive")
            return _run_all_targets(
                registry, options, args.format, args.strict, args.source
            )
        if args.source:
            if args.target is None:
                raise UsageError("--source requires --target NAME or --all-targets")
            if ":" in args.target:
                raise UsageError(
                    "--source needs a registered target (the modules it "
                    "imports), not a module:callable plan factory"
                )
        plan, fmeca, target = _resolve_target(args.target)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = analyze_plan(plan, fmeca, registry=registry, options=options)
    if args.source:
        from repro.analysis.engine import analyze_target_source
        from repro.targets import get_target

        report = report.merged(
            analyze_target_source(
                get_target(args.target), registry=registry, options=options
            )
        )
    _render(report, args.format, target, len(registry))
    if args.strict:
        return 0 if report.clean else 1
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
