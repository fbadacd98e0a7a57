"""Renderers for the paper's result tables.

Each function returns the table as a string in the layout of the paper:

* Table 6 — the composition of error set E1;
* Table 7 — detection probabilities (%) with 95 % confidence intervals,
  per signal x mechanism version, three measures per signal;
* Table 8 — detection latencies (ms), min/average/max, per signal x
  version, over all detected errors;
* Table 9 — E2 results per memory area: the three coverage measures and
  the latency summaries for all errors and for failure-causing errors.

:func:`tables_renderer` frames them as a campaign's ``tables`` artifact.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.arrestor.instrumentation import EA_BY_SIGNAL, EA_IDS
from repro.arrestor.signals_map import MONITORED_SIGNALS
from repro.closure import source_digest
from repro.experiments.results import ResultSet
from repro.injection.errors import E1_ERRORS_PER_SIGNAL, ErrorSpec

__all__ = [
    "E1_VERSIONS",
    "render_table6",
    "render_table7",
    "render_table8",
    "render_table9",
    "tables_renderer",
]

#: The eight system versions of the E1 experiment.
E1_VERSIONS: Tuple[str, ...] = ("EA1", "EA2", "EA3", "EA4", "EA5", "EA6", "EA7", "All")


def _format_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))


def _layout(rows: List[List[str]]) -> str:
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    return "\n".join(_format_row(row, widths) for row in rows)


def render_table6(
    errors: Sequence[ErrorSpec],
    cases_per_error: int,
    ea_by_signal: Optional[Mapping[str, str]] = None,
) -> str:
    """Table 6: the distribution of errors in the error set E1.

    *ea_by_signal* maps each signal to the assertion label shown in the
    second column; the default is the arrestor's mapping.  Signals appear
    in error-set order, so any target's E1 set renders correctly.
    """
    if ea_by_signal is None:
        ea_by_signal = EA_BY_SIGNAL
    rows = [["Signal", "Executable assertion", "# errors (ns)", "Error numbers", "# injections"]]
    signals: List[str] = []
    for error in errors:
        if error.signal is not None and error.signal not in signals:
            signals.append(error.signal)
    by_signal = {signal: [e for e in errors if e.signal == signal] for signal in signals}
    total = 0
    for signal in signals:
        errs = by_signal[signal]
        if not errs:
            continue
        numbers = f"{errs[0].name}-{errs[-1].name}"
        rows.append(
            [
                signal,
                ea_by_signal.get(signal, "-"),
                str(len(errs)),
                numbers,
                str(len(errs) * cases_per_error),
            ]
        )
        total += len(errs)
    rows.append(["Total", "-", str(total), "-", str(total * cases_per_error)])
    return _layout(rows)


_MEASURES = ("P(d)", "P(d|fail)", "P(d|no fail)")


def render_table7(
    results: ResultSet,
    versions: Sequence[str] = E1_VERSIONS,
    signals: Optional[Sequence[str]] = None,
) -> str:
    """Table 7: error detection probabilities (%) with 95 % intervals.

    Empty cells mean no detection was registered for that combination,
    and — per the paper's caption — probabilities of exactly 100.0 print
    without a confidence interval.  *signals* selects the row axis
    (default: the arrestor's seven monitored signals).
    """
    if signals is None:
        signals = MONITORED_SIGNALS
    header = ["Signal", "Measure"] + list(versions)
    rows = [header]
    for signal in list(signals) + ["Total"]:
        sig_filter = None if signal == "Total" else signal
        for measure in _MEASURES:
            row = [signal if measure == "P(d)" else "", measure]
            for version in versions:
                triple = results.coverage(signal=sig_filter, version=version)
                estimate = {
                    "P(d)": triple.p_d,
                    "P(d|fail)": triple.p_d_fail,
                    "P(d|no fail)": triple.p_d_no_fail,
                }[measure]
                if not estimate.defined:
                    row.append("-")
                elif estimate.nd == 0:
                    row.append("")  # empty cell: no detection registered
                else:
                    row.append(estimate.format())
            rows.append(row)
    return _layout(rows)


_LATENCY_ROWS = ("Min", "Average", "Max")


def render_table8(
    results: ResultSet,
    versions: Sequence[str] = E1_VERSIONS,
    signals: Optional[Sequence[str]] = None,
) -> str:
    """Table 8: error detection latencies for all detected errors (ms)."""
    if signals is None:
        signals = MONITORED_SIGNALS
    header = ["Signal", "Latency"] + list(versions)
    rows = [header]
    for signal in list(signals) + ["Total"]:
        sig_filter = None if signal == "Total" else signal
        for which in _LATENCY_ROWS:
            row = [signal if which == "Min" else "", which]
            for version in versions:
                summary = results.latency(signal=sig_filter, version=version)
                if not summary.defined:
                    row.append("")
                else:
                    value = {
                        "Min": summary.minimum,
                        "Average": summary.average,
                        "Max": summary.maximum,
                    }[which]
                    row.append(f"{value:.0f}")
            rows.append(row)
    return _layout(rows)


def render_table9(results: ResultSet) -> str:
    """Table 9: results for error set E2, by memory area."""
    rows = [
        [
            "Area",
            "Measure",
            "Detection probability",
            "Latency (all)",
            "Latency (failures)",
        ]
    ]
    for area_label, area in (("RAM", "ram"), ("Stack", "stack"), ("Total", None)):
        triple = results.coverage(area=area)
        lat_all = results.latency(area=area)
        lat_fail = results.latency(area=area, failures_only=True)
        for measure in _MEASURES:
            estimate = {
                "P(d)": triple.p_d,
                "P(d|fail)": triple.p_d_fail,
                "P(d|no fail)": triple.p_d_no_fail,
            }[measure]
            rows.append(
                [
                    area_label if measure == "P(d)" else "",
                    measure,
                    estimate.format() if estimate.defined else "-",
                    lat_all.format() if measure == "P(d)" else "",
                    lat_fail.format() if measure == "P(d)" else "",
                ]
            )
    return _layout(rows)


def tables_renderer(
    experiment: str, versions: Sequence[str], signals: Sequence[str] = ()
) -> Tuple[Callable[[ResultSet], str], str]:
    """The tables renderer for one experiment's records, plus its fingerprint.

    E1 records render as Tables 7 and 8 over *versions* (columns) and
    *signals* (rows); E2 records as Table 9 alone.  A campaign's tables
    node uses it with the config's versions and the target's monitored
    signals, ``report``/``--load`` with what the saved records carry.
    The fingerprint is the digest of this module's import closure (the
    records and statistics it renders included), so a table-layout
    change re-renders the artifact without re-simulating a single run,
    and an engine change does not re-render it.
    """
    fingerprint = source_digest(__name__)
    signals = tuple(signals)
    versions = tuple(versions)

    if experiment == "e1":
        def render(results: ResultSet) -> str:
            return (
                "Table 7. Error detection probabilities (%)\n"
                + render_table7(results, versions, signals=signals)
                + "\n\nTable 8. Error detection latencies (ms)\n"
                + render_table8(results, versions, signals=signals)
            )
    else:
        def render(results: ResultSet) -> str:
            return "Table 9. Results for error set E2\n" + render_table9(results)

    return render, fingerprint
