"""Cross-campaign regression diff: ``python -m repro.experiments diff A B``.

Compares the per-signal detection probabilities of two captured
campaigns — node-store directories or saved campaign CSVs, in any
combination — and reports each signal's ``P(d)``
delta with Wilson 95 % confidence intervals
(:func:`repro.stats.wilson_interval`).  A delta is **significant** when
the two intervals are disjoint, and a **regression** when the newer
side's detection probability is significantly lower; the CLI exits
non-zero on regressions, so the command can gate CI between PRs.

The Wilson interval (not the paper's normal approximation) is used
because campaign signals routinely sit at exactly 100 % detection,
where the normal interval collapses to zero width and would flag every
1-run fluctuation as significant.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.experiments.persistence import decode_row, load_results
from repro.experiments.results import ResultSet, RunRecord
from repro.stats import wilson_interval

__all__ = ["SignalDelta", "load_records", "diff_results", "render_diff"]


def load_records(path: Union[str, Path]) -> ResultSet:
    """Every run record captured under *path*, pooled.

    Accepts a campaign CSV written by ``--save`` or a node-store
    directory (packs of node completion records; ``run`` nodes carry
    one encoded record each).
    """
    from repro.experiments.graph import NodeStore

    path = Path(path)
    if path.is_file():
        return load_results(path)
    node_store = NodeStore(path)
    if not node_store.dir.is_dir():
        raise FileNotFoundError(
            f"no --save CSV or node store ({NodeStore.SUBDIR}/) at {path}"
        )
    records: List[RunRecord] = []
    for key in node_store.iter_keys():
        record = node_store.load(key)
        if record is None or record.get("kind") != "run":
            continue
        output = record.get("output")
        if isinstance(output, list):
            try:
                records.append(decode_row([str(cell) for cell in output]))
            except ValueError:
                continue
    return ResultSet(records)


@dataclasses.dataclass(frozen=True)
class SignalDelta:
    """One signal's detection-probability movement between two campaigns."""

    signal: str
    detected_a: int
    runs_a: int
    detected_b: int
    runs_b: int
    #: Wilson 95 % CIs in percent, ``(lower, upper)``.
    interval_a: Tuple[float, float]
    interval_b: Tuple[float, float]

    @property
    def p_a(self) -> float:
        return 100.0 * self.detected_a / self.runs_a

    @property
    def p_b(self) -> float:
        return 100.0 * self.detected_b / self.runs_b

    @property
    def delta(self) -> float:
        return self.p_b - self.p_a

    @property
    def significant(self) -> bool:
        """The two Wilson intervals are disjoint."""
        return (
            self.interval_a[1] < self.interval_b[0]
            or self.interval_b[1] < self.interval_a[0]
        )

    @property
    def regression(self) -> bool:
        return self.significant and self.p_b < self.p_a

    def format(self) -> str:
        ci_a = f"[{self.interval_a[0]:.1f}, {self.interval_a[1]:.1f}]"
        ci_b = f"[{self.interval_b[0]:.1f}, {self.interval_b[1]:.1f}]"
        marker = "  REGRESSION" if self.regression else (
            "  improvement" if self.significant else ""
        )
        return (
            f"{self.signal:14s} "
            f"{self.p_a:6.1f}% {ci_a:>15s} ({self.detected_a}/{self.runs_a})"
            f"  ->  "
            f"{self.p_b:6.1f}% {ci_b:>15s} ({self.detected_b}/{self.runs_b})"
            f"  delta {self.delta:+.1f}pp{marker}"
        )


def _signal_label(record: RunRecord) -> str:
    """Grouping label: the injected signal, or the memory area for E2."""
    if record.signal is not None:
        return record.signal
    return f"area:{record.area}"


def diff_results(a: ResultSet, b: ResultSet) -> List[SignalDelta]:
    """Per-signal P(d) deltas between two pooled campaigns.

    Only signals present on both sides are compared (a signal that
    appears or disappears is a grid change, not a regression).
    """
    def tally(results: ResultSet) -> Dict[str, Tuple[int, int]]:
        counts: Dict[str, Tuple[int, int]] = {}
        for record in results.records:
            label = _signal_label(record)
            detected, runs = counts.get(label, (0, 0))
            counts[label] = (detected + (1 if record.detected else 0), runs + 1)
        return counts

    counts_a = tally(a)
    counts_b = tally(b)
    deltas: List[SignalDelta] = []
    for label in sorted(counts_a.keys() & counts_b.keys()):
        detected_a, runs_a = counts_a[label]
        detected_b, runs_b = counts_b[label]
        deltas.append(
            SignalDelta(
                signal=label,
                detected_a=detected_a,
                runs_a=runs_a,
                detected_b=detected_b,
                runs_b=runs_b,
                interval_a=wilson_interval(detected_a, runs_a),
                interval_b=wilson_interval(detected_b, runs_b),
            )
        )
    return deltas


def render_diff(
    deltas: List[SignalDelta], label_a: str = "A", label_b: str = "B"
) -> str:
    """Human-readable diff report (one line per signal + a verdict)."""
    lines = [f"P(d) per signal, {label_a} -> {label_b} (Wilson 95% CIs):"]
    if not deltas:
        lines.append("  (no common signals)")
        return "\n".join(lines)
    lines.extend(f"  {delta.format()}" for delta in deltas)
    regressions = [delta for delta in deltas if delta.regression]
    if regressions:
        lines.append(
            f"{len(regressions)} significant regression(s): "
            + ", ".join(delta.signal for delta in regressions)
        )
    else:
        lines.append("no significant regressions")
    return "\n".join(lines)
