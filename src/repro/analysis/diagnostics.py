"""Diagnostic records and reports of the assertion linter.

The analyser never executes the system under analysis; it inspects
parameter sets, instrumentation plans and monitor wiring and reports what
it finds as :class:`Diagnostic` records — one finding per record, each
carrying the rule id that produced it (``EA101`` ...), a severity, the
subject (usually a signal name) and a fix hint.  A whole analysis run is
an :class:`AnalysisReport`.

Severities follow the usual linter convention:

* ``error`` — the configuration is broken: the assertion cannot be built,
  or a service-critical signal is left unmonitored.  Errors make the CLI
  exit non-zero.
* ``warning`` — the configuration runs but detects less than it appears
  to (vacuous parameters, coverage holes).
* ``info`` — stylistic or informational findings.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "Severity",
    "Diagnostic",
    "Finding",
    "AnalysisReport",
    "AnalysisOptions",
]


class Severity(enum.Enum):
    """Severity of one diagnostic, ordered ``ERROR > WARNING > INFO``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]

    def __lt__(self, other: "Severity") -> bool:
        if not isinstance(other, Severity):
            return NotImplemented
        return self.rank < other.rank

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls(text.lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown severity {text!r}; valid: {valid}") from None


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyser.

    ``file`` and ``line`` locate the finding in target source when the
    producing rule works at source level (the EA4xx/EA5xx packs); the
    parameter/plan rules have no source location and leave them ``None``.
    """

    rule_id: str
    severity: Severity
    subject: str
    message: str
    hint: Optional[str] = None
    file: Optional[str] = None
    line: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "subject": self.subject,
            "message": self.message,
            "hint": self.hint,
            "file": self.file,
            "line": self.line,
        }

    @property
    def location(self) -> Optional[str]:
        """``path:line`` when the finding carries a source location."""
        if self.file is None:
            return None
        if self.line is None:
            return self.file
        return f"{self.file}:{self.line}"

    def format(self) -> str:
        line = f"{self.rule_id} {self.severity.value:<7} {self.subject}: {self.message}"
        location = self.location
        if location:
            line = f"{location}: {line}"
        if self.hint:
            line += f"\n    hint: {self.hint}"
        return line


@dataclasses.dataclass(frozen=True)
class Finding:
    """What a rule's check function yields.

    The engine stamps the rule id and default severity onto each finding
    to build the :class:`Diagnostic`; a rule may override the severity per
    finding (e.g. escalate when the defect is certain).
    """

    subject: str
    message: str
    hint: Optional[str] = None
    severity: Optional[Severity] = None
    file: Optional[str] = None
    line: Optional[int] = None


@dataclasses.dataclass(frozen=True)
class AnalysisOptions:
    """Thresholds the coverage and completeness rules evaluate against.

    ``critical_rpn``
        FMECA risk-priority-number at or above which an unmonitored
        signal is an error (rule EA201).
    ``pds_floor``
        Minimum acceptable static ``Pds`` estimate per assertion (EA301).
    ``pem_floor``
        Minimum acceptable RPN-weighted share of criticality covered by
        the plan — the static surrogate for the Section-2.4 ``Pem``
        (EA302).
    ``word_values``
        Size of the corrupted-value space the ``Pds`` surrogate assumes;
        the paper's target stores every signal in a 16-bit word.
    ``injection_period_ms``
        The campaign's injection period; the source-level placement rule
        EA401 flags post-wrap checks whose wrap modulus divides it (the
        phase-lock idiom: every injected corruption is folded back into
        the legal domain before the check runs).
    """

    critical_rpn: int = 100
    pds_floor: float = 0.9
    pem_floor: float = 0.8
    word_values: int = 1 << 16
    injection_period_ms: int = 20

    def __post_init__(self) -> None:
        if self.critical_rpn < 1:
            raise ValueError(f"critical_rpn must be >= 1, got {self.critical_rpn}")
        for name in ("pds_floor", "pem_floor"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.word_values < 2:
            raise ValueError(f"word_values must be >= 2, got {self.word_values}")
        if self.injection_period_ms < 1:
            raise ValueError(
                f"injection_period_ms must be >= 1, got {self.injection_period_ms}"
            )


class AnalysisReport:
    """An ordered collection of diagnostics with linter-style accessors."""

    __slots__ = ("diagnostics",)

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()) -> None:
        self.diagnostics: Tuple[Diagnostic, ...] = tuple(diagnostics)

    # -- verdicts ----------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def ok(self) -> bool:
        """Whether the configuration passed (no error-severity findings)."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """Whether the analyser found nothing at all."""
        return not self.diagnostics

    # -- queries ---------------------------------------------------------

    def by_rule(self) -> Dict[str, List[Diagnostic]]:
        grouped: Dict[str, List[Diagnostic]] = {}
        for diag in self.diagnostics:
            grouped.setdefault(diag.rule_id, []).append(diag)
        return grouped

    def for_subject(self, subject: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.subject == subject]

    def rule_ids(self) -> List[str]:
        return sorted({d.rule_id for d in self.diagnostics})

    def merged(self, other: "AnalysisReport") -> "AnalysisReport":
        return AnalysisReport(self.diagnostics + other.diagnostics)

    # -- rendering ---------------------------------------------------------

    def format_text(self) -> str:
        """Human-readable rendering, most severe first."""
        if not self.diagnostics:
            return "no findings"
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (-d.severity.rank, d.rule_id, d.subject),
        )
        lines = [diag.format() for diag in ordered]
        lines.append(
            f"{len(self.diagnostics)} finding(s): {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), {len(self.infos)} note(s)"
        )
        return "\n".join(lines)

    def to_dicts(self) -> List[Dict[str, object]]:
        return [d.to_dict() for d in self.diagnostics]

    def to_json(self, indent: Optional[int] = 2) -> str:
        payload = {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "diagnostics": self.to_dicts(),
        }
        return json.dumps(payload, indent=indent)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __repr__(self) -> str:
        return (
            f"AnalysisReport({len(self.errors)} errors, "
            f"{len(self.warnings)} warnings, {len(self.infos)} infos)"
        )
