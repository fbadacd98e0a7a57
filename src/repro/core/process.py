"""The incorporation process of Section 2.3 as an executable workflow.

The paper proposes an eight-step process for equipping a system with the
error-detection mechanisms:

1. identify the input and output signals,
2. identify the signal pathways from inputs through the system to outputs,
3. identify internally generated signals influencing intermediate/output
   signals,
4. determine the most service-critical signals (e.g. via FMECA),
5. classify each selected signal per the Figure-1 scheme,
6. determine parameter values (per operational mode where needed),
7. decide on mechanism locations,
8. incorporate the mechanisms.

This module makes steps 1-7 concrete: a :class:`SignalInventory` captures
signals, producing/consuming modules and dataflow; pathway queries answer
step 2; a lightweight FMECA table ranks criticality for step 4; and an
:class:`InstrumentationPlan` collects the outcome of steps 5-7 in a form
that :class:`repro.core.monitor.MonitorBank` (step 8) can consume.

The dataflow is an adjacency map: successor and predecessor dicts keyed
by node, each holding its neighbours as an insertion-ordered dict.  The
pathway queries are iterative walks over it.  A target's inventory has a
few dozen nodes, so a graph library would cost every importing process
more start-up time and memory than the queries ever take.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.core.classes import SignalClass
from repro.core.parameters import ContinuousParams, DiscreteParams, ModalParameterSet

__all__ = [
    "SignalDeclaration",
    "SignalInventory",
    "FmecaEntry",
    "InstrumentationPlan",
    "PlannedAssertion",
]

Params = Union[ContinuousParams, DiscreteParams, ModalParameterSet]

#: A dataflow node: ``("signal", name)`` or ``("module", name)``.
Node = Tuple[str, str]
#: Node -> its neighbours, in the order the edges were declared.
Adjacency = Dict[Node, Dict[Node, None]]


@dataclasses.dataclass(frozen=True)
class SignalDeclaration:
    """One signal of the system under analysis (steps 1 and 3).

    ``kind`` is ``"input"``, ``"output"`` or ``"internal"``.  ``producer``
    and ``consumers`` are module names; dataflow edges are derived from
    them.
    """

    name: str
    kind: str
    producer: str
    consumers: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("input", "output", "internal"):
            raise ValueError(f"kind must be input/output/internal, got {self.kind!r}")
        object.__setattr__(self, "consumers", tuple(self.consumers))


@dataclasses.dataclass(frozen=True)
class FmecaEntry:
    """FMECA-style record for one signal (step 4).

    ``severity`` and ``occurrence`` use the conventional 1-10 ordinal
    scales; ``detectability`` is 1 (certain to be caught downstream) to 10
    (invisible).  The risk priority number is their product.
    """

    signal: str
    failure_mode: str
    severity: int
    occurrence: int
    detectability: int = 10

    def __post_init__(self) -> None:
        for field_name in ("severity", "occurrence", "detectability"):
            value = getattr(self, field_name)
            if not 1 <= value <= 10:
                raise ValueError(f"{field_name} must be in 1..10, got {value}")

    @property
    def rpn(self) -> int:
        """Risk priority number: severity x occurrence x detectability."""
        return self.severity * self.occurrence * self.detectability


class SignalInventory:
    """Signals + modules + dataflow of the system under analysis.

    The dataflow graph is bipartite-ish: module nodes and signal nodes,
    with an edge ``producer -> signal`` and ``signal -> consumer`` for each
    declaration, so pathway queries (step 2) are plain graph reachability.
    ``_succ`` and ``_pred`` hold every node, each with its successors or
    predecessors in edge-declaration order.
    """

    def __init__(self) -> None:
        self._signals: Dict[str, SignalDeclaration] = {}
        self._succ: Adjacency = {}
        self._pred: Adjacency = {}

    def _add_edge(self, tail: Node, head: Node) -> None:
        for node in (tail, head):
            self._succ.setdefault(node, {})
            self._pred.setdefault(node, {})
        self._succ[tail][head] = None
        self._pred[head][tail] = None

    # -- steps 1 & 3 ---------------------------------------------------------

    def declare(
        self,
        name: str,
        kind: str,
        producer: str,
        consumers: Iterable[str],
    ) -> SignalDeclaration:
        """Declare one signal; returns its record."""
        if name in self._signals:
            raise ValueError(f"signal {name!r} already declared")
        decl = SignalDeclaration(name, kind, producer, tuple(consumers))
        self._signals[name] = decl
        self._add_edge(("module", producer), ("signal", name))
        for consumer in decl.consumers:
            self._add_edge(("signal", name), ("module", consumer))
        return decl

    def __contains__(self, name: str) -> bool:
        return name in self._signals

    def __len__(self) -> int:
        return len(self._signals)

    def signal(self, name: str) -> SignalDeclaration:
        return self._signals[name]

    @property
    def signals(self) -> List[SignalDeclaration]:
        return list(self._signals.values())

    @property
    def inputs(self) -> List[str]:
        return [s.name for s in self._signals.values() if s.kind == "input"]

    @property
    def outputs(self) -> List[str]:
        return [s.name for s in self._signals.values() if s.kind == "output"]

    @property
    def internals(self) -> List[str]:
        return [s.name for s in self._signals.values() if s.kind == "internal"]

    @property
    def modules(self) -> List[str]:
        return sorted(n for kind, n in self._succ if kind == "module")

    # -- step 2: pathways ----------------------------------------------------

    def pathways(self, source: str, sink: str) -> List[List[str]]:
        """All signal pathways from signal *source* to signal *sink*.

        Each pathway is the sequence of signal names traversed (module
        hops elided), e.g. ``["pulscnt", "SetValue", "OutValue"]``.
        Pathways come in depth-first order, each node's successors taken
        in declaration order; ``pathways(s, s)`` is ``[[s]]``.
        """
        src, dst = ("signal", source), ("signal", sink)
        if src not in self._succ or dst not in self._succ:
            raise KeyError(f"unknown signal in pathway query: {source!r} -> {sink!r}")
        found: List[List[str]] = []
        # The current path (an insertion-ordered dict doubles as its
        # membership set) and, per node on it, its untried successors.
        path: Dict[Node, None] = {}
        branches: List[Iterator[Node]] = [iter((src,))]
        while branches:
            step = next((n for n in branches[-1] if n not in path), None)
            if step is None:
                branches.pop()
                if path:
                    path.popitem()
            elif step == dst:
                found.append([n for kind, n in (*path, dst) if kind == "signal"])
            else:
                path[step] = None
                branches.append(iter(self._succ[step]))
        return found

    def _reachable(self, name: str, adjacency: Adjacency) -> Set[str]:
        """Signals reachable from signal *name* along *adjacency*, itself excluded."""
        start = ("signal", name)
        if start not in adjacency:
            raise KeyError(f"unknown signal {name!r}")
        seen = {start}
        todo = [start]
        while todo:
            for nxt in adjacency[todo.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        seen.discard(start)
        return {n for kind, n in seen if kind == "signal"}

    def downstream_signals(self, name: str) -> Set[str]:
        """Signals reachable from *name* through the dataflow (influence set)."""
        return self._reachable(name, self._succ)

    def upstream_signals(self, name: str) -> Set[str]:
        """Signals from which *name* is reachable (its dependency set)."""
        return self._reachable(name, self._pred)

    def influence_on_outputs(self, name: str) -> Set[str]:
        """Which system outputs the signal can influence (steps 2 + 3)."""
        outputs = set(self.outputs)
        reachable = self.downstream_signals(name) | {name}
        return reachable & outputs

    # -- step 4: criticality ---------------------------------------------------

    def rank_by_fmeca(
        self,
        entries: Iterable[FmecaEntry],
        top: Optional[int] = None,
    ) -> List[Tuple[str, int]]:
        """Rank signals by their worst-mode risk priority number.

        Returns ``(signal, max RPN)`` pairs, most critical first, limited
        to *top* entries when given.  Unknown signals are rejected.
        """
        worst: Dict[str, int] = {}
        for entry in entries:
            if entry.signal not in self._signals:
                raise KeyError(f"FMECA entry references unknown signal {entry.signal!r}")
            worst[entry.signal] = max(worst.get(entry.signal, 0), entry.rpn)
        ranked = sorted(worst.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:top] if top is not None else ranked


@dataclasses.dataclass(frozen=True)
class PlannedAssertion:
    """Outcome of steps 5-7 for one monitored signal."""

    signal: str
    signal_class: SignalClass
    params: Params
    location: str
    monitor_id: str


class InstrumentationPlan:
    """The instrumentation decisions for a system (steps 5-7).

    The plan validates against an inventory (monitored signals must exist
    and test locations must be modules that produce or consume the signal,
    matching the paper's placements in Table 4) and can instantiate a
    configured :class:`~repro.core.monitor.MonitorBank` (step 8).
    """

    def __init__(self, inventory: SignalInventory) -> None:
        self.inventory = inventory
        self._planned: Dict[str, PlannedAssertion] = {}

    def plan(
        self,
        signal: str,
        signal_class: SignalClass,
        params: Params,
        location: str,
        monitor_id: Optional[str] = None,
    ) -> PlannedAssertion:
        """Add the assertion plan for one signal."""
        if signal not in self.inventory:
            raise KeyError(f"cannot plan assertion for undeclared signal {signal!r}")
        if signal in self._planned:
            raise ValueError(f"signal {signal!r} already planned")
        decl = self.inventory.signal(signal)
        valid_locations = {decl.producer, *decl.consumers}
        if location not in valid_locations:
            raise ValueError(
                f"test location {location!r} neither produces nor consumes "
                f"{signal!r} (valid: {sorted(valid_locations)})"
            )
        planned = PlannedAssertion(
            signal=signal,
            signal_class=signal_class,
            params=params,
            location=location,
            monitor_id=monitor_id if monitor_id is not None else signal,
        )
        self._planned[signal] = planned
        return planned

    def __len__(self) -> int:
        return len(self._planned)

    def __iter__(self):
        return iter(self._planned.values())

    def __contains__(self, signal: str) -> bool:
        return signal in self._planned

    def __getitem__(self, signal: str) -> PlannedAssertion:
        return self._planned[signal]

    @property
    def signals(self) -> List[str]:
        """The monitored signals, in planning order."""
        return list(self._planned)

    def assertions_at(self, location: str) -> List[PlannedAssertion]:
        """The assertions placed in module *location* (step 7 review)."""
        return [p for p in self._planned.values() if p.location == location]

    def build_monitor_bank(self, enabled: Optional[Iterable[str]] = None):
        """Step 8: instantiate monitors for the planned assertions.

        *enabled* restricts instantiation to a subset of monitor ids —
        this is how the evaluation builds its eight system versions (each
        EA alone, and all together).
        """
        from repro.core.monitor import MonitorBank

        enabled_set = set(enabled) if enabled is not None else None
        bank = MonitorBank()
        for planned in self._planned.values():
            if enabled_set is not None and planned.monitor_id not in enabled_set:
                continue
            bank.add(
                planned.signal,
                planned.signal_class,
                planned.params,
                monitor_id=planned.monitor_id,
            )
        return bank
