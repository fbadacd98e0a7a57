"""Source-level def-use analysis of target implementation modules.

The dynamic harness proves what the shipped instrumentation *does*; this
module proves things about what the target source *says*.  It parses —
never imports or executes — the modules of a target's import closure
(:func:`repro.closure.import_closure` from the target class's own
module, the same file set the campaign graph keys the target's runs by)
and builds a per-signal def-use model:

* **memory models** — classes exposing a ``signal_variable`` mapping are
  recognised as target memories; their ``__init__`` allocations
  (``self.x = self._var("Sym")`` / ``Variable(map, region.allocate("Sym",
  n))``) yield the attribute → signal-symbol table that keys everything
  else;
* **signal events** — every ``.get()`` / ``.set()`` / ``.add()`` on a
  resolvable signal handle and every check idiom (a ``checked(monitor,
  var, now)`` read-test-writeback helper and ``monitor.test(var.get(),
  now)``) becomes a :class:`SignalEvent` with module/function/order and
  file:line, with class-level (``self._slot = mem.slot_id``) and local
  (``comm_tx = master.mem.comm_tx_set_value``) aliases resolved;
* **in-place word access** — the serial tick reads and writes its words
  on the memory ``bytearray`` directly: with ``self._slot_at =
  mem.slot_id.address`` (or a local ``a = self._slot_at``), a load
  ``data[a]`` is a read of the signal and a store ``data[a] = ...`` a
  write (the ``data[a + 1]`` high byte belongs to the same access), and
  ``monitor.test(value, now)`` on a local that holds an unchecked read
  is a check of that read's signal;
* **taint + wrap tracking** — a local assigned from a standalone
  unchecked read is tainted by that signal; folding it through the wrap
  idiom (``if slot >= N: slot = 0`` or ``slot % N``) records the modulus
  ``N`` (resolved through module constants and ``import ... as k``
  aliases, ``-1`` when unresolvable), so the EA401 placement rule can
  decide whether a later check is phase-locked against the injection
  period.

The model is deliberately syntactic: it recognises the handle idioms
this repository's targets use, not arbitrary Python.  Rules built on it
(:mod:`repro.analysis.rules_dataflow`, :mod:`repro.analysis.rules_drift`)
are tuned so that the shipped targets pass clean and each seeded-defect
fixture fires.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.closure import import_closure, module_file

__all__ = [
    "SignalEvent",
    "MemoryModel",
    "FunctionInfo",
    "SourceModel",
    "build_source_model",
]

#: Check-helper method names: ``checked(monitor, var, now)``, a
#: read-test-writeback helper over a handle, also under a private name.
_CHECK_HELPERS = ("checked", "_checked")


@dataclasses.dataclass(frozen=True)
class SignalEvent:
    """One access to a monitored-memory signal found in target source.

    ``kind`` is ``"read"`` / ``"write"`` / ``"check"``.  ``index`` orders
    events within ``function``; it counts events, not lines, so it is
    invariant under comment/whitespace edits.  ``in_write`` marks a read
    nested in a same-signal write (the exempt read-modify-write shape);
    ``tainted`` marks a write whose value derives from a standalone
    unchecked read of the same signal, with ``wrap_modulus`` the wrap
    fold applied in between (``None`` no wrap, ``-1`` unresolvable).
    ``consumer`` names the method a read is passed straight into
    (``drain.receive(mem.comm_set_point.get())`` → ``"receive"``).
    """

    signal: str
    kind: str
    module: str
    file: str
    line: int
    function: str
    index: int
    in_write: bool = False
    tainted: bool = False
    rmw: bool = False
    wrap_modulus: Optional[int] = None
    consumer: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class MemoryModel:
    """One recognised target-memory class (has a ``signal_variable`` map)."""

    class_name: str
    module: str
    file: str
    line: int
    #: Keys of the ``signal_variable`` mapping, in declaration order.
    mapped_signals: Tuple[str, ...]
    #: The module-level ``MONITORED_SIGNALS`` tuple, when present.
    declared_signals: Tuple[str, ...]
    #: Attribute name → signal symbol, from ``__init__`` allocations.
    attr_symbols: Mapping[str, str]

    @property
    def monitored(self) -> Tuple[str, ...]:
        """Mapped ∪ declared signals, mapped order first."""
        seen = list(self.mapped_signals)
        for name in self.declared_signals:
            if name not in seen:
                seen.append(name)
        return tuple(seen)


@dataclasses.dataclass(frozen=True)
class FunctionInfo:
    """Guard capabilities of one parsed function/method (for EA404)."""

    name: str
    qualname: str
    module: str
    file: str
    line: int
    has_test_call: bool = False
    has_clamp: bool = False

    @property
    def guarded(self) -> bool:
        return self.has_test_call or self.has_clamp


@dataclasses.dataclass(frozen=True)
class SourceModel:
    """The def-use model :func:`build_source_model` produces."""

    target_name: str
    modules: Tuple[str, ...]
    memories: Tuple[MemoryModel, ...]
    events: Tuple[SignalEvent, ...]
    functions: Tuple[FunctionInfo, ...]

    def for_signal(self, signal: str) -> List[SignalEvent]:
        return [e for e in self.events if e.signal == signal]

    def signals(self) -> Tuple[str, ...]:
        return tuple(sorted({e.signal for e in self.events}))

    @property
    def monitored(self) -> Tuple[str, ...]:
        """Union of every memory model's monitored signals, stable order."""
        seen: List[str] = []
        for memory in self.memories:
            for name in memory.monitored:
                if name not in seen:
                    seen.append(name)
        return tuple(seen)

    def comm_signals(self) -> Tuple[str, ...]:
        """Communication-buffer symbols (by the ``comm`` naming convention)."""
        names = {e.signal for e in self.events}
        for memory in self.memories:
            names.update(memory.attr_symbols.values())
        return tuple(sorted(n for n in names if "comm" in n.lower()))

    def functions_named(self, name: str) -> List[FunctionInfo]:
        return [f for f in self.functions if f.name == name]

    def structure(self) -> Tuple[Tuple[object, ...], ...]:
        """A location-free view of the event stream.

        Excludes file paths and line numbers, so it is invariant under
        comment- and whitespace-only edits to the analysed sources — the
        property the def-use tests pin.
        """
        return tuple(
            (
                e.module,
                e.function,
                e.index,
                e.signal,
                e.kind,
                e.in_write,
                e.tainted,
                e.rmw,
                e.wrap_modulus,
                e.consumer,
            )
            for e in self.events
        )


# -- parsing ------------------------------------------------------------------


@dataclasses.dataclass
class _ParsedModule:
    name: str
    file: str
    tree: ast.Module
    constants: Dict[str, int] = dataclasses.field(default_factory=dict)
    import_aliases: Dict[str, str] = dataclasses.field(default_factory=dict)
    declared_signals: Tuple[str, ...] = ()


def _parse(name: str, file: str, text: str) -> _ParsedModule:
    tree = ast.parse(text, filename=file)
    parsed = _ParsedModule(name=name, file=file, tree=tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                value = node.value
                if isinstance(value, ast.Constant) and isinstance(value.value, int):
                    parsed.constants[target.id] = value.value
                elif target.id == "MONITORED_SIGNALS" and isinstance(
                    value, (ast.Tuple, ast.List)
                ):
                    names = [
                        e.value
                        for e in value.elts
                        if isinstance(e, ast.Constant) and isinstance(e.value, str)
                    ]
                    parsed.declared_signals = tuple(names)
    return parsed


def _record_import_aliases(
    parsed: _ParsedModule, is_module: Callable[[str], bool]
) -> None:
    for node in ast.walk(parsed.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    parsed.import_aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                candidate = f"{node.module}.{alias.name}"
                if is_module(candidate):
                    parsed.import_aliases[alias.asname or alias.name] = candidate


# -- memory-class recognition -------------------------------------------------


def _allocation_symbol(call: ast.Call) -> Optional[str]:
    """The signal symbol allocated by one ``__init__`` call, if any."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "_var"
        and call.args
        and isinstance(call.args[0], ast.Constant)
        and isinstance(call.args[0].value, str)
    ):
        return call.args[0].value
    for arg in call.args:
        if (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Attribute)
            and arg.func.attr == "allocate"
            and arg.args
            and isinstance(arg.args[0], ast.Constant)
            and isinstance(arg.args[0].value, str)
        ):
            return arg.args[0].value
    return None


def _signal_variable_mapping(func: ast.FunctionDef) -> Tuple[str, ...]:
    """Keys of the ``signal_variable`` dict literal, in order."""
    for node in ast.walk(func):
        if isinstance(node, ast.Dict) and node.keys:
            keys = [
                k.value
                for k in node.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            ]
            values_ok = all(
                isinstance(v, ast.Attribute)
                and isinstance(v.value, ast.Name)
                and v.value.id == "self"
                for v in node.values
            )
            if keys and len(keys) == len(node.keys) and values_ok:
                return tuple(keys)
    return ()


def _find_memories(parsed: _ParsedModule) -> List[MemoryModel]:
    memories: List[MemoryModel] = []
    for node in parsed.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            item.name: item
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        }
        mapper = methods.get("signal_variable")
        if mapper is None:
            continue
        mapped = _signal_variable_mapping(mapper)
        if not mapped:
            continue
        attr_symbols: Dict[str, str] = {}
        init = methods.get("__init__")
        if init is not None:
            for stmt in ast.walk(init):
                if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                    continue
                target = stmt.targets[0]
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                if isinstance(stmt.value, ast.Call):
                    symbol = _allocation_symbol(stmt.value)
                    if symbol is not None:
                        attr_symbols[target.attr] = symbol
        memories.append(
            MemoryModel(
                class_name=node.name,
                module=parsed.name,
                file=parsed.file,
                line=node.lineno,
                mapped_signals=mapped,
                declared_signals=parsed.declared_signals,
                attr_symbols=attr_symbols,
            )
        )
    return memories


# -- event extraction ---------------------------------------------------------


class _ExprInfo:
    """What scanning one expression surfaced (for taint propagation)."""

    __slots__ = ("reads", "tainted", "had_check")

    def __init__(self) -> None:
        self.reads: List[str] = []
        self.tainted: List[str] = []
        self.had_check = False

    def merge(self, other: "_ExprInfo") -> None:
        self.reads.extend(other.reads)
        self.tainted.extend(other.tainted)
        self.had_check = self.had_check or other.had_check


class _FunctionScanner:
    """Extract :class:`SignalEvent` records from one function body."""

    def __init__(
        self,
        parsed: _ParsedModule,
        qualname: str,
        class_attr_symbols: Mapping[str, str],
        class_addresses: Mapping[str, str],
        global_attr_symbols: Mapping[str, str],
        constants_of: Mapping[str, Mapping[str, int]],
        events: List[SignalEvent],
    ) -> None:
        self.parsed = parsed
        self.qualname = qualname
        self.class_attrs = class_attr_symbols
        self.class_addresses = class_addresses
        self.global_attrs = global_attr_symbols
        self.constants_of = constants_of
        self.events = events
        self.index = 0
        self.taint: Dict[str, Tuple[str, Optional[int]]] = {}
        self.local_symbols: Dict[str, str] = {}
        self.local_addresses: Dict[str, str] = {}
        self.has_test_call = False
        self.has_clamp = False

    # -- resolution -------------------------------------------------------

    def resolve_handle(self, expr: ast.expr) -> Optional[str]:
        """The signal symbol a handle expression denotes, if known."""
        if isinstance(expr, ast.Name):
            return self.local_symbols.get(expr.id)
        if isinstance(expr, ast.Attribute):
            attr = expr.attr
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and attr in self.class_attrs
            ):
                return self.class_attrs[attr]
            return self.global_attrs.get(attr)
        return None

    def resolve_address(self, expr: ast.expr) -> Optional[str]:
        """The signal whose word address an index expression denotes."""
        if isinstance(expr, ast.Name):
            return self.local_addresses.get(expr.id)
        if isinstance(expr, ast.Attribute):
            if expr.attr == "address":
                return self.resolve_handle(expr.value)
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                return self.class_addresses.get(expr.attr)
        return None

    def resolve_constant(self, expr: ast.expr) -> Optional[int]:
        """An integer modulus: literal, module constant, or ``k.NAME``."""
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            return expr.value
        if isinstance(expr, ast.Name):
            return self.parsed.constants.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            module = self.parsed.import_aliases.get(expr.value.id)
            if module is not None:
                return self.constants_of.get(module, {}).get(expr.attr)
        return None

    # -- emission ---------------------------------------------------------

    def emit(
        self,
        kind: str,
        signal: str,
        node: ast.AST,
        *,
        in_write: bool = False,
        tainted: bool = False,
        rmw: bool = False,
        wrap_modulus: Optional[int] = None,
        consumer: Optional[str] = None,
    ) -> None:
        self.events.append(
            SignalEvent(
                signal=signal,
                kind=kind,
                module=self.parsed.name,
                file=self.parsed.file,
                line=getattr(node, "lineno", 0),
                function=self.qualname,
                index=self.index,
                in_write=in_write,
                tainted=tainted,
                rmw=rmw,
                wrap_modulus=wrap_modulus,
                consumer=consumer,
            )
        )
        self.index += 1

    # -- expressions ------------------------------------------------------

    def scan_expr(self, node: Optional[ast.expr], wstack: List[str]) -> _ExprInfo:
        info = _ExprInfo()
        if node is None:
            return info
        if isinstance(node, ast.Call):
            self._scan_call(node, wstack, info)
        elif isinstance(node, ast.Subscript) and (
            signal := self.resolve_address(node.slice)
        ):
            # An in-place word read: data[a] (its data[a + 1] is the same read).
            in_write = bool(wstack) and wstack[-1] == signal
            self.emit("read", signal, node, in_write=in_write)
            if not in_write:
                info.reads.append(signal)
        elif isinstance(node, ast.Name):
            if node.id in self.taint:
                info.tainted.append(node.id)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    info.merge(self.scan_expr(child, wstack))
        return info

    def _scan_call(self, node: ast.Call, wstack: List[str], info: _ExprInfo) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id

        if name in ("min", "max") or (name and "clamp" in name.lower()):
            self.has_clamp = True

        # The read-test-writeback helper: checked(monitor, var, now).
        if name in _CHECK_HELPERS and len(node.args) >= 2:
            signal = self.resolve_handle(node.args[1])
            if signal is not None:
                self.emit("check", signal, node)
                info.had_check = True
                for position, arg in enumerate(node.args):
                    if position != 1:
                        info.merge(self.scan_expr(arg, wstack))
                return

        # Direct monitor use: monitor.test(var.get(), now) or .test(value, now);
        # a value local that holds an unchecked read names the checked signal.
        if name == "test":
            self.has_test_call = True
            args = list(node.args)
            if args:
                first = args[0]
                signal = None
                if (
                    isinstance(first, ast.Call)
                    and isinstance(first.func, ast.Attribute)
                    and first.func.attr == "get"
                ):
                    signal = self.resolve_handle(first.func.value)
                elif isinstance(first, ast.Name) and first.id in self.taint:
                    signal = self.taint[first.id][0]
                if signal is not None:
                    self.emit("check", signal, node)
                    info.had_check = True
                    for arg in args[1:]:
                        info.merge(self.scan_expr(arg, wstack))
                    return
            info.had_check = True
            for arg in args:
                info.merge(self.scan_expr(arg, wstack))
            return

        # Variable-handle accesses: handle.get() / .set(v) / .add(v).
        if isinstance(func, ast.Attribute) and name in ("get", "set", "add"):
            signal = self.resolve_handle(func.value)
            if signal is not None:
                if name == "get":
                    in_write = bool(wstack) and wstack[-1] == signal
                    self.emit("read", signal, node, in_write=in_write)
                    if not in_write:
                        info.reads.append(signal)
                else:
                    rmw = name == "add"
                    info.merge(self._write(signal, node, node.args, wstack, rmw))
                return
            # Unresolvable handle (e.g. a parameter): scan args only.
            for arg in node.args:
                info.merge(self.scan_expr(arg, wstack))
            return

        # Generic call: flag reads handed straight to a consumer method.
        consumer = name if isinstance(func, ast.Attribute) else None
        for arg in node.args:
            if (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Attribute)
                and arg.func.attr == "get"
            ):
                signal = self.resolve_handle(arg.func.value)
                if signal is not None:
                    self.emit("read", signal, arg, consumer=consumer)
                    info.reads.append(signal)
                    continue
            info.merge(self.scan_expr(arg, wstack))
        for keyword in node.keywords:
            info.merge(self.scan_expr(keyword.value, wstack))
        if isinstance(func, ast.Attribute):
            info.merge(self.scan_expr(func.value, wstack))

    def _write(
        self,
        signal: str,
        node: ast.AST,
        values: List[ast.expr],
        wstack: List[str],
        rmw: bool = False,
    ) -> _ExprInfo:
        """Emit a write of *signal* whose value is *values*; their scan info."""
        inner = _ExprInfo()
        for value in values:
            inner.merge(self.scan_expr(value, wstack + [signal]))
        wrap: Optional[int] = None
        tainted = False
        for local in inner.tainted:
            taint_signal, taint_wrap = self.taint[local]
            if taint_signal == signal:
                tainted = True
                wrap = taint_wrap
                break
        self.emit("write", signal, node, tainted=tainted, rmw=rmw, wrap_modulus=wrap)
        return inner

    # -- statements -------------------------------------------------------

    def _assign_name(self, name: str, info: _ExprInfo) -> None:
        self.local_symbols.pop(name, None)
        if info.had_check:
            # The value went through a monitor: a validated local.
            self.taint.pop(name, None)
        elif info.reads:
            self.taint[name] = (info.reads[0], None)
        elif info.tainted:
            self.taint[name] = self.taint[info.tainted[0]]
        else:
            self.taint.pop(name, None)

    def _apply_wrap(self, name: str, modulus_expr: ast.expr) -> None:
        if name not in self.taint:
            return
        signal, _ = self.taint[name]
        modulus = self.resolve_constant(modulus_expr)
        self.taint[name] = (signal, modulus if modulus is not None else -1)

    def _wrap_candidate(
        self, node: ast.If
    ) -> Optional[Tuple[str, str, Optional[int]]]:
        """The wrap idiom ``if x >= K: x = 0`` (also ``>`` / ``==``).

        Returns ``(local, signal, modulus)`` when the folded local is
        currently tainted; the caller re-applies the taint *after* the
        branch bodies are scanned (the ``x = 0`` reset would otherwise
        clear it).
        """
        test = node.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.GtE, ast.Gt, ast.Eq))
            and isinstance(test.left, ast.Name)
        ):
            return None
        name = test.left.id
        if name not in self.taint:
            return None
        resets = any(
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == name
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value == 0
            for stmt in node.body
        )
        if not resets:
            return None
        signal, _ = self.taint[name]
        modulus = self.resolve_constant(test.comparators[0])
        return (name, signal, modulus if modulus is not None else -1)

    def scan_stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                name = targets[0].id
                self.local_addresses.pop(name, None)
                if isinstance(value, ast.Attribute):
                    symbol = self.resolve_handle(value)
                    if symbol is not None:
                        # A handle alias (comm_tx = master.mem.comm_tx_set_value):
                        # binding a Variable object is not a memory read.
                        self.local_symbols[name] = symbol
                        self.taint.pop(name, None)
                        return
                    symbol = self.resolve_address(value)
                    if symbol is not None:
                        # An address alias (a = self._slot_at): not a read either.
                        self.local_symbols.pop(name, None)
                        self.local_addresses[name] = symbol
                        self.taint.pop(name, None)
                        return
            if (
                len(targets) == 1
                and isinstance(targets[0], ast.Subscript)
                and (symbol := self.resolve_address(targets[0].slice))
            ):
                # An in-place word write: data[a] = ... (data[a + 1] completes it).
                self._write(symbol, node, [value], [])
                return
            info = self.scan_expr(value, [])
            if (
                isinstance(value, ast.BinOp)
                and isinstance(value.op, ast.Mod)
                and info.reads
            ):
                modulus = self.resolve_constant(value.right)
                info_wrap: Optional[int] = modulus if modulus is not None else -1
            else:
                info_wrap = None
            for target in targets:
                if isinstance(target, ast.Name):
                    self._assign_name(target.id, info)
                    if info_wrap is not None and target.id in self.taint:
                        signal, _ = self.taint[target.id]
                        self.taint[target.id] = (signal, info_wrap)
        elif isinstance(node, ast.AnnAssign):
            info = self.scan_expr(node.value, [])
            if isinstance(node.target, ast.Name) and node.value is not None:
                self._assign_name(node.target.id, info)
        elif isinstance(node, ast.AugAssign):
            info = self.scan_expr(node.value, [])
            if isinstance(node.target, ast.Name) and isinstance(node.op, ast.Mod):
                self._apply_wrap(node.target.id, node.value)
        elif isinstance(node, ast.If):
            self.scan_expr(node.test, [])
            wrap = self._wrap_candidate(node)
            for stmt in node.body:
                self.scan_stmt(stmt)
            for stmt in node.orelse:
                self.scan_stmt(stmt)
            if wrap is not None:
                name, signal, modulus = wrap
                self.taint[name] = (signal, modulus)
        elif isinstance(node, ast.Expr):
            self.scan_expr(node.value, [])
        elif isinstance(node, ast.Return):
            self.scan_expr(node.value, [])
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self.scan_expr(node.iter, [])
            for stmt in node.body:
                self.scan_stmt(stmt)
            for stmt in node.orelse:
                self.scan_stmt(stmt)
        elif isinstance(node, ast.While):
            self.scan_expr(node.test, [])
            for stmt in node.body:
                self.scan_stmt(stmt)
            for stmt in node.orelse:
                self.scan_stmt(stmt)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self.scan_expr(item.context_expr, [])
            for stmt in node.body:
                self.scan_stmt(stmt)
        elif isinstance(node, ast.Try):
            for stmt in node.body:
                self.scan_stmt(stmt)
            for handler in node.handlers:
                for stmt in handler.body:
                    self.scan_stmt(stmt)
            for stmt in node.orelse:
                self.scan_stmt(stmt)
            for stmt in node.finalbody:
                self.scan_stmt(stmt)
        elif isinstance(node, (ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.scan_expr(child, [])
        # Nested function/class definitions are not descended into.


def _class_attr_symbols(
    node: ast.ClassDef, global_attrs: Mapping[str, str]
) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Handle and address aliases from a class ``__init__``.

    ``self._x = mem.slot_id`` aliases the handle, ``self._x_at =
    mem.slot_id.address`` the signal's word address.
    """
    aliases: Dict[str, str] = {}
    addresses: Dict[str, str] = {}
    for item in node.body:
        if not (isinstance(item, ast.FunctionDef) and item.name == "__init__"):
            continue
        for stmt in ast.walk(item):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            value = stmt.value
            if isinstance(value, ast.Attribute) and value.attr in global_attrs:
                aliases[target.attr] = global_attrs[value.attr]
            elif (
                isinstance(value, ast.Attribute)
                and value.attr == "address"
                and isinstance(value.value, ast.Attribute)
                and value.value.attr in global_attrs
            ):
                addresses[target.attr] = global_attrs[value.value.attr]
    return aliases, addresses


def _scan_module_events(
    parsed: _ParsedModule,
    global_attrs: Mapping[str, str],
    constants_of: Mapping[str, Mapping[str, int]],
    events: List[SignalEvent],
    functions: List[FunctionInfo],
) -> None:
    def scan_function(
        func: ast.FunctionDef,
        qualname: str,
        class_attrs: Mapping[str, str],
        class_addresses: Mapping[str, str],
    ) -> None:
        scanner = _FunctionScanner(
            parsed,
            qualname,
            class_attrs,
            class_addresses,
            global_attrs,
            constants_of,
            events,
        )
        for stmt in func.body:
            scanner.scan_stmt(stmt)
        functions.append(
            FunctionInfo(
                name=func.name,
                qualname=qualname,
                module=parsed.name,
                file=parsed.file,
                line=func.lineno,
                has_test_call=scanner.has_test_call,
                has_clamp=scanner.has_clamp,
            )
        )

    for node in parsed.tree.body:
        if isinstance(node, ast.ClassDef):
            class_attrs, class_addresses = _class_attr_symbols(node, global_attrs)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    scan_function(
                        item, f"{node.name}.{item.name}", class_attrs, class_addresses
                    )
        elif isinstance(node, ast.FunctionDef):
            scan_function(node, node.name, {}, {})


# -- the builder --------------------------------------------------------------


def build_source_model(
    target: Optional[object] = None,
    *,
    sources: Optional[Mapping[str, str]] = None,
    target_name: Optional[str] = None,
) -> SourceModel:
    """Parse a target's import closure into a :class:`SourceModel`.

    The modules are :func:`~repro.closure.import_closure` of the target
    class's own module.  *sources* maps dotted module names to source
    text and replaces that closure: the fixture tests use it to analyse
    seeded-defect modules that are never importable.
    """
    if sources is None:
        if target is None:
            raise ValueError("build_source_model needs a target or sources")
        texts = {
            module: (file, data.decode("utf-8"))
            for module, (file, data) in import_closure(
                type(target).__module__
            ).items()
        }
    else:
        texts = {
            module: (f"<fixture:{module}>", text)
            for module, text in sorted(sources.items())
        }
    name = target_name or getattr(target, "name", None) or "<unnamed>"

    def is_module(module: str) -> bool:
        return module in texts or module_file(module) is not None

    # Phase A: constants, import aliases, memory models, the symbol table.
    ordered = [_parse(module, file, text) for module, (file, text) in texts.items()]
    memories: List[MemoryModel] = []
    global_attrs: Dict[str, str] = {}
    constants_of: Dict[str, Mapping[str, int]] = {}
    for module in ordered:
        _record_import_aliases(module, is_module)
        constants_of[module.name] = module.constants
        for memory in _find_memories(module):
            memories.append(memory)
            global_attrs.update(memory.attr_symbols)

    # Phase B: the event stream.
    events: List[SignalEvent] = []
    functions: List[FunctionInfo] = []
    for module in ordered:
        _scan_module_events(module, global_attrs, constants_of, events, functions)

    return SourceModel(
        target_name=name,
        modules=tuple(texts),
        memories=tuple(memories),
        events=tuple(events),
        functions=tuple(functions),
    )
