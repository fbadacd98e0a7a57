"""Out-of-program tracing for the benchmark suite.

Nothing here edits the program: every probe is a wrapper the suite
installs around a public entry point, resolved by dotted name, and takes
away again afterwards.  Four instruments share one :class:`Tracer`:

* **spans** around coarse entry points (a campaign call, a snapshot
  restore, a store read) — name, start, end, parent span and the
  operation id the workload set, kept in memory and written out only
  when the run ends;
* **timers** — aggregate call count and inclusive time for entry points
  called too often for one span each (graph keying is recursive and
  memoized, so only outermost calls are timed);
* **counters** for the per-tick entry points (``Variable.get/set``,
  ``ControlWordTable.consult``, ``SignalMonitor.test``): calls only,
  installed for a separate count pass because even a counting wrapper
  makes the serial path several times slower;
* a **sampler** thread that attributes the main thread's innermost
  ``repro.*`` frame to a layer every ``interval`` seconds.  Wrapping
  every per-tick call would distort the shares it measures; sampling at
  1 kHz costs a few percent (2 kHz cost 20-25 % on the serial path of a
  2-vCPU host, through the shorter switch interval it needs).

An entry point that no longer resolves is reported as absent instead of
failing the run, so a refactor that renames it shows up in the output.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer, most specific first.  Layers are named after
#: the package's modules; ``outside`` is time with no ``repro`` frame on
#: the main thread's stack (the benchmark's own loop, the event loop
#: idling between rounds).
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.memory.memmap", "memory.memmap"),
    ("repro.memory.stack", "memory.stack"),
    ("repro.memory", "memory.other"),
    ("repro.rtos", "rtos"),
    ("repro.arrestor.calc", "arrestor.calc"),
    ("repro.arrestor", "arrestor.other"),
    ("repro.targets.tanklevel", "tanklevel"),
    ("repro.targets.batch.core", "targets.batch.vecmonitor"),
    ("repro.targets.batch", "targets.batch.kernel"),
    ("repro.targets", "targets"),
    ("repro.core", "core"),
    ("repro.plant", "plant"),
    ("repro.injection", "injection"),
    ("repro.experiments", "experiments"),
    ("repro.serve", "serve"),
    ("repro.obs", "obs"),
    ("repro", "repro.other"),
)

#: Disjoint leaf layers (their shares sum to 1) and the roll-ups built
#: from them.
LEAF_LAYERS: Tuple[str, ...] = tuple(layer for _, layer in LAYER_PREFIXES) + ("outside",)
ROLLUPS: Dict[str, Tuple[str, ...]] = {
    "memory": ("memory.memmap", "memory.stack", "memory.other"),
    "arrestor": ("arrestor.calc", "arrestor.other"),
    "targets.batch": ("targets.batch.vecmonitor", "targets.batch.kernel"),
}


def layer_of(module: Optional[str]) -> Optional[str]:
    """The layer a module belongs to, or ``None`` outside ``repro``."""
    if not module or not (module == "repro" or module.startswith("repro.")):
        return None
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "repro.other"


def resolve(dotted: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, attribute, raw value)`` for a dotted name, or ``None``.

    The longest importable module prefix is imported and the rest is
    walked with ``getattr``; the raw value is read from the owner's
    ``__dict__`` when the owner is a class, so static and class methods
    keep their descriptor type.
    """
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:-1]:
                owner = getattr(owner, name)
            attr = parts[-1]
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            return None
        return owner, attr, raw
    return None


class Tracer:
    """Spans, timers, counters and a layer sampler, all held in memory."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, int, int, Optional[int], str]] = []
        self.timers: Dict[str, List[int]] = collections.defaultdict(lambda: [0, 0])
        self.counts: Dict[str, int] = collections.Counter()
        self.samples: Dict[str, int] = collections.Counter()
        #: ``label -> [(op id, return value), ...]`` for spans that keep results.
        self.span_results: Dict[str, List[Tuple[str, Any]]] = collections.defaultdict(list)
        self.absent: List[str] = []
        #: The operation (run, round, pass) later spans belong to.
        self.op_id = ""
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- wrapper installation ----------------------------------------------

    def _patch(self, dotted: str, make: Callable[[Callable], Callable]) -> bool:
        found = resolve(dotted)
        if found is None:
            self.absent.append(dotted)
            return False
        owner, attr, raw = found
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        wrapper = functools.wraps(fn)(make(fn))
        new = kind(wrapper) if kind is not None else wrapper
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, new)
        if not isinstance(owner, type):
            # ``from module import fn`` copies the reference into other
            # modules' globals; patch those copies too.
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if (
                    namespace is None
                    or module is owner
                    or not getattr(module, "__name__", "").startswith("repro")
                ):
                    continue
                for name, value in list(namespace.items()):
                    if value is raw:
                        self._installed.append((module, name, raw))
                        setattr(module, name, new)
        return True

    def uninstall(self) -> None:
        """Put back every original, newest first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def span(self, dotted: str, name: Optional[str] = None, keep_result: bool = False) -> bool:
        """Record one span per call of *dotted* (async functions too)."""
        label = name or dotted
        spans, stack = self.spans, self._stack
        results = self.span_results[label] if keep_result else None
        clock = time.perf_counter_ns

        def make(fn):
            if inspect.iscoroutinefunction(fn):
                async def awrapper(*args, **kwargs):
                    # Coroutines interleave, so async spans take no part
                    # in the parent stack.
                    start = clock()
                    try:
                        return await fn(*args, **kwargs)
                    finally:
                        spans.append((label, start, clock(), None, self.op_id))

                return awrapper

            def wrapper(*args, **kwargs):
                start = clock()
                parent = stack[-1] if stack else None
                index = len(spans)
                spans.append((label, start, start, parent, self.op_id))
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index] = (label, start, clock(), parent, self.op_id)
                if results is not None:
                    results.append((self.op_id, result))
                return result

            return wrapper

        return self._patch(dotted, make)

    def timer(self, dotted: str, name: Optional[str] = None) -> bool:
        """Aggregate calls and outermost inclusive time of *dotted*."""
        cell = self.timers[name or dotted]
        clock = time.perf_counter_ns
        depth = [0]

        def make(fn):
            def wrapper(*args, **kwargs):
                cell[0] += 1
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] = 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    cell[1] += clock() - start
                    depth[0] = 0

            return wrapper

        return self._patch(dotted, make)

    def counter(
        self,
        dotted: str,
        name: Optional[str] = None,
        outcome: Optional[Callable[[Any], bool]] = None,
    ) -> bool:
        """Count calls of *dotted*; with *outcome*, also count results it flags."""
        label = name or dotted
        counts = self.counts
        counts[label] += 0

        def make(fn):
            if outcome is None:
                def wrapper(*args, **kwargs):
                    counts[label] += 1
                    return fn(*args, **kwargs)

                return wrapper
            flagged = label + ".flagged"
            counts[flagged] += 0

            def wrapper(*args, **kwargs):
                counts[label] += 1
                result = fn(*args, **kwargs)
                if outcome(result):
                    counts[flagged] += 1
                return result

            return wrapper

        return self._patch(dotted, make)

    # -- sampling ------------------------------------------------------------

    def sampling(self, interval_s: float = 0.001) -> "_Sampler":
        """A context manager sampling the calling thread's stack."""
        return _Sampler(self, threading.get_ident(), interval_s)

    def shares(self) -> Dict[str, float]:
        """Each leaf layer's share of the samples, plus the roll-ups."""
        total = sum(self.samples.values())
        out = {layer: (self.samples.get(layer, 0) / total if total else 0.0) for layer in LEAF_LAYERS}
        for rollup, parts in ROLLUPS.items():
            out[rollup] = sum(out[part] for part in parts)
        return out

    # -- reading spans ---------------------------------------------------------

    def span_stats(self, label: str) -> Tuple[int, float]:
        """``(calls, total seconds)`` of the spans named *label*."""
        durations = [end - start for name, start, end, _, _ in self.spans if name == label]
        return len(durations), sum(durations) / 1e9

    def write(self, handle) -> None:
        """Write spans, then one summary line (timers, counts, samples), as JSON lines."""
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            record = {"span": index, "name": name, "start_ns": start, "end_ns": end,
                      "parent": parent, "op": op}
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        summary = {
            "timers": {k: {"calls": c, "ns": t} for k, (c, t) in self.timers.items()},
            "counts": dict(self.counts),
            "samples": dict(self.samples),
            "absent": self.absent,
        }
        handle.write(json.dumps(summary, sort_keys=True) + "\n")


class _Sampler:
    """Background thread sampling one thread's innermost ``repro`` frame."""

    def __init__(self, tracer: Tracer, thread_id: int, interval_s: float) -> None:
        self.tracer = tracer
        self.thread_id = thread_id
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-sampler", daemon=True)
        self._switch = sys.getswitchinterval()

    def _run(self) -> None:
        samples = self.tracer.samples
        frames = sys._current_frames
        layers: Dict[Any, Optional[str]] = {}
        wait = self._stop.wait
        tid = self.thread_id
        while not wait(self.interval_s):
            frame = frames().get(tid)
            layer = None
            while frame is not None:
                code = frame.f_code
                layer = layers.get(code, False)
                if layer is False:
                    layer = layers[code] = layer_of(frame.f_globals.get("__name__"))
                if layer is not None:
                    break
                frame = frame.f_back
            samples[layer or "outside"] += 1
            del frame

    def __enter__(self) -> "_Sampler":
        # A short switch interval lets the sampler thread take the GIL on
        # schedule; it is restored on exit so untraced code never runs
        # with it.
        sys.setswitchinterval(min(self._switch, self.interval_s))
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        sys.setswitchinterval(self._switch)
        if self._thread.is_alive():
            raise RuntimeError("sampler thread did not stop")
