"""Ingestion adapters: newline-JSON streams into a fleet.

The wire protocol is one JSON object per line, mirroring the in-process
API one-to-one:

* ``{"op": "open", "session": "s1", "target": "tanklevel",
  "version": "All", "mass_kg": 10000, "velocity_mps": 60,
  "signal": "tick", "signal_bit": 3, "period_ms": 20, "start_ms": 0}``
* ``{"op": "frame", "session": "s1", "ticks": 20}`` — optional
  ``"flips": [[address, bit], ...]`` for ad-hoc corruptions (serial
  sessions only).
* ``{"op": "close", "session": "s1"}`` — replies with the final result.
* ``{"op": "stats"}`` — fleet counters.

Replies are JSON lines too: ``{"ok": true, ...}`` acknowledgements,
``{"event": "detection", ...}`` pushed as monitors fire, ``{"event":
"result", ...}`` on close, and ``{"ok": false, "error": "..."}`` for
protocol errors (the stream keeps going — one bad line, including one
longer than :data:`MAX_LINE_BYTES` on a TCP connection, doesn't kill
the connection).  The same handler serves stdin (``python -m
repro.serve --stdin``) and TCP connections (``--listen HOST:PORT``,
one fleet per connection).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import sys
from typing import AsyncIterable, Callable, Iterable, Optional

from repro.serve.fleet import Fleet, FleetConfig
from repro.serve.session import Frame, ServeEvent, SessionSpec

__all__ = ["serve_lines", "iter_lines", "serve_stdin", "serve_socket"]

_SPEC_FIELDS = {field.name for field in dataclasses.fields(SessionSpec)}

#: Longest TCP line served; a longer one gets an error reply instead.
MAX_LINE_BYTES = 1 << 16


def _spec_from(message: dict) -> SessionSpec:
    kwargs = {
        key: value
        for key, value in message.items()
        if key in _SPEC_FIELDS and value is not None
    }
    kwargs["session_id"] = str(
        message.get("session") or message.get("session_id") or ""
    )
    return SessionSpec(**kwargs)


def _result_line(outcome) -> dict:
    result = outcome.result
    return {
        "event": "result",
        "session": outcome.session_id,
        "detected": result.detected,
        "first_detection_ms": result.first_detection_ms,
        "detections": result.detection_count,
        "first_injection_ms": result.first_injection_ms,
        "injections": result.injection_count,
        "duration_ms": result.duration_ms,
        "failed": result.failed,
        "wedged": result.wedged,
        "completed": outcome.completed,
        "evicted": outcome.evicted,
    }


async def iter_lines(lines: Iterable[str]) -> AsyncIterable[str]:
    """Lift a synchronous line iterable into the async protocol handler."""
    for line in lines:
        yield line


async def serve_lines(
    lines: AsyncIterable[str],
    write: Callable[[str], None],
    config: Optional[FleetConfig] = None,
) -> int:
    """Serve one newline-JSON stream on a fresh fleet; returns ops handled.

    Detections are pushed through *write* as they are processed; every
    ``frame`` and ``close`` op is followed by a flush so a client sees
    its detections before the next acknowledgement (the remote path
    trades throughput for ordering — bulk traffic belongs in-process).
    A ``close`` reply carries the session's whole outcome, which the
    fleet then forgets, so a connection holds nothing per closed
    session and a closed session id may be opened again.
    """
    if config is None:
        config = FleetConfig()

    def emit(event: ServeEvent) -> None:
        write(
            json.dumps(
                {
                    "event": "detection",
                    "session": event.session_id,
                    "time_ms": event.time_ms,
                    "monitor": event.monitor_id,
                    "signal": event.signal,
                }
            )
        )

    config.on_event = emit
    fleet = Fleet(config)
    ops = 0
    async with fleet:
        async for raw in lines:
            line = raw.strip()
            if not line:
                continue
            ops += 1
            try:
                message = json.loads(line)
                if not isinstance(message, dict):
                    raise ValueError(
                        f"expected a JSON object, got {type(message).__name__}"
                    )
                op = message.get("op")
                if op == "open":
                    sid = await fleet.open_session(_spec_from(message))
                    write(json.dumps({"ok": True, "op": "open", "session": sid}))
                elif op == "frame":
                    frame = Frame(
                        session_id=str(message.get("session", "")),
                        ticks=int(message.get("ticks", 1)),
                        flips=tuple(
                            (int(a), int(b)) for a, b in message.get("flips", [])
                        ),
                    )
                    accepted = await fleet.ingest(frame)
                    await fleet.flush()
                    if not accepted:
                        write(
                            json.dumps(
                                {"ok": False, "error": "unknown session", "op": "frame"}
                            )
                        )
                elif op == "close":
                    sid = str(message.get("session", ""))
                    outcome = await fleet.close_session(
                        sid, complete=bool(message.get("complete", True))
                    )
                    try:
                        # Closing a batch member can release its group's
                        # queued round; serve it before the reply.
                        await fleet.flush()
                    finally:
                        write(json.dumps(_result_line(outcome)))
                        fleet.pop_outcome(sid)
                elif op == "stats":
                    write(json.dumps({"ok": True, "stats": fleet.stats()}))
                else:
                    write(json.dumps({"ok": False, "error": f"unknown op {op!r}"}))
            except Exception as exc:  # one bad line must not end the stream
                write(json.dumps({"ok": False, "error": str(exc) or type(exc).__name__}))
    return ops


async def serve_stdin(config: Optional[FleetConfig] = None) -> int:
    """Serve the newline-JSON protocol on stdin/stdout until EOF."""
    loop = asyncio.get_running_loop()

    async def stdin_lines() -> AsyncIterable[str]:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if not line:
                return
            yield line

    def write(line: str) -> None:
        sys.stdout.write(line + "\n")
        sys.stdout.flush()

    return await serve_lines(stdin_lines(), write, config)


async def serve_socket(
    host: str, port: int, config_factory: Optional[Callable[[], FleetConfig]] = None
) -> None:
    """Listen for newline-JSON connections; one fleet per connection."""

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        def write(line: str) -> None:
            writer.write(line.encode("utf-8") + b"\n")

        async def socket_lines() -> AsyncIterable[str]:
            oversized = False
            while True:
                try:
                    raw = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:  # EOF
                    raw = exc.partial
                except asyncio.LimitOverrunError as exc:
                    # Drop what is buffered of the line; its tail (up to
                    # the newline) is dropped by the next read.
                    await reader.readexactly(exc.consumed)
                    oversized = True
                    continue
                if oversized:
                    oversized = False
                    error = f"line longer than {MAX_LINE_BYTES} bytes"
                    write(json.dumps({"ok": False, "error": error}))
                elif raw:
                    yield raw.decode("utf-8", errors="replace")
                if not raw.endswith(b"\n"):
                    return

        try:
            await serve_lines(
                socket_lines(),
                write,
                config_factory() if config_factory is not None else None,
            )
            await writer.drain()
        except ConnectionError:
            pass  # the client went away; its fleet is already stopped
        finally:
            writer.close()

    server = await asyncio.start_server(handle, host, port, limit=MAX_LINE_BYTES)
    async with server:
        await server.serve_forever()
