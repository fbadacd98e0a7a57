"""Helpers for tests that look inside a node store's packs."""

import json
import os


def packs(store):
    """Every pack file of *store*, in write order."""
    return sorted(store.dir.glob("*.pack"))


def pack_records(path):
    """The records of one pack file; ``[]`` for a torn one."""
    try:
        return json.loads(path.read_text())["records"]
    except ValueError:
        return []


def pack_holding(store, key):
    """The one whole pack file whose records include *key*."""
    [path] = [
        path
        for path in packs(store)
        if any(record["key"] == key for record in pack_records(path))
    ]
    return path


def count_fsyncs(monkeypatch):
    """Count every ``os.fsync`` from now on; returns the live counter list."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls
