"""Tripwire for the stored form of run records.

A run's key hashes the simulation code its target imports, not the
campaign engine, so a stored record stays valid across engine changes.
That holds only while the engine writes and reads records the same way.
These literals pin that form: when one of them has to change, bump
``NodeStore.FORMAT`` in ``repro/experiments/graph.py`` with it, so that
stores written in the old form read as foreign and re-execute.
"""

from repro.experiments.graph import NodeStore
from repro.experiments.persistence import decode_row, encode_record, results_to_csv
from repro.experiments.results import ResultSet, RunRecord

BUMP = "the stored record form changed: bump `NodeStore.FORMAT`"

RECORD = RunRecord(
    error_name="S69",
    signal="ms_slot_nbr",
    signal_bit=4,
    area="ram",
    version="EA5",
    mass_kg=14000.0,
    velocity_mps=62.5,
    detected=True,
    failed=False,
    latency_ms=7.0,
    wedged=False,
    duration_ms=4180,
)

ROW = [
    "S69", "ms_slot_nbr", "4", "ram", "EA5", "14000.0", "62.5",
    "True", "False", "7.0", "False", "4180",
]

CSV = (
    "error_name,signal,signal_bit,area,version,mass_kg,velocity_mps,"
    "detected,failed,latency_ms,wedged,duration_ms\r\n"
    "S69,ms_slot_nbr,4,ram,EA5,14000.0,62.5,True,False,7.0,False,4180\r\n"
)


def test_format_is_the_pinned_one():
    assert NodeStore.FORMAT == "repro-node-pack/1", (
        "re-pin this file's literals to the new stored form"
    )


def test_encode_record_is_pinned():
    assert encode_record(RECORD) == ROW, BUMP
    assert decode_row(ROW) == RECORD, BUMP


def test_results_to_csv_is_pinned():
    assert results_to_csv(ResultSet([RECORD])) == CSV, BUMP
