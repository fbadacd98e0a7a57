"""The ablation contexts, the shape of their committed results, and the CLI.

``results/ablations.csv`` is ``python -m repro.experiments ablations
--save`` output.  The shape checks read it and simulate nothing; a
re-run slice in ``test_committed_results.py`` keeps the file honest.
"""

from pathlib import Path

import pytest

from repro.experiments import ablations
from repro.experiments.ablations import (
    AblationContext,
    ablation_contexts,
    ablations_from_csv,
    ablations_to_csv,
    render_ablations,
)
from repro.targets.tanklevel import TankRunConfig

RESULTS = Path(__file__).resolve().parents[2] / "results" / "ablations.csv"


@pytest.fixture(scope="module")
def committed():
    return ablations_from_csv(RESULTS.read_text(encoding="utf-8"))


def _runs(committed, ablation, context):
    """``(signal, bit)`` -> record of one committed context."""
    return {(r.signal, r.signal_bit): r for r in committed[ablation, context].records}


def test_committed_file_holds_every_context_run(committed):
    contexts = ablation_contexts()
    assert list(committed) == [(c.ablation, c.name) for c in contexts]
    for context in contexts:
        records = committed[context.ablation, context.name].records
        assert sorted((r.error_name, r.mass_kg, r.velocity_mps) for r in records) == sorted(
            (s.error_name, s.mass_kg, s.velocity_mps) for s in context.specs
        )


def test_csv_round_trips(committed):
    assert ablations_from_csv(ablations_to_csv(committed)) == committed
    with pytest.raises(ValueError, match="header"):
        ablations_from_csv("error_name,signal\n")


def test_context_rejects_another_targets_run_config():
    spec = ablation_contexts()[0].specs[0]
    with pytest.raises(TypeError, match="arrestor expects a RunConfig"):
        AblationContext("recovery", "tank config", (spec,), TankRunConfig())


def test_bit_position_counter_catches_every_bit_continuous_misses_low_bits(committed):
    runs = _runs(committed, "bit-position", "All")
    assert all(runs["mscnt", bit].detected for bit in range(0, 16, 2))
    assert not runs["SetValue", 0].detected
    assert runs["SetValue", 14].detected
    low = sum(runs["SetValue", bit].detected for bit in (0, 2, 4))
    high = sum(runs["SetValue", bit].detected for bit in (10, 12, 14))
    assert high > low


def test_recovery_removes_failures_and_keeps_detection(committed):
    runs, detected_off, failed_off = committed["recovery", "detection-only"].counts()
    _, detected_on, failed_on = committed["recovery", "detection+recovery"].counts()
    assert failed_on < failed_off
    assert detected_off == detected_on == runs


def test_faster_injection_never_detects_less(committed):
    detected = [
        committed["injection-period", f"{period} ms"].records[0].detected
        for period in (7, 20, 200)
    ]
    assert all(faster >= slower for faster, slower in zip(detected, detected[1:]))


def test_slave_assertion_guards_the_unchecked_comm_path(committed):
    _, _, failed_unguarded = committed["slave-assertion", "master-recovery-only"].counts()
    runs, detected, failed = committed["slave-assertion", "plus-slave-assertion"].counts()
    assert failed < failed_unguarded
    assert detected == runs


def test_cli_rerun_against_its_store_executes_no_run(monkeypatch, tmp_path, capsys):
    """The CLI over one context (the 200 ms injection period): cold, then warm."""
    from repro.experiments.__main__ import main

    period = [c for c in ablation_contexts() if c.name == "200 ms"]
    monkeypatch.setattr(ablations, "ablation_contexts", lambda: period)
    store, saved = tmp_path / "store", tmp_path / "ablations.csv"
    assert main(["ablations", "--store", str(store), "--save", str(saved)]) == 0
    cold = capsys.readouterr().out
    assert main(["ablations", "--store", str(store)]) == 0
    warm = capsys.readouterr().out
    assert "1 runs executed, 0 replayed" in cold
    assert "0 runs executed, 1 replayed" in warm
    table = render_ablations(ablations_from_csv(saved.read_text(encoding="utf-8")))
    assert cold.endswith(table + "\n") and warm.endswith(table + "\n")
    assert "period 200 ms: detected, first latency 3600 ms" in table
