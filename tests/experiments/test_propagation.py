"""Tests for the propagation measurement (Section-2.4 model inputs)."""

import pytest

from repro.arrestor.signals_map import MasterMemory
from repro.arrestor.system import TestCase
from repro.experiments.propagation import (
    _CleanTraceCache,
    _first_divergence,
    compute_pem,
    measure_propagation,
    monitored_address_set,
    run_propagation_study,
)
from repro.injection.errors import ErrorSpec

CASE = TestCase(14000.0, 55.0)


class TestLayoutQuantities:
    def test_monitored_addresses_cover_seven_signals(self):
        addresses = monitored_address_set()
        assert len(addresses) == 14

    def test_pem_formula(self):
        assert compute_pem() == pytest.approx(14 / 1425)


class TestFirstDivergence:
    def test_identical_traces(self):
        trace = [(0, 1), (20, 2)]
        assert _first_divergence(trace, list(trace)) is None

    def test_differing_sample(self):
        clean = [(0, 1), (20, 2), (40, 3)]
        injected = [(0, 1), (20, 9), (40, 3)]
        assert _first_divergence(clean, injected) == 20

    def test_truncated_trace_counts_as_divergence(self):
        clean = [(0, 1), (20, 2), (40, 3)]
        injected = [(0, 1), (20, 2)]
        assert _first_divergence(clean, injected) == 20

    def test_empty_injected_trace(self):
        assert _first_divergence([(0, 1)], []) == 0


class TestMeasurePropagation:
    def test_cold_padding_byte_does_not_propagate(self):
        memory = MasterMemory()
        region = memory.map.regions["ram"]
        error = ErrorSpec("pad", region.end - 1, 4, "ram")
        outcome = measure_propagation(error, CASE)
        assert not outcome.propagated
        assert not outcome.detected
        assert outcome.first_divergence_ms is None

    def test_live_controller_state_propagates(self):
        memory = MasterMemory()
        error = ErrorSpec("tgt", memory.target_set_value.address + 1, 6, "ram")
        outcome = measure_propagation(error, CASE)
        assert outcome.propagated
        assert outcome.first_divergence_ms is not None

    def test_clean_cache_reuses_reference_runs(self):
        cache = _CleanTraceCache(trace_period_ms=20)
        first = cache.get(CASE)
        second = cache.get(CASE)
        assert first is second


class TestStudy:
    def test_study_excludes_monitored_locations(self):
        memory = MasterMemory()
        monitored_addr = memory.mscnt.address
        region = memory.map.regions["ram"]
        errors = [
            ErrorSpec("M", monitored_addr, 0, "ram"),       # excluded
            ErrorSpec("pad", region.end - 1, 0, "ram"),     # included
        ]
        study = run_propagation_study(errors, CASE)
        assert study.pprop.ne == 1

    def test_study_model_instantiation(self):
        memory = MasterMemory()
        region = memory.map.regions["ram"]
        errors = [
            ErrorSpec("pad1", region.end - 1, 0, "ram"),
            ErrorSpec("tgt", memory.target_set_value.address + 1, 6, "ram"),
        ]
        study = run_propagation_study(errors, CASE)
        model = study.model(pds=0.75)
        assert model.pem == study.pem
        assert 0.0 <= model.pdetect <= 1.0
        assert study.predicted_pdetect(0.75) == model.pdetect


def test_model_over_predicts_propagated_detection():
    """Section 2.4's model against a measurement on 60 E2 locations.

    ``Pdetect = (Pen * Pprop + Pem) * Pds`` with ``Pds`` from the
    committed E1 campaign: errors that propagate into a monitored signal
    arrive as small, smooth disturbances the envelopes tolerate more
    often than E1's bit-flips, so the model (uniformity assumption, the
    paper's Section-5.2 caveat) upper-bounds the measured detection.
    """
    from pathlib import Path

    from repro.experiments.persistence import load_results
    from repro.injection.errors import build_e2_error_set

    e1 = load_results(Path(__file__).resolve().parents[2] / "results" / "e1_scaled.csv")
    pds = e1.coverage(version="All").p_d.fraction
    study = run_propagation_study(build_e2_error_set(MasterMemory())[:60], CASE)
    assert 0.0 < study.pem < 0.05  # 14 monitored bytes of 1425
    assert study.pprop.ne >= 48  # few of the errors sit in monitored bytes
    assert 0.0 < study.pprop.fraction < 0.6  # propagation exists, not universal
    assert study.predicted_pdetect(pds) >= study.detected.fraction
