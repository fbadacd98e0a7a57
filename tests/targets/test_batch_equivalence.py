"""Differential harness pinning batch ≡ serial, row for row.

The vectorized kernels in :mod:`repro.targets.batch` are an execution
strategy, not a second semantics: for every registered target the full
E1 error-set grid (every version x every monitored-signal bit flip)
must produce *identical* records through ``execute_specs(batch=True)``
and through the serial engine.  A kernel-level pass additionally checks
the first-detecting monitor against the serial detection log, which the
flattened records do not carry.

These tests are tier-1 on purpose — any drift between a kernel and the
serial oracle (new module semantics, changed EA parameters, reordered
within-tick tests) fails here first.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.experiments.campaign import CampaignConfig
from repro.experiments.parallel import enumerate_e1_specs, execute_specs
from repro.injection.injector import TimeTriggeredInjector
from repro.targets.registry import get_target, target_names

#: First-injection time per target: mid-run, so the kernels prove both
#: the fault-free prefix and the injected suffix against the serial
#: path (start=0 is covered by the property suite and the bench gate).
INJECTION_START = {"arrestor": 12000, "tanklevel": 3000}


def _full_grid_specs(target_name):
    config = CampaignConfig(
        cases_all=1,
        cases_per_ea=1,
        target=target_name,
        injection_start_ms=INJECTION_START[target_name],
    )
    return enumerate_e1_specs(config)


@pytest.mark.parametrize("name", target_names())
class TestFullGridEquivalence:
    """Every registered target: full E1 grid, engine serial vs batch."""

    def test_supports_batch(self, name):
        assert get_target(name).supports_batch()

    def test_full_e1_grid_identical(self, name):
        specs = _full_grid_specs(name)
        target = get_target(name)
        assert len(specs) == len(target.versions) * 16 * len(
            target.monitored_signals
        )
        serial = execute_specs(specs)
        batched = execute_specs(specs, batch=True)
        assert serial.records == batched.records


@pytest.mark.parametrize("name", target_names())
class TestFirstMonitorDetail:
    """The kernel's first-detecting EA matches the serial detection log.

    The flattened records compared above do not carry the detecting
    monitor, so this pass drives the kernel surface directly against
    serially booted systems.  One representative bit per byte half plus
    the sign bit keeps the serial side cheap; the full grids were used
    to validate the kernels and the engine path above re-covers them.
    The kernel advances in uneven chunks until it finishes, so the same
    pass proves resumability — for the arrestor including rows that
    finish at different ticks, mid-chunk.
    """

    BITS = (0, 7, 15)
    CHUNKS = (1, 13, 0, 250, 4096)

    def test_detail_matches_serial_log(self, name):
        from repro.targets.batch.core import BatchRunSpec

        target = get_target(name)
        errors = [
            e for e in target.e1_error_set() if e.signal_bit in self.BITS
        ]
        case = target.test_cases()[0]
        specs = [
            BatchRunSpec(
                version="All",
                signal=error.signal,
                signal_bit=error.signal_bit,
                mass_kg=case.mass_kg,
                velocity_mps=case.velocity_mps,
            )
            for error in errors
        ]
        kernel = target.batch_kernel(specs)
        chunks = 0
        while not kernel.finished:
            kernel.advance(self.CHUNKS[chunks % len(self.CHUNKS)])
            chunks += 1
        end = kernel.now_ms
        assert end <= kernel.window_ms
        kernel.advance(kernel.window_ms)
        assert kernel.now_ms == end
        outcomes = kernel.outcomes()
        durations = {outcome.result.duration_ms for outcome in outcomes}
        assert (len(durations) == 1) == kernel.rows_end_together
        for error, outcome in zip(errors, outcomes):
            system = target.boot(case, "All")
            result = system.run(TimeTriggeredInjector(error, period_ms=20))
            events = system.detection_log.events
            first_monitor = events[0].monitor_id if events else None
            assert outcome.result == result, error.name
            assert outcome.first_monitor == first_monitor, error.name


class TestBatchEligibility:
    """Specs the kernels cannot express stay on the serial path."""

    def test_e2_specs_are_not_batchable(self):
        from repro.experiments.parallel import _split_batchable, enumerate_e2_specs

        config = CampaignConfig(cases_e2=1, target="arrestor")
        specs = enumerate_e2_specs(config)
        batchable, rest = _split_batchable(specs, None)
        assert batchable == []
        assert rest == specs

    def test_run_config_forces_serial(self):
        from repro.arrestor.system import RunConfig
        from repro.experiments.parallel import _split_batchable

        specs = _full_grid_specs("arrestor")[:4]
        batchable, rest = _split_batchable(specs, RunConfig())
        assert batchable == []
        assert rest == specs

    def test_default_e1_specs_are_batchable(self):
        from repro.experiments.parallel import _split_batchable

        specs = _full_grid_specs("tanklevel")[:8]
        batchable, rest = _split_batchable(specs, None)
        assert batchable == specs
        assert rest == []

    def test_base_target_defaults_off(self):
        from repro.targets.base import Target

        class Stub(Target):
            name = "stub"
            versions = ("All",)
            monitored_signals = ("s",)

            def memory(self):
                raise NotImplementedError

            def test_cases(self):
                return []

            def boot(self, *a, **k):
                raise NotImplementedError

            def timeout_summary(self, *a, **k):
                raise NotImplementedError

            def lint_target(self):
                raise NotImplementedError

        stub = Stub()
        assert stub.supports_batch() is False
        with pytest.raises(NotImplementedError, match="batch"):
            stub.run_batch([])
