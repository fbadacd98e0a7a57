"""Snapshot layer: restored runs must be byte-identical to cold runs.

The warm-target cache (:mod:`repro.targets.snapshot`) underpins the
campaign engine's acceleration; these tests pin its core promises:

* a run on a snapshot-restored system equals a cold run — full
  :class:`RunResult` plus the detection-event list — for every built-in
  target, on both the boot-snapshot and prefix-fast-forward paths;
* one snapshot serves many runs without any run leaking corrupted
  state into the next (the hypothesis property);
* the LRU cache accounts hits/misses/evictions and is bounded.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arrestor.master import MasterNode
from repro.injection.fic import CampaignController
from repro.targets import booted_system, cache_stats, clear_cache, prefixed_system
from repro.targets.base import Snapshot
from repro.targets.registry import get_target, target_names
from repro.targets.snapshot import (
    SnapshotCache,
    _cache_key,
    snapshots_enabled_default,
)
from repro.targets.tanklevel.system import TankNode

#: Each target's node class, whose ``tick`` runs once per simulated
#: millisecond (the benchmark suite's ``ticks.*`` counters).
NODE_TICK = {"arrestor": MasterNode, "tanklevel": TankNode}


@functools.lru_cache(maxsize=None)
def _prefix_ms(name):
    """First-injection time exercising the prefix fast-forward: a fifth
    of the target's own fault-free run on its first test case."""
    target = get_target(name)
    return target.boot(target.test_cases()[0], "All").run().duration_ms // 5


def _count_node_ticks(monkeypatch, name):
    """Count calls of *name*'s node ``tick``; returns a one-item list."""
    cls = NODE_TICK[name]
    original = cls.tick
    calls = [0]

    def counted(self, now_ms):
        calls[0] += 1
        return original(self, now_ms)

    monkeypatch.setattr(cls, "tick", counted)
    return calls


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_cache()
    yield
    clear_cache()


class TestColdVsRestored:
    @pytest.mark.parametrize("name", target_names())
    def test_fault_free_run_identical(self, name):
        target = get_target(name)
        case = target.test_cases()[0]
        cold_system = target.boot(case, "All")
        cold = cold_system.run()

        warm_system = booted_system(target, case, "All")
        warm = warm_system.run()

        assert warm == cold
        assert warm_system.detection_log.events == cold_system.detection_log.events

    @pytest.mark.parametrize("name", target_names())
    def test_injected_run_identical_on_miss_and_hit(self, name):
        target = get_target(name)
        case = target.test_cases()[0]
        error = target.e1_error_set()[0]

        cold = CampaignController(target=name, snapshots=False)
        reference = cold.run_injection(error, case, "All").result

        warm = CampaignController(target=name, snapshots=True)
        miss = warm.run_injection(error, case, "All").result  # capture + restore
        hit = warm.run_injection(error, case, "All").result  # pure restore
        assert miss == reference
        assert hit == reference

    @pytest.mark.parametrize("name", target_names())
    def test_prefix_fast_forward_identical(self, name, monkeypatch):
        target = get_target(name)
        case = target.test_cases()[1]
        error = target.e1_error_set()[3]
        start = _prefix_ms(name)
        ticks = _count_node_ticks(monkeypatch, name)

        cold = CampaignController(
            target=name, snapshots=False, injection_start_ms=start
        )
        reference = cold.run_injection(error, case, "All").result
        assert reference.first_injection_ms is None or (
            reference.first_injection_ms >= start
        )
        cold_ticks = ticks[0]

        warm = CampaignController(
            target=name, snapshots=True, injection_start_ms=start
        )
        for _ in range(2):  # prefix-miss, then prefix-hit
            ticks[0] = 0
            assert warm.run_injection(error, case, "All").result == reference
        # The prefix hit restores the fault-free prefix instead of
        # simulating it: *start* fewer node ticks than the cold run.
        assert cold_ticks - ticks[0] == start

    @pytest.mark.parametrize("name", target_names())
    def test_prefixed_system_resumes_like_cold(self, name):
        # The raw snapshot API, without the controller: restoring a
        # prefix snapshot and finishing fault-free equals one cold run.
        target = get_target(name)
        case = target.test_cases()[2]
        cold = target.boot(case, "All").run()
        resumed = prefixed_system(target, case, "All", _prefix_ms(name)).run()
        assert resumed == cold

    @pytest.mark.parametrize("name", target_names())
    def test_reference_memoization_identical(self, name):
        target = get_target(name)
        case = target.test_cases()[0]
        cold = CampaignController(target=name, snapshots=False)
        reference = cold.run_reference(case, "All").result
        warm = CampaignController(target=name, snapshots=True)
        first = warm.run_reference(case, "All").result
        memoized = warm.run_reference(case, "All").result
        assert first == reference
        assert memoized == reference
        assert warm.runs_executed == 2  # memoized calls still count

    @pytest.mark.parametrize("name", target_names())
    def test_reference_memo_lives_in_the_snapshot_cache(self, name, monkeypatch):
        target = get_target(name)
        case = target.test_cases()[0]
        ticks = _count_node_ticks(monkeypatch, name)
        warm = CampaignController(target=name, snapshots=True)
        first = warm.run_reference(case, "All").result
        simulated = ticks[0]
        assert simulated > 0
        assert warm.run_reference(case, "All").result == first
        assert ticks[0] == simulated  # memoized: nothing ticked
        clear_cache()  # one cache: the memo goes with the snapshots
        assert warm.run_reference(case, "All").result == first
        assert ticks[0] == 2 * simulated


class TestNoStateLeak:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(error_index=st.integers(min_value=0, max_value=15), case_index=st.integers(min_value=0, max_value=4))
    def test_injected_run_never_corrupts_later_restores(self, error_index, case_index):
        # Property: however an injected run corrupts its restored system,
        # the *next* restore from the same snapshot is pristine — its
        # fault-free run matches a cold boot's exactly.
        target = get_target("tanklevel")
        cases = target.test_cases()
        case = cases[case_index % len(cases)]
        errors = target.e1_error_set()
        error = errors[error_index % len(errors)]

        cold_reference = target.boot(case, "All").run()

        controller = CampaignController(target="tanklevel", snapshots=True)
        controller.run_injection(error, case, "All")  # corrupts its own copy

        pristine = booted_system(target, case, "All").run()
        assert pristine == cold_reference


class TestCache:
    def test_stats_count_misses_and_hits(self):
        target = get_target("tanklevel")
        case = target.test_cases()[0]
        booted_system(target, case, "All")
        booted_system(target, case, "All")
        prefixed_system(target, case, "All", 500)
        prefixed_system(target, case, "All", 500)
        stats = cache_stats().as_dict()
        assert stats["boot_misses"] == 1
        assert stats["boot_hits"] == 1
        assert stats["prefix_misses"] == 1
        assert stats["prefix_hits"] == 1

    def test_lru_eviction_is_bounded_and_counted(self):
        cache = SnapshotCache(maxsize=2)
        target = get_target("tanklevel")
        cases = target.test_cases()[:3]
        keys = [_cache_key(target, "All", case, None, 0) for case in cases]
        for key in keys:
            cache.put(key, Snapshot(codec="deepcopy", payload=object()))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get(keys[0]) is None  # the oldest entry was evicted
        assert cache.get(keys[2]) is not None

    def test_cache_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="maxsize"):
            SnapshotCache(maxsize=0)

    def test_snapshot_codec_validated(self):
        with pytest.raises(ValueError, match="codec"):
            Snapshot(codec="tarball", payload=b"")

    def test_deepcopy_fallback_for_unpicklable_system(self):
        class Unpicklable:
            def __init__(self):
                self.hook = lambda: None  # lambdas do not pickle

        target = get_target("tanklevel")
        snapshot = target.snapshot(Unpicklable())
        assert snapshot.codec == "deepcopy"
        restored = target.restore(snapshot)
        assert restored is not snapshot.payload  # independent copy per call


class TestDefaults:
    def test_env_var_disables_snapshots(self, monkeypatch):
        for raw in ("0", "false", "off", "no", "OFF"):
            monkeypatch.setenv("REPRO_SNAPSHOTS", raw)
            assert snapshots_enabled_default() is False
        for raw in ("", "1", "true", "on"):
            monkeypatch.setenv("REPRO_SNAPSHOTS", raw)
            assert snapshots_enabled_default() is True
        monkeypatch.delenv("REPRO_SNAPSHOTS")
        assert snapshots_enabled_default() is True

    def test_controller_with_custom_classifier_bypasses_cache(self):
        from repro.plant.failure import FailureClassifier

        target = get_target("arrestor")
        case = target.test_cases()[0]
        controller = CampaignController(
            target="arrestor", snapshots=True, classifier=FailureClassifier()
        )
        controller.run_reference(case, "All")
        stats = cache_stats().as_dict()
        assert stats["boot_misses"] == 0  # cold boot, cache untouched

    def test_custom_classifier_bypass_counts_each_run_once(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.plant.failure import FailureClassifier

        key = "runs_fallback_total{reason=classifier,strategy=snapshot}"
        target = get_target("arrestor")
        case = target.test_cases()[0]
        e1 = next(e for e in target.e1_error_set() if e.signal_bit == 15)
        e2 = target.e2_error_set(seed=2000)[0]
        counts = {}
        for snapshots in (True, False):
            metrics = MetricsRegistry()
            controller = CampaignController(
                target="arrestor",
                snapshots=snapshots,
                classifier=FailureClassifier(),
                metrics=metrics,
            )
            controller.run_reference(case, "All")
            controller.run_injection(e1, case, "All")
            controller.run_injection(e2, case, "All")
            counts[snapshots] = metrics.snapshot()["counters"].get(key, 0)
        assert counts == {True: 3, False: 0}
        default = MetricsRegistry()
        controller = CampaignController(target="arrestor", snapshots=True, metrics=default)
        controller.run_reference(case, "All")
        assert key not in default.snapshot()["counters"]
