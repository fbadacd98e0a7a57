"""Counters, gauges, histograms, and snapshot/merge semantics."""

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.metrics import metric_key


class TestMetricKey:
    def test_bare_name_without_labels(self):
        assert metric_key("runs_total", {}) == "runs_total"

    def test_labels_sorted_into_key(self):
        key = metric_key("detections_total", {"signal": "i", "monitor": "EA3"})
        assert key == "detections_total{monitor=EA3,signal=i}"


class TestCounter:
    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge()
        gauge.set(3.5)
        gauge.set(2)
        assert gauge.value == 2


class TestHistogram:
    def test_default_buckets_are_valid(self):
        hist = Histogram()
        assert hist.buckets == DEFAULT_LATENCY_BUCKETS_MS
        assert len(hist.counts) == len(hist.buckets) + 1

    def test_observe_lands_in_upper_bound_bucket(self):
        hist = Histogram(buckets=(10.0, 20.0, 50.0))
        for value in (5.0, 10.0, 15.0, 60.0):
            hist.observe(value)
        # <=10, <=20, <=50, +Inf
        assert hist.counts == [2, 1, 0, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(90.0)
        assert hist.mean == pytest.approx(22.5)

    def test_empty_mean_is_none(self):
        assert Histogram().mean is None

    @pytest.mark.parametrize("bad", [(), (5.0, 5.0), (10.0, 2.0)])
    def test_rejects_non_increasing_buckets(self, bad):
        with pytest.raises(ValueError):
            Histogram(buckets=bad)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("runs_total") is registry.counter("runs_total")
        assert registry.gauge("rps") is registry.gauge("rps")
        assert registry.histogram("lat") is registry.histogram("lat")
        assert registry.counter("runs_total", monitor="EA1") is not registry.counter(
            "runs_total"
        )
        assert len(registry) == 4

    def test_lookups_build_a_metric_only_on_a_miss(self, monkeypatch):
        from repro.obs import metrics

        built = []

        class CountingCounter(metrics.Counter):
            __slots__ = ()

            def __init__(self):
                built.append("counter")
                super().__init__()

        class CountingGauge(metrics.Gauge):
            __slots__ = ()

            def __init__(self):
                built.append("gauge")
                super().__init__()

        monkeypatch.setattr(metrics, "Counter", CountingCounter)
        monkeypatch.setattr(metrics, "Gauge", CountingGauge)
        registry = MetricsRegistry()
        registry.counter("frames_total").inc()
        registry.gauge("queue_depth").set(3)
        snapshot = registry.snapshot()
        for _ in range(5):
            assert registry.counter("frames_total") is registry.counter("frames_total")
            assert registry.gauge("queue_depth") is registry.gauge("queue_depth")
        assert built == ["counter", "gauge"]
        assert registry.snapshot() == snapshot

    def test_histogram_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("lat", buckets=(1.0, 3.0))

    def test_snapshot_is_plain_json_data(self):
        import json

        registry = MetricsRegistry()
        registry.counter("runs_total").inc(3)
        registry.gauge("rps").set(1.5)
        registry.histogram("lat", buckets=(10.0, 20.0)).observe(15.0)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["counters"] == {"runs_total": 3}
        assert snapshot["gauges"] == {"rps": 1.5}
        assert snapshot["histograms"]["lat"]["counts"] == [0, 1, 0]

    def test_merge_adds_counters_and_histograms(self):
        worker = MetricsRegistry()
        worker.counter("runs_total").inc(2)
        worker.histogram("lat", buckets=(10.0, 20.0)).observe(5.0)
        worker.gauge("rps").set(7.0)

        main = MetricsRegistry()
        main.counter("runs_total").inc(1)
        main.histogram("lat", buckets=(10.0, 20.0)).observe(15.0)
        main.gauge("rps").set(1.0)
        main.merge(worker.snapshot())

        assert main.counter("runs_total").value == 3
        hist = main.histogram("lat", buckets=(10.0, 20.0))
        assert hist.counts == [1, 1, 0]
        assert hist.count == 2
        assert main.gauge("rps").value == 7.0  # gauges: snapshot wins

    def test_merge_into_empty_registry_recreates_metrics(self):
        worker = MetricsRegistry()
        worker.counter("runs_total").inc(5)
        worker.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        main = MetricsRegistry()
        main.merge(worker.snapshot())
        assert main.snapshot() == worker.snapshot()

    def test_merge_rejects_incompatible_bucket_layout(self):
        worker = MetricsRegistry()
        worker.histogram("lat", buckets=(1.0, 2.0)).observe(1.0)
        main = MetricsRegistry()
        main.histogram("lat", buckets=(5.0, 6.0))
        with pytest.raises(ValueError):
            main.merge(worker.snapshot())

    def test_merge_is_associative_over_workers(self):
        def worker(n):
            registry = MetricsRegistry()
            registry.counter("runs_total").inc(n)
            registry.histogram("lat", buckets=(10.0,)).observe(n)
            return registry.snapshot()

        one_then_two = MetricsRegistry()
        one_then_two.merge(worker(1))
        one_then_two.merge(worker(2))
        two_then_one = MetricsRegistry()
        two_then_one.merge(worker(2))
        two_then_one.merge(worker(1))
        assert one_then_two.snapshot() == two_then_one.snapshot()

    def test_render_lists_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("runs_total").inc(2)
        registry.gauge("campaign_runs_per_sec").set(3.25)
        registry.histogram("detection_latency_ms").observe(20.0)
        text = registry.render()
        assert "runs_total 2" in text
        assert "campaign_runs_per_sec 3.250" in text
        assert "detection_latency_ms count=1 mean=20.0 sum=20.0" in text

    def test_render_empty_histogram_mean_placeholder(self):
        registry = MetricsRegistry()
        registry.histogram("lat")
        assert "count=0 mean=-" in registry.render()
