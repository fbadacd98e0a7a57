"""The campaign stack on the task graph: equivalence, replay, sharding.

Pins the PR's hard invariants:

* the graph runtime produces **record-for-record** the same results as
  the flat engine for the full E1 grid of every registered target;
* an unchanged campaign replays 100 % of its nodes from the store and
  executes **zero** simulations;
* flipping one :class:`RunSpec` input re-keys exactly that run node's
  subtree (content-address invalidation);
* a 2-way sharded run, after ``merge``, reproduces the unsharded
  aggregate CSV byte-for-byte;
* a tracer disables replay (traced nodes execute, never replay, and
  count as replay fallbacks) but not the pool;
* an interrupted campaign keeps every run it finished in its node
  store, and re-running with the same store executes only the rest.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.campaign import CampaignConfig
from repro.experiments.dag import (
    AGGREGATE_NODE,
    TABLES_NODE,
    build_campaign_graph,
    code_fingerprint,
    context_fingerprint,
    run_campaign_graph,
    run_node_name,
)
from repro.experiments.graph import NodeStore, merge_stores
from repro.experiments.parallel import enumerate_e1_specs, execute_specs
from repro.targets import snapshot as snapshots
from repro.targets.base import Target
from repro.targets.registry import get_target, target_names
from tests.experiments.store_fixtures import count_fsyncs, pack_holding, packs

#: Mid-run first injection, so runs restore fault-free prefix snapshots
#: (captured on a cell's first run, or before the pool forks), matching
#: the batch-equivalence harness.
INJECTION_START = {"arrestor": 12000, "tanklevel": 3000}


def _config(target_name, **overrides):
    return CampaignConfig(
        cases_all=1,
        cases_per_ea=1,
        target=target_name,
        injection_start_ms=INJECTION_START[target_name],
        **overrides,
    )


def _slice_specs(target_name, errors=3, versions=("EA1", "All")):
    """A small deterministic E1 slice (a few errors, two versions)."""
    config = _config(target_name, versions=versions)
    specs = enumerate_e1_specs(config)
    names = sorted({spec.error_name for spec in specs})[:errors]
    return [spec for spec in specs if spec.error_name in names]


@pytest.mark.parametrize("name", target_names())
class TestFullGridEquivalence:
    """Full E1 grid per target: graph runtime vs the flat engine.

    Both sides use the vectorized batch path (batch ≡ serial is pinned
    separately by the batch differential harness), so this compares the
    graph orchestration itself at full-campaign scale in tier-1 time.
    """

    def test_full_e1_grid_identical(self, name, tmp_path):
        np = pytest.importorskip("numpy")  # noqa: F841 - batch path
        config = _config(name)
        specs = enumerate_e1_specs(config)
        legacy = execute_specs(specs, batch=True)
        outcome = run_campaign_graph(
            specs, store=NodeStore(tmp_path / "nodes"), batch=True
        )
        assert outcome.results.records == legacy.records
        assert outcome.stats.by_kind["run"]["executed"] == len(specs)


class TestSerialSliceEquivalence:
    """The non-batch run stage matches the serial engine."""

    @pytest.mark.parametrize("name", target_names())
    def test_slice_identical(self, name, tmp_path):
        specs = _slice_specs(name)
        legacy = execute_specs(specs)
        outcome = run_campaign_graph(specs, store=NodeStore(tmp_path / "n"))
        assert outcome.results.records == legacy.records


class TestReplay:
    def test_unchanged_rerun_executes_zero_runs(self, tmp_path, monkeypatch):
        specs = _slice_specs("arrestor")
        store = NodeStore(tmp_path / "nodes")
        cold = run_campaign_graph(specs, store=store)
        assert cold.stats.executed > 0

        # Any attempt to simulate on the warm path must explode.
        import repro.experiments.dag as dag_module

        def _forbidden(*args, **kwargs):
            raise AssertionError("warm replay must not execute any run")

        monkeypatch.setattr(dag_module, "execute_specs", _forbidden)
        warm = run_campaign_graph(specs, store=store)
        assert warm.stats.executed == 0
        assert warm.stats.hit_rate == 1.0
        assert warm.results.records == cold.results.records
        assert warm.aggregate_csv == cold.aggregate_csv

    def test_full_replay_reports_complete_progress(self, tmp_path):
        specs = _slice_specs("arrestor", errors=1)
        store = NodeStore(tmp_path / "nodes")
        run_campaign_graph(specs, store=store)
        seen = []
        warm = run_campaign_graph(
            specs, store=store, progress=lambda done, total: seen.append((done, total))
        )
        assert warm.stats.executed == 0
        assert seen == [(len(specs), len(specs))]

    def test_torn_run_record_re_executes_only_that_run(self, tmp_path):
        # The serial path stores one pack per run, so tearing one pack
        # loses exactly one run; every other pack still replays.
        specs = _slice_specs("arrestor", errors=2)
        store = NodeStore(tmp_path / "nodes")
        cold = run_campaign_graph(specs, store=store)
        graph = build_campaign_graph(specs)
        torn = graph.key(run_node_name(specs[1]))
        path = pack_holding(store, torn)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        again = run_campaign_graph(specs, store=NodeStore(tmp_path / "nodes"))
        assert again.stats.by_kind["run"]["executed"] == 1
        assert again.stats.by_kind["run"]["cached"] == len(specs) - 1
        assert again.results.records == cold.results.records
        [record] = json.loads(text)["records"]
        assert NodeStore(tmp_path / "nodes").load(torn) == record
        assert pack_holding(store, torn) != path

    def test_flipping_one_input_re_executes_one_subtree(self, tmp_path):
        specs = _slice_specs("arrestor", errors=2)
        store = NodeStore(tmp_path / "nodes")
        run_campaign_graph(specs, store=store)
        changed = [dataclasses.replace(specs[0], injection_period_ms=40)] + specs[1:]
        outcome = run_campaign_graph(changed, store=store)
        assert outcome.stats.by_kind["run"]["executed"] == 1
        assert outcome.stats.by_kind["run"]["cached"] == len(specs) - 1
        # A new period is a new context with its own aggregate, and the
        # other runs' aggregate lost a run: both re-execute.
        assert outcome.stats.by_kind["aggregate"]["executed"] == 2

    def test_force_re_executes_everything(self, tmp_path):
        specs = _slice_specs("arrestor", errors=1)
        store = NodeStore(tmp_path / "nodes")
        run_campaign_graph(specs, store=store)
        forced = run_campaign_graph(specs, store=store, force=True)
        assert forced.stats.cached == 0
        assert forced.stats.by_kind["run"]["executed"] == len(specs)


class TestFingerprints:
    """The context fingerprint folded into every run node's inputs."""

    def test_code_fingerprint_stable_within_process(self):
        target = get_target("tanklevel")
        assert code_fingerprint(target) == code_fingerprint(target)

    def test_context_differs_by_config_and_start(self):
        target = get_target("tanklevel")
        base = context_fingerprint(target)
        assert context_fingerprint(target, injection_start_ms=500) != base
        assert context_fingerprint(target, run_config="other") != base
        assert context_fingerprint(target) == base

    def test_targets_have_distinct_fingerprints(self):
        a = code_fingerprint(get_target("arrestor"))
        b = code_fingerprint(get_target("tanklevel"))
        assert a != b

    def test_fingerprint_does_not_import_the_modules_it_hashes(self):
        # Importing the batch kernels would pull numpy into every
        # campaign process just to hash their source.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        code = (
            "import sys\n"
            "from repro.experiments.dag import code_fingerprint\n"
            "from repro.targets.registry import get_target\n"
            "code_fingerprint(get_target('arrestor'))\n"
            "print('repro.targets.batch.arrestor' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_stale_code_fingerprint_re_executes_every_run(self, tmp_path, monkeypatch):
        import repro.experiments.dag as dag_module

        specs = _slice_specs("tanklevel", errors=2)
        store = NodeStore(tmp_path / "nodes")
        first = run_campaign_graph(specs, store=store)
        # The target's source "changed": every run node re-keys and misses.
        monkeypatch.setattr(dag_module, "code_fingerprint", lambda target: "0" * 64)
        again = run_campaign_graph(specs, store=store)
        assert again.stats.by_kind["run"]["executed"] == len(specs)
        assert again.stats.by_kind["run"]["cached"] == 0
        assert again.results.records == first.results.records


class TestKeyDerivation:
    """Content-address invalidation at the key level (no execution)."""

    FIELDS = ("injection_period_ms", "address", "bit")

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_one_spec_flip_rekeys_exactly_its_subtree(self, data):
        specs = _slice_specs("arrestor", errors=2)
        base_graph = build_campaign_graph(specs)
        base_keys = base_graph.keys()
        index = data.draw(st.integers(min_value=0, max_value=len(specs) - 1))
        field = data.draw(st.sampled_from(self.FIELDS))
        bump = data.draw(st.integers(min_value=1, max_value=7))
        mutated = dataclasses.replace(
            specs[index], **{field: getattr(specs[index], field) + bump}
        )
        changed_graph = build_campaign_graph(
            specs[:index] + [mutated] + specs[index + 1 :]
        )
        changed_keys = changed_graph.keys()
        # A new period moves the run into a context of its own, renaming
        # that context's nodes; keys follow the runs, not the names.
        base_runs = {spec: base_keys[name] for name, spec in base_graph.runs.items()}
        changed_runs = {spec: changed_keys[name] for name, spec in changed_graph.runs.items()}
        assert changed_runs[mutated] != base_runs[specs[index]]
        for spec in specs[:index] + specs[index + 1 :]:
            assert changed_runs[spec] == base_runs[spec]
        assert changed_keys[AGGREGATE_NODE] != base_keys[AGGREGATE_NODE]

    def test_graph_holds_only_stored_work(self):
        specs = _slice_specs("arrestor")
        graph = build_campaign_graph(specs, tables_renderer=str)
        kinds = {node.kind for node in graph.nodes()}
        assert kinds == {"run", "aggregate", "tables"}
        runs = [node for node in graph.nodes() if node.kind == "run"]
        assert len(runs) == len(specs)
        assert list(graph.runs) == [node.name for node in runs]
        assert list(graph.runs.values()) == specs
        assert all(node.deps == () for node in runs)

    def test_identical_grid_has_identical_keys(self):
        specs = _slice_specs("tanklevel", errors=2)
        assert build_campaign_graph(specs).keys() == build_campaign_graph(
            specs
        ).keys()


class TestContexts:
    """Several contexts in one graph: each run keyed as if its context ran alone."""

    def _contexts(self):
        from repro.targets.tanklevel.system import TankRunConfig

        base = _slice_specs("tanklevel", errors=2, versions=("All",))
        return [
            base,
            [dataclasses.replace(s, run_config=TankRunConfig(observe_ms=4500)) for s in base],
            [dataclasses.replace(s, injection_period_ms=7) for s in base],
        ]

    def test_run_and_aggregate_keys_match_one_context_graphs(self):
        contexts = self._contexts()
        keys = build_campaign_graph([s for specs in contexts for s in specs]).keys()
        for index, specs in enumerate(contexts):
            alone = build_campaign_graph(specs).keys()
            suffix = f"@{index}" if index else ""
            assert keys[AGGREGATE_NODE + suffix] == alone[AGGREGATE_NODE]
            for spec in specs:
                name = run_node_name(spec)
                assert keys[name + suffix] == alone[name]
        assert len(keys) == 3 * 2 + 3

    def test_one_context_stores_replay_inside_a_multi_context_graph(self, tmp_path):
        contexts = self._contexts()
        store = NodeStore(tmp_path / "nodes")
        alone = [run_campaign_graph(specs, store=store) for specs in contexts]
        mixed = run_campaign_graph([s for specs in contexts for s in specs], store=store)
        assert mixed.stats.by_kind["run"]["executed"] == 0
        assert mixed.results.records == [r for o in alone for r in o.results.records]
        assert list(mixed.aggregates.values()) == [o.aggregate_csv for o in alone]
        assert mixed.aggregate_csv == alone[0].aggregate_csv

    def test_an_empty_campaign_aggregates_and_renders(self):
        outcome = run_campaign_graph([], tables_renderer=lambda results: "empty")
        assert outcome.aggregate_csv.startswith("error_name,")
        assert outcome.aggregate_csv.count("\n") == 1
        assert outcome.tables == "empty"


class TestSnapshotWarmUp:
    """Warm-up happens once: lazily when serial, before the fork when pooled."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"snapshot": 0, "restore": 0}
        for method in counts:
            original = getattr(Target, method)

            def counted(self, arg, _method=method, _original=original):
                counts[_method] += 1
                return _original(self, arg)

            monkeypatch.setattr(Target, method, counted)
        snapshots.clear_cache()
        yield counts
        snapshots.clear_cache()

    @staticmethod
    def _cells(specs):
        return len({(spec.version, spec.mass_kg, spec.velocity_mps) for spec in specs})

    @pytest.mark.parametrize("name", target_names())
    def test_serial_captures_once_per_cell_and_restores_once_per_run(
        self, name, calls
    ):
        specs = _slice_specs(name, errors=2)
        outcome = run_campaign_graph(specs, snapshots=True)
        assert outcome.stats.by_kind["run"]["executed"] == len(specs)
        assert calls == {"snapshot": self._cells(specs), "restore": len(specs)}

    def test_pool_parent_captures_without_restoring(self, calls):
        specs = _slice_specs("tanklevel", errors=2)
        outcome = run_campaign_graph(specs, workers=2, snapshots=True)
        assert outcome.stats.by_kind["run"]["executed"] == len(specs)
        # Counted in this process only: the forked workers restore.
        assert calls == {"snapshot": self._cells(specs), "restore": 0}


class TestSharding:
    def test_two_shard_merge_equals_unsharded(self, tmp_path):
        specs = _slice_specs("arrestor")
        unsharded_store = NodeStore(tmp_path / "unsharded")
        unsharded = run_campaign_graph(specs, store=unsharded_store)

        shard_stores = [NodeStore(tmp_path / f"s{i}") for i in range(2)]
        shard_outcomes = [
            run_campaign_graph(specs, store=shard_stores[i], shard=(i, 2))
            for i in range(2)
        ]
        assert all(outcome.aggregate_csv is None for outcome in shard_outcomes)
        shard_records = [
            record
            for outcome in shard_outcomes
            for record in outcome.results.records
        ]
        assert len(shard_records) == len(specs)
        assert sorted(
            shard_records, key=repr
        ) == sorted(unsharded.results.records, key=repr)

        merged_store = NodeStore(tmp_path / "merged")
        merged, present = merge_stores(merged_store, shard_stores)
        assert merged == len(specs)
        assert present == 0

        final = run_campaign_graph(specs, store=merged_store)
        assert final.stats.by_kind["run"]["executed"] == 0
        assert final.stats.by_kind["run"]["cached"] == len(specs)
        # Byte-for-byte: the aggregate CSV is canonical-order by
        # construction, so shard-union replay reproduces it exactly.
        assert final.aggregate_csv == unsharded.aggregate_csv
        assert final.results.records == unsharded.results.records

    def test_shard_string_parsing_rejects_bad_values(self):
        specs = _slice_specs("arrestor", errors=1)
        for bad in ("2/2", "-1/2", "x/y", "3"):
            with pytest.raises(ValueError):
                run_campaign_graph(specs, shard=bad)


class TestTracing:
    def test_tracer_disables_replay_and_emits_node_events(self, tmp_path):
        import json

        from repro.obs import MetricsRegistry

        specs = _slice_specs("arrestor", errors=1)
        store = NodeStore(tmp_path / "nodes")
        run_campaign_graph(specs, store=store)
        trace = tmp_path / "trace.jsonl"
        metrics = MetricsRegistry()
        traced = run_campaign_graph(specs, store=store, trace=trace, metrics=metrics)
        assert traced.stats.cached == 0  # nodes execute, never replay
        # Every run node had a stored record it could not replay.
        assert metrics.snapshot()["counters"][
            "runs_fallback_total{reason=tracer,strategy=replay}"
        ] == len(specs)
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        kinds = [event["kind"] for event in events]
        assert kinds.count("node-start") == traced.stats.executed
        assert kinds.count("node-done") == traced.stats.executed
        assert "run-start" in kinds  # engine-level run lifecycle nested
        started = [
            event["data"]["node"]
            for event in events
            if event["kind"] == "node-start"
        ]
        assert run_node_name(specs[0]) in started

    def test_traced_cold_campaign_emits_node_events_stage_by_stage(self):
        from repro.obs import RingBufferSink, TraceBus

        # A traced campaign needs one run id per run: the contexts hold
        # different errors.
        specs = _slice_specs("tanklevel", errors=4, versions=("All",))
        base = specs[: len(specs) // 2]
        other = [dataclasses.replace(s, injection_period_ms=7) for s in specs[len(specs) // 2 :]]
        buffer = RingBufferSink()
        run_campaign_graph(
            base + other, trace=TraceBus([buffer]), tables_renderer=lambda results: "t"
        )
        node_events = [
            (event.kind, event.data["node_kind"], event.data["node"])
            for event in buffer.events
            if event.kind.startswith("node-")
        ]
        runs = [run_node_name(s) for s in base] + [run_node_name(s) + "@1" for s in other]
        aggregates = [AGGREGATE_NODE, AGGREGATE_NODE + "@1"]
        # Every run starts, each serial chunk (one run) is done as it is
        # stored, then the aggregates, then tables.
        assert node_events == (
            [("node-start", "run", name) for name in runs]
            + [("node-done", "run", name) for name in runs]
            + [("node-start", "aggregate", name) for name in aggregates]
            + [("node-done", "aggregate", name) for name in aggregates]
            + [("node-start", "tables", TABLES_NODE), ("node-done", "tables", TABLES_NODE)]
        )

    def test_traced_campaign_with_workers_forks_a_pool(self, tmp_path, monkeypatch):
        import repro.experiments.parallel as parallel
        from repro.experiments.campaign import run_e1_campaign
        from repro.obs import read_trace, reconcile_trace

        pools = []
        new_executor = parallel._new_executor

        def _counted(workers):
            pools.append(workers)
            return new_executor(workers)

        monkeypatch.setattr(parallel, "_new_executor", _counted)
        trace = tmp_path / "trace.jsonl"
        config = CampaignConfig(
            cases_all=1, versions=("All",), workers=2, trace_path=str(trace)
        )
        results = run_e1_campaign(
            config, error_filter=lambda e: e.signal == "i" and e.signal_bit < 2
        )
        assert len(results) == 2
        assert pools == [2]
        events = read_trace(trace)
        assert [event.seq for event in events] == list(range(len(events)))
        assert reconcile_trace(events, results.records) == []

    def test_trace_file_is_rewritten_by_a_rerun(self, tmp_path):
        from repro.obs import read_trace, reconcile_trace

        specs = _slice_specs("arrestor", errors=1, versions=("All",))
        store = NodeStore(tmp_path / "nodes")
        trace = tmp_path / "trace.jsonl"
        run_campaign_graph(specs, store=store, trace=trace)
        first = trace.read_text()
        again = run_campaign_graph(specs, store=store, trace=trace)
        events = read_trace(trace)
        assert len(trace.read_text().splitlines()) == len(first.splitlines())
        assert [e.kind for e in events].count("campaign-start") == 1
        assert reconcile_trace(events, again.results.records) == []


class TestCampaignEntryPoints:
    """run_e1_campaign/run_e2_campaign are thin wrappers over the graph."""

    def test_run_e1_campaign_matches_the_run_wave_runner(self, tmp_path):
        from repro.experiments.campaign import run_e1_campaign
        from repro.experiments.diff import load_records
        from repro.experiments.persistence import results_to_csv

        config = _config("arrestor", versions=("EA1",))
        error_filter = lambda e: e.signal_bit in (0, 15)  # noqa: E731
        direct = execute_specs(enumerate_e1_specs(config, error_filter))
        via_graph = run_e1_campaign(
            config, error_filter=error_filter, store=tmp_path / "nodes"
        )
        assert via_graph.records == direct.records
        # Executed runs come back as the runner produced them, so a
        # --save CSV is byte-identical to the run-wave runner's.
        assert results_to_csv(via_graph) == results_to_csv(direct)
        assert load_records(tmp_path / "nodes").sorted() == direct.sorted()

    def test_run_e2_campaign_matches_the_run_wave_runner(self, tmp_path):
        from repro.experiments.campaign import run_e2_campaign
        from repro.experiments.parallel import enumerate_e2_specs

        config = CampaignConfig(cases_e2=1, target="arrestor")
        error_filter = lambda e: e.name in ("R1", "R2", "R3")  # noqa: E731
        direct = execute_specs(enumerate_e2_specs(config, error_filter))
        via_graph = run_e2_campaign(
            config, error_filter=error_filter, store=tmp_path / "nodes"
        )
        assert via_graph.records == direct.records

    def test_run_e2_campaign_replays_from_its_store(self, tmp_path):
        from repro.experiments.campaign import run_e2_campaign
        from repro.obs.metrics import MetricsRegistry

        error_filter = lambda e: e.name in ("R1", "R2")  # noqa: E731
        store = tmp_path / "nodes"
        cold = run_e2_campaign(
            CampaignConfig(cases_e2=1, target="arrestor"),
            error_filter=error_filter,
            store=store,
        )
        metrics = MetricsRegistry()
        warm = run_e2_campaign(
            CampaignConfig(cases_e2=1, target="arrestor", metrics=metrics),
            error_filter=error_filter,
            store=store,
        )
        assert warm.records == cold.records
        assert metrics.counter("graph_nodes_cached_total", kind="run").value == len(
            cold
        )
        assert metrics.gauge("graph_cache_hit_rate").value == 1.0

    def test_tables_artifact_rendered_and_cached(self, tmp_path):
        from repro.experiments.campaign import run_campaign_graph as run_graph

        config = _config("arrestor", versions=("All",))
        error_filter = lambda e: e.signal == "mscnt"  # noqa: E731
        store = tmp_path / "nodes"
        cold = run_graph(config, "e1", error_filter=error_filter, store=store)
        assert cold.tables is not None
        assert "Table 7" in cold.tables
        warm = run_graph(config, "e1", error_filter=error_filter, store=store)
        assert warm.tables == cold.tables
        assert warm.stats.by_kind["tables"]["cached"] == 1


class Interrupted(Exception):
    pass


class TestInterruptAndResume:
    """Per-node completion records are the campaign's checkpoint.

    A progress hook raises after *k* runs.  Every run completed before
    the interrupt must already be in the node store (exactly *k* on the
    serial path, every finished chunk on the pool), and the re-run
    against the same store must execute only the remaining runs and
    return the uninterrupted campaign's result set.
    """

    RUNS_BEFORE_INTERRUPT = 3

    @staticmethod
    def _filter(error):
        return error.signal == "tick"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rerun_with_the_same_store_executes_only_the_rest(self, tmp_path, workers):
        from repro.experiments.campaign import run_e1_campaign
        from repro.experiments.diff import load_records
        from repro.experiments.persistence import results_to_csv
        from repro.obs.metrics import MetricsRegistry

        def config(**overrides):
            return CampaignConfig(
                cases_all=1, versions=("All",), target="tanklevel", **overrides
            )

        uninterrupted = run_e1_campaign(config(), error_filter=self._filter)
        total = len(uninterrupted)
        store = tmp_path / "nodes"
        reported = []

        def interrupt(done, _total):
            reported.append(done)
            if done >= self.RUNS_BEFORE_INTERRUPT:
                raise Interrupted

        with pytest.raises(Interrupted):
            run_e1_campaign(
                config(workers=workers),
                progress=interrupt,
                error_filter=self._filter,
                store=store,
            )
        stored = load_records(store).records
        if workers == 1:
            assert len(stored) == self.RUNS_BEFORE_INTERRUPT
        assert len(stored) == reported[-1] < total
        assert set(stored) <= set(uninterrupted.records)

        metrics = MetricsRegistry()
        seen = []
        resumed = run_e1_campaign(
            config(workers=workers, metrics=metrics),
            progress=lambda done, _total: seen.append(done),
            error_filter=self._filter,
            store=store,
        )
        executed = metrics.counter("graph_nodes_executed_total", kind="run").value
        cached = metrics.counter("graph_nodes_cached_total", kind="run").value
        assert (executed, cached) == (total - len(stored), len(stored))
        assert resumed.records == uninterrupted.records
        # Progress counts the replayed runs too.
        assert seen[0] > len(stored) and seen[-1] == total
        assert len(load_records(store)) == total


class TestStoreWrites:
    """One durable write — one ``fsync``'d pack — per completed chunk.

    A batched grid is one chunk per target, a pool wave one per chunk,
    the serial path one per run; aggregate and tables are one each.
    """

    def test_batched_grid_is_one_write(self, tmp_path, monkeypatch):
        pytest.importorskip("numpy")  # batch path
        from repro.experiments import campaign

        config = CampaignConfig(target="tanklevel", cases_all=1, cases_per_ea=1, batch=True)
        fsyncs = count_fsyncs(monkeypatch)
        outcome = campaign.run_campaign_graph(config, "e1", store=tmp_path / "nodes")
        assert outcome.stats.by_kind["run"]["executed"] == len(enumerate_e1_specs(config)) > 1
        assert outcome.tables
        assert len(fsyncs) == 1 + 1 + 1  # the grid, aggregate, tables
        assert len(packs(NodeStore(tmp_path / "nodes"))) == 3

    def test_pool_wave_writes_one_pack_per_chunk(self, tmp_path, monkeypatch):
        from repro.experiments import parallel

        if not parallel._multiprocessing_usable():
            pytest.skip("no process pool on this platform")
        specs = _slice_specs("tanklevel", errors=5)
        size = parallel._default_chunk_size(len(specs), 2)
        chunks = -(-len(specs) // size)
        assert 1 < chunks < len(specs)
        fsyncs = count_fsyncs(monkeypatch)
        run_campaign_graph(specs, store=NodeStore(tmp_path / "nodes"), workers=2)
        assert len(fsyncs) == chunks + 1  # + aggregate
        assert len(packs(NodeStore(tmp_path / "nodes"))) == chunks + 1

    def test_serial_slice_writes_one_pack_per_run(self, tmp_path, monkeypatch):
        specs = _slice_specs("tanklevel", errors=2)
        fsyncs = count_fsyncs(monkeypatch)
        run_campaign_graph(specs, store=NodeStore(tmp_path / "nodes"))
        assert len(fsyncs) == len(specs) + 1  # + aggregate
        assert len(packs(NodeStore(tmp_path / "nodes"))) == len(specs) + 1


    def test_forced_reruns_compact_back_to_one_pack(self, tmp_path):
        specs = _slice_specs("tanklevel", errors=2)
        store = tmp_path / "nodes"
        cold = run_campaign_graph(specs, store=store)
        live = len(specs) + 1  # + aggregate
        assert len(packs(NodeStore(store))) == live
        # One forced re-run supersedes as many records as are live: kept.
        run_campaign_graph(specs, store=store, force=True)
        assert len(packs(NodeStore(store))) == 2 * live
        # The next one tips superseded over live: one pack of live records.
        run_campaign_graph(specs, store=store, force=True)
        [path] = packs(NodeStore(store))
        assert len(json.loads(path.read_text())["records"]) == live
        warm = run_campaign_graph(specs, store=store)
        assert warm.stats.hit_rate == 1.0
        assert warm.aggregate_csv == cold.aggregate_csv


class TestGraphSmoke:
    """Fast end-to-end slice for ``make graph-smoke``."""

    def test_cold_warm_shard_merge_cycle(self, tmp_path):
        specs = _slice_specs("arrestor", errors=1, versions=("All",))
        store = NodeStore(tmp_path / "nodes")
        cold = run_campaign_graph(specs, store=store)
        # Serial: one pack per run, plus one for the aggregate.
        assert len(packs(store)) == len(specs) + 1
        warm = run_campaign_graph(specs, store=store)
        assert cold.results.records == warm.results.records
        assert warm.stats.executed == 0
        assert len(packs(store)) == len(specs) + 1
        shards = [NodeStore(tmp_path / f"s{i}") for i in range(2)]
        for i in range(2):
            shard = run_campaign_graph(specs, store=shards[i], shard=(i, 2))
            assert len(packs(shards[i])) == len(shard.results.records)
        merged = NodeStore(tmp_path / "merged")
        assert merge_stores(merged, shards) == (len(specs), 0)
        assert len(packs(merged)) == sum(1 for shard in shards if len(shard))
        final = run_campaign_graph(specs, store=merged)
        assert final.stats.by_kind["run"]["executed"] == 0
        assert final.aggregate_csv == cold.aggregate_csv
