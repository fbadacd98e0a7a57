"""Unit tests for :mod:`repro.experiments.graph`, and how a campaign uses it.

Covers graph construction, content-address derivation (the invalidation
rule), the file-backed node store, the shard/merge protocol, and — on a
tiny tank-level slice through
:func:`repro.experiments.dag.run_campaign_graph` — what a campaign
replays, forces and re-executes against its node store.
"""

import json
import time

import pytest

from repro.experiments.graph import (
    Graph,
    GraphError,
    Node,
    NodeStore,
    StoreMergeError,
    merge_stores,
    shard_of,
)
from tests.experiments.store_fixtures import pack_holding, packs


def diamond():
    """a -> (b, c) -> d.

    Inputs carry each node's distinguishing parameter — the content
    address covers everything that determines the output, so same-kind
    nodes doing different work must differ there.
    """
    graph = Graph()
    graph.add(Node(name="a", kind="src", inputs={"v": "1"}))
    graph.add(Node(name="b", kind="mid", inputs={"add": "10"}, deps=("a",)))
    graph.add(Node(name="c", kind="mid", inputs={"add": "20"}, deps=("a",)))
    graph.add(Node(name="d", kind="sink", deps=("b", "c")))
    return graph


class TestGraphConstruction:
    def test_topo_order_deps_first(self):
        assert [node.name for node in diamond().nodes()] == ["a", "b", "c", "d"]
        assert list(diamond().keys()) == ["a", "b", "c", "d"]

    def test_insertion_order_breaks_ties(self):
        graph = Graph()
        graph.add(Node(name="z", kind="k"))
        graph.add(Node(name="a", kind="k"))
        assert [node.name for node in graph.nodes()] == ["z", "a"]

    def test_duplicate_name_rejected(self):
        graph = Graph()
        graph.add(Node(name="a", kind="k"))
        with pytest.raises(GraphError, match="duplicate"):
            graph.add(Node(name="a", kind="k"))

    def test_unknown_dependency_rejected(self):
        graph = Graph()
        with pytest.raises(GraphError, match="ghost"):
            graph.add(Node(name="a", kind="k", deps=("ghost",)))
        assert "a" not in graph and len(graph) == 0

    def test_cycle_rejected(self):
        # A dependency must be added first, so no cycle can be closed.
        graph = Graph()
        with pytest.raises(GraphError, match="not yet added"):
            graph.add(Node(name="a", kind="k", deps=("b",)))
        graph.add(Node(name="b", kind="k"))
        graph.add(Node(name="a", kind="k", deps=("b",)))
        with pytest.raises(GraphError, match="duplicate"):
            graph.add(Node(name="b", kind="k", deps=("a",)))


class TestContentAddresses:
    def test_keys_are_deterministic(self):
        assert diamond().keys() == diamond().keys()

    def test_input_flip_rekeys_exactly_the_subtree(self):
        base = diamond().keys()
        changed_graph = diamond()
        changed_graph._nodes["b"] = Node(
            name="b",
            kind="mid",
            inputs={"v": "changed"},
            deps=("a",),
        )
        changed = changed_graph.keys()
        assert changed["a"] == base["a"]
        assert changed["c"] == base["c"]  # sibling untouched
        assert changed["b"] != base["b"]
        assert changed["d"] != base["d"]  # dependent re-keyed transitively

    def test_kind_enters_the_key(self):
        g1, g2 = Graph(), Graph()
        g1.add(Node(name="n", kind="x"))
        g2.add(Node(name="n", kind="y"))
        assert g1.key("n") != g2.key("n")

    def test_name_does_not_enter_the_key(self):
        # Content-addressing: renaming a node without changing its work
        # must not invalidate it (shards address records purely by key).
        g1, g2 = Graph(), Graph()
        g1.add(Node(name="n1", kind="x", inputs={"v": "1"}))
        g2.add(Node(name="n2", kind="x", inputs={"v": "1"}))
        assert g1.key("n1") == g2.key("n2")


def _put(store, node, key, output):
    """Store one node as a pack of one; returns the pack's path."""
    return store.put([NodeStore.record(node, key, output)])


class TestNodeStore:
    def test_roundtrip(self, tmp_path):
        store = NodeStore(tmp_path / "s")
        node = Node(name="n", kind="k", inputs={"v": "1"})
        path = _put(store, node, "k" * 64, {"answer": 42})
        assert path.parent == store.dir and path.suffix == ".pack"
        assert store.get(node, "k" * 64) == ("hit", {"answer": 42})
        assert list(store.iter_keys()) == ["k" * 64]
        assert len(store) == 1
        reopened = NodeStore(tmp_path / "s")
        assert reopened.get(node, "k" * 64) == ("hit", {"answer": 42})
        assert len(reopened) == 1

    def test_missing_key_is_a_miss(self, tmp_path):
        store = NodeStore(tmp_path / "s")
        node = Node(name="n", kind="k")
        assert store.get(node, "0" * 64) == ("miss", None)
        assert len(store) == 0 and list(store.iter_keys()) == []

    def test_descriptor_mismatch_is_not_a_hit(self, tmp_path):
        store = NodeStore(tmp_path / "s")
        node = Node(name="n", kind="k", inputs={"v": "1"})
        _put(store, node, "k" * 64, 1)
        other = Node(name="n", kind="k", inputs={"v": "2"})
        assert store.get(other, "k" * 64) == ("mismatch", None)
        assert NodeStore(tmp_path / "s").get(other, "k" * 64) == ("mismatch", None)

    def test_torn_file_reads_as_miss(self, tmp_path):
        # A torn pack loses exactly its own records; other packs still hit.
        store = NodeStore(tmp_path / "s")
        nodes = [_batch_node(index) for index in range(5)]
        torn = store.put([NodeStore.record(node, f"{i:064x}", i) for i, node in
                          enumerate(nodes[:3])])
        store.put([NodeStore.record(node, f"{i + 3:064x}", i + 3) for i, node in
                   enumerate(nodes[3:])])
        torn.write_text(torn.read_text()[:40])  # simulated torn write
        reopened = NodeStore(tmp_path / "s")
        assert [reopened.get(node, f"{i:064x}")[0] for i, node in enumerate(nodes)] == [
            "miss", "miss", "miss", "hit", "hit"
        ]
        assert len(reopened) == 2

    def test_failed_put_keeps_the_previous_record(self, tmp_path, monkeypatch):
        import repro.experiments.graph as graph_module

        store = NodeStore(tmp_path / "s")
        node = Node(name="n", kind="k", inputs={"v": "1"})
        first = _put(store, node, "k" * 64, "old")

        def exploding(*args, **kwargs):
            raise RuntimeError("simulated crash mid-write")

        # A crash while the pack is encoded, then one after its bytes are
        # written but before they are durable.
        for module, name in ((graph_module.json, "dumps"), (graph_module.os, "fsync")):
            monkeypatch.setattr(module, name, exploding)
            with pytest.raises(RuntimeError):
                _put(store, node, "k" * 64, "new")
            monkeypatch.undo()
            assert packs(store) == [first]
            assert not list(store.dir.glob("*.tmp"))
            assert store.get(node, "k" * 64) == ("hit", "old")
            assert NodeStore(tmp_path / "s").get(node, "k" * 64) == ("hit", "old")

    def test_concurrent_writers_never_tear_records(self, tmp_path):
        # Two shards may share one store directory: writers racing on the
        # same keys must leave every record whole and no temp files.
        import multiprocessing

        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(target=_put_batch, args=(str(tmp_path / "s"), writer))
            for writer in range(4)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join()
        assert all(writer.exitcode == 0 for writer in writers)
        store = NodeStore(tmp_path / "s")
        assert len(store) == 50
        for index in range(50):
            node = _batch_node(index)
            assert store.get(node, f"{index:064x}") == ("hit", ["out", index] * 50)
        assert not list(store.dir.glob("*.tmp"))
        # 4 writers, each 25 keys (fewer for the last two) in packs of 5.
        assert len(packs(store)) == 5 + 5 + 5 + 3
        for path in packs(store):
            assert json.loads(path.read_text())["format"] == NodeStore.FORMAT

    def test_records_carry_descriptor(self, tmp_path):
        store = NodeStore(tmp_path / "s")
        node = Node(name="n", kind="k", inputs={"v": "1"}, deps=("up",))
        path = _put(store, node, "k" * 64, "out")
        assert json.loads(path.read_text()) == {
            "format": NodeStore.FORMAT,
            "records": [
                {
                    "key": "k" * 64,
                    "name": "n",
                    "kind": "k",
                    "inputs": {"v": "1"},
                    "deps": ["up"],
                    "output": "out",
                }
            ],
        }

    def test_foreign_and_per_node_files_are_ignored(self, tmp_path):
        node = Node(name="n", kind="k", inputs={"v": "1"})
        store = NodeStore(tmp_path / "s")
        store.dir.mkdir(parents=True)
        record = NodeStore.record(node, "k" * 64, "old layout")
        (store.dir / f"{'k' * 64}.json").write_text(json.dumps(record))
        (store.dir / "garbage.pack").write_bytes(b"\xff\x00 not json")
        (store.dir / "list.pack").write_text(json.dumps([record]))
        (store.dir / "other.pack").write_text(
            json.dumps({"format": "something-else/1", "records": [record]})
        )
        (store.dir / "bad-records.pack").write_text(
            json.dumps({"format": NodeStore.FORMAT, "records": {"k": record}})
        )
        assert store.get(node, "k" * 64) == ("miss", None)
        assert len(store) == 0
        _put(store, node, "k" * 64, "new")
        assert NodeStore(tmp_path / "s").get(node, "k" * 64) == ("hit", "new")

    def test_latest_matching_record_wins(self, tmp_path):
        node = Node(name="n", kind="k", inputs={"v": "1"})
        poisoned = Node(name="n", kind="k", inputs={"v": "poisoned"})
        store = NodeStore(tmp_path / "s")
        _put(store, poisoned, "k" * 64, "foreign")
        _put(store, node, "k" * 64, "first")
        assert store.get(node, "k" * 64) == ("hit", "first")
        _put(store, node, "k" * 64, "forced")  # re-executed under force
        for view in (store, NodeStore(tmp_path / "s")):
            assert view.get(node, "k" * 64) == ("hit", "forced")
            assert view.load("k" * 64)["output"] == "forced"
            assert len(view) == 1

    def test_compact_keeps_the_latest_record_per_key_in_one_pack(self, tmp_path):
        store = NodeStore(tmp_path / "s")
        nodes = [_batch_node(index) for index in range(3)]
        for output in ("old", "new"):
            for index, node in enumerate(nodes):
                _put(store, node, f"{index:064x}", f"{output}{index}")
        assert store.superseded == 3 and len(store) == 3
        foreign = store.dir / "garbage.pack"
        foreign.write_bytes(b"not a pack")
        path = store.compact()
        assert packs(store) == [path, foreign]
        assert store.superseded == 0
        for view in (store, NodeStore(tmp_path / "s")):
            for index, node in enumerate(nodes):
                assert view.get(node, f"{index:064x}") == ("hit", f"new{index}")
        assert store.compact() is None

    def test_crash_before_the_unlinks_reads_the_latest_records(self, tmp_path, monkeypatch):
        import repro.experiments.graph as graph_module

        store = NodeStore(tmp_path / "s")
        node = _batch_node(0)
        for output in ("first", "second", "third"):
            _put(store, node, "k" * 64, output)
        _put(store, _batch_node(1), "j" * 64, "other")
        before = packs(store)

        def crash(path):
            raise RuntimeError("simulated crash before the unlinks")

        monkeypatch.setattr(graph_module.os, "unlink", crash)
        with pytest.raises(RuntimeError):
            store.compact()
        monkeypatch.undo()
        # The compacted pack landed next to every pack it read.
        assert len(packs(store)) == len(before) + 1 and set(before) < set(packs(store))
        reopened = NodeStore(tmp_path / "s")
        assert reopened.get(node, "k" * 64) == ("hit", "third")
        assert reopened.get(_batch_node(1), "j" * 64) == ("hit", "other")
        reopened.compact()
        assert len(packs(store)) == 1
        assert NodeStore(tmp_path / "s").get(node, "k" * 64) == ("hit", "third")

    def test_writer_landing_during_a_compaction_keeps_its_pack(self, tmp_path, monkeypatch):
        import repro.experiments.graph as graph_module

        store = NodeStore(tmp_path / "s")
        node = _batch_node(0)
        _put(store, node, "k" * 64, "old")
        _put(store, node, "k" * 64, "new")
        real_read = graph_module._read_pack
        raced = []

        def read_then_race(path):
            # Another writer's pack lands after the listing, mid-read.
            if not raced:
                raced.append(_put(NodeStore(tmp_path / "s"), node, "k" * 64, "raced"))
            return real_read(path)

        monkeypatch.setattr(graph_module, "_read_pack", read_then_race)
        compacted = store.compact()
        monkeypatch.undo()
        assert packs(store) == [compacted] + raced
        assert NodeStore(tmp_path / "s").get(node, "k" * 64) == ("hit", "raced")

    def test_writers_racing_compactions_lose_no_pack(self, tmp_path):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(target=_put_batch, args=(str(tmp_path / "s"), writer))
            for writer in range(3)
        ]
        for writer in writers:
            writer.start()
        store = NodeStore(tmp_path / "s")
        deadline = time.monotonic() + 60
        while any(writer.is_alive() for writer in writers) and time.monotonic() < deadline:
            store.compact()
        for writer in writers:
            writer.join(timeout=60)
        assert all(writer.exitcode == 0 for writer in writers)
        store.compact()
        reopened = NodeStore(tmp_path / "s")
        # Writers 0-2 cover keys 0..48 (windows of 25 starting every 12).
        assert len(reopened) == 49 and len(packs(reopened)) == 1
        for index in range(49):
            expected = ("hit", ["out", index] * 50)
            assert reopened.get(_batch_node(index), f"{index:064x}") == expected
        assert not list(reopened.dir.glob("*.tmp"))

    def test_empty_pack_refused(self, tmp_path):
        store = NodeStore(tmp_path / "s")
        with pytest.raises(ValueError, match="at least one record"):
            store.put([])
        assert not store.dir.exists()


def _batch_node(index):
    return Node(name=f"n{index}", kind="k", inputs={"i": str(index)})


def _put_batch(root, writer):
    """Subprocess body: put a window of keys overlapping its neighbours', 5 per pack."""
    store = NodeStore(root)
    window = range(writer * 12, min(writer * 12 + 25, 50))
    for start in range(window.start, window.stop, 5):
        store.put([
            NodeStore.record(_batch_node(index), f"{index:064x}", ["out", index] * 50)
            for index in range(start, min(start + 5, window.stop))
        ])


class TestMergeStores:
    def _store_with(self, root, name, value):
        store = NodeStore(root)
        node = Node(name=name, kind="k", inputs={"n": name})
        graph = Graph()
        graph.add(node)
        _put(store, node, graph.key(name), value)
        return store

    def test_union_of_disjoint_stores(self, tmp_path):
        s0 = self._store_with(tmp_path / "s0", "a", 1)
        s1 = self._store_with(tmp_path / "s1", "b", 2)
        dest = NodeStore(tmp_path / "dest")
        assert merge_stores(dest, [s0, s1]) == (2, 0)
        assert sorted(dest.iter_keys()) == sorted(
            list(s0.iter_keys()) + list(s1.iter_keys())
        )
        assert sorted(NodeStore(tmp_path / "dest").iter_keys()) == sorted(dest.iter_keys())

    def test_one_pack_per_source_store(self, tmp_path):
        sources = []
        for index in range(2):
            store = NodeStore(tmp_path / f"s{index}")
            for start in range(0, 6, 2):  # three packs of two records
                store.put([
                    NodeStore.record(_batch_node(i), f"{i:064x}", i)
                    for i in range(index * 6 + start, index * 6 + start + 2)
                ])
            sources.append(store)
        dest = NodeStore(tmp_path / "dest")
        assert merge_stores(dest, sources) == (12, 0)
        assert len(packs(dest)) == 2
        assert merge_stores(dest, sources) == (0, 12)
        assert len(packs(dest)) == 2  # nothing new, nothing written
        reopened = NodeStore(tmp_path / "dest")
        for i in range(12):
            assert reopened.get(_batch_node(i), f"{i:064x}") == ("hit", i)

    def test_identical_duplicates_count_as_present(self, tmp_path):
        s0 = self._store_with(tmp_path / "s0", "a", 1)
        s1 = self._store_with(tmp_path / "s1", "a", 1)
        dest = NodeStore(tmp_path / "dest")
        assert merge_stores(dest, [s0, s1]) == (1, 1)

    def test_conflicting_records_refused(self, tmp_path):
        s0 = self._store_with(tmp_path / "s0", "a", 1)
        s1 = self._store_with(tmp_path / "s1", "a, but different", 1)
        # Give s1 a record under s0's key with a different record body.
        [key0] = list(s0.iter_keys())
        [key1] = list(s1.iter_keys())
        s1.put([dict(s1.load(key1), key=key0)])
        dest = NodeStore(tmp_path / "dest")
        merge_stores(dest, [s0])
        with pytest.raises(StoreMergeError, match="refusing"):
            merge_stores(dest, [NodeStore(tmp_path / "s1")])
        # A refused source writes nothing, not even its agreeing records.
        assert len(packs(dest)) == 1
        assert list(NodeStore(tmp_path / "dest").iter_keys()) == [key0]

    def test_merge_is_idempotent(self, tmp_path):
        s0 = self._store_with(tmp_path / "s0", "a", 1)
        dest = NodeStore(tmp_path / "dest")
        assert merge_stores(dest, [s0]) == (1, 0)
        assert merge_stores(dest, [s0]) == (0, 1)


class TestSharding:
    def test_shard_of_partitions_completely(self):
        keys = [f"{i:064x}" for i in range(100)]
        for shards in (1, 2, 3, 5):
            assigned = [shard_of(key, shards) for key in keys]
            assert all(0 <= index < shards for index in assigned)
        assert [shard_of(key, 1) for key in keys] == [0] * 100

    def test_shard_of_rejects_zero(self):
        with pytest.raises(ValueError):
            shard_of("0" * 64, 0)


def _slice(errors=2):
    """A tiny tank-level E1 slice: the All version, one case per error."""
    from repro.experiments.campaign import CampaignConfig
    from repro.experiments.parallel import enumerate_e1_specs

    config = CampaignConfig(
        cases_all=1, versions=("All",), target="tanklevel", injection_start_ms=3000
    )
    specs = enumerate_e1_specs(config)
    names = sorted({spec.error_name for spec in specs})[:errors]
    return [spec for spec in specs if spec.error_name in names]


def _campaign(specs, store=None, renderer=lambda results: f"{len(results)} runs", **kwargs):
    """``run_campaign_graph`` over *specs*, with a tables stage."""
    from repro.experiments.dag import run_campaign_graph

    return run_campaign_graph(
        specs, store=store, tables_renderer=renderer, tables_fingerprint="t", **kwargs
    )


class TestExecutionPlanning:
    """What a campaign replays from its node store and what it executes."""

    def test_second_run_replays_everything(self, tmp_path):
        specs = _slice()
        cold = _campaign(specs, NodeStore(tmp_path / "s"))
        warm = _campaign(specs, NodeStore(tmp_path / "s"))
        assert (warm.stats.executed, warm.stats.cached) == (0, len(specs) + 2)
        assert warm.stats.hit_rate == 1.0
        assert warm.results.records == cold.results.records
        assert (warm.aggregate_csv, warm.tables) == (cold.aggregate_csv, cold.tables)

    def test_force_re_executes_and_refreshes(self, tmp_path):
        specs = _slice()
        store = NodeStore(tmp_path / "s")
        _campaign(specs, store)
        forced = _campaign(specs, store, force=True)
        assert forced.stats.cached == 0
        assert forced.stats.executed == len(specs) + 2
        assert len(packs(store)) == 2 * (len(specs) + 2)

    def test_force_refresh_is_what_later_lookups_return(self, tmp_path):
        specs = _slice(errors=1)
        store = NodeStore(tmp_path / "s")
        assert _campaign(specs, store, renderer=lambda results: "old").tables == "old"
        _campaign(specs, store, renderer=lambda results: "new", force=True)
        for view in (store, NodeStore(tmp_path / "s")):
            assert _campaign(specs, view, renderer=lambda results: "old").tables == "new"

    def test_partial_store_executes_only_the_gap(self, tmp_path):
        specs = _slice()
        store = NodeStore(tmp_path / "s")
        _campaign(specs[:1], store)
        outcome = _campaign(specs, store)
        assert outcome.stats.by_kind["run"] == {"executed": len(specs) - 1, "cached": 1}
        # The aggregate covers a new run set, so it and the tables re-execute.
        assert outcome.stats.by_kind["aggregate"] == {"executed": 1, "cached": 0}
        assert outcome.results.records == _campaign(specs).results.records

    def test_descriptor_mismatch_re_executes(self, tmp_path):
        from repro.experiments.dag import build_campaign_graph, run_node_name

        specs = _slice()
        cold = _campaign(specs, NodeStore(tmp_path / "s"))
        # Corrupt one run's record descriptor in place, inside its pack.
        store = NodeStore(tmp_path / "s")
        key = build_campaign_graph(specs).key(run_node_name(specs[0]))
        path = pack_holding(store, key)
        pack = json.loads(path.read_text())
        for record in pack["records"]:
            if record["key"] == key:
                record["inputs"] = {"v": "poisoned"}
        path.write_text(json.dumps(pack))
        stats = _campaign(specs, NodeStore(tmp_path / "s")).stats
        assert stats.mismatches == 1
        assert stats.by_kind["run"] == {"executed": 1, "cached": len(specs) - 1}
        # The re-executed record is what later lookups return; the
        # earlier mismatched one never shadows it.
        again = _campaign(specs, NodeStore(tmp_path / "s"))
        assert (again.stats.executed, again.stats.mismatches) == (0, 0)
        assert again.results.records == cold.results.records

    def test_tracer_disables_replay(self, tmp_path):
        from repro.obs import RingBufferSink, TraceBus

        specs = _slice()
        store = NodeStore(tmp_path / "s")
        _campaign(specs, store)
        buffer = RingBufferSink()
        stats = _campaign(specs, store, trace=TraceBus([buffer])).stats
        assert (stats.cached, stats.executed) == (0, len(specs) + 2)
        kinds = [event.kind for event in buffer.events]
        assert kinds.count("node-start") == kinds.count("node-done") == len(specs) + 2

    def test_wanted_subset_skips_unneeded(self, tmp_path):
        # A shard wants only its runs: no aggregate, no tables.
        specs = _slice(errors=4)
        shards = [_campaign(specs, shard=(index, 2)) for index in range(2)]
        assert sum(len(shard.results) for shard in shards) == len(specs)
        for shard in shards:
            assert set(shard.stats.by_kind) <= {"run"}
            assert shard.stats.executed == len(shard.results)
            assert shard.aggregates == {} and shard.tables is None


class TestGroupRunners:
    """The run stage: every run not replayed goes to one ``execute_specs`` call."""

    def test_same_kind_wave_dispatched_together(self, tmp_path, monkeypatch):
        import dataclasses

        import repro.experiments.dag as dag_module

        specs = _slice()
        other = [dataclasses.replace(specs[-1], injection_period_ms=7)]
        store = NodeStore(tmp_path / "s")
        _campaign(specs[:1], store)
        calls = []
        execute_specs = dag_module.execute_specs

        def counted(wave, **kwargs):
            calls.append(list(wave))
            return execute_specs(wave, **kwargs)

        monkeypatch.setattr(dag_module, "execute_specs", counted)
        _campaign(specs + other, store)
        assert calls == [specs[1:] + other]

    def test_reported_outputs_are_stored_before_the_runner_returns(self, tmp_path):
        class Interrupted(Exception):
            pass

        def interrupt(done, total):
            raise Interrupted

        specs = _slice()
        store = NodeStore(tmp_path / "s")
        with pytest.raises(Interrupted):
            _campaign(specs, store, progress=interrupt)
        # The serial path reports, and so stores, one run at a time.
        assert len(store) == 1 and len(packs(store)) == 1
        resumed = _campaign(specs, store)
        assert resumed.stats.by_kind["run"] == {"executed": len(specs) - 1, "cached": 1}

    def test_metrics_counters(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        specs = _slice()
        store = NodeStore(tmp_path / "s")
        metrics = MetricsRegistry()
        _campaign(specs, store, metrics=metrics)
        rendered = metrics.render()
        assert f"graph_nodes_executed_total{{kind=run}} {len(specs)}" in rendered
        assert "graph_nodes_executed_total{kind=aggregate} 1" in rendered
        metrics2 = MetricsRegistry()
        _campaign(specs, store, metrics=metrics2)
        assert "graph_nodes_cached_total{kind=tables} 1" in metrics2.render()
        assert "graph_nodes_executed_total" not in metrics2.render()
