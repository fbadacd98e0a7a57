"""Unit tests for the task-graph runtime (:mod:`repro.experiments.graph`).

Covers graph construction and ordering, content-address derivation (the
invalidation rule), the file-backed node store, the shard/merge
protocol, and the execution planner (replay, force, tracer, group
runners).
"""

import json

import pytest

from repro.experiments.graph import (
    Graph,
    GraphError,
    GraphStats,
    Node,
    NodeStore,
    StoreMergeError,
    merge_stores,
    shard_of,
)
from tests.experiments.store_fixtures import pack_holding, packs


def const(value):
    """A run callable ignoring its dependency outputs."""
    return lambda deps: value


def diamond():
    """a -> (b, c) -> d, with d summing its dependencies.

    Inputs carry each node's distinguishing parameter — the runtime's
    contract: the content address covers everything that determines the
    output, so same-kind nodes doing different work must differ there.
    """
    graph = Graph()
    graph.add(Node(name="a", kind="src", run=const(1), inputs={"v": "1"}))
    graph.add(
        Node(
            name="b",
            kind="mid",
            run=lambda d: d["a"] + 10,
            inputs={"add": "10"},
            deps=("a",),
        )
    )
    graph.add(
        Node(
            name="c",
            kind="mid",
            run=lambda d: d["a"] + 20,
            inputs={"add": "20"},
            deps=("a",),
        )
    )
    graph.add(
        Node(name="d", kind="sink", run=lambda d: d["b"] + d["c"], deps=("b", "c"))
    )
    return graph


class TestGraphConstruction:
    def test_topo_order_deps_first(self):
        assert diamond().topo_order() == ["a", "b", "c", "d"]

    def test_insertion_order_breaks_ties(self):
        graph = Graph()
        graph.add(Node(name="z", kind="k", run=const(0)))
        graph.add(Node(name="a", kind="k", run=const(0)))
        assert graph.topo_order() == ["z", "a"]

    def test_duplicate_name_rejected(self):
        graph = Graph()
        graph.add(Node(name="a", kind="k", run=const(0)))
        with pytest.raises(GraphError, match="duplicate"):
            graph.add(Node(name="a", kind="k", run=const(0)))

    def test_unknown_dependency_rejected(self):
        graph = Graph()
        graph.add(Node(name="a", kind="k", run=const(0), deps=("ghost",)))
        with pytest.raises(GraphError, match="ghost"):
            graph.topo_order()

    def test_cycle_rejected(self):
        graph = Graph()
        graph.add(Node(name="a", kind="k", run=const(0), deps=("b",)))
        graph.add(Node(name="b", kind="k", run=const(0), deps=("a",)))
        with pytest.raises(GraphError, match="cycle"):
            graph.topo_order()

    def test_execute_returns_outputs(self):
        assert diamond().execute() == {"a": 1, "b": 11, "c": 21, "d": 32}


class TestContentAddresses:
    def test_keys_are_deterministic(self):
        assert diamond().keys() == diamond().keys()

    def test_input_flip_rekeys_exactly_the_subtree(self):
        base = diamond().keys()
        changed_graph = diamond()
        changed_graph._nodes["b"] = Node(
            name="b",
            kind="mid",
            run=const(0),
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
        g1.add(Node(name="n", kind="x", run=const(0)))
        g2.add(Node(name="n", kind="y", run=const(0)))
        assert g1.key("n") != g2.key("n")

    def test_name_does_not_enter_the_key(self):
        # Content-addressing: renaming a node without changing its work
        # must not invalidate it (shards address records purely by key).
        g1, g2 = Graph(), Graph()
        g1.add(Node(name="n1", kind="x", run=const(0), inputs={"v": "1"}))
        g2.add(Node(name="n2", kind="x", run=const(0), inputs={"v": "1"}))
        assert g1.key("n1") == g2.key("n2")


def _put(store, node, key, output):
    """Store one node as a pack of one; returns the pack's path."""
    return store.put([NodeStore.record(node, key, output)])


class TestNodeStore:
    def test_roundtrip(self, tmp_path):
        store = NodeStore(tmp_path / "s")
        node = Node(name="n", kind="k", run=const(0), inputs={"v": "1"})
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
        node = Node(name="n", kind="k", run=const(0))
        assert store.get(node, "0" * 64) == ("miss", None)
        assert len(store) == 0 and list(store.iter_keys()) == []

    def test_descriptor_mismatch_is_not_a_hit(self, tmp_path):
        store = NodeStore(tmp_path / "s")
        node = Node(name="n", kind="k", run=const(0), inputs={"v": "1"})
        _put(store, node, "k" * 64, 1)
        other = Node(name="n", kind="k", run=const(0), inputs={"v": "2"})
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
        node = Node(name="n", kind="k", run=const(0), inputs={"v": "1"})
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
        node = Node(
            name="n", kind="k", run=const(0), inputs={"v": "1"}, deps=("up",)
        )
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
        node = Node(name="n", kind="k", run=const(0), inputs={"v": "1"})
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
        node = Node(name="n", kind="k", run=const(0), inputs={"v": "1"})
        poisoned = Node(name="n", kind="k", run=const(0), inputs={"v": "poisoned"})
        store = NodeStore(tmp_path / "s")
        _put(store, poisoned, "k" * 64, "foreign")
        _put(store, node, "k" * 64, "first")
        assert store.get(node, "k" * 64) == ("hit", "first")
        _put(store, node, "k" * 64, "forced")  # re-executed under force
        for view in (store, NodeStore(tmp_path / "s")):
            assert view.get(node, "k" * 64) == ("hit", "forced")
            assert view.load("k" * 64)["output"] == "forced"
            assert len(view) == 1

    def test_empty_pack_refused(self, tmp_path):
        store = NodeStore(tmp_path / "s")
        with pytest.raises(ValueError, match="at least one record"):
            store.put([])
        assert not store.dir.exists()


def _batch_node(index):
    return Node(name=f"n{index}", kind="k", run=const(0), inputs={"i": str(index)})


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
        node = Node(name=name, kind="k", run=const(0), inputs={"n": name})
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


class TestExecutionPlanning:
    def test_second_run_replays_everything(self, tmp_path):
        store = NodeStore(tmp_path / "s")
        diamond().execute(store=store)
        stats = GraphStats()
        outputs = diamond().execute(store=store, stats=stats)
        assert outputs == {"a": 1, "b": 11, "c": 21, "d": 32}
        assert stats.executed == 0
        assert stats.cached == 4
        assert stats.hit_rate == 1.0

    def test_force_re_executes_and_refreshes(self, tmp_path):
        store = NodeStore(tmp_path / "s")
        diamond().execute(store=store)
        stats = GraphStats()
        diamond().execute(store=store, force=True, stats=stats)
        assert stats.cached == 0
        assert stats.executed == 4

    def test_tracer_disables_replay(self, tmp_path):
        class BusStub:
            def __init__(self):
                self.events = []

            def emit(self, subsystem, kind, **data):
                self.events.append((subsystem, kind, data))

        store = NodeStore(tmp_path / "s")
        diamond().execute(store=store)
        bus = BusStub()
        stats = GraphStats()
        diamond().execute(store=store, tracer=bus, stats=stats)
        assert stats.cached == 0
        assert stats.executed == 4
        kinds = [kind for _, kind, _ in bus.events]
        assert kinds.count("node-start") == 4
        assert kinds.count("node-done") == 4
        assert "node-cached" not in kinds

    def test_wanted_subset_skips_unneeded(self, tmp_path):
        stats = GraphStats()
        outputs = diamond().execute(wanted=["b"], stats=stats)
        assert outputs == {"a": 1, "b": 11}
        assert stats.executed == 2
        assert stats.skipped == 2

    def test_partial_store_executes_only_the_gap(self, tmp_path):
        store = NodeStore(tmp_path / "s")
        diamond().execute(store=store, wanted=["b"])
        stats = GraphStats()
        outputs = diamond().execute(store=store, stats=stats)
        assert outputs["d"] == 32
        assert stats.cached == 2  # a, b replayed
        assert stats.executed == 2  # c, d executed

    def test_descriptor_mismatch_re_executes(self, tmp_path):
        store = NodeStore(tmp_path / "s")
        graph = diamond()
        graph.execute(store=store)
        # Corrupt node b's record descriptor in place, inside its pack.
        key = graph.key("b")
        path = pack_holding(store, key)
        pack = json.loads(path.read_text())
        for record in pack["records"]:
            if record["key"] == key:
                record["inputs"] = {"v": "poisoned"}
        path.write_text(json.dumps(pack))
        stats = GraphStats()
        outputs = diamond().execute(store=NodeStore(tmp_path / "s"), stats=stats)
        assert outputs["d"] == 32
        assert stats.mismatches == 1
        assert stats.by_kind["mid"]["executed"] == 1
        # The re-executed record is what later lookups return; the
        # earlier mismatched one never shadows it.
        again = GraphStats()
        assert diamond().execute(store=NodeStore(tmp_path / "s"), stats=again) == outputs
        assert (again.executed, again.cached, again.mismatches) == (0, 4, 0)

    def test_force_refresh_is_what_later_lookups_return(self, tmp_path):
        store = NodeStore(tmp_path / "s")
        graph = Graph()
        graph.add(Node(name="n", kind="k", run=const("old"), inputs={"v": "1"}))
        graph.execute(store=store)
        forced = Graph()
        forced.add(Node(name="n", kind="k", run=const("new"), inputs={"v": "1"}))
        forced.execute(store=store, force=True)
        assert graph.execute(store=store) == {"n": "new"}
        assert graph.execute(store=NodeStore(tmp_path / "s")) == {"n": "new"}

    def test_unknown_wanted_rejected(self):
        with pytest.raises(GraphError, match="ghost"):
            diamond().execute(wanted=["ghost"])


class TestGroupRunners:
    def test_same_kind_wave_dispatched_together(self):
        graph = Graph()
        for index in range(4):
            graph.add(
                Node(
                    name=f"n{index}",
                    kind="batch",
                    run=const(None),
                    inputs={"i": str(index)},
                )
            )
        waves = []

        def runner(nodes, dep_outputs, complete):
            waves.append([node.name for node in nodes])
            complete({node.name: node.inputs["i"] for node in nodes})

        outputs = graph.execute(runners={"batch": runner})
        assert waves == [["n0", "n1", "n2", "n3"]]
        assert outputs == {"n0": "0", "n1": "1", "n2": "2", "n3": "3"}

    def test_node_without_run_needs_a_runner(self):
        graph = Graph()
        graph.add(Node(name="n", kind="batch"))
        with pytest.raises(GraphError, match="no run callable"):
            graph.execute()
        assert graph.execute(
            runners={"batch": lambda nodes, deps, complete: complete({"n": 1})}
        ) == {"n": 1}

    def test_runner_must_cover_all_nodes(self):
        graph = Graph()
        graph.add(Node(name="n", kind="batch", run=const(0)))
        with pytest.raises(GraphError, match="no output"):
            graph.execute(runners={"batch": lambda nodes, deps, complete: None})

    def test_reported_outputs_are_stored_before_the_runner_returns(self, tmp_path):
        graph = Graph()
        for index in range(3):
            graph.add(Node(name=f"n{index}", kind="batch", run=const(None),
                           inputs={"i": str(index)}))
        store = NodeStore(tmp_path / "s")

        def interrupted(nodes, deps, complete):
            complete({nodes[0].name: "first"})
            complete({nodes[1].name: "second"})
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            graph.execute(store=store, runners={"batch": interrupted})
        assert len(store) == 2
        assert len(packs(store)) == 2  # one pack per report

        rerun = []

        def rest(nodes, deps, complete):
            rerun.extend(node.name for node in nodes)
            complete({node.name: "late" for node in nodes})

        outputs = graph.execute(store=store, runners={"batch": rest})
        assert rerun == ["n2"]
        assert outputs == {"n0": "first", "n1": "second", "n2": "late"}

    def test_runner_receives_dependency_outputs(self):
        graph = Graph()
        graph.add(Node(name="up", kind="src", run=const(7)))
        graph.add(Node(name="down", kind="batch", run=const(None), deps=("up",)))
        seen = {}

        def runner(nodes, dep_outputs, complete):
            seen.update(dep_outputs)
            complete({node.name: 0 for node in nodes})

        graph.execute(runners={"batch": runner})
        assert seen == {"down": {"up": 7}}

    def test_metrics_counters(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        store = NodeStore(tmp_path / "s")
        metrics = MetricsRegistry()
        diamond().execute(store=store, metrics=metrics)
        rendered = metrics.render()
        assert "graph_nodes_executed_total{kind=mid} 2" in rendered
        metrics2 = MetricsRegistry()
        diamond().execute(store=store, metrics=metrics2)
        assert "graph_nodes_cached_total{kind=sink} 1" in metrics2.render()
