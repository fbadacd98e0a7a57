"""Tests for the AST def-use pass (`repro.analysis.source`)."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.analysis.source import build_source_model
from repro.closure import import_closure
from tests.analysis.fixtures import (
    FIXTURE_DIR,
    PACKAGE,
    fixture_model,
    fixture_sources,
)


class TestMemoryModelExtraction:
    def test_memory_class_recognised(self):
        model = fixture_model(["ea401_phaselock"])
        assert len(model.memories) == 1
        mem = model.memories[0]
        assert mem.class_name == "FixMemory"
        assert mem.module == f"{PACKAGE}.ea401_phaselock"
        assert mem.mapped_signals == ("slot_id",)
        assert mem.declared_signals == ("slot_id",)
        assert mem.attr_symbols == {"slot_id": "slot_id"}
        assert mem.monitored == ("slot_id",)
        assert mem.line > 0

    def test_unmapped_comm_attr_still_resolves(self):
        # comm_SetPoint is allocated but deliberately absent from the
        # signal_variable mapping; the attr table must still name it.
        model = fixture_model(["ea404_unguarded_rx"])
        mem = model.memories[0]
        assert mem.mapped_signals == ("SetPoint",)
        assert mem.attr_symbols["comm_set_point"] == "comm_SetPoint"
        assert model.comm_signals() == ("comm_SetPoint",)


class TestDefUseEvents:
    def test_read_write_check_sequence_with_taint_and_wrap(self):
        model = fixture_model(["ea401_phaselock"])
        events = model.for_signal("slot_id")
        assert [e.kind for e in events] == ["read", "write", "check"]
        read, write, check = events
        assert read.function == "FixNode.step" and not read.tainted
        assert write.tainted is True
        assert write.wrap_modulus == 5
        assert check.index > write.index
        assert write.file.endswith("ea401_phaselock>")
        assert 0 < write.line < check.line

    def test_in_place_word_access(self):
        model = fixture_model(["ea401_inplace"])
        events = model.for_signal("slot_id")
        assert [e.kind for e in events] == ["read", "write", "read", "check", "write"]
        read, write, reread, check, writeback = events
        assert all(e.function == "FixNode.step" for e in events)
        assert write.tainted and write.wrap_modulus == 5
        assert not reread.tainted and check.index > write.index
        assert not writeback.tainted and writeback.wrap_modulus is None

    def test_check_helper_marks_function_guarded(self):
        model = fixture_model(["ea401_phaselock"])
        (helper,) = model.functions_named("checked")
        assert helper.qualname == "FixNode.checked"
        assert helper.has_test_call and helper.guarded

    def test_comm_consumer_read(self):
        model = fixture_model(["ea404_unguarded_rx"])
        consumed = [e for e in model.events if e.consumer is not None]
        assert len(consumed) == 1
        (event,) = consumed
        assert event.signal == "comm_SetPoint"
        assert event.kind == "read"
        assert event.function == "FixSystem.advance"
        assert event.consumer == "receive"

    def test_add_counts_as_write(self):
        model = fixture_model(["ea402_unchecked"])
        kinds = [e.kind for e in model.for_signal("tick")]
        assert "write" in kinds and "check" not in kinds


class TestRealTargets:
    @pytest.mark.parametrize("name", ["arrestor", "tanklevel"])
    def test_shipped_target_closure_is_complete(self, name):
        from repro.targets.registry import get_target

        target = get_target(name)
        model = build_source_model(target)
        assert model.modules == tuple(import_closure(type(target).__module__))
        assert len(model.memories) == 1
        assert model.events  # the def-use pass sees real traffic

    def test_arrestor_wrap_modulus_is_seven(self):
        from repro.targets.registry import get_target

        model = build_source_model(get_target("arrestor"))
        wraps = [
            e for e in model.for_signal("ms_slot_nbr")
            if e.kind == "write" and e.wrap_modulus
        ]
        assert wraps and wraps[0].wrap_modulus == 7


_NOISE = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 _-", max_size=30
)


@st.composite
def _insertions(draw):
    return draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=60), _NOISE),
            min_size=1,
            max_size=5,
        )
    )


class TestStructuralInvariance:
    @settings(max_examples=30, deadline=None)
    @given(_insertions())
    def test_structure_invariant_under_comment_and_blank_lines(self, inserts):
        module = f"{PACKAGE}.ea401_phaselock"
        text = (FIXTURE_DIR / "ea401_phaselock.py").read_text(encoding="utf-8")
        baseline = fixture_model(["ea401_phaselock"]).structure()

        lines = text.splitlines()
        for position, noise in sorted(inserts, reverse=True):
            position = min(position, len(lines))
            lines.insert(position, f"# {noise}" if noise else "")
        mutated = "\n".join(lines) + "\n"

        model = fixture_model([], sources={module: mutated})
        assert model.structure() == baseline
