"""Tests for the discrete executable assertions (Table 3)."""

import pytest

from repro.core.assertions import DiscreteAssertion, build_assertion
from repro.core.classes import SignalClass
from repro.core.parameters import (
    ContinuousParams,
    DiscreteParams,
    ParameterError,
    linear_transition_map,
)


class TestRandomDiscrete:
    def setup_method(self):
        self.assertion = DiscreteAssertion(DiscreteParams.random({1, 2, 5}))

    def test_member_accepted(self):
        assert self.assertion.check(2, 1).ok

    def test_any_transition_within_domain_accepted(self):
        assert self.assertion.holds(5, 1)
        assert self.assertion.holds(1, 5)
        assert self.assertion.holds(1, 1)

    def test_non_member_rejected(self):
        result = self.assertion.check(3, 1)
        assert not result.ok
        assert result.failed_tests == ("D",)

    def test_first_sample_only_needs_membership(self):
        assert self.assertion.check(5, None).ok
        assert not self.assertion.check(7, None).ok


class TestSequentialDiscrete:
    def setup_method(self):
        # The Figure-3 state diagram.
        self.assertion = DiscreteAssertion(
            DiscreteParams.sequential(
                {
                    "v1": ["v2", "v4"],
                    "v2": ["v3", "v4"],
                    "v3": ["v4"],
                    "v4": ["v5"],
                    "v5": ["v1"],
                }
            )
        )

    @pytest.mark.parametrize(
        "prev, value",
        [("v1", "v2"), ("v1", "v4"), ("v2", "v3"), ("v2", "v4"), ("v3", "v4"), ("v4", "v5"), ("v5", "v1")],
    )
    def test_valid_transitions_accepted(self, prev, value):
        result = self.assertion.check(value, prev)
        assert result.ok and result.passed_test == "T"

    @pytest.mark.parametrize(
        "prev, value",
        [("v1", "v3"), ("v1", "v5"), ("v2", "v1"), ("v3", "v1"), ("v4", "v1"), ("v5", "v3"), ("v1", "v1")],
    )
    def test_invalid_transitions_rejected(self, prev, value):
        result = self.assertion.check(value, prev)
        assert not result.ok
        assert result.failed_tests == ("T",)

    def test_every_pair_of_states_is_judged_by_the_diagram(self):
        # 25 (previous, next) pairs: the 7 arrows of Figure 3 pass, the
        # other 18 are detected.
        targets = self.assertion.params.transitions
        states = sorted(targets)
        verdicts = [
            self.assertion.holds(value, prev) for prev in states for value in states
        ]
        assert verdicts == [value in targets[prev] for prev in states for value in states]
        assert verdicts.count(False) == 18

    def test_long_valid_walk_passes(self):
        walk = ["v1", "v2", "v3", "v4", "v5"] * 100 + ["v1", "v4", "v5"] * 100
        assert all(
            self.assertion.holds(value, prev)
            for prev, value in zip([None] + walk[:-1], walk)
        )

    def test_domain_violation_reports_both_tests(self):
        """Table 3 notes s in T(s') implies s in D, but both are used."""
        result = self.assertion.check("v9", "v1")
        assert not result.ok
        assert result.failed_tests == ("D", "T")

    def test_first_sample_only_needs_membership(self):
        assert self.assertion.check("v3", None).ok

    def test_corrupted_reference_falls_back_to_membership(self):
        # s' is outside D (it was corrupted between tests): only the
        # membership property remains checkable.
        assert self.assertion.check("v2", "bogus").ok
        assert not self.assertion.check("nope", "bogus").ok


class TestSlotCounterShape:
    """EA5's shape: the 7-slot linear cyclic scheduler counter."""

    def setup_method(self):
        self.assertion = DiscreteAssertion(linear_transition_map(range(7)))

    def test_full_cycle_accepted(self):
        prev = 0
        for _ in range(3):
            for value in list(range(1, 7)) + [0]:
                assert self.assertion.holds(value, prev)
                prev = value

    def test_skipping_a_slot_rejected(self):
        assert not self.assertion.holds(2, 0)

    def test_going_backwards_rejected(self):
        assert not self.assertion.holds(3, 4)

    def test_holding_a_slot_rejected(self):
        assert not self.assertion.holds(4, 4)

    def test_out_of_domain_rejected(self):
        assert not self.assertion.holds(7, 6)


class TestHotAndDiagnosticPathsAgree:
    def test_holds_equals_check_on_figure3(self):
        assertion = DiscreteAssertion(
            DiscreteParams.sequential(
                {"v1": ["v2"], "v2": ["v3"], "v3": ["v1", "v2"]}
            )
        )
        universe = ["v1", "v2", "v3", "v4", None]
        for prev in universe:
            for value in ["v1", "v2", "v3", "v4"]:
                assert assertion.holds(value, prev) == assertion.check(value, prev).ok


class TestBuildAssertion:
    def test_builds_continuous_engine(self):
        a = build_assertion(
            SignalClass.CONTINUOUS_RANDOM,
            ContinuousParams.random(0, 10, rmax_incr=1, rmax_decr=1),
        )
        assert a.holds(5, 5)

    def test_builds_discrete_engine(self):
        a = build_assertion(SignalClass.DISCRETE_RANDOM, DiscreteParams.random({1, 2}))
        assert a.holds(1, 2)

    def test_rejects_kind_mismatch(self):
        with pytest.raises(ParameterError, match="requires ContinuousParams"):
            build_assertion(SignalClass.CONTINUOUS_RANDOM, DiscreteParams.random({1}))
        with pytest.raises(ParameterError, match="requires DiscreteParams"):
            build_assertion(SignalClass.DISCRETE_RANDOM, ContinuousParams(0, 1))

    def test_rejects_template_mismatch(self):
        with pytest.raises(ParameterError):
            build_assertion(
                SignalClass.CONTINUOUS_MONOTONIC_STATIC,
                ContinuousParams.random(0, 10, rmax_incr=1, rmax_decr=1),
            )

    def test_rejects_discrete_class_mismatch(self):
        with pytest.raises(ParameterError, match="not the requested"):
            build_assertion(
                SignalClass.DISCRETE_SEQUENTIAL_LINEAR,
                DiscreteParams.random({1, 2}),
            )
