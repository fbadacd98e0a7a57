"""Tests for the continuous executable assertions: Table 2, test by test."""

import math

import pytest

from repro.core.assertions import ContinuousAssertion
from repro.core.parameters import ContinuousParams


def _random_params(**kw):
    defaults = dict(smin=0, smax=100, rmax_incr=10, rmax_decr=10)
    defaults.update(kw)
    return ContinuousParams.random(**defaults)


class TestDomainBounds:
    """Tests 1 and 2 are always executed; either failing fails the test."""

    def setup_method(self):
        self.assertion = ContinuousAssertion(_random_params())

    def test_above_smax_fails_test_1(self):
        result = self.assertion.check(101, 50)
        assert not result.ok
        assert "1" in result.failed_tests

    def test_below_smin_fails_test_2(self):
        result = self.assertion.check(-1, 50)
        assert not result.ok
        assert "2" in result.failed_tests

    def test_bounds_checked_even_on_first_sample(self):
        assert not self.assertion.check(101, None).ok
        assert not self.assertion.check(-1, None).ok

    def test_bound_values_themselves_pass(self):
        assert self.assertion.check(100, 95).ok
        assert self.assertion.check(0, 5).ok

    def test_first_sample_inside_domain_passes(self):
        result = self.assertion.check(42, None)
        assert result.ok
        assert result.passed_test == "first-sample"

    def test_bound_violation_preempts_rate_tests(self):
        # A wildly out-of-range sample reports tests 1/2, not 3a.
        result = self.assertion.check(5000, 50)
        assert result.failed_tests == ("1",)


class TestIncreaseBranch:
    """s > s': test 3a, with 4a as the wrap-around alternative."""

    def test_3a_increase_within_rates_passes(self):
        a = ContinuousAssertion(_random_params(rmin_incr=2, rmax_incr=10))
        result = a.check(55, 50)
        assert result.ok and result.passed_test == "3a"

    def test_3a_increase_too_fast_fails(self):
        a = ContinuousAssertion(_random_params(rmax_incr=10))
        result = a.check(61, 50)
        assert not result.ok
        assert "3a" in result.failed_tests

    def test_3a_increase_too_slow_fails(self):
        # rmin_incr > 0: a creeping change is also an anomaly.
        a = ContinuousAssertion(_random_params(rmin_incr=5, rmax_incr=10))
        assert not a.check(52, 50).ok

    def test_3a_boundary_rates_inclusive(self):
        a = ContinuousAssertion(_random_params(rmin_incr=2, rmax_incr=10))
        assert a.check(60, 50).ok  # exactly rmax
        assert a.check(52, 50).ok  # exactly rmin

    def test_4a_wrapped_decrease_accepted(self):
        # s jumped up across the domain edge: actually a small decrease
        # through the wrap: (s' - smin) + (smax - s) within decrease rates.
        a = ContinuousAssertion(
            _random_params(rmax_incr=10, rmax_decr=10, wrap=True)
        )
        result = a.check(97, 2)  # decrease of (2-0)+(100-97) = 5
        assert result.ok
        assert result.passed_test == "4a"

    def test_4a_rejected_without_wrap_permission(self):
        a = ContinuousAssertion(_random_params(rmax_incr=10, rmax_decr=10))
        assert not a.check(97, 2).ok

    def test_4a_wrapped_decrease_too_large_fails(self):
        a = ContinuousAssertion(_random_params(rmax_incr=10, rmax_decr=10, wrap=True))
        assert not a.check(50, 20).ok  # wrapped decrease of 70


class TestDecreaseBranch:
    """s < s': test 3b, with 4b as the wrap-around alternative."""

    def test_3b_decrease_within_rates_passes(self):
        a = ContinuousAssertion(_random_params())
        result = a.check(45, 50)
        assert result.ok and result.passed_test == "3b"

    def test_3b_decrease_too_fast_fails(self):
        a = ContinuousAssertion(_random_params(rmax_decr=10))
        result = a.check(39, 50)
        assert not result.ok
        assert "3b" in result.failed_tests

    def test_3b_decrease_too_slow_fails(self):
        a = ContinuousAssertion(_random_params(rmin_decr=5, rmax_decr=10))
        assert not a.check(48, 50).ok

    def test_4b_wrapped_increase_accepted(self):
        # The paper's mscnt shape: a counter wrapping at the top.
        a = ContinuousAssertion(
            ContinuousParams.static_monotonic(0, 0xFFFF, rate=1, wrap=True)
        )
        result = a.check(1, 0xFFFF)  # wrapped increase of exactly 1
        assert result.ok
        assert result.passed_test == "4b"

    def test_4b_wrap_of_wrong_size_fails(self):
        a = ContinuousAssertion(
            ContinuousParams.static_monotonic(0, 0xFFFF, rate=1, wrap=True)
        )
        assert not a.check(2, 0xFFFF).ok  # wrapped increase of 2 != rate 1

    def test_4b_rejected_without_wrap_permission(self):
        a = ContinuousAssertion(ContinuousParams.static_monotonic(0, 0xFFFF, rate=1))
        assert not a.check(1, 0xFFFF).ok


class TestUnchangedBranch:
    """s = s': tests 3c / 4c / 5c check the parameter template."""

    def test_3c_monotonic_decreasing_with_zero_min_rate(self):
        a = ContinuousAssertion(ContinuousParams(0, 100, rmax_decr=5))
        result = a.check(50, 50)
        assert result.ok and result.passed_test == "3c"

    def test_4c_monotonic_increasing_with_zero_min_rate(self):
        a = ContinuousAssertion(ContinuousParams(0, 100, rmax_incr=5))
        result = a.check(50, 50)
        assert result.ok and result.passed_test == "4c"

    def test_5c_random_with_zero_min_rate(self):
        a = ContinuousAssertion(_random_params())
        result = a.check(50, 50)
        assert result.ok and result.passed_test == "5c"

    def test_static_monotonic_must_change_every_test(self):
        """A static-rate signal standing still is an error (no 3c/4c/5c fits)."""
        a = ContinuousAssertion(ContinuousParams.static_monotonic(0, 100, rate=1))
        result = a.check(50, 50)
        assert not result.ok
        assert result.failed_tests == ("3c", "4c", "5c")

    def test_dynamic_monotonic_with_positive_min_rate_rejects_hold(self):
        a = ContinuousAssertion(ContinuousParams(0, 100, rmin_incr=1, rmax_incr=5))
        assert not a.check(50, 50).ok

    def test_random_with_both_min_rates_positive_rejects_hold(self):
        a = ContinuousAssertion(
            ContinuousParams(0, 100, rmin_incr=1, rmax_incr=5, rmin_decr=1, rmax_decr=5)
        )
        assert not a.check(50, 50).ok


class TestPaperSignalShapes:
    """The assertion engines against the Figure-2 signal shapes."""

    def test_static_monotonic_trajectory_accepted(self):
        a = ContinuousAssertion(ContinuousParams.static_monotonic(0, 1000, rate=3))
        prev = 0
        for value in range(3, 300, 3):
            assert a.holds(value, prev)
            prev = value

    def test_static_monotonic_rejects_any_deviation(self):
        a = ContinuousAssertion(ContinuousParams.static_monotonic(0, 1000, rate=3))
        assert not a.holds(5, 0)   # wrong rate
        assert not a.holds(0, 3)   # wrong direction

    def test_dynamic_monotonic_trajectory_accepted(self):
        a = ContinuousAssertion(ContinuousParams.dynamic_monotonic(0, 1000, 0, 5))
        trajectory = [0, 2, 2, 7, 8, 13, 13, 18]
        for prev, value in zip(trajectory, trajectory[1:]):
            assert a.holds(value, prev)

    def test_dynamic_monotonic_rejects_decrease(self):
        a = ContinuousAssertion(ContinuousParams.dynamic_monotonic(0, 1000, 0, 5))
        assert not a.holds(6, 7)

    def test_random_walk_within_rates_accepted(self):
        a = ContinuousAssertion(_random_params(rmax_incr=4, rmax_decr=4))
        trajectory = [50, 52, 49, 49, 53, 50, 46]
        for prev, value in zip(trajectory, trajectory[1:]):
            assert a.holds(value, prev)


def _figure2_traces(n=2000):
    """Figure 2's three shapes as 2000-sample traces, with their parameters."""
    dynamic, value = [], 0
    for t in range(n):
        value += (t * 2654435761 >> 8) % 4  # pseudo-random increments 0..3
        dynamic.append(value)
    return {
        "random": (
            [int(500 + 200 * math.sin(0.07 * t) + 120 * math.sin(0.31 * t + 1.0))
             for t in range(n)],
            ContinuousParams.random(0, 1000, rmax_incr=60, rmax_decr=60),
        ),
        # The Table-2 wrap formula measures (s'-smin)+(smax-s) across the
        # edge, so smax sits one rate step below the modulus.
        "static-monotonic-wrap": (
            [(7 * t) % 1000 for t in range(n)],
            ContinuousParams.static_monotonic(0, 1000, 7, wrap=True),
        ),
        "dynamic-monotonic": (dynamic, ContinuousParams.dynamic_monotonic(0, 10_000, 0, 3)),
    }


@pytest.mark.parametrize("shape", ["random", "static-monotonic-wrap", "dynamic-monotonic"])
def test_figure2_trace_passes_clean_and_flags_a_bit9_flip(shape):
    trace, params = _figure2_traces()[shape]
    assertion = ContinuousAssertion(params)

    def flagged(samples):
        return sum(
            not assertion.holds(value, prev)
            for prev, value in zip([None] + samples[:-1], samples)
        )

    assert flagged(trace) == 0
    corrupted = list(trace)
    corrupted[len(trace) // 2] ^= 1 << 9
    assert flagged(corrupted) > 0


def _period_detects(test_period_ms, bit):
    """Does a pulscnt monitor tested every *test_period_ms* catch a 2^bit flip?

    The stream is the paper's pulscnt shape (55 m/s over the pulse
    pitch: 1.1 pulses/ms), the flip toggles every 20 ms, and the
    Table-2 rate envelope (2 pulses per ms) scales with the period.
    """
    assertion = ContinuousAssertion(
        ContinuousParams.dynamic_monotonic(
            0, 60000, rmin=0, rmax=2 * test_period_ms, increasing=True
        )
    )
    prev = None
    for t in range(0, 8000, test_period_ms):
        sample = int(1.1 * t) + ((1 << bit) if (t // 20) % 2 else 0)
        if not assertion.holds(sample, prev):
            return True
        prev = sample
    return False


def test_slower_testing_lets_more_bits_hide():
    """Per-test rates widen with the test period, and so does the envelope."""
    detected = {
        period: {bit for bit in range(1, 7) if _period_detects(period, bit)}
        for period in (1, 7, 21)
    }
    assert detected[21] <= detected[7] <= detected[1]
    # DIST_S tests pulscnt every 1 ms (EA4): everything from bit 2 up.
    assert {2, 3, 4, 5, 6} <= detected[1]
    # At 21 ms a flip below the ~23-pulse natural increment hides.
    assert 4 not in detected[21]


class TestHotAndDiagnosticPathsAgree:
    @pytest.mark.parametrize(
        "params",
        [
            _random_params(),
            _random_params(rmin_incr=2, rmin_decr=3, wrap=True),
            ContinuousParams.static_monotonic(0, 50, rate=2, wrap=True),
            ContinuousParams.dynamic_monotonic(0, 50, 0, 4),
            ContinuousParams.dynamic_monotonic(0, 50, 1, 4, increasing=False),
        ],
    )
    def test_holds_equals_check(self, params):
        a = ContinuousAssertion(params)
        values = [-5, 0, 1, 2, 3, 5, 10, 25, 48, 49, 50, 55]
        for prev in values + [None]:
            for value in values:
                assert a.holds(value, prev) == a.check(value, prev).ok, (
                    f"disagreement for s={value}, s'={prev}, params={params}"
                )
