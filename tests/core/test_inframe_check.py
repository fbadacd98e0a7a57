"""``SignalMonitor.test``'s in-frame Table-2 check against the reference.

``SignalMonitor.test`` evaluates a continuous signal's Table-2 test in
its own frame.  ``ContinuousAssertion.holds`` stays the reference: a
monitor driven through ``holds``/``check`` (the monitor's test before the
check moved in-frame) must return the same values and leave the same
violation count, reference value ``s'`` and logged events, for drawn
parameter sets (with and without wrap-around), modal parameter sets
switched with ``set_mode``, recovery strategies, reference policies,
values in and out of the domain, and a reference ``s'`` that is ``None``
at the start and after every ``reset``.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.assertions import build_assertion
from repro.core.monitor import DetectionEvent, SignalMonitor
from repro.core.parameters import (
    ContinuousParams,
    ModalParameterSet,
    classify_continuous,
)
from repro.core.recovery import ClampToDomain, ExtrapolateRate, HoldLastValid


class ReferenceMonitor:
    """A monitor's test through the assertion's ``holds`` and ``check``."""

    def __init__(self, name, signal_class, modes, mode, recovery, observed):
        self.name = name
        self.assertions = {
            m: build_assertion(signal_class, p) for m, p in modes.items()
        }
        self.mode = mode
        self.recovery = recovery
        self.observed = observed
        self.previous = None
        self.violations = 0
        self.events = []

    def test(self, value, time):
        assertion = self.assertions[self.mode]
        prev = self.previous
        if assertion.holds(value, prev):
            self.previous = value
            return value
        result = assertion.check(value, prev)
        self.violations += 1
        strategy = replacement = None
        if self.recovery is not None:
            strategy = type(self.recovery).__name__
            replacement = self.recovery.recover(value, prev, assertion.params)
        self.events.append(
            DetectionEvent(
                self.name, time, value, prev, result, self.name, strategy, replacement
            )
        )
        if self.recovery is not None:
            self.previous = replacement
            return replacement
        if self.observed:
            self.previous = value
        return value


_bound = st.integers(-500, 500)
_rate = st.integers(0, 40) | st.floats(0, 40, allow_nan=False)


@st.composite
def _params(draw):
    smin = draw(_bound)
    smax = smin + draw(st.integers(1, 400))
    rates = []
    for _ in range(2):
        low, high = sorted((draw(_rate), draw(_rate)))
        rates.extend((low, high))
    return ContinuousParams(smin, smax, *rates, wrap=draw(st.booleans()))


@st.composite
def _monitor_setup(draw):
    first = draw(_params())
    signal_class = classify_continuous(first)
    assume(signal_class is not None)
    others = draw(st.lists(_params(), max_size=2))
    modes = {0: first}
    for params in others:
        if classify_continuous(params) is signal_class:
            modes[len(modes)] = params
    recovery = draw(
        st.sampled_from((None, HoldLastValid(), ClampToDomain(), ExtrapolateRate()))
    )
    observed = draw(st.booleans())
    return signal_class, modes, recovery, observed


def _value(params):
    span = params.smax - params.smin
    return st.integers(params.smin - span, params.smax + span) | st.floats(
        params.smin - span, params.smax + span, allow_nan=False
    )


@given(setup=_monitor_setup(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_inframe_check_matches_holds(setup, data):
    signal_class, modes, recovery, observed = setup
    modal = len(modes) > 1
    params = ModalParameterSet(modes, 0) if modal else modes[0]
    policy = "observed" if observed else "last-valid"
    monitor = SignalMonitor(
        "s", signal_class, params, recovery=recovery, reference_policy=policy
    )
    reference = ReferenceMonitor("s", signal_class, modes, 0, recovery, observed)
    mode = 0
    for time in range(data.draw(st.integers(1, 40))):
        op = data.draw(st.sampled_from(("test", "test", "test", "reset", "mode")))
        if op == "reset":
            monitor.reset()
            reference.previous = None
        elif op == "mode" and modal:
            mode = data.draw(st.sampled_from(sorted(modes)))
            monitor.set_mode(mode)
            reference.mode = mode
        else:
            if data.draw(st.booleans()) and reference.previous is not None:
                # A value near s', to exercise the rate and wrap tests.
                value = reference.previous + data.draw(st.integers(-60, 60))
            else:
                value = data.draw(_value(modes[mode]))
            assert monitor.test(value, time) == reference.test(value, time)
        assert monitor.previous == reference.previous
        assert monitor.violations == reference.violations
        assert monitor.log.events == reference.events
