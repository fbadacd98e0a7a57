"""Recovery strategies: returning a detected-erroneous signal to a valid state.

Section 2 of the paper: *"Should an error be detected, measures can be
taken to recover from the error, and the signal can be returned to a valid
state."*  The evaluation itself measures detection only, but the library
ships the recovery half of the mechanism so the combination can be used
(and the ``recovery`` ablation of :mod:`repro.experiments.ablations`
exercises it).

A recovery strategy maps the rejected sample ``s`` and the previous
reference ``s'`` onto a replacement value that satisfies the signal's
constraints.  All strategies are stateless and parameterised by the same
``Pcont``/``Pdisc`` sets as the assertions.
"""

from __future__ import annotations

from typing import Hashable, Optional, Union

from repro.core.parameters import ContinuousParams, DiscreteParams, ParameterError

__all__ = [
    "RecoveryStrategy",
    "HoldLastValid",
    "ClampToDomain",
    "ExtrapolateRate",
    "ResetToValue",
    "default_recovery_for",
]

Number = Union[int, float]


class RecoveryStrategy:
    """Base class for recovery strategies."""

    def recover(
        self,
        s: Hashable,
        s_prev: Optional[Hashable],
        params: Union[ContinuousParams, DiscreteParams],
    ) -> Hashable:
        """Return a replacement value for the rejected sample *s*."""
        raise NotImplementedError


class HoldLastValid(RecoveryStrategy):
    """Replace the erroneous sample with the previous reference value.

    When no previous value exists (first sample already invalid) the
    domain is used: continuous signals fall back to ``smin``, discrete
    signals to an arbitrary-but-deterministic domain element.
    """

    def recover(self, s, s_prev, params):
        if s_prev is not None:
            return s_prev
        if isinstance(params, ContinuousParams):
            return params.smin
        return min(params.domain, key=repr)


class ClampToDomain(RecoveryStrategy):
    """Clamp a continuous sample into ``[smin, smax]``.

    Only the domain-bound violations (tests 1 and 2) are repaired; a
    rate-violating sample inside the domain is left where it is, which is
    the cheapest strategy when bounds are the dominant failure mode.
    """

    def recover(self, s, s_prev, params):
        if not isinstance(params, ContinuousParams):
            raise ParameterError("ClampToDomain applies to continuous signals only")
        if s > params.smax:
            return params.smax
        if s < params.smin:
            return params.smin
        return s


class ExtrapolateRate(RecoveryStrategy):
    """Advance the previous reference by the signal's expected rate.

    For monotonic signals this continues the trajectory (static-rate
    signals advance by their fixed rate; dynamic-rate signals by the
    midpoint of their rate range).  For random signals it degenerates to
    holding the last valid value.  Wrap-around is honoured.
    """

    def recover(self, s, s_prev, params):
        if not isinstance(params, ContinuousParams):
            raise ParameterError("ExtrapolateRate applies to continuous signals only")
        if s_prev is None:
            return params.smin
        if params.is_random():
            return s_prev
        if params.increase_forbidden:
            step = -(params.rmin_decr + params.rmax_decr) / 2
        else:
            step = (params.rmin_incr + params.rmax_incr) / 2
        if isinstance(s_prev, int):
            # Integer signals (the 16-bit target's) get an integer repair.
            step = int(round(step))
        value = s_prev + step
        if value > params.smax:
            value = params.smin + (value - params.smax) if params.wrap else params.smax
        elif value < params.smin:
            value = params.smax - (params.smin - value) if params.wrap else params.smin
        return value


class ResetToValue(RecoveryStrategy):
    """Reset to a designated safe value (e.g. a state machine's idle state)."""

    def __init__(self, safe_value: Hashable) -> None:
        self.safe_value = safe_value

    def recover(self, s, s_prev, params):
        if isinstance(params, DiscreteParams) and self.safe_value not in params.domain:
            raise ParameterError(
                f"safe value {self.safe_value!r} is outside the signal domain"
            )
        if isinstance(params, ContinuousParams) and not (
            params.smin <= self.safe_value <= params.smax
        ):
            raise ParameterError(
                f"safe value {self.safe_value!r} is outside [smin, smax]"
            )
        return self.safe_value


def default_recovery_for(
    params: Union[ContinuousParams, DiscreteParams],
) -> RecoveryStrategy:
    """The strategy the paper's mechanism sketch implies per signal kind.

    Monotonic continuous signals extrapolate (their trajectory is
    predictable); everything else holds the last valid value.
    """
    if isinstance(params, ContinuousParams) and not params.is_random():
        return ExtrapolateRate()
    return HoldLastValid()
