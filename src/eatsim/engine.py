"""Event-driven simulation of the simultaneous-consumption process.

Both eating mechanisms are runs of the same engine: the cardinal mechanism is
a profile of Proportional strategies, the ordinal one a profile of
Lexicographic strategies (see :func:`eatsim.strategies.ps_profile`). Within a
segment the remaining-item set is constant, so rates are constant and every
depletion time is an exact rational.

The inner loop lives in the kernel ``eatsim._kernel``, which works on raw
integer pairs and builds the shares from per-agent prefix sums instead of
integrating the share matrix segment by segment. Its pairs come back reduced,
and ``_coprime`` is the one place where they become ``Fraction`` values.
Callers that need only payoffs (a best-response sweep, a welfare ratio) skip
that step: ``_payoffs`` asks the kernel for the share rows of some agents only
and takes each payoff as one integer dot product over the pairs (``_dot``,
which ``payoff`` shares).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .model import (
    LOWEST_INDEX_FIRST,
    Proportional,
    Strategy,
    Valuation,
    ZeroPolicy,
    check_strategy,
    decimal_str,
    format_rational,
    integer_form,
)

from . import _kernel as _kernel_impl


def kernel_name() -> str:
    """Name of the eating kernel ('pure-python')."""
    return _kernel_impl.KERNEL_NAME


@dataclass(frozen=True)
class Segment:
    """A maximal interval with a constant remaining-item set and constant rates."""

    start: Fraction
    end: Fraction
    rates: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class Trace:
    """Full consumption history of one run.

    ``depletion_events`` lists (time, item) in chronological order with ties
    broken by item index; every item appears exactly once and the last event
    is at exactly ``horizon`` = m/n. ``shares`` is the n x m matrix of total
    consumed quantities, which doubles as the allocation lottery.
    """

    n: int
    m: int
    segments: tuple[Segment, ...]
    depletion_events: tuple[tuple[Fraction, int], ...]
    shares: tuple[tuple[Fraction, ...], ...]
    horizon: Fraction

    def consumption_time(self, item: int) -> Fraction:
        """First instant the item's remaining quantity hits zero."""
        for time, j in self.depletion_events:
            if j == item:
                return time
        raise IndexError(f"item {item} not in trace")

    def consumption_times(self) -> tuple[Fraction, ...]:
        """Depletion time per item, indexed by item."""
        times = [None] * self.m
        for time, j in self.depletion_events:
            times[j] = time
        return tuple(times)

    def remaining_at(self, t: Fraction) -> frozenset[int]:
        """Items with positive remaining quantity at time t."""
        return frozenset(j for time, j in self.depletion_events if time > t)


def compute_rates(
    profile: Sequence[Strategy],
    remaining: Sequence[int] | frozenset[int],
    policy: ZeroPolicy,
    m: int,
) -> list[list[Fraction]]:
    """Instantaneous consumption rates given the remaining-item set.

    A Proportional agent with positive value on some remaining item splits
    rate 1 over the remaining items in proportion to its report; a
    Lexicographic agent puts rate 1 on the first item of its order that is
    still remaining. Agents with nothing left to chase follow the zero policy.
    Every row sums to exactly 1. This is the kernel's own rate rule.
    ``remaining`` must hold one or more distinct items of ``range(m)``.
    """
    items = set(remaining)
    if not items or len(items) < len(remaining) or not items <= set(range(m)):
        raise ValueError(f"remaining must hold one or more distinct items of range({m})")
    matrix = _kernel_impl.rates(*_kernel_args(len(profile), m, profile, policy), remaining)
    return [[_coprime(num, den) for num, den in row] for row in matrix]


def _coprime(num: int, den: int) -> Fraction:
    """``Fraction(num, den)`` for a pair already in lowest terms with den > 0.

    Skips the gcd that the constructor would run again: every pair the kernel
    returns is reduced. ``Fraction`` stores exactly these two slots on
    Python 3.10 to 3.13.
    """
    value = object.__new__(Fraction)
    value._numerator = num
    value._denominator = den
    return value


def _set_slot(args: tuple, i: int, strat: Strategy) -> None:
    """Check agent i's strategy against m and write it into the kernel
    arguments ``args`` (from :func:`_kernel_args`) in place."""
    _, m, kinds, weights, orders, _ = args
    check_strategy(i, m, strat)
    if isinstance(strat, Proportional):
        kinds[i], weights[i], orders[i] = 0, strat.report.integer_form[1], ()
    else:
        kinds[i], weights[i], orders[i] = 1, (), strat.order


def _slot(args: tuple, i: int) -> tuple:
    """Agent i's slot in the kernel arguments ``args`` as a hashable key:
    strategies with equal keys are the same kernel input."""
    _, _, kinds, weights, orders, _ = args
    return kinds[i], weights[i], orders[i]


def _check_shape(n: int, m: int, profile: Sequence[Strategy], policy: ZeroPolicy) -> None:
    """Reject a profile of the wrong length or a fixed zero policy that does
    not order all m items; the strategies themselves are checked after this."""
    if len(profile) != n:
        raise ValueError(f"profile has {len(profile)} strategies, expected {n}")
    if policy.kind == "fixed" and len(policy.order) != m:
        raise ValueError(f"fixed zero policy must order all {m} items")


def _kernel_args(n: int, m: int, profile: Sequence[Strategy], policy: ZeroPolicy) -> tuple:
    """The kernel's arguments for a profile and a zero policy, after checking
    both: ``(n, m, kinds, weights, orders, zero_order)``."""
    _check_shape(n, m, profile, policy)
    zero_order = None if policy.kind == "uniform" else list(policy.order or range(m))
    args = (n, m, [0] * n, [()] * n, [()] * n, zero_order)
    for i, strat in enumerate(profile):
        _set_slot(args, i, strat)
    return args


def run(
    n: int,
    m: int,
    profile: Sequence[Strategy],
    policy: ZeroPolicy = LOWEST_INDEX_FIRST,
) -> Trace:
    """Run the eating process to completion and return its exact trace.

    The loop advances segment by segment: rates are constant until the next
    depletion, all items hitting zero simultaneously deplete together, and
    items with zero total rate simply persist. Terminates after at most m
    segments, at time exactly m/n.
    """
    raw_segments, raw_events, raw_gamma = _kernel_impl.run_eating(
        *_kernel_args(n, m, profile, policy))

    # Rates repeat across rows and segments, and segment ends repeat as
    # starts: build each distinct pair's Fraction once.
    fractions: dict[tuple[int, int], Fraction] = {}

    def exact(pair: tuple[int, int]) -> Fraction:
        value = fractions.get(pair)
        if value is None:
            value = fractions[pair] = _coprime(*pair)
        return value

    # The kernel reuses a row list while an agent's rates do not change;
    # raw_segments keeps every row alive for the call, so its id is unique.
    converted: dict[int, tuple[Fraction, ...]] = {}

    def exact_row(row: list[tuple[int, int]]) -> tuple[Fraction, ...]:
        value = converted.get(id(row))
        if value is None:
            value = converted[id(row)] = tuple(map(exact, row))
        return value

    segments = tuple(
        Segment(exact(t0), exact(t1), tuple(map(exact_row, rates)))
        for t0, t1, rates in raw_segments
    )
    events = tuple((exact((num, den)), j) for num, den, j in raw_events)
    shares = tuple(tuple(map(exact, row)) for row in raw_gamma)
    return Trace(n, m, segments, events, shares, Fraction(m, n))


def expected_payoffs(trace: Trace, true_valuations: Sequence[Valuation]) -> tuple[Fraction, ...]:
    """Per-agent expected payoff sum_j shares[i][j] * v'_i(j).

    Valuations are additive, so the share matrix (the lottery's marginals)
    fully determines the expected payoff.
    """
    if len(true_valuations) != len(trace.shares):
        raise ValueError("valuation count does not match trace")
    return tuple(map(payoff, trace.shares, true_valuations))


def payoff(shares_row: Sequence[Fraction], valuation: Valuation) -> Fraction:
    """One agent's expected payoff sum_j shares_row[j] * valuation[j]."""
    if len(valuation) != len(shares_row):
        raise ValueError("valuation length does not match trace")
    return _dot([(g.numerator, g.denominator) for g in shares_row], valuation)


def welfare(trace: Trace, true_valuations: Sequence[Valuation]) -> Fraction:
    return sum(expected_payoffs(trace, true_valuations), Fraction(0))


def _dot(pairs: Iterable[tuple[int, int]], valuation: Valuation) -> Fraction:
    """sum_j (num_j / den_j) * valuation[j] for reduced share pairs, as one
    integer dot product over the items where both factors are nonzero."""
    d, values = valuation.integer_form
    terms = [(num, den, v) for (num, den), v in zip(pairs, values) if num and v]
    scale = lcm(*[den for _, den, _ in terms])
    return Fraction(sum(num * v * (scale // den) for num, den, v in terms), scale * d)


def _payoffs(args: tuple, agents: Sequence[int],
             valuations: Sequence[Valuation]) -> list[Fraction]:
    """Exact payoffs of ``agents`` (``valuations`` in the same order) from one
    lean kernel run on arguments from :func:`_kernel_args`.

    The kernel writes only those agents' share rows, and each row goes
    straight into :func:`_dot`: no ``Trace`` and no ``Fraction`` matrix.
    """
    _, _, gamma = _kernel_impl.run_eating(*args, agents)
    return [_dot(gamma[i], v) for i, v in zip(agents, valuations)]


def sample_allocation(trace: Trace, seed: int) -> tuple[int, ...]:
    """Draw one assignment (agent per item) from the trace's share lottery.

    Each item is assigned independently by its marginal column. Deterministic
    given the seed: a single stream seeded with ``"eatsim-alloc:<seed>"``
    draws the items in index order, each by one exact integer draw against
    the column's common denominator.
    """
    shares = trace.shares
    n, m = trace.n, trace.m
    rng = random.Random(f"eatsim-alloc:{seed}")
    assignment = []
    for j in range(m):
        denom, weights = integer_form(shares[i][j] for i in range(n))
        if sum(weights) != denom:
            raise ValueError(f"column {j + 1} of the lottery does not sum to 1")
        pick = rng.randrange(denom)
        acc = 0
        for i, w in enumerate(weights):
            acc += w
            if pick < acc:
                assignment.append(i)
                break
    return tuple(assignment)


def trace_to_json(trace: Trace, decimals: bool = False) -> dict:
    """Exact JSON export; optional decimal block is display-only and flagged."""
    # run() shares one Fraction per distinct value, and the trace keeps every
    # value alive for the call, so each distinct value is rendered once.
    rendered: dict[int, str] = {}

    def text(value: Fraction) -> str:
        out = rendered.get(id(value))
        if out is None:
            out = rendered[id(value)] = format_rational(value)
        return out

    doc: dict = {
        "n": trace.n,
        "m": trace.m,
        "horizon": format_rational(trace.horizon),
        "depletion_events": [
            {"time": text(t), "item": j + 1} for t, j in trace.depletion_events
        ],
        "shares": [[format_rational(g) for g in row] for row in trace.shares],
        "segments": [
            {
                "start": text(seg.start),
                "end": text(seg.end),
                "rates": [list(map(text, row)) for row in seg.rates],
            }
            for seg in trace.segments
        ],
    }
    if decimals:
        doc["decimal_approx"] = {
            "note": "approximate rendering; exact values are the rational strings",
            "depletion_events": [
                {"time": decimal_str(t), "item": j + 1} for t, j in trace.depletion_events
            ],
            "shares": [[decimal_str(g) for g in row] for row in trace.shares],
        }
    return doc
