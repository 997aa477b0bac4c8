"""Event-driven simulation of the simultaneous-consumption process.

Both eating mechanisms are runs of the same engine: the cardinal mechanism
(cps) runs each report as given, the ordinal one (ps) runs each report's
ordinal shadow (:func:`eatsim.strategies.as_ordinal`). ``_kernel_args`` is the
one place that checks a profile, and ``_slot`` the one place that applies
the mechanism. Within a segment the remaining-item set is constant, so rates
are constant and every depletion time is an exact rational.

The inner loop lives in the kernel ``eatsim._kernel``, which works on raw
integer pairs and builds the shares from per-agent prefix sums instead of
integrating the share matrix segment by segment. Its times, events and
shares come back unreduced, each a numerator over the kernel's running
denominator, and ``run`` is the one place where kernel pairs become
``Fraction`` values: it builds each distinct pair once, and the constructor
reduces it. It also converts each rate row object once; every agent eating
item j at rate 1 shares one row object of the kernel's.
Callers that need only payoffs (a best-response sweep, a welfare ratio) skip
that step: ``_payoffs`` asks the kernel for the share rows of some agents
only, a lean run with no segment and no rate row, keyed per item by those
agents' values, and the run stops once the items still alive have one key, so
each agent values them alike, at some v_a. As every agent eats at total rate 1
until t = m/n, its shares sum to m/n, and its payoff is v_a * m/n + sum_j
share_j * (v_j - v_a) over the shares the kernel wrote, exactly: one integer
dot product over the pairs (``_dot``), over the row's largest denominator,
which every other one divides. A run that stops early writes shares only for
the items that ran out: a reader of lean share rows gets 0 for the items left,
whose shares only sum to what the row lacks of m/n. The payoff is left as an
unreduced ``(num, den)`` pair: a sweep compares such pairs by
cross-multiplication, and only the values it reports become ``Fraction``. A
sweep also hands ``_payoffs`` its opening: the t = 0 state of the fixed
opponents and their rate totals, built once per swept agent, which each run
copies.
``expected_payoffs`` sums each row over one common multiple of every share
denominator of a trace, folded once with the largest first, and
``trace_to_json`` renders each distinct value and rate row once.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .model import (
    LOWEST_INDEX_FIRST,
    Proportional,
    Strategy,
    Valuation,
    ZeroPolicy,
    as_count,
    check_strategy,
    decimal_str,
    format_rational,
    integer_form,
)
from .strategies import _ordinal_order

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

    def consumption_times(self) -> tuple[Fraction, ...]:
        """Depletion time per item, indexed by item."""
        times = [None] * self.m
        for time, j in self.depletion_events:
            times[j] = time
        return tuple(times)

    def remaining_at(self, t: Fraction) -> frozenset[int]:
        """Items with positive remaining quantity at time t."""
        return frozenset(j for time, j in self.depletion_events if time > t)


def _slot(strat: Strategy, m: int, mechanism: str,
          zero_order: list[int] | None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(weights, order)``: the slot of a strategy that fits m, or under ps
    of its ordinal shadow, in the kernel arguments with ``zero_order`` (from
    :func:`_kernel_args`), as the shortest form that eats the same: a report
    with one positive weight, on item j, as the order ``(j,)``; under the
    lowest-index or fixed policy an order as the shortest prefix of its
    completion (the items of ``zero_order`` it lacks appended in that order)
    with the same completion; under the uniform policy a full order without
    its last item, which the policy eats alone at rate 1."""
    if mechanism == "ps":
        order = _ordinal_order(strat, m)
    elif isinstance(strat, Proportional):
        w = strat.report.integer_form[1]
        if w.count(0) != m - 1:
            return w, ()
        order = (w.index(max(w)),)
    else:
        order = strat.order
    if zero_order is None:
        return (), order[:m - 1]
    # cut the completion before its longest tail in zero_order's order
    taken = set(order)
    order += tuple(j for j in zero_order if j not in taken)
    k = m
    for j in reversed(zero_order):
        if order[k - 1] == j:
            k -= 1
    return (), order[:k]


def _set_slot(args: tuple, i: int, strat: Strategy, mechanism: str) -> None:
    """Check agent i's strategy against m and write its :func:`_slot` into
    the kernel arguments ``args`` (from :func:`_kernel_args`) in place."""
    _, m, weights, orders, zero_order = args
    check_strategy(i, m, strat)
    weights[i], orders[i] = _slot(strat, m, mechanism, zero_order)


def _kernel_args(n: int, m: int, profile: Sequence[Strategy], policy: ZeroPolicy,
                 mechanism: str = "cps") -> tuple:
    """The kernel's arguments for a profile under ``mechanism`` ("cps" or
    "ps") and a zero policy: ``(n, m, weights, orders, zero_order)``.

    Checks the mechanism name, that there is an agent and an item, the
    profile's length, that a fixed zero policy orders all m items, and then
    each strategy, in that order, so every caller rejects a malformed profile
    with the same error."""
    if mechanism not in ("cps", "ps"):
        raise ValueError(f"unknown eating mechanism {mechanism!r}")
    for what, size in (("n", n), ("m", m)):
        if as_count(size, what) < 1:
            raise ValueError(f"{what} = {size} must be at least 1")
    if len(profile) != n:
        raise ValueError(f"profile has {len(profile)} strategies, expected {n}")
    if policy.kind == "fixed" and len(policy.order) != m:
        raise ValueError(f"fixed zero policy must order all {m} items")
    zero_order = None if policy.kind == "uniform" else list(policy.order or range(m))
    args = (n, m, [()] * n, [()] * n, zero_order)
    for i, strat in enumerate(profile):
        _set_slot(args, i, strat, mechanism)
    return args


def run(
    n: int,
    m: int,
    profile: Sequence[Strategy],
    policy: ZeroPolicy = LOWEST_INDEX_FIRST,
    mechanism: str = "cps",
) -> Trace:
    """Run the eating process under ``mechanism`` ("cps" or "ps") to
    completion and return its exact trace.

    The loop advances segment by segment: rates are constant until the next
    depletion, all items hitting zero simultaneously deplete together, and
    items with zero total rate simply persist. Terminates after at most m
    segments, at time exactly m/n.
    """
    raw_segments, raw_events, raw_gamma = _kernel_impl.run_eating(
        *_kernel_args(n, m, profile, policy, mechanism))

    # Rates repeat across rows and segments, and segment ends repeat as
    # starts: build each distinct pair's Fraction once.
    fractions: dict[tuple[int, int], Fraction] = {}

    def exact(pair: tuple[int, int]) -> Fraction:
        value = fractions.get(pair)
        if value is None:
            value = fractions[pair] = Fraction(*pair)
        return value

    # The kernel reuses row lists: an item's one rate-1 row for every agent
    # eating it, a proportional agent's row while its rates stand, and the
    # uniform agents' row of a segment. raw_segments keeps every row alive
    # for the call, so its id is unique.
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
    fully determines the expected payoff. Every row is one integer dot
    product over one common multiple of all the share denominators, folded
    once from the largest down: a denominator that divides the multiple so
    far costs one ``divmod``, whose quotient is its factor (727 of the 730
    distinct ones of a random 30 x 30 CPS trace); only the others take an lcm
    and rescale the factors found so far.
    """
    if len(true_valuations) != len(trace.shares):
        raise ValueError("valuation count does not match trace")
    if any(len(v) != len(row) for row, v in zip(trace.shares, true_valuations)):
        raise ValueError("valuation length does not match trace")
    scale, factor = 1, {}
    for den in sorted({g.denominator for row in trace.shares for g in row}, reverse=True):
        quotient, rest = divmod(scale, den)
        if rest:
            grow = den // gcd(scale, den)
            for known in factor:
                factor[known] *= grow
            scale *= grow
            quotient = scale // den
        factor[den] = quotient
    payoffs = []
    for row, v in zip(trace.shares, true_valuations):
        d, values = v.integer_form
        payoffs.append(Fraction(sum(g.numerator * x * factor[g.denominator]
                                    for g, x in zip(row, values) if x), scale * d))
    return tuple(payoffs)


def welfare(trace: Trace, true_valuations: Sequence[Valuation]) -> Fraction:
    return sum(expected_payoffs(trace, true_valuations), Fraction(0))


def _dot(pairs: Iterable[tuple[int, int]], valuation: Valuation, tail: int = 0,
         n: int = 1) -> tuple[int, int]:
    """The payoff of a kernel share row, as an unreduced pair ``(num, den)``
    with den > 0, from a run that stopped with every item still alive worth
    ``tail`` (an integer value of the valuation's :attr:`integer_form`) to
    the agent, among n agents.

    Every agent eats at total rate 1 until t = m/n, so its shares sum to
    m/n, and the items alive at the stop take the m/n the row lacks. With
    v_a = tail, the payoff is v_a * m/n + sum_j share_j * (v_j - v_a) over
    the shares the kernel wrote, exactly. With ``tail`` 0, as when the run
    went on to m/n, that is sum_j share_j * v_j, one integer dot product
    over the items where the share and the value are nonzero, over the
    largest denominator among them, grown in the same pass.

    Exact without a gcd because the row's denominators form a divisibility
    chain: each nonzero share is a numerator over the kernel's running D at
    the depletion that wrote it, an earlier D divides every later one (D only
    grows by integer factors), so of two denominators in a row the smaller
    divides the larger."""
    d, values = valuation.integer_form
    total, scale = 0, 1
    for (num, den), v in zip(pairs, values):
        if num and v != tail:
            if den > scale:
                total *= den // scale
                scale = den
            total += num * (v - tail) * (scale // den)
    if tail:
        return total * n + tail * len(values) * scale, n * scale * d
    return total, scale * d


def _payoffs(args: tuple, agents: Sequence[int], valuations: Sequence[Valuation],
             opening: tuple | None = None) -> list[tuple[int, int]]:
    """The payoffs of ``agents`` (``valuations`` in the same order) as
    :func:`_dot` pairs, from one lean kernel run on arguments from
    :func:`_kernel_args`, starting from ``opening`` (see
    :func:`eatsim._kernel.build_opening`) when one is given.

    The kernel writes only those agents' share rows, and each row goes
    straight into :func:`_dot`: no ``Trace`` and no ``Fraction``. Each item's
    key is its value to the one agent (the valuation's cached
    ``value_counts`` counts them), else the column of the agents' values,
    and the run stops once every alive item has one key: each agent values
    the items left alike, so the rest of its payoff is fixed, and
    :func:`_dot` adds it from that key, the value v_a of the items left.
    """
    if len(valuations) == 1:
        (agent,), (v,) = agents, valuations
        left = v.value_counts.copy()
        row = _kernel_impl.run_eating(*args, agents, v.integer_form[1], opening, left)[2][agent]
        for key, count in left.items():
            if count:  # the one key of the items left: their value to the agent
                return [_dot(row, v, key, args[0])]
        return [_dot(row, v)]
    keys = list(zip(*(v.integer_form[1] for v in valuations)))
    left = Counter(keys)
    _, _, gamma = _kernel_impl.run_eating(*args, agents, keys, opening, left)
    for key, count in left.items():
        if count:  # the one key of the items left: their value to each agent
            n = args[0]
            return [_dot(gamma[i], v, tail, n) for i, v, tail in zip(agents, valuations, key)]
    return [_dot(gamma[i], v) for i, v in zip(agents, valuations)]


def sample_allocation(trace: Trace, seed: int) -> tuple[int, ...]:
    """Draw one assignment (agent per item) from the trace's share lottery.

    Each item is assigned independently by its marginal column. Deterministic
    given the seed: a single stream seeded with ``"eatsim-alloc:<seed>"``
    draws the items in index order, each by one exact integer draw against
    the column's common denominator.
    """
    as_count(seed, "seed")  # any int, a negative one too
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
    # run() shares one Fraction per distinct value and one tuple per distinct
    # rate row, and the trace keeps each alive for the call, so each distinct
    # value and each distinct row is rendered once.
    rendered: dict[int, str] = {}

    def text(value: Fraction) -> str:
        out = rendered.get(id(value))
        if out is None:
            out = rendered[id(value)] = format_rational(value)
        return out

    rendered_rows: dict[int, list[str]] = {}

    def rate_row(row: tuple[Fraction, ...]) -> list[str]:
        out = rendered_rows.get(id(row))
        if out is None:
            out = rendered_rows[id(row)] = list(map(text, row))
            return out
        return out.copy()  # the doc holds no list twice

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
                "rates": list(map(rate_row, seg.rates)),
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
