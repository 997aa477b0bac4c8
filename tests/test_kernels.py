"""The prefix-sum kernel against the independent trace oracle."""

import copy
from collections import Counter
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eatsim import _kernel
from eatsim.engine import (
    _kernel_args,
    _payoffs,
    _set_slot,
    _slot,
    expected_payoffs,
    kernel_name,
    run,
)
from eatsim.instances import GeneratorSpec, generate, log_m_lb
from eatsim.model import (
    LOWEST_INDEX_FIRST,
    UNIFORM_OVER_REMAINING,
    Lexicographic,
    Proportional,
    Valuation,
    fixed_order_policy,
    valuation_of,
)
from eatsim.strategies import (
    GridProportional,
    Sequential,
    SingleMinded,
    Truthful,
    Uniform,
    default_grid_resolution,
    expand_families,
    ps_profile,
)
from fractions import Fraction

from helpers import random_run_case, random_strategy, random_valuation, rng_for
from oracle import assert_valid_trace

POLICIES = ("uniform", "lowest-index", "fixed")


def _policy(rng, name, m):
    if name == "uniform":
        return UNIFORM_OVER_REMAINING
    if name == "lowest-index":
        return LOWEST_INDEX_FIRST
    return fixed_order_policy(rng.sample(range(m), m))


def _report(m, weights):
    """A proportional report with integer ``weights`` ({item: weight})."""
    row = [weights.get(j, 0) for j in range(m)]
    return Proportional(Valuation(tuple(Fraction(w, sum(row)) for w in row)))


def _sparse_proportional(rng, m):
    """A report that values one or two items only, so it runs dry mid-run."""
    return _report(m, {j: rng.randint(1, 5)
                       for j in rng.sample(range(m), min(m, rng.randint(1, 2)))})


def _check(n, m, profile, policy):
    trace = run(n, m, profile, policy)
    assert_valid_trace(n, m, profile, policy, trace)
    return trace


def test_kernel_name_reports_selection():
    assert kernel_name() == "pure-python"


def test_mixed_corpus_matches_oracle():
    rng = rng_for("kernel-parity")
    for _ in range(250):
        n, m, _, profile, policy = random_run_case(rng)
        _check(n, m, profile, policy)


def test_lean_run_matches_full_run():
    rng = rng_for("kernel-parity-lean")
    for _ in range(60):
        n, m, _, profile, policy = random_run_case(rng)
        full = _check(n, m, profile, policy)
        args = _kernel_args(n, m, profile, policy)
        segments, events, gamma = _kernel.run_eating(*args, list(range(n)))
        assert segments == []
        assert [(Fraction(num, den), j) for num, den, j in events] == list(full.depletion_events)
        assert [[Fraction(*pair) for pair in row] for row in gamma] == \
            [list(row) for row in full.shares]


def test_every_policy_with_one_item_prefix_orders():
    rng = rng_for("kernel-parity-fixed")
    for name in POLICIES:
        for _ in range(40):
            n, m = rng.randint(2, 6), rng.randint(2, 6)
            # one-item lexicographic prefixes force the zero policy to fire
            profile = [Lexicographic(tuple(rng.sample(range(m), 1))) for _ in range(n)]
            _check(n, m, profile, _policy(rng, name, m))


def test_proportional_rows_that_run_dry_mid_run():
    rng = rng_for("kernel-dry-rows")
    for name in POLICIES:
        for _ in range(40):
            n, m = rng.randint(1, 6), rng.randint(2, 7)
            profile = [_sparse_proportional(rng, m) if rng.random() < 0.6
                       else random_strategy(rng, m) for _ in range(n)]
            _check(n, m, profile, _policy(rng, name, m))


def test_empty_order_agents_start_in_zero_mode():
    """A lexicographic agent with an empty order has nothing to chase from
    time 0, so it follows the zero policy from the first segment."""
    rng = rng_for("kernel-empty-orders")
    for name in POLICIES:
        for _ in range(40):
            n, m, instance, profile, _ = random_run_case(rng)
            for i in rng.sample(range(n), rng.randint(1, n)):
                profile[i] = Lexicographic(())
            policy = _policy(rng, name, m)
            _check(n, m, profile, policy)
            _assert_lean_payoffs(n, m, profile, policy, instance.valuations)


def test_tied_depletions():
    rng = rng_for("kernel-ties")
    ties = 0
    for name in POLICIES:
        for _ in range(40):
            n, m = rng.randint(2, 6), rng.randint(2, 6)
            # repeated strategies make items run out together
            pool = [random_strategy(rng, m) for _ in range(rng.randint(1, 2))]
            profile = [rng.choice(pool) for _ in range(n)]
            trace = _check(n, m, profile, _policy(rng, name, m))
            times = [t for t, _ in trace.depletion_events]
            ties += len(times) - len(set(times))
    assert ties > 0


def _assert_kernel_pairs(n, m, profile, policy):
    """Every kernel pair has den > 0, and the trace holds one value per pair,
    equal to and hashing like ``Fraction(num, den)``: ``run`` is where the
    unreduced pairs are reduced, so every value in the trace is normalised."""
    args = _kernel_args(n, m, profile, policy)
    segments, events, gamma = _kernel.run_eating(*args)
    pairs = [pair for t0, t1, rates in segments for pair in (t0, t1, *chain(*rates))]
    pairs += [(num, den) for num, den, _ in events]
    pairs += chain(*gamma)
    assert all(den > 0 for _, den in pairs)
    trace = run(n, m, profile, policy)
    values = [v for seg in trace.segments for v in (seg.start, seg.end, *chain(*seg.rates))]
    values += [t for t, _ in trace.depletion_events]
    values += chain(*trace.shares)
    assert len(values) == len(pairs)
    for value, (num, den) in zip(values, pairs):
        reference = Fraction(num, den)
        assert value == reference and hash(value) == hash(reference)
        assert value.denominator > 0 and gcd(value.numerator, value.denominator) == 1


def test_kernel_pairs_become_normalised_fractions_on_the_fuzz_corpus():
    rng = rng_for("kernel-reduced-pairs")
    for name in POLICIES:
        for _ in range(60):
            n, m, _, profile, _ = random_run_case(rng)
            _assert_kernel_pairs(n, m, profile, _policy(rng, name, m))


def _unit_sum(m):
    return (st.lists(st.integers(0, 9), min_size=m, max_size=m)
            .filter(lambda w: sum(w) > 0)
            .map(lambda w: Valuation(tuple(Fraction(x, sum(w)) for x in w))))


@st.composite
def _run_cases(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    profile = []
    for _ in range(n):
        if draw(st.booleans()):
            profile.append(Proportional(draw(_unit_sum(m))))
        else:
            items = draw(st.permutations(range(m)))
            profile.append(Lexicographic(tuple(items[:draw(st.integers(1, m))])))
    rng = draw(st.randoms(use_true_random=False))
    return n, m, profile, _policy(rng, draw(st.sampled_from(POLICIES)), m)


@given(_run_cases())
@settings(max_examples=80, deadline=None)
def test_kernel_pairs_become_normalised_fractions_property(case):
    _assert_kernel_pairs(*case)


def _exact_payoffs(args, agents, valuations):
    """``_payoffs`` as Fractions; each of its unreduced pairs has den > 0."""
    pairs = _payoffs(args, agents, valuations)
    assert all(den > 0 for _, den in pairs)
    return [Fraction(*pair) for pair in pairs]


def _assert_lean_payoffs(n, m, profile, policy, valuations, mechanism="cps"):
    """One kernel run per asked-for agent set writes exactly those share rows,
    and the payoffs built from them equal the full trace's payoffs."""
    trace = run(n, m, profile, policy, mechanism)
    expected = list(expected_payoffs(trace, valuations))
    args = _kernel_args(n, m, profile, policy, mechanism)
    assert _exact_payoffs(args, range(n), valuations) == expected
    for agent in range(n):
        assert _exact_payoffs(args, [agent], [valuations[agent]]) == [expected[agent]]
        _, _, gamma = _kernel.run_eating(*args, [agent])
        assert [Fraction(*pair) for pair in gamma[agent]] == list(trace.shares[agent])
        assert all(row == [] for i, row in enumerate(gamma) if i != agent)


def test_lean_payoffs_match_full_trace_on_the_fuzz_corpus():
    rng = rng_for("kernel-lean-payoffs")
    for name in POLICIES:
        for mechanism in ("cps", "ps"):
            for _ in range(25):
                n, m, instance, profile, _ = random_run_case(rng)
                if mechanism == "ps":
                    profile = ps_profile(profile, m)
                _assert_lean_payoffs(n, m, profile, _policy(rng, name, m), instance.valuations)


def test_lean_payoffs_with_one_item_prefixes_and_sparse_rows():
    rng = rng_for("kernel-lean-payoffs-sparse")
    for name in POLICIES:
        for _ in range(40):
            n, m = rng.randint(1, 6), rng.randint(2, 7)
            profile = [rng.choice([
                Lexicographic(tuple(rng.sample(range(m), 1))),
                _sparse_proportional(rng, m),
                random_strategy(rng, m)]) for _ in range(n)]
            valuations = [random_valuation(rng, m) for _ in range(n)]
            _assert_lean_payoffs(n, m, profile, _policy(rng, name, m), valuations)


@st.composite
def _payoff_cases(draw):
    n, m, profile, policy = draw(_run_cases())
    if draw(st.booleans()):
        profile = ps_profile(profile, m)
    return n, m, profile, policy, [draw(_unit_sum(m)) for _ in range(n)]


@given(_payoff_cases())
@settings(max_examples=80, deadline=None)
def test_lean_payoffs_match_full_trace_property(case):
    _assert_lean_payoffs(*case)


def _valuing(rng, m, items):
    """A valuation that values exactly ``items``."""
    return _report(m, {j: rng.randint(1, 5) for j in items}).report


def _keys(valuations, agents, m):
    """``_payoffs``'s stop keys for ``agents``: per item, the column of their
    integer values."""
    return [tuple(valuations[i].integer_form[1][j] for i in agents) for j in range(m)]


def _lean_run(args, agents, keys, opening=None):
    """A lean kernel run that stops once the alive items share one of their
    ``keys``; it also returns the count of each key that the run left."""
    left = Counter(keys)
    return (*_kernel.run_eating(*args, agents, keys, opening, left), left)


def _stop_time(trace, keys):
    """When a lean run with ``keys`` stops: the first of t = 0 and the
    depletion times after which every alive item has one key."""
    for t in [Fraction(0)] + [t for t, _ in trace.depletion_events]:
        if len({keys[j] for s, j in trace.depletion_events if s > t}) <= 1:
            return t


def test_lean_runs_stop_once_the_items_left_share_one_key():
    """Agents value one to three items, among them an item that runs out
    first, last, or together with another. A lean run stops once every alive
    item has one key, the column of its agents' values: its events are the
    trace's up to that point, its rows equal the whole trace's on the items
    that ran out and are 0 on the others, and its payoffs are those of the
    whole trace."""
    rng = rng_for("kernel-valued-stop")
    cases = early = 0
    for name in POLICIES:
        for mechanism in ("cps", "ps"):
            for _ in range(25):
                n, m = rng.randint(1, 6), rng.randint(2, 7)
                # repeated strategies make items run out together
                pool = [rng.choice([_sparse_proportional(rng, m), random_strategy(rng, m)])
                        for _ in range(rng.randint(1, 3))]
                profile = [rng.choice(pool) for _ in range(n)]
                if mechanism == "ps":
                    profile = ps_profile(profile, m)
                policy = _policy(rng, name, m)
                args = _kernel_args(n, m, profile, policy)
                trace = run(n, m, profile, policy)
                times = {j: t for t, j in trace.depletion_events}
                anchors = {
                    "first": [j for j in range(m) if times[j] == trace.depletion_events[0][0]],
                    "last": [j for j in range(m) if times[j] == trace.horizon],
                    "tie": [j for j in range(m)
                            if sum(t == times[j] for t in times.values()) > 1],
                }
                valuations = []
                for _ in range(n):
                    kind = rng.choice([k for k, items in anchors.items() if items])
                    items = {rng.choice(anchors[kind])}
                    items.update(rng.sample(range(m), rng.randint(0, min(2, m - 1))))
                    valuations.append(_valuing(rng, m, sorted(items)[:3]))
                cases += 1

                groups = [[i] for i in range(n)] + [list(range(n))]
                for agents in groups:
                    keys = _keys(valuations, agents, m)
                    _, events, gamma, _ = _lean_run(args, agents, keys)
                    stop = _stop_time(trace, keys)
                    assert [(Fraction(num, den), j) for num, den, j in events] == \
                        [(t, j) for t, j in trace.depletion_events if t <= stop]
                    for i in agents:
                        assert [Fraction(*pair) for pair in gamma[i]] == \
                            [g if times[j] <= stop else 0 for j, g in enumerate(trace.shares[i])]
                    early += stop < trace.horizon

                expected = list(expected_payoffs(trace, valuations))
                assert _exact_payoffs(args, range(n), valuations) == expected
                for agent in range(n):
                    assert _exact_payoffs(args, [agent], [valuations[agent]]) == [expected[agent]]
    assert early > cases


def _tied_case(rng):
    """(n, m, profile, valuations) with many ties: values and reports drawn
    from a small pool of rows with weights in {0, 1, 2, 3}, so rows repeat;
    at times the uniform valuation joins the pool, and at times m = 1."""
    n, m = rng.randint(1, 6), rng.choice([1, 2, 3, 4, 5, 6, 7])
    pool = [random_valuation(rng, m, 3) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        pool.append(Valuation((Fraction(1, m),) * m))
    valuations = [rng.choice(pool) for _ in range(n)]
    profile = [rng.choice([Proportional(v), Proportional(rng.choice(pool)),
                           random_strategy(rng, m)]) for v in valuations]
    return n, m, profile, valuations


def test_lean_payoffs_with_tied_values_match_full_trace():
    """Each lean run stops at the first of t = 0 and the depletions after
    which the alive items share one key, and the payoffs of each agent alone
    and of all agents together, with the tail added from the value of the
    items left, equal the whole trace's. The corpus stops runs early, at
    t = 0, and with a tail worth more than 0."""
    rng = rng_for("kernel-tied-tails")
    early = at_start = worth = 0
    for name in POLICIES:
        for mechanism in ("cps", "ps"):
            for _ in range(50):
                n, m, profile, valuations = _tied_case(rng)
                policy = _policy(rng, name, m)
                _assert_lean_payoffs(n, m, profile, policy, valuations, mechanism)
                trace = run(n, m, profile, policy, mechanism)
                args = _kernel_args(n, m, profile, policy, mechanism)
                for agents in [[i] for i in range(n)] + [list(range(n))]:
                    keys = _keys(valuations, agents, m)
                    _, events, _, counts = _lean_run(args, agents, keys)
                    stop = _stop_time(trace, keys)
                    assert [(Fraction(num, den), j) for num, den, j in events] == \
                        [(t, j) for t, j in trace.depletion_events if t <= stop]
                    left = sorted(set(range(m)) - {j for *_, j in events})
                    assert +counts == Counter(keys[j] for j in left)
                    early += bool(left)
                    at_start += not events
                    worth += bool(left) and any(keys[left[0]])
    assert min(early, at_start, worth) > 300


def _items_of(strat):
    if isinstance(strat, Proportional):
        return [j for j, v in enumerate(strat.report.values) if v]
    return list(strat.order)


def test_chasers_that_join_mid_target():
    """k chasers eat the zero policy's first item from time 0, while k + 2
    one-item orders on each of two other items run those out by time
    1 / (k + 2). The crowd and a joiner (a one-item order, or a report on
    both items) then join the chasers, whose target has lost at most
    (k + 1) / (k + 2) of itself, so it still stands."""
    rng = rng_for("kernel-chasers-join")
    for name in ("lowest-index", "fixed"):
        for kind in ("order", "report"):
            for _ in range(15):
                m = rng.randint(3, 7)
                policy = _policy(rng, name, m)
                first, *rest = policy.order or range(m)
                k = rng.randint(1, 4)
                items = rng.sample(rest, 2)
                profile = [Lexicographic(())] * k + \
                    [Lexicographic((j,)) for j in items for _ in range(k + 2)]
                joiner = rng.randint(0, len(profile))
                profile.insert(joiner, Lexicographic((items[0],)) if kind == "order"
                               else _report(m, {j: rng.randint(1, 5) for j in items}))
                n = len(profile)
                trace = _check(n, m, profile, policy)

                times = {j: t for t, j in trace.depletion_events}
                joined = {i: max(times[j] for j in _items_of(strat))
                          for i, strat in enumerate(profile) if _items_of(strat)}
                assert joiner in joined
                for i, t in joined.items():
                    assert t < times[first]
                    assert trace.shares[i][first] == times[first] - t

                # in a whole trace every chaser's rate row is one object
                segments, _, _ = _kernel.run_eating(*_kernel_args(n, m, profile, policy))
                for t0, _, rates in segments:
                    group = [i for i in range(n) if joined.get(i, 0) <= Fraction(*t0)]
                    assert all(rates[i] is rates[group[0]] for i in group)

                valuations = [random_valuation(rng, m) for _ in range(n)]
                _assert_lean_payoffs(n, m, profile, policy, valuations)


def _rows_by_item(segments):
    """{item: row} for a whole trace in which every rate row is rate 1 on one
    item, checking that each item's rows are one object across agents and
    segments."""
    rows = {}
    for _, _, rates in segments:
        for row in rates:
            (j,) = [j for j, rate in enumerate(row) if rate == (1, 1)]
            assert rows.setdefault(j, row) is row
    return rows


def test_agents_eating_an_item_at_rate_one_share_its_row():
    """Under ps with the lowest-index or fixed zero policy every agent eats
    down its order or chases the policy's target, so every rate row of a
    whole trace is rate 1 on one item, and the eaters and chasers of an item
    share its one row object."""
    rng = rng_for("kernel-shared-rows")
    for name in ("lowest-index", "fixed"):
        for _ in range(300):
            n, m, _, profile, _ = random_run_case(rng)
            args = _kernel_args(n, m, profile, _policy(rng, name, m), "ps")
            segments, _, _ = _kernel.run_eating(*args)
            _rows_by_item(segments)
    instance = generate(GeneratorSpec("random", {"n": 30, "m": 30}, 0)).instance
    args = _kernel_args(30, 30, instance.truthful_profile(), LOWEST_INDEX_FIRST, "ps")
    segments, _, _ = _kernel.run_eating(*args)
    assert len(_rows_by_item(segments)) == len({id(row) for *_, rates in segments
                                                for row in rates}) == 30


def _assert_divisibility_chain(dens):
    dens = sorted(set(dens))
    assert all(later % den == 0 for den, later in zip(dens, dens[1:]))


def test_share_and_event_denominators_form_a_divisibility_chain():
    """The kernel writes every event and share over its running D, which
    only grows by integer factors, so the distinct denominators of the events
    and of each share row divide one another in sorted order; ``_dot`` sums a
    row over its largest denominator on that basis. Whole runs and lean runs
    of each agent alone, stopped once the items left share one key."""
    rng = rng_for("kernel-denominator-chain")
    for name in POLICIES:
        for mechanism in ("cps", "ps"):
            for _ in range(25):
                n, m, instance, profile, _ = random_run_case(rng)
                args = _kernel_args(n, m, profile, _policy(rng, name, m), mechanism)
                runs = [_kernel.run_eating(*args)]
                runs += [_lean_run(args, [i], _keys(instance.valuations, [i], m))[:3]
                         for i in range(n)]
                for _, events, gamma in runs:
                    _assert_divisibility_chain(den for _, den, _ in events)
                    for row in gamma:
                        _assert_divisibility_chain(den for _, den in row)


def test_reused_item_totals():
    """Profiles in which items outside every proportional support run out,
    so no W_i(S) changes and the kernel keeps its item totals, and items
    inside some supports run out too; log-m-lb's chasers' target lies in no
    support. Under the uniform policy the kernel must rebuild the totals."""
    rng = rng_for("kernel-reused-totals")
    cases = []
    for name in POLICIES:
        for _ in range(40):
            m = rng.randint(3, 7)
            policy = _policy(rng, name, m)
            first, *rest = policy.order or range(m)  # the chasers' first target, if any
            outside = [first] + rng.sample(rest, rng.randint(0, m - 3))
            inside = [j for j in range(m) if j not in outside]
            profile = [_report(m, {j: rng.randint(1, 5)
                                   for j in rng.sample(inside, rng.randint(2, len(inside)))})
                       for _ in range(rng.randint(1, 3))]
            profile += [Lexicographic(tuple(rng.sample(outside, rng.randint(1, len(outside)))))
                        for _ in range(rng.randint(1, 4))]
            profile += [Lexicographic(())] * rng.randint(0, 3)
            rng.shuffle(profile)
            cases.append((m, policy, profile, set(outside)))
        for k in (1, 2, 3):
            for q in (1, 2, 3):
                generated = log_m_lb(k, q)
                m = generated.instance.m
                cases.append((m, _policy(rng, name, m), list(generated.bad_profile), {0}))
    reused = 0
    for m, policy, profile, outside in cases:
        n = len(profile)
        trace = _check(n, m, profile, policy)
        reused += sum(j in outside for _, j in trace.depletion_events[:-1])
        valuations = [random_valuation(rng, m) for _ in range(n)]
        _assert_lean_payoffs(n, m, profile, policy, valuations)
    assert reused > len(cases)


def _assert_lowest_index_is_the_identity_order(n, m, profile):
    """The lowest-index zero policy is the fixed policy over range(m), under
    CPS and under PS."""
    for strategies in (profile, ps_profile(profile, m)):
        assert run(n, m, strategies, LOWEST_INDEX_FIRST) == \
            run(n, m, strategies, fixed_order_policy(range(m)))


def test_lowest_index_is_the_identity_order_on_the_fuzz_corpus():
    rng = rng_for("kernel-lowest-index-order")
    for _ in range(80):
        n, m, _, profile, _ = random_run_case(rng)
        _assert_lowest_index_is_the_identity_order(n, m, profile)


@given(_run_cases())
@settings(max_examples=80, deadline=None)
def test_lowest_index_is_the_identity_order_property(case):
    n, m, profile, _ = case
    _assert_lowest_index_is_the_identity_order(n, m, profile)


@pytest.mark.parametrize("strategy", [
    Proportional(valuation_of(["1/2", "1/2"])),
    Proportional(valuation_of(["1/4", "1/4", "1/4", "1/4"])),
    Lexicographic((1, 3)),
    "not a strategy",
], ids=["short-report", "long-report", "order-past-m", "not-a-strategy"])
def test_set_slot_rejects_a_strategy_that_does_not_fit_m(strategy):
    args = _kernel_args(2, 3, [Lexicographic((0,)), Lexicographic((1,))], LOWEST_INDEX_FIRST)
    for mechanism in ("cps", "ps"):
        with pytest.raises(ValueError, match="agent 2"):
            _set_slot(args, 1, strategy, mechanism)
        # the profile's slots, each in its shortest form: under the
        # lowest-index policy the order (0,) eats as (), the items in index
        # order
        assert args == (2, 3, [(), ()], [(), (1,)], [0, 1, 2])


def _families(m, resolution=None):
    """All five families, with the empty order and the reversed full order
    besides the greedy ones; the grid only at m <= 3."""
    families = [Truthful(), SingleMinded(), Sequential(), Sequential(((), tuple(range(m))[::-1])),
                Uniform()]
    if m <= 3:
        families.append(GridProportional(resolution or default_grid_resolution(m)))
    return families


def _assert_opening_totals(opening, rates):
    """The opening's t = 0 item totals, over its L, are the sums of the
    first-segment ``rates`` of its placed proportional and uniform agents,
    which are the totals a run builds from its own rate rule."""
    unplaced, mode, *_, L, base = opening
    placed = [i for i, k in enumerate(mode)
              if i != unplaced and k in (_kernel.PROPORTIONAL, _kernel.UNIFORM)]
    assert [Fraction(x, L) for x in base] == [
        sum((Fraction(*rates[i][j]) for i in placed), Fraction(0)) for j in range(len(base))]


def _assert_runs_from_the_opening(n, m, profile, policy, mechanism, truths, families):
    """As a sweep runs them: for each agent, one opening of the others' slots,
    then one lean run per family member with the member's slot. Each run
    equals a fresh run on the same arguments (events and share rows), and
    leaves the opening as it was; so does a whole trace from the opening.

    The totals of every opening are those of the whole trace's first
    segment. A member whose slot adds to them (a proportional one, or an
    empty order under the uniform policy) must not reuse them: its run
    from an opening with wrong totals still equals the fresh run. The one
    agent's payoff from the opening equals its entry of the payoffs of all
    agents."""
    args = _kernel_args(n, m, profile, policy, mechanism)
    _, _, weights, orders, zero_order = args
    _, _, rates = _kernel.run_eating(*args)[0][0]
    _assert_opening_totals(_kernel.build_opening(*args), rates)
    everyone = _exact_payoffs(args, range(n), truths)
    for agent, truth in enumerate(truths):
        opening = _kernel.build_opening(*args, agent)
        _assert_opening_totals(opening, rates)
        snapshot = copy.deepcopy(opening)
        *_, L, base = opening
        wrong = (*opening[:-1], [x + L for x in base])
        baseline = weights[agent], orders[agent]
        keys = truth.integer_form[1]
        assert truth.value_counts == Counter(keys)
        for _, member in expand_families(families, truth, m):
            weights[agent], orders[agent] = _slot(member, m, mechanism, zero_order)
            fresh = _lean_run(args, [agent], keys)
            assert _lean_run(args, [agent], keys, opening) == fresh
            assert opening == snapshot
            if weights[agent] or not (orders[agent] or zero_order):
                assert _lean_run(args, [agent], keys, wrong) == fresh
        weights[agent], orders[agent] = baseline
        assert _kernel.run_eating(*args, None, None, opening) == _kernel.run_eating(*args)
        assert opening == snapshot
        (pair,) = _payoffs(args, [agent], [truth], opening)
        assert Fraction(*pair) == everyone[agent]


def test_runs_from_a_sweep_opening_match_fresh_runs_on_the_fuzz_corpus():
    rng = rng_for("kernel-opening")
    for name in POLICIES:
        for mechanism in ("cps", "ps"):
            for _ in range(8):
                n, m, instance, profile, _ = random_run_case(rng, max_n=6, max_m=6)
                _assert_runs_from_the_opening(n, m, profile, _policy(rng, name, m), mechanism,
                                              instance.valuations, _families(m))


@given(_payoff_cases(), st.sampled_from(["cps", "ps"]))
@settings(max_examples=60, deadline=None)
def test_runs_from_a_sweep_opening_match_fresh_runs_property(case, mechanism):
    n, m, profile, policy, valuations = case
    _assert_runs_from_the_opening(n, m, profile, policy, mechanism,
                                  valuations, _families(m, 3))


@pytest.mark.parametrize("mechanism", ["cps", "ps"])
@pytest.mark.parametrize("policy_name", POLICIES)
def test_share_rules_on_log_m_lb_at_ci_size(mechanism, policy_name):
    """log-m-lb k=8 q=3 (11 agents, 15 items) under the zero policies the CI
    simulate digests use, the fixed one reversed. Under the uniform policy
    CPS runs the 15 items out in 4 segments, with agents entering zero mode
    together, so each share rule reads marks written over a smaller D."""
    instance = generate(GeneratorSpec("log-m-lb", {"k": 8, "q": 3})).instance
    n, m = instance.n, instance.m
    profile = instance.truthful_profile()
    if mechanism == "ps":
        profile = ps_profile(profile, m)
    policy = {"uniform": UNIFORM_OVER_REMAINING, "lowest-index": LOWEST_INDEX_FIRST,
              "fixed": fixed_order_policy(range(m - 1, -1, -1))}[policy_name]
    trace = _check(n, m, profile, policy)
    _assert_lean_payoffs(n, m, profile, policy, instance.valuations)
    if (mechanism, policy_name) == ("cps", "uniform"):
        assert len(trace.segments) == 4


def test_share_rules_on_sqrt_n_lb_at_ci_size():
    """sqrt-n-lb n=16 from its bad profile runs its 16 items out in 2
    segments, so most shares are written at one tied depletion."""
    generated = generate(GeneratorSpec("sqrt-n-lb", {"n": 16}))
    n, m = generated.instance.n, generated.instance.m
    profile = list(generated.bad_profile)
    trace = _check(n, m, profile, LOWEST_INDEX_FIRST)
    _assert_lean_payoffs(n, m, profile, LOWEST_INDEX_FIRST, generated.instance.valuations)
    assert len(trace.segments) == 2
