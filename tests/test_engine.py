import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eatsim import (
    LOWEST_INDEX_FIRST,
    Lexicographic,
    Proportional,
    UNIFORM_OVER_REMAINING,
    expected_payoffs,
    run,
    sample_allocation,
    trace_to_json,
    valuation_of,
    welfare,
)
from eatsim.engine import Segment, Trace, _kernel_args
from eatsim.equilibrium import run_profile
from eatsim.instances import GeneratorSpec, generate, random_instance
from eatsim.model import decimal_str, fixed_order_policy, format_rational
from eatsim.strategies import as_ordinal, ps_profile, single_minded

from helpers import random_run_case, random_valuation, rng_for
from oracle import assert_valid_trace

F = Fraction


@pytest.fixture(scope="module")
def example1():
    return generate(GeneratorSpec("example1")).instance


@pytest.fixture(scope="module")
def example2():
    return generate(GeneratorSpec("example2")).instance


# Exact quantities for the three-agent run, derived by hand-executing the
# three segments: item 2 empties at 2/3 (total rate 3/10 + 7/10 + 1/2), item
# 1 after a further 42/167 (quantity 2/5 against rate 167/105), item 3 at 1.
EXAMPLE1_TIMES = (F(2, 3), F(2, 3) + F(42, 167), F(1))
EXAMPLE1_SHARES = (
    (F(514, 835), F(1, 5), F(154, 835)),
    (F(377, 2505), F(7, 15), F(959, 2505)),
    (F(586, 2505), F(1, 3), F(1084, 2505)),
)


class TestGoldenRuns:
    def test_example1_depletion_order_and_times(self, example1):
        trace = run(3, 3, example1.truthful_profile())
        assert [j for _, j in trace.depletion_events] == [1, 0, 2]
        times = trace.consumption_times()
        assert (times[1], times[0], times[2]) == EXAMPLE1_TIMES

    def test_example1_exact_shares(self, example1):
        trace = run(3, 3, example1.truthful_profile())
        assert trace.shares == EXAMPLE1_SHARES

    def test_example1_trace_satisfies_definition(self, example1):
        profile = example1.truthful_profile()
        trace = run(3, 3, profile)
        assert_valid_trace(3, 3, profile, LOWEST_INDEX_FIRST, trace)

    def test_example1_policy_is_irrelevant_without_zero_reports(self, example1):
        # every agent values every item, so the zero policy never fires
        profile = example1.truthful_profile()
        assert run(3, 3, profile, UNIFORM_OVER_REMAINING).shares == EXAMPLE1_SHARES

    def test_example2_truthful(self, example2):
        trace = run(2, 2, example2.truthful_profile())
        assert [t for t, _ in trace.depletion_events] == [1, 1]
        assert trace.shares[0] == (F(2, 3), F(1, 3))
        assert expected_payoffs(trace, example2.valuations) == (F(5, 9), F(5, 9))

    def test_example2_single_minded_deviation(self, example2):
        profile = [single_minded(0, 2), example2.truthful_profile()[1]]
        trace = run(2, 2, profile)
        assert trace.consumption_times()[0] == F(3, 4)
        assert trace.shares[0] == (F(3, 4), F(1, 4))
        assert expected_payoffs(trace, example2.valuations)[0] == F(7, 12)

    def test_no_contention_identity(self):
        n = 4
        profile = [single_minded(i, n) for i in range(n)]
        trace = run(n, n, profile)
        assert all(trace.consumption_times()[j] == 1 for j in range(n))
        assert trace.shares == tuple(
            tuple(F(1) if i == j else F(0) for j in range(n)) for i in range(n))

    def test_identity_shares_pay_each_agent_its_own_value(self):
        rng = rng_for("identity-payoff")
        n = 4
        profile = [single_minded(i, n) for i in range(n)]
        trace = run(n, n, profile)
        valuations = [random_valuation(rng, n) for _ in range(n)]
        assert expected_payoffs(trace, valuations) == tuple(
            valuations[i][i] for i in range(n))


class TestSegmentRates:
    """The rate rule, read off the segments of a run."""

    def test_truthful_rates_at_start(self, example1):
        seg = run(3, 3, example1.truthful_profile()).segments[0]
        assert seg.start == 0
        assert seg.rates[0] == (F(3, 5), F(3, 10), F(1, 10))

    def test_renormalized_after_depletion(self, example1):
        # item 2 runs out first; agent 2 splits over items 1 and 3 as 1/10 : 1/5
        trace = run(3, 3, example1.truthful_profile())
        seg = trace.segments[1]
        assert trace.remaining_at(seg.start) == {0, 2}
        assert seg.rates[1] == (F(1, 3), F(0), F(2, 3))

    @pytest.mark.parametrize("policy, rates", [
        (UNIFORM_OVER_REMAINING, (F(0), F(1, 2), F(1, 2))),
        (LOWEST_INDEX_FIRST, (F(0), F(1), F(0))),
    ], ids=["uniform", "lowest-index"])
    def test_zero_report_after_its_item_runs_out(self, policy, rates):
        trace = run(1, 3, [Proportional(valuation_of(["1", "0", "0"]))], policy)
        first, after = trace.segments[:2]
        assert first.rates[0] == (F(1), F(0), F(0))
        assert after.start == 1
        assert after.rates[0] == rates

    def test_lexicographic_picks_first_remaining(self):
        trace = run(1, 3, [Lexicographic((2, 1))])
        assert [seg.rates[0] for seg in trace.segments[:2]] == [
            (F(0), F(0), F(1)), (F(0), F(1), F(0))]


class TestRejectedInputs:
    def test_run_rejects_a_lottery_name_as_mechanism(self, example1):
        with pytest.raises(ValueError, match="unknown eating mechanism 'rp'"):
            run(3, 3, example1.truthful_profile(), mechanism="rp")

    @pytest.mark.parametrize("call", [run, run_profile], ids=["run", "run_profile"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_a_run_needs_an_agent(self, call, n):
        # with no eaters every item would run out at t = 3/0
        with pytest.raises(ValueError, match=f"^n = {n} must be at least 1$"):
            call(n, 3, [])

    @pytest.mark.parametrize("call", [
        run, run_profile, lambda n, m, profile: _kernel_args(n, m, profile, LOWEST_INDEX_FIRST)],
        ids=["run", "run_profile", "kernel_args"])
    @pytest.mark.parametrize("m", [0, -1])
    def test_a_run_needs_an_item(self, call, m):
        # a run used to return a trace with m = -1 and horizon -1, or with
        # horizon 0; the item count is checked right after the agent count
        with pytest.raises(ValueError, match=f"^m = {m} must be at least 1$"):
            call(1, m, [Lexicographic(())])
        with pytest.raises(ValueError, match="^n = 0 must be at least 1$"):
            call(0, m, [])

    def test_expected_payoffs_needs_one_valuation_per_agent(self, example1):
        trace = run(3, 3, example1.truthful_profile())
        with pytest.raises(ValueError, match="valuation count does not match trace"):
            expected_payoffs(trace, example1.valuations[:2])


REVERSED_20 = fixed_order_policy(tuple(reversed(range(20))))


def plain_trace_json(trace, decimals):
    # the export format, one format_rational or decimal_str call per cell
    doc = {
        "n": trace.n,
        "m": trace.m,
        "horizon": format_rational(trace.horizon),
        "depletion_events": [{"time": format_rational(t), "item": j + 1}
                             for t, j in trace.depletion_events],
        "shares": [[format_rational(g) for g in row] for row in trace.shares],
        "segments": [{"start": format_rational(seg.start),
                      "end": format_rational(seg.end),
                      "rates": [[format_rational(r) for r in row] for row in seg.rates]}
                     for seg in trace.segments],
    }
    if decimals:
        doc["decimal_approx"] = {
            "note": "approximate rendering; exact values are the rational strings",
            "depletion_events": [{"time": decimal_str(t), "item": j + 1}
                                 for t, j in trace.depletion_events],
            "shares": [[decimal_str(g) for g in row] for row in trace.shares],
        }
    return doc


def fraction_payoffs(shares, valuations):
    # the definition, one Fraction product at a time
    return tuple(sum((g * v for g, v in zip(row, val.values)), F(0))
                 for row, val in zip(shares, valuations))


class TestExpectedPayoffs:
    """``expected_payoffs`` folds one common multiple of every share
    denominator; each payoff must still be the plain ``Fraction`` sum."""

    def test_fuzz_corpus_under_every_policy_and_mechanism(self):
        rng = rng_for("engine-expected-payoffs")
        for _ in range(60):
            n, m, instance, profile, _ = random_run_case(rng)
            for mechanism in ("cps", "ps"):
                for name in ("lowest-index", "uniform", "fixed"):
                    trace = run(n, m, profile, _random_policy(rng, name, m), mechanism)
                    assert expected_payoffs(trace, instance.valuations) == fraction_payoffs(
                        trace.shares, instance.valuations)

    def test_denominators_that_divide_no_other(self):
        # folded largest first, 10 and then 4 divide no multiple so far, so
        # both take the lcm branch and rescale the factors found before them
        shares = ((F(1, 6), F(1, 10), F(1, 15)), (F(1, 4), F(0), F(2, 3)))
        trace = Trace(2, 3, (), (), shares, F(3, 2))
        valuations = [valuation_of(["1/2", "1/3", "1/6"]), valuation_of(["1/5", "3/5", "1/5"])]
        payoffs = expected_payoffs(trace, valuations)
        assert payoffs == fraction_payoffs(shares, valuations)
        assert payoffs == (F(1, 12) + F(1, 30) + F(1, 90), F(1, 20) + F(2, 15))

    def test_an_all_zero_row_and_a_valuation_zero_on_every_share(self):
        shares = ((F(0), F(0), F(0)), (F(1, 3), F(2, 7), F(0)), (F(2, 3), F(5, 7), F(1)))
        trace = Trace(3, 3, (), (), shares, F(1))
        valuations = [valuation_of(["1/3", "1/3", "1/3"]), valuation_of(["0", "0", "1"]),
                      valuation_of(["1/2", "1/4", "1/4"])]
        payoffs = expected_payoffs(trace, valuations)
        assert payoffs == fraction_payoffs(shares, valuations)
        assert payoffs[:2] == (F(0), F(0))

    def test_returns_a_tuple(self, example1):
        trace = run(3, 3, example1.truthful_profile())
        assert type(expected_payoffs(trace, example1.valuations)) is tuple

    def test_a_short_valuation_is_rejected(self, example1):
        trace = run(3, 3, example1.truthful_profile())
        valuations = list(example1.valuations[:2]) + [valuation_of(["1/2", "1/2"])]
        with pytest.raises(ValueError, match="valuation length does not match trace"):
            expected_payoffs(trace, valuations)


class TestConservation:
    def test_fuzz_corpus(self):
        # also checks the integer dot product of expected_payoffs
        rng = rng_for("engine-conservation")
        for _ in range(150):
            n, m, instance, profile, policy = random_run_case(rng)
            trace = run(n, m, profile, policy)
            assert all(sum(col, F(0)) == 1 for col in zip(*trace.shares))
            assert all(sum(row, F(0)) == F(m, n) for row in trace.shares)
            assert trace.depletion_events[-1][0] == F(m, n)
            assert expected_payoffs(trace, instance.valuations) == fraction_payoffs(
                trace.shares, instance.valuations)

    def test_fuzz_against_definition_oracle(self):
        rng = rng_for("engine-oracle")
        for _ in range(40):
            n, m, _, profile, policy = random_run_case(rng, max_n=6, max_m=6)
            trace = run(n, m, profile, policy)
            assert_valid_trace(n, m, profile, policy, trace)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_conservation_property(self, data):
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 4))
        profile = []
        for i in range(n):
            weights = data.draw(st.lists(
                st.integers(0, 9), min_size=m, max_size=m).filter(lambda w: sum(w) > 0))
            total = sum(weights)
            profile.append(Proportional(
                valuation_of([F(w, total) for w in weights])))
        trace = run(n, m, profile)
        assert all(sum(col, F(0)) == 1 for col in zip(*trace.shares))
        assert all(sum(row, F(0)) == F(m, n) for row in trace.shares)


class TestStructuralInvariants:
    def test_sorted_times_dominate_j_over_n(self):
        rng = rng_for("engine-timebound")
        for _ in range(100):
            n, m, _, profile, policy = random_run_case(rng)
            trace = run(n, m, profile, policy)
            times = sorted(t for t, _ in trace.depletion_events)
            assert all(t >= F(j + 1, n) for j, t in enumerate(times))

    def test_remaining_set_monotone(self):
        rng = rng_for("engine-monotone")
        for _ in range(40):
            n, m, _, profile, policy = random_run_case(rng, max_n=6, max_m=6)
            trace = run(n, m, profile, policy)
            grid = sorted({t for t, _ in trace.depletion_events} | {F(0)})
            for earlier, later in zip(grid, grid[1:]):
                assert trace.remaining_at(later) <= trace.remaining_at(earlier)

    def test_item_total_rate_nondecreasing_for_proportional_profiles(self):
        rng = rng_for("engine-rate-monotone")
        for _ in range(60):
            n = rng.randint(1, 6)
            m = rng.randint(1, 6)
            profile = [Proportional(random_valuation(rng, m)) for _ in range(n)]
            policy = LOWEST_INDEX_FIRST if rng.random() < 0.5 else UNIFORM_OVER_REMAINING
            trace = run(n, m, profile, policy)
            times = trace.consumption_times()
            for j in range(m):
                previous = None
                for seg in trace.segments:
                    if seg.end > times[j]:
                        break
                    total = sum((seg.rates[i][j] for i in range(n)), F(0))
                    assert previous is None or total >= previous
                    previous = total

    def test_zero_total_rate_items_persist(self):
        # nobody values item 3 until the valued items are gone
        profile = [
            Proportional(valuation_of(["1/2", "1/2", "0"])),
            Proportional(valuation_of(["1/2", "1/2", "0"])),
        ]
        trace = run(2, 3, profile)
        assert trace.consumption_times() == (1, 1, F(3, 2))

    def test_ordinal_profile_reproduces_favorite_first_eating(self):
        rng = rng_for("engine-ps")
        for _ in range(30):
            n = rng.randint(1, 6)
            m = rng.randint(1, 6)
            reports = [random_valuation(rng, m) for _ in range(n)]
            profile = [as_ordinal(Proportional(v), m) for v in reports]
            trace = run(n, m, profile)
            times = trace.consumption_times()
            for seg in trace.segments:
                remaining = [j for j in range(m) if times[j] > seg.start]
                for i in range(n):
                    favorite = max(remaining, key=lambda j: (reports[i][j], -j))
                    expected = [F(1) if j == favorite else F(0) for j in range(m)]
                    assert list(seg.rates[i]) == expected


def _slot(n, m, profile, policy, agent):
    """Agent's slot ``(weights, order)`` in the kernel arguments of a profile."""
    _, _, weights, orders, _ = _kernel_args(n, m, profile, policy)
    return weights[agent], orders[agent]


def _completion(order, policy, m):
    """The order followed by the items it lacks in the zero policy's order."""
    return order + tuple(j for j in policy.order or range(m) if j not in order)


def _random_policy(rng, name, m):
    return {"uniform": UNIFORM_OVER_REMAINING, "lowest-index": LOWEST_INDEX_FIRST,
            "fixed": fixed_order_policy(rng.sample(range(m), m))}[name]


class TestEquivalentStrategies:
    """``_kernel_args`` writes each strategy as the shortest form that eats
    the same, and a sweep keys each candidate by that slot and runs each slot
    once, so two strategies with one slot must give the same whole trace,
    segments included, against any other agents."""

    @staticmethod
    def _assert_same_run(n, m, profile, agent, first, second, policy):
        traces, slots = [], []
        for strat in (first, second):
            deviated = profile[:agent] + [strat] + profile[agent + 1:]
            traces.append(run(n, m, deviated, policy))
            slots.append(_slot(n, m, deviated, policy, agent))
        assert traces[0] == traces[1]
        assert slots[0] == slots[1]

    @pytest.mark.parametrize("policy_name", ["lowest-index", "fixed"])
    def test_prefix_runs_as_its_completion(self, policy_name):
        # an order that runs out falls to the zero policy, which eats the
        # first remaining item of zero_order: the completion's next item
        rng = rng_for(f"engine-prefix-completion:{policy_name}")
        for _ in range(150):
            n, m, _, profile, _ = random_run_case(rng, max_n=6, max_m=6)
            policy = _random_policy(rng, policy_name, m)
            prefix = tuple(rng.sample(range(m), rng.randint(0, m)))
            self._assert_same_run(n, m, profile, rng.randrange(n), Lexicographic(prefix),
                                  Lexicographic(_completion(prefix, policy, m)), policy)

    def test_uniform_policy_runs_an_order_of_m_minus_1_items_as_its_completion(self):
        # once the m - 1 items are gone the uniform policy spreads over the
        # one item left, at rate 1, as the completion eats it
        rng = rng_for("engine-uniform-completion")
        for _ in range(150):
            n, m, _, profile, _ = random_run_case(rng, max_n=6, max_m=6)
            order = tuple(rng.sample(range(m), m))
            self._assert_same_run(n, m, profile, rng.randrange(n), Lexicographic(order[:-1]),
                                  Lexicographic(order), UNIFORM_OVER_REMAINING)

    @pytest.mark.parametrize("policy_name", ["uniform", "lowest-index", "fixed"])
    def test_single_minded_runs_as_the_one_item_order(self, policy_name):
        rng = rng_for(f"engine-single-minded-order:{policy_name}")
        for _ in range(150):
            n, m, _, profile, _ = random_run_case(rng, max_n=6, max_m=6)
            policy = _random_policy(rng, policy_name, m)
            j = rng.randrange(m)
            self._assert_same_run(n, m, profile, rng.randrange(n), single_minded(j, m),
                                  Lexicographic((j,)), policy)

    def test_uniform_policy_keeps_a_prefix_apart_from_its_completion(self):
        # under the uniform policy a spent order spreads over every remaining
        # item: a lone agent with the prefix (2) eats items 1 and 3 together
        # from t = 1, with the completion (2, 1, 3) one after the other
        prefix, completed = [Lexicographic((1,))], [Lexicographic((1, 0, 2))]
        times = [run(1, 3, p, UNIFORM_OVER_REMAINING).consumption_times()
                 for p in (prefix, completed)]
        assert times == [(F(3), F(1), F(3)), (F(2), F(1), F(3))]
        slots = [_slot(1, 3, p, UNIFORM_OVER_REMAINING, 0) for p in (prefix, completed)]
        assert slots == [((), (1,)), ((), (1, 0))]

    @pytest.mark.parametrize("policy_name", ["uniform", "lowest-index", "fixed"])
    def test_orders_are_written_in_their_shortest_form(self, policy_name):
        rng = rng_for(f"engine-shortest-slots:{policy_name}")
        for _ in range(100):
            m = rng.randint(1, 7)
            policy = _random_policy(rng, policy_name, m)
            for k in range(m + 1):
                order = tuple(rng.sample(range(m), k))
                completion = _completion(order, policy, m)
                (_, written), full = (_slot(1, m, [Lexicographic(o)], policy, 0)
                                      for o in (order, completion))
                if policy_name == "uniform":
                    # only a full order has a shorter form that eats the same
                    assert written == order[:m - 1]
                    assert (full == ((), written)) == (k >= m - 1)
                    continue
                assert full == ((), written)
                assert completion[:len(written)] == written
                assert all(_completion(completion[:i], policy, m) != completion
                           for i in range(len(written)))


class TestQuarterRuleSurvey:
    def test_report_only_survey_of_quarter_rule(self, capsys):
        """Single-minded switches on random (non-equilibrium) profiles.

        The 75%-drop cap on consumption times is only claimed at equilibria;
        off equilibrium we count violations and report them instead of
        asserting.
        """
        rng = rng_for("quarter-rule")
        checked = violated = 0
        for _ in range(120):
            n, m, _, profile, policy = random_run_case(rng, max_n=6, max_m=6)
            if n < 2:
                continue
            base = run(n, m, profile, policy).consumption_times()
            agent, item = rng.randrange(n), rng.randrange(m)
            if base[item] > 1:
                continue
            deviated = list(profile)
            deviated[agent] = single_minded(item, m)
            devtimes = run(n, m, deviated, policy).consumption_times()
            checked += 1
            if devtimes[item] < base[item] / 4:
                violated += 1
        print(f"quarter-rule survey: {violated} violations in {checked} off-equilibrium runs")
        assert checked > 50


class TestSampling:
    def test_degenerate_marginals(self):
        trace = run(2, 2, [single_minded(0, 2), single_minded(1, 2)])
        for seed in range(20):
            assert sample_allocation(trace, seed) == (0, 1)

    def test_column_concentrated_on_first_agent(self):
        trace = run(3, 3, [Lexicographic((0, 1, 2)),
                           Lexicographic((1, 2, 0)),
                           Lexicographic((2, 0, 1))])
        assert all(sample_allocation(trace, s) == (0, 1, 2) for s in range(10))

    def test_example1_empirical_frequency(self, example1):
        trace = run(3, 3, example1.truthful_profile())
        hits = sum(1 for seed in range(100_000)
                   if sample_allocation(trace, seed)[0] == 0)
        p = float(EXAMPLE1_SHARES[0][0])
        se = (p * (1 - p) / 100_000) ** 0.5
        assert abs(hits / 100_000 - p) <= 3 * se

    def test_deterministic_given_seed(self, example1):
        trace = run(3, 3, example1.truthful_profile())
        assert sample_allocation(trace, 1234) == sample_allocation(trace, 1234)


class TestTraceExport:
    def test_exact_strings_and_flagged_decimals(self, example1):
        trace = run(3, 3, example1.truthful_profile())
        doc = trace_to_json(trace, decimals=True)
        assert doc["depletion_events"][1] == {"time": "460/501", "item": 1}
        assert doc["shares"][0][0] == "514/835"
        assert "approximate" in doc["decimal_approx"]["note"]

    def test_payoff_linearity_matches_welfare(self, example1):
        trace = run(3, 3, example1.truthful_profile())
        payoffs = expected_payoffs(trace, example1.valuations)
        assert welfare(trace, example1.valuations) == sum(payoffs, F(0))

    def test_payoffs_on_a_large_cps_trace(self):
        # share denominators of about 1,300 bits
        inst = random_instance(20, 20, 20, seed=1).instance
        trace = run(20, 20, inst.truthful_profile())
        assert max(g.denominator.bit_length() for row in trace.shares for g in row) > 1200
        payoffs = expected_payoffs(trace, inst.valuations)
        assert payoffs == fraction_payoffs(trace.shares, inst.valuations)

    @pytest.mark.parametrize("mechanism,policy", [
        ("cps", LOWEST_INDEX_FIRST), ("ps", LOWEST_INDEX_FIRST), ("cps", UNIFORM_OVER_REMAINING),
        ("ps", UNIFORM_OVER_REMAINING), ("cps", REVERSED_20), ("ps", REVERSED_20)],
        ids=["cps", "ps", "cps-uniform", "ps-uniform", "cps-fixed", "ps-fixed"])
    def test_export_bytes_match_a_cell_by_cell_rendering(self, mechanism, policy):
        inst = random_instance(20, 20, 20, seed=4).instance
        profile = inst.truthful_profile()
        if policy is not LOWEST_INDEX_FIRST:
            # single-minded reports run dry early, so the zero policy fires
            profile[:5] = [single_minded(j % 3, 20) for j in range(5)]
        if mechanism == "ps":
            profile = ps_profile(profile, 20)
        trace = run(20, 20, profile, policy)
        assert len(trace.segments) > 10
        for decimals in (False, True):
            doc = trace_to_json(trace, decimals=decimals)
            expected = plain_trace_json(trace, decimals)
            assert json.dumps(doc) == json.dumps(expected)
            # each segment gets its own rate lists, even where rows repeat
            rows = [row for seg in doc["segments"] for row in seg["rates"]]
            assert len({id(row) for row in rows}) == len(rows)

    def test_a_reused_row_and_equal_values_render_as_each_cell(self):
        # one row object in both segments, and equal but distinct Fractions
        row = (F(1, 2), F(1, 2))
        segments = (Segment(F(0), F(1, 2), (row, (F(1, 2), F(1, 2)))),
                    Segment(F(1, 2), F(1), (row, (F(0), F(1)))))
        shares = ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
        trace = Trace(2, 2, segments, ((F(1, 2), 0), (F(1), 1)), shares, F(1))
        for decimals in (False, True):
            doc = trace_to_json(trace, decimals=decimals)
            assert doc == plain_trace_json(trace, decimals)
            first, second = (seg["rates"][0] for seg in doc["segments"])
            assert first == second == ["1/2", "1/2"] and first is not second
