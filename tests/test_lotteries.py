import math
import os
import random
import signal
import threading
from fractions import Fraction
from itertools import permutations, product

import pytest

from eatsim import lotteries, run, valuation_of, welfare
from eatsim.equilibrium import run_profile
from eatsim.instances import GeneratorSpec, generate, random_instance
from eatsim.lotteries import (
    MIN_BLOCK,
    ExactEnumerationRefused,
    MechanismResult,
    _bounds,
    _run_blocks,
    _stderr,
    opt,
    random_priority,
    repeated_random_priority,
)
from eatsim.model import Instance, Lexicographic, Proportional
from eatsim.strategies import single_minded

from helpers import random_profile, rng_for

F = Fraction


def seeded_orders(n, seed, samples):
    for k in range(samples):
        order = list(range(n))
        random.Random(f"eatsim-rp:{seed}:{k}").shuffle(order)
        yield order


def plain_rankings(m, reports):
    rankings = []
    for report in reports:
        if isinstance(report, Lexicographic):
            rest = [j for j in range(m) if j not in report.order]
            rankings.append(list(report.order) + rest)
        else:
            rankings.append(sorted(range(m), key=lambda j: (-report.report[j], j)))
    return rankings


def play_rp(instance, reports, orders):
    """(welfare per order, per-agent totals): Random Priority played turn by
    turn to the end of every order, one Fraction at a time."""
    n, m = instance.n, instance.m
    rankings = plain_rankings(m, reports)
    per_agent, welfares = [F(0)] * n, []
    for order in orders:
        available = [True] * m
        welfare = F(0)
        for pos, agent in enumerate(order):
            count = m // n + (m % n if pos == n - 1 else 0)
            # the documented rule: the first `count` items still available
            for j in [j for j in rankings[agent] if available[j]][:count]:
                available[j] = False
                per_agent[agent] += instance.valuations[agent][j]
                welfare += instance.valuations[agent][j]
        welfares.append(welfare)
    return welfares, per_agent


def rp_reference(instance, reports, orders):
    """(mean welfare, mean per-agent payoffs, stderr) of Random Priority over
    the given orders, the stderr from the Fraction variance."""
    welfares, per_agent = play_rp(instance, reports, orders)
    k = len(welfares)
    mean = sum(welfares, F(0)) / k
    if k < 2:
        return mean, tuple(p / k for p in per_agent), float("inf")
    variance = sum(((w - mean) ** 2 for w in welfares), F(0)) / (k * (k - 1))
    return mean, tuple(p / k for p in per_agent), math.sqrt(variance)


def plain_summary(welfares, per_agent, scale):
    """(mean, per-agent means, stderr) with the welfares counted over ``scale``."""
    k = len(welfares)
    xs = [w * scale for w in welfares]
    assert all(x.denominator == 1 for x in xs)
    stderr = _stderr(sum(xs, F(0)).numerator, sum(x * x for x in xs).numerator, k, scale)
    return sum(welfares, F(0)) / k, tuple(p / k for p in per_agent), stderr


def plain_rp(instance, reports, orders):
    """Random Priority with the stderr over the welfares' least denominator."""
    welfares, per_agent = play_rp(instance, reports, orders)
    return plain_summary(welfares, per_agent, math.lcm(*(w.denominator for w in welfares)))


def plain_rrp(instance, reports, samples, seed):
    """Repeated Random Priority: a fresh generator per sample, all m draws."""
    n, m = instance.n, instance.m
    rankings = plain_rankings(m, reports)
    per_agent, welfares = [F(0)] * n, []
    for k in range(samples):
        draws = random.Random(f"eatsim-rrp:{seed}:{k}").choices(range(n), k=m)
        available = [True] * m
        welfare = F(0)
        for agent in draws:
            j = next(j for j in rankings[agent] if available[j])
            available[j] = False
            per_agent[agent] += instance.valuations[agent][j]
            welfare += instance.valuations[agent][j]
        welfares.append(welfare)
    scale = math.lcm(*(v.denominator for row in instance.valuations for v in row.values))
    return plain_summary(welfares, per_agent, scale)


def plain_opt(instance):
    assignment, total = [], F(0)
    for j in range(instance.m):
        column = [row[j] for row in instance.valuations]
        best = column.index(max(column))
        assignment.append(best)
        total += column[best]
    return total, tuple(assignment)


def sparse_instance(rng, n, m):
    """m items of which a random few carry value; the other columns are all zero."""
    valued = rng.sample(range(m), rng.randint(1, max(1, m // 3)))
    rows = []
    for _ in range(n):
        weights = [rng.randint(0, 3) if j in valued else 0 for j in range(m)]
        if not any(weights):
            weights[rng.choice(valued)] = 1
        rows.append(valuation_of(F(w, sum(weights)) for w in weights))
    return Instance(n, m, tuple(rows))


def repeated_agents_case(rng, n, m):
    """(instance, reports) in which n agents repeat k < n (truth, report)
    pairs, so some class of the exact walk has several members."""
    k = rng.randint(1, max(1, n - 1))
    kinds = random_instance(k, m, 4, seed=rng.randrange(10 ** 6)).instance
    others = random_profile(rng, k, m)
    kind_reports = [rng.choice(pair) for pair in zip(kinds.truthful_profile(), others)]
    picks = [rng.randrange(k) for _ in range(n)]
    rows = tuple(kinds.valuations[c] for c in picks)
    return Instance(n, m, rows), [kind_reports[c] for c in picks]


def reference_cases():
    """(instance, reports) cases: sparse m >> n, rp-lb, m < n, lexicographic
    prefixes, and agents that repeat a few (truth, report) pairs."""
    rng = rng_for("lottery-reference")
    for trial in range(8):
        n = rng.randint(2, 5)
        inst = sparse_instance(rng, n, rng.randint(3 * n, 5 * n))
        yield pytest.param(inst, inst.truthful_profile(), id=f"sparse-{trial}")
        yield pytest.param(inst, random_profile(rng, n, inst.m), id=f"sparse-mixed-{trial}")
    for n in range(3, 7):
        gen = generate(GeneratorSpec("rp-lb", {"n": n}))
        yield pytest.param(gen.instance, list(gen.bad_profile), id=f"rp-lb-{n}")
        yield pytest.param(gen.instance, random_profile(rng, n, gen.instance.m),
                           id=f"rp-lb-{n}-mixed")
    for trial in range(6):
        n = rng.randint(3, 6)
        inst = random_instance(n, rng.randint(1, n - 1), 4, seed=900 + trial).instance
        yield pytest.param(inst, random_profile(rng, n, inst.m), id=f"m-below-n-{trial}")
    for trial in range(6):
        n = rng.randint(2, 5)
        m = rng.randint(n, 3 * n)
        inst = random_instance(n, m, 3, seed=950 + trial).instance
        prefixes = [Lexicographic(tuple(rng.sample(range(m), rng.randint(1, m))))
                    for _ in range(n)]
        yield pytest.param(inst, prefixes, id=f"prefixes-{trial}")
    rng = rng_for("lottery-reference-repeated")
    for trial in range(10):
        n = rng.randint(2, 6)
        yield pytest.param(*repeated_agents_case(rng, n, rng.randint(1, 2 * n)),
                           id=f"repeated-{trial}")


def large_exact_cases():
    """(instance, reports) cases at n = 7 and 8 for exact RP alone."""
    rng = rng_for("lottery-reference-large")
    for n, m, seed in ((7, 14, 0), (7, 17, 1), (8, 16, 2)):  # quota >= 2
        inst = random_instance(n, m, 20, seed=seed).instance
        yield pytest.param(inst, inst.truthful_profile(), id=f"random-{n}x{m}")
    inst = random_instance(7, 5, 6, seed=3).instance
    yield pytest.param(inst, random_profile(rng, 7, 5), id="m-below-n-7x5")
    inst = random_instance(7, 10, 3, seed=4).instance
    prefixes = [Lexicographic(tuple(rng.sample(range(10), rng.randint(1, 10))))
                for _ in range(7)]
    yield pytest.param(inst, prefixes, id="prefixes-7x10")
    gen = generate(GeneratorSpec("rp-lb", {"n": 7}))
    yield pytest.param(gen.instance, list(gen.bad_profile), id="rp-lb-7")


def plain_exact_rp(instance, reports):
    """(welfare, per-agent payoffs) of Random Priority averaged over all n!
    orders, each played to the end; picks are counted, then valued once."""
    n, m = instance.n, instance.m
    rankings = plain_rankings(m, reports)
    picks = [[0] * m for _ in range(n)]
    for order in permutations(range(n)):
        available = [True] * m
        for pos, agent in enumerate(order):
            count = m // n + (m % n if pos == n - 1 else 0)
            for j in [j for j in rankings[agent] if available[j]][:count]:
                available[j] = False
                picks[agent][j] += 1
    orders = math.factorial(n)
    per_agent = tuple(sum((c * v for c, v in zip(picks[i], instance.valuations[i].values)),
                          F(0)) / orders for i in range(n))
    return sum(per_agent, F(0)), per_agent


def brute_force_rrp(instance, reports):
    """(welfare, per-agent payoffs) of Repeated Random Priority averaged over
    all n^m draw sequences, each played to the end; picks are counted, then
    valued once."""
    n, m = instance.n, instance.m
    rankings = plain_rankings(m, reports)
    picks = [[0] * m for _ in range(n)]
    for draws in product(range(n), repeat=m):
        available = [True] * m
        for agent in draws:
            j = next(j for j in rankings[agent] if available[j])
            available[j] = False
            picks[agent][j] += 1
    sequences = n ** m
    per_agent = tuple(sum((c * v for c, v in zip(picks[i], instance.valuations[i].values)),
                          F(0)) / sequences for i in range(n))
    return sum(per_agent, F(0)), per_agent


def counted_turns(monkeypatch):
    """A list that gets one entry per pick routine call from now on: one per
    turn of an exact walk."""
    grab = lotteries._grab
    calls = []

    def counted(ranking, available, count):
        calls.append(1)
        return grab(ranking, available, count)

    monkeypatch.setattr(lotteries, "_grab", counted)
    return calls


def assert_within_four_stderr(exact, sampled):
    assert exact.method == "exact-enumeration" and sampled.samples == 4096
    if sampled.stderr == 0:  # every draw gave one welfare
        assert sampled.expected_welfare == exact.expected_welfare
    else:
        assert abs(float(exact.expected_welfare - sampled.expected_welfare)) \
            <= 4 * sampled.stderr


class TestAgainstPlainReference:
    """Early stops and merged order prefixes change no result, stderr repr included."""

    @pytest.mark.parametrize("inst,reports", list(reference_cases()))
    def test_matches_plain_play(self, inst, reports):
        n = inst.n
        assert opt(inst) == plain_opt(inst)
        exact = random_priority(inst, reports)
        welfare, per_agent, _ = plain_rp(inst, reports, permutations(range(n)))
        assert (exact.expected_welfare, exact.per_agent) == (welfare, per_agent)
        sampled = random_priority(inst, reports, samples=120, seed=3)
        welfare, per_agent, stderr = plain_rp(inst, reports, seeded_orders(n, 3, 120))
        assert (sampled.expected_welfare, sampled.per_agent) == (welfare, per_agent)
        assert repr(sampled.stderr) == repr(stderr)
        rrp = repeated_random_priority(inst, reports, 150, seed=4)
        welfare, per_agent, stderr = plain_rrp(inst, reports, 150, 4)
        assert (rrp.expected_welfare, rrp.per_agent) == (welfare, per_agent)
        assert repr(rrp.stderr) == repr(stderr)

    @pytest.mark.parametrize("inst,reports", list(large_exact_cases()))
    def test_exact_matches_plain_play_at_seven_and_eight_agents(self, inst, reports):
        exact = random_priority(inst, reports)
        assert (exact.expected_welfare, exact.per_agent) == plain_exact_rp(inst, reports)

    def test_one_turn_per_state_and_agent(self, monkeypatch):
        inst = generate(GeneratorSpec("random", {"n": 7, "m": 14}, 0)).instance
        reports = inst.truthful_profile()
        calls = counted_turns(monkeypatch)
        random_priority(inst, reports)
        # the (agents placed, items taken, next agent) turns of plain play that
        # start with something of value left, or at the first position
        rankings = plain_rankings(inst.m, reports)
        valued = {j for j in range(inst.m) if any(row[j] for row in inst.valuations)}
        turns = set()
        for order in permutations(range(inst.n)):
            taken = set()
            for pos, agent in enumerate(order):
                if pos and valued <= taken:
                    break
                turns.add((frozenset(order[:pos]), frozenset(taken), agent))
                count = inst.m // inst.n + (inst.m % inst.n if pos == inst.n - 1 else 0)
                taken.update([j for j in rankings[agent] if j not in taken][:count])
        assert len(calls) == len(turns) == 1037


class TestExactRepeatedRandomPriority:
    """Exact RRP walks the taken-item masks that draw sequences reach."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_brute_force_over_every_draw_sequence(self, n, m):
        rng = rng_for(f"rrp-brute-force-{n}-{m}")
        cases = [random_instance(n, m, 6, seed=seed).instance for seed in range(3)]
        cases.append(sparse_instance(rng, n, m))  # zero columns: early stops
        for inst in cases:
            for reports in (inst.truthful_profile(), random_profile(rng, n, m)):
                exact = repeated_random_priority(inst, reports)
                assert exact.method == "exact-enumeration"
                assert (exact.samples, exact.seed, exact.stderr) == (None, None, None)
                assert (exact.expected_welfare, exact.per_agent) == brute_force_rrp(inst, reports)
        for _ in range(3):
            inst, reports = repeated_agents_case(rng, n, m)
            exact = repeated_random_priority(inst, reports)
            assert (exact.expected_welfare, exact.per_agent) == brute_force_rrp(inst, reports)

    def test_one_turn_per_state_and_agent(self, monkeypatch):
        rng = rng_for("rrp-turns")
        inst = sparse_instance(rng, 4, 7)
        reports = random_profile(rng, 4, 7)
        calls = counted_turns(monkeypatch)
        repeated_random_priority(inst, reports)
        # the (items taken, next agent) turns of plain play that start with
        # something of value left, or at the first draw
        rankings = plain_rankings(inst.m, reports)
        valued = {j for j in range(inst.m) if any(row[j] for row in inst.valuations)}
        turns = set()
        for draws in product(range(inst.n), repeat=inst.m):
            taken = set()
            for k, agent in enumerate(draws):
                if k and valued <= taken:
                    break
                turns.add((frozenset(taken), agent))
                taken.add(next(j for j in rankings[agent] if j not in taken))
        assert len(calls) == len(turns) < inst.n ** inst.m

    @pytest.mark.parametrize("params, welfare", [
        ({"n": 4, "eps": "1/100"}, F(62, 25)), ({"n": 7}, F(55, 14)),
    ], ids=["rp-lb-4", "rp-lb-7"])
    def test_pinned_values(self, params, welfare):
        # each value also came from a backward recursion over taken-item sets
        gen = generate(GeneratorSpec("rp-lb", params))
        result = repeated_random_priority(gen.instance, list(gen.bad_profile))
        assert result.expected_welfare == welfare

    @pytest.mark.parametrize("generator, params", [
        ("rp-lb", {"n": 7}), ("log-m-lb", {"k": 4, "q": 3}), ("random", {"n": 7, "m": 14}),
    ], ids=["rp-lb-7", "log-m-lb-4-3", "random-7x14"])
    def test_tracks_sampling(self, generator, params):
        gen = generate(GeneratorSpec(generator, params, 0))
        reports = list(gen.bad_profile or gen.instance.truthful_profile())
        exact = repeated_random_priority(gen.instance, reports)
        assert sum(exact.per_agent, F(0)) == exact.expected_welfare
        assert_within_four_stderr(
            exact, repeated_random_priority(gen.instance, reports, 4096, seed=0))


def plain_classes(instance, reports):
    """(rankings, each agent's class), a class named by its first agent
    with an equal ranking and value row."""
    rankings = plain_rankings(instance.m, reports)
    keys = [(rankings[i], instance.valuations[i].values) for i in range(instance.n)]
    return rankings, [keys.index(key) for key in keys]


class TestAgentClasses:
    """Agents with equal rankings and value rows are one class of the exact
    walk; the walk draws classes and splits each class's total evenly. The
    reference cases and the RRP brute force also cover repeated agents."""

    @pytest.mark.parametrize("call, reference", [
        (random_priority, plain_exact_rp), (repeated_random_priority, brute_force_rrp),
    ], ids=["rp", "rrp"])
    @pytest.mark.parametrize("rows, reports", [
        # the same report over different truths
        ((["1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2"], ["1/3", "1/3", "1/3"]),
         [single_minded(0, 3), single_minded(0, 3), single_minded(1, 3)]),
        # the same truth under different reports
        ((["1/2", "1/4", "1/4"], ["1/2", "1/4", "1/4"], ["1/3", "1/3", "1/3"]),
         [single_minded(0, 3), single_minded(2, 3), single_minded(0, 3)]),
    ], ids=["same-report", "same-truth"])
    def test_agents_that_differ_in_truth_or_report_stay_apart(self, call, reference,
                                                             rows, reports):
        inst = Instance(3, 3, tuple(valuation_of(row) for row in rows))
        exact = call(inst, reports)
        assert (exact.expected_welfare, exact.per_agent) == reference(inst, reports)
        assert exact.per_agent[0] != exact.per_agent[1]

    def test_one_rp_turn_per_class_count_state_and_class(self, monkeypatch):
        gen = generate(GeneratorSpec("sqrt-n-lb", {"n": 9}))
        inst, reports = gen.instance, list(gen.bad_profile)
        calls = counted_turns(monkeypatch)
        random_priority(inst, reports)
        # the (classes placed, items taken, next class) turns of plain play
        # that start with something of value left, or at the first position;
        rankings, kind = plain_classes(inst, reports)
        valued = {j for j in range(inst.m) if any(row[j] for row in inst.valuations)}
        turns = set()
        for order in set(permutations(kind)):
            taken = set()
            for pos, c in enumerate(order):
                if pos and valued <= taken:
                    break
                turns.add((tuple(sorted(order[:pos])), frozenset(taken), c))
                count = inst.m // inst.n + (inst.m % inst.n if pos == inst.n - 1 else 0)
                taken.update([j for j in rankings[c] if j not in taken][:count])
        assert len(set(kind)) == 6
        assert len(calls) == len(turns) == 756

    def test_one_rrp_turn_per_state_and_class(self, monkeypatch):
        rng = rng_for("rrp-class-turns")
        inst, reports = repeated_agents_case(rng, 4, 6)
        calls = counted_turns(monkeypatch)
        repeated_random_priority(inst, reports)
        # the (items taken, next class) turns of plain play that start with
        # something of value left, or at the first draw
        rankings, kind = plain_classes(inst, reports)
        valued = {j for j in range(inst.m) if any(row[j] for row in inst.valuations)}
        turns = set()
        for draws in product(kind, repeat=inst.m):
            taken = set()
            for k, c in enumerate(draws):
                if k and valued <= taken:
                    break
                turns.add((frozenset(taken), c))
                taken.add(next(j for j in rankings[c] if j not in taken))
        assert len(set(kind)) < inst.n
        assert len(calls) == len(turns)

    def test_sqrt_n_lb_16_pinned(self, monkeypatch):
        gen = generate(GeneratorSpec("sqrt-n-lb", {"n": 16}))
        calls = counted_turns(monkeypatch)
        result = random_priority(gen.instance, list(gen.bad_profile))
        assert result.expected_welfare == F(118153, 83200)
        blocks = [(F(1091, 7280), F(145653, 2329600)), (F(1191, 7280), F(54623, 873600)),
                  (F(1269, 7280), F(874007, 13977600)), (F(265, 1456), F(58269, 931840))]
        assert result.per_agent == tuple(p for lone, rest in blocks for p in (lone, *[rest] * 3))
        assert len(calls) == 20480  # one agent at a time played 524,288 turns


class TestOpt:
    def test_example1_column_maxima(self):
        inst = generate(GeneratorSpec("example1")).instance
        value, assignment = opt(inst)
        assert value == F(3, 5) + F(7, 10) + F(3, 10) == F(8, 5)
        assert assignment == (0, 1, 2)

    def test_example2(self):
        inst = generate(GeneratorSpec("example2")).instance
        assert opt(inst)[0] == F(4, 3)

    def test_identical_valuations_opt_is_one(self):
        row = valuation_of(["1/4"] * 4)
        inst = Instance(3, 4, (row, row, row))
        value, assignment = opt(inst)
        assert value == 1
        assert assignment == (0, 0, 0, 0)  # ties to the lowest agent index

    def test_dominates_every_mechanism_under_truth(self):
        rng = rng_for("opt-dominates")
        for trial in range(25):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            inst = random_instance(n, m, 10, seed=trial).instance
            truthful = inst.truthful_profile()
            best = opt(inst)[0]
            assert welfare(run(n, m, truthful), inst.valuations) <= best
            assert random_priority(inst, truthful).expected_welfare <= best
            assert repeated_random_priority(inst, truthful, 200, seed=trial).expected_welfare <= best


class TestMechanismResult:
    def test_exact_results_reject_error_bars(self):
        with pytest.raises(ValueError):
            MechanismResult("rp", F(1), (F(1),), "exact-enumeration", samples=10)

    def test_monte_carlo_requires_seed(self):
        with pytest.raises(ValueError):
            MechanismResult("rp", F(1), (F(1),), "monte-carlo(...)", samples=10)


class TestRandomPriority:
    def test_monte_carlo_mode_requires_a_seed(self):
        inst = generate(GeneratorSpec("rp-lb", {"n": 3, "eps": "1/100"})).instance
        with pytest.raises(ValueError, match="^Monte Carlo mode requires a seed$"):
            random_priority(inst, inst.truthful_profile(), samples=10)

    def test_single_agent_takes_everything(self):
        inst = Instance(1, 3, (valuation_of(["1/2", "1/4", "1/4"]),))
        result = random_priority(inst, inst.truthful_profile())
        assert result.expected_welfare == 1
        assert result.method == "exact-enumeration"

    def test_opposed_single_minded_pair(self):
        inst = Instance(2, 2, (valuation_of(["3/4", "1/4"]), valuation_of(["1/4", "3/4"])))
        reports = [single_minded(0, 2), single_minded(1, 2)]
        result = random_priority(inst, reports)
        assert result.expected_welfare == F(3, 4) + F(3, 4)
        assert result.per_agent == (F(3, 4), F(3, 4))

    def test_quota_leftover_goes_to_last_agent(self):
        # m = 3, n = 2: quota 1 each, the second agent in the order takes 2
        inst = Instance(2, 3, (valuation_of(["1/3", "1/3", "1/3"]),) * 2)
        result = random_priority(inst, inst.truthful_profile())
        assert result.expected_welfare == F(1, 3) + F(2, 3)

    def test_fewer_items_than_agents_go_to_the_last_agent(self):
        # m < n: quota 0, so the order's final agent takes all m items
        n, m = 5, 3
        inst = Instance(n, m, (valuation_of(["1/3"] * m),) * n)
        reports = inst.truthful_profile()
        for seed in range(20):
            last = next(seeded_orders(n, seed, 1))[-1]
            one = random_priority(inst, reports, samples=1, seed=seed)
            assert one.per_agent == tuple(F(i == last) for i in range(n))
        lasts = [order[-1] for order in seeded_orders(n, 7, 300)]
        many = random_priority(inst, reports, samples=300, seed=7)
        assert many.per_agent == tuple(F(lasts.count(i), 300) for i in range(n))

    def test_fewer_items_than_agents_exact_enumeration(self):
        # each agent is last in 1/n of the orders and then takes every item,
        # whatever it reports: the same result as when the first agent did
        rng = rng_for("rp-quota-zero")
        for trial in range(10):
            n = rng.randint(2, 5)
            m = rng.randint(1, n - 1)
            inst = random_instance(n, m, 10, seed=700 + trial).instance
            expected = tuple(sum(v.values, F(0)) / n for v in inst.valuations)
            exact = random_priority(inst, random_profile(rng, n, m))
            assert exact.per_agent == expected
            assert exact.expected_welfare == sum(expected, F(0))

    @pytest.mark.parametrize("inst, reports", [
        *(pytest.param(inst, inst.truthful_profile(), id=f"random-{n}x{n}")
          for n in range(9, 13) for inst in [random_instance(n, n, 10, seed=n).instance]),
        *(pytest.param(gen.instance, list(gen.bad_profile), id=f"rp-lb-{n}")
          for n in range(9, 13) for gen in [generate(GeneratorSpec("rp-lb", {"n": n}))]),
    ])
    def test_exact_past_eight_agents_tracks_sampling(self, inst, reports):
        exact = random_priority(inst, reports)
        assert sum(exact.per_agent, F(0)) == exact.expected_welfare
        assert_within_four_stderr(exact, random_priority(inst, reports, 4096, seed=0))

    def test_exact_ignores_a_seed(self):
        inst = random_instance(9, 9, 10, seed=1).instance
        reports = inst.truthful_profile()
        assert random_priority(inst, reports, seed=0) == random_priority(inst, reports)

    def test_collapse_instance_exact_value(self):
        gen = generate(GeneratorSpec("rp-lb", {"n": 4, "eps": "1/100"}))
        result = random_priority(gen.instance, list(gen.bad_profile))
        # whoever is drawn first takes all four valued items for exactly 1
        assert result.expected_welfare == 1
        assert opt(gen.instance)[0] == F(99, 25)

    def test_monte_carlo_tracks_exact(self):
        # mixed profiles with lexicographic prefixes; both modes must also
        # match the Fraction reference over the same orders
        rng = rng_for("rp-mc")
        for trial in range(50):
            n, m = rng.randint(1, 5), rng.randint(1, 6)
            inst = random_instance(n, m, 10, seed=100 + trial).instance
            reports = random_profile(rng, n, m)
            exact = random_priority(inst, reports)
            mc = random_priority(inst, reports, samples=400, seed=trial)
            welfare, per_agent, _ = rp_reference(inst, reports, permutations(range(n)))
            assert (exact.expected_welfare, exact.per_agent) == (welfare, per_agent)
            welfare, per_agent, stderr = rp_reference(inst, reports, seeded_orders(n, trial, 400))
            assert (mc.expected_welfare, mc.per_agent) == (welfare, per_agent)
            assert mc.stderr == pytest.approx(stderr, rel=1e-12, abs=1e-300)
            if mc.stderr == 0:
                assert mc.expected_welfare == exact.expected_welfare
            else:
                assert abs(float(mc.expected_welfare - exact.expected_welfare)) <= 4 * mc.stderr

    def test_monte_carlo_reproducible(self):
        inst = random_instance(4, 4, 10, seed=3).instance
        a = random_priority(inst, inst.truthful_profile(), samples=50, seed=9)
        b = random_priority(inst, inst.truthful_profile(), samples=50, seed=9)
        assert a == b

    def test_per_agent_payoffs_sum_to_welfare(self):
        rng = rng_for("rp-per-agent")
        for trial in range(10):
            n, m = rng.randint(2, 4), rng.randint(2, 6)
            inst = random_instance(n, m, 10, seed=500 + trial).instance
            exact = random_priority(inst, inst.truthful_profile())
            assert sum(exact.per_agent, F(0)) == exact.expected_welfare
            sampled = repeated_random_priority(inst, inst.truthful_profile(),
                                               100, seed=trial)
            assert sum(sampled.per_agent, F(0)) == sampled.expected_welfare


class TestRepeatedRandomPriority:
    def test_single_agent(self):
        inst = Instance(1, 2, (valuation_of(["1/2", "1/2"]),))
        result = repeated_random_priority(inst, inst.truthful_profile(), 100, seed=0)
        assert result.expected_welfare == 1

    def test_single_item_closed_form(self):
        # one draw total: the item goes to a uniform agent
        inst = Instance(3, 1, (valuation_of(["1"]),) * 3)
        result = repeated_random_priority(inst, inst.truthful_profile(), 500, seed=1)
        assert result.expected_welfare == 1

    def test_single_item_world(self):
        # m = 1 forces every valuation to (1), so the uniform draw's welfare
        # is 1 regardless of who wins
        inst = Instance(2, 1, (valuation_of(["1"]), valuation_of(["1"])))
        result = repeated_random_priority(inst, [single_minded(0, 1)] * 2, 400, seed=5)
        assert result.expected_welfare == 1

    def test_reproducible_and_tagged(self):
        inst = random_instance(3, 5, 10, seed=8).instance
        a = repeated_random_priority(inst, inst.truthful_profile(), 64, seed=2)
        b = repeated_random_priority(inst, inst.truthful_profile(), 64, seed=2)
        assert a == b
        assert a.samples == 64 and a.seed == 2 and a.stderr is not None
        assert a.method == "monte-carlo(samples=64, seed=2)"

    def test_dyadic_instance_stays_below_proof_bound(self):
        gen = generate(GeneratorSpec("log-m-lb", {"k": 4, "q": 3}))
        result = repeated_random_priority(gen.instance, list(gen.bad_profile), 2000, seed=11)
        assert float(result.expected_welfare) <= 4 + 3 * result.stderr
        assert repeated_random_priority(gen.instance, list(gen.bad_profile)).expected_welfare <= 4


class TestMalformedProfiles:
    """RP and RRP check each report against m as the eating mechanisms do,
    with the same error and message."""

    @pytest.mark.parametrize("entry, message", [
        (Proportional(valuation_of(["1/2", "1/2"])), "agent 2: report length 2 != m = 3"),
        (Lexicographic((5,)), "agent 2: order index out of range for m = 3"),
        ("x", "agent 2: not a strategy: 'x'"),
        (None, "profile has 2 strategies, expected 3"),
    ], ids=["short-report", "order-past-m", "not-a-strategy", "missing-report"])
    @pytest.mark.parametrize("call", [
        lambda inst, profile: random_priority(inst, profile),
        lambda inst, profile: random_priority(inst, profile, samples=20, seed=0),
        lambda inst, profile: repeated_random_priority(inst, profile, 20, seed=0),
    ], ids=["rp-exact", "rp-sampled", "rrp"])
    def test_same_error_as_the_eating_mechanisms(self, call, entry, message):
        inst = generate(GeneratorSpec("example1")).instance
        profile = inst.truthful_profile()
        profile[1:2] = [] if entry is None else [entry]  # None: agent 2 is missing
        for mechanism in ("cps", "ps"):
            with pytest.raises(ValueError) as exc:
                run_profile(3, 3, profile, mechanism)
            assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            call(inst, profile)
        assert type(exc.value) is ValueError and str(exc.value) == message


class TestCheckOrder:
    """RP and RRP report a sample count below 1 before a malformed profile,
    and a malformed profile before a missing seed; no sample is played
    before every check has passed."""

    LOTTERIES = [random_priority, repeated_random_priority]

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def refuse(block, bounds):
            raise AssertionError("a sample was played before the checks passed")
        monkeypatch.setattr(lotteries, "_run_blocks", refuse)

    @pytest.mark.parametrize("call", LOTTERIES, ids=["rp", "rrp"])
    def test_missing_seed_is_refused_before_sampling(self, call):
        inst = generate(GeneratorSpec("rp-lb", {"n": 3, "eps": "1/100"})).instance
        with pytest.raises(ValueError, match="^Monte Carlo mode requires a seed$"):
            call(inst, inst.truthful_profile(), 4096, None)

    @pytest.mark.parametrize("call", LOTTERIES, ids=["rp", "rrp"])
    @pytest.mark.parametrize("samples, message", [
        (0, "samples must be at least 1, got 0"),
        (10, "profile has 2 strategies, expected 3"),
    ])
    def test_samples_then_profile_then_seed(self, call, samples, message):
        inst = generate(GeneratorSpec("example1")).instance
        with pytest.raises(ValueError) as exc:
            call(inst, inst.truthful_profile()[:2], samples, None)
        assert type(exc.value) is ValueError and str(exc.value) == message

    @pytest.mark.parametrize("call", LOTTERIES, ids=["rp", "rrp"])
    def test_exact_runs_check_the_profile_before_the_turn_limit(self, call, monkeypatch):
        monkeypatch.setattr(lotteries, "MAX_TURNS", 0)
        inst = random_instance(9, 9, 10, seed=1).instance
        with pytest.raises(ValueError) as exc:
            call(inst, inst.truthful_profile()[:8])
        assert type(exc.value) is ValueError
        assert str(exc.value) == "profile has 8 strategies, expected 9"


class TestTurnLimit:
    """An exact walk of more than MAX_TURNS turns is refused; a sampled run
    plays no turn of a walk and is never refused."""

    @pytest.mark.parametrize("call, mechanism", [
        (random_priority, "rp"), (repeated_random_priority, "rrp"),
    ], ids=["rp", "rrp"])
    def test_refused_past_the_limit(self, call, mechanism, monkeypatch):
        inst = random_instance(4, 5, 10, seed=2).instance
        reports = inst.truthful_profile()
        calls = counted_turns(monkeypatch)
        exact = call(inst, reports)
        turns = len(calls)
        monkeypatch.setattr(lotteries, "MAX_TURNS", turns)
        assert call(inst, reports) == exact
        monkeypatch.setattr(lotteries, "MAX_TURNS", turns - 1)
        with pytest.raises(ExactEnumerationRefused) as exc:
            call(inst, reports)
        assert str(exc.value) == \
            f"exact {mechanism} plays more than {turns - 1} turns; sample instead"
        monkeypatch.setattr(lotteries, "MAX_TURNS", 0)
        assert call(inst, reports, 50, 1).method == "monte-carlo(samples=50, seed=1)"


class TestSampleCountsAndErrorBars:
    @pytest.mark.parametrize("samples", [0, -3])
    def test_random_priority_rejects_non_positive_samples(self, samples):
        inst = generate(GeneratorSpec("rp-lb", {"n": 3, "eps": "1/100"})).instance
        with pytest.raises(ValueError, match="samples must be at least 1"):
            random_priority(inst, inst.truthful_profile(), samples=samples, seed=0)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_repeated_random_priority_rejects_non_positive_samples(self, samples):
        inst = generate(GeneratorSpec("rp-lb", {"n": 3, "eps": "1/100"})).instance
        with pytest.raises(ValueError, match="samples must be at least 1"):
            repeated_random_priority(inst, inst.truthful_profile(), samples, seed=0)

    def test_rrp_stderr_on_huge_denominators(self):
        # the sum of squared numerators exceeds the float range
        eps = "1/" + "1" + "0" * 180
        inst = generate(GeneratorSpec("rp-lb", {"n": 3, "eps": eps})).instance
        result = repeated_random_priority(inst, inst.truthful_profile(), 5, seed=0)
        assert 0 <= result.stderr < 1

    def test_stderr_is_the_exact_sample_formula(self):
        # values 2/6, 3/6, 5/6: the standard error of their mean
        welfares = [F(1, 3), F(1, 2), F(5, 6)]
        mean = sum(welfares, F(0)) / 3
        var_of_mean = sum(((w - mean) ** 2 for w in welfares), F(0)) / (2 * 3)
        assert _stderr(10, 38, 3, 6) == pytest.approx(float(var_of_mean) ** 0.5, rel=1e-15)
        assert _stderr(7, 49, 1, 1) == float("inf")
        assert _stderr(6, 12, 3, 1) == 0.0


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def uneven_splits(samples):
    """1 to 4 blocks over range(samples): even, uneven and with empty blocks."""
    yield [0, samples]
    yield [0, samples // 3, samples]
    yield [0, 1, samples - 1, samples]
    yield [0, 0, 7, 7, samples]
    yield [0, 11, 12, 50, samples]


class TestSampleBlocks:
    """The sample range split into blocks run in forked children: every result
    is that of one serial pass, stderr included, and no child outlives a call."""

    @pytest.mark.parametrize("bounds", [[0, 5], [0, 3, 7], [0, 1, 1, 9], [0, 2, 5, 6, 40]])
    def test_runner_returns_each_block_in_order(self, bounds):
        parent = os.getpid()
        results = _run_blocks(lambda start, stop: [start, stop, os.getpid()], bounds)
        if len(bounds) == 2:
            assert results == [[0, bounds[1], parent]]
        else:
            assert [r[:2] for r in results] == [list(s) for s in zip(bounds, bounds[1:])]
            assert results[0][2] == parent
            assert all(r[2] != parent for r in results[1:])
        assert_no_child_left()

    def test_parent_runs_a_block_whose_child_fails(self):
        parent = os.getpid()

        def block(start, stop):
            if os.getpid() != parent and start == 4:
                raise RuntimeError("the child fails")
            if os.getpid() != parent and start == 6:
                os._exit(0)  # the child leaves without sending anything
            return start * 10 + stop

        assert _run_blocks(block, [0, 2, 4, 6, 9]) == [2, 24, 46, 69]
        assert_no_child_left()

    def test_children_reaped_by_an_ignored_sigchld(self):
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert _run_blocks(lambda start, stop: stop - start, [0, 2, 5, 9]) == [2, 3, 4]
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert_no_child_left()

    def test_parent_runs_the_blocks_it_cannot_fork(self, monkeypatch):
        def no_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        assert _run_blocks(lambda start, stop: stop - start, [0, 2, 5, 9]) == [2, 3, 4]

    @pytest.mark.parametrize("cpus, samples, expected", [
        (1, 10 ** 6, [0, 10 ** 6]),
        (4, MIN_BLOCK - 1, [0, MIN_BLOCK - 1]),
        (4, 2 * MIN_BLOCK + 1, [0, MIN_BLOCK, 2 * MIN_BLOCK + 1]),
        (3, 10 ** 6, [0, 333333, 666666, 10 ** 6]),
    ])
    def test_one_block_per_cpu_with_enough_samples(self, monkeypatch, cpus, samples,
                                                   expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert _bounds(samples) == expected

    @pytest.mark.parametrize("inst,reports", [
        case for case in reference_cases()
        if case.id in ("sparse-0", "sparse-mixed-1", "rp-lb-5", "m-below-n-0", "prefixes-2")])
    def test_any_split_gives_the_serial_result(self, monkeypatch, inst, reports):
        n = inst.n
        rp_plain = plain_rp(inst, reports, seeded_orders(n, 3, 120))
        rrp_plain = plain_rrp(inst, reports, 150, 4)
        for samples, plain, call in (
                (120, rp_plain, lambda: random_priority(inst, reports, samples=120, seed=3)),
                (150, rrp_plain, lambda: repeated_random_priority(inst, reports, 150, 4))):
            results = []
            for bounds in uneven_splits(samples):
                monkeypatch.setattr(lotteries, "_bounds", lambda samples, b=bounds: b)
                results.append(call())
            assert all(r == results[0] and repr(r.stderr) == repr(results[0].stderr)
                       for r in results)
            welfare, per_agent, stderr = plain
            assert (results[0].expected_welfare, results[0].per_agent) == (welfare, per_agent)
            assert repr(results[0].stderr) == repr(stderr)
        assert_no_child_left()

    def test_forks_above_the_threshold_and_leaves_no_child(self, monkeypatch):
        inst = generate(GeneratorSpec("rp-lb", {"n": 3})).instance
        reports = inst.truthful_profile()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = (random_priority(inst, reports, samples=2 * MIN_BLOCK, seed=1),
                  repeated_random_priority(inst, reports, 2 * MIN_BLOCK, seed=1))
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        split = (random_priority(inst, reports, samples=2 * MIN_BLOCK, seed=1),
                 repeated_random_priority(inst, reports, 2 * MIN_BLOCK, seed=1))
        assert len(forks) == 2
        assert split == serial
        assert [repr(r.stderr) for r in split] == [repr(r.stderr) for r in serial]
        assert_no_child_left()

    def test_threaded_caller_runs_serially(self, monkeypatch):
        inst = generate(GeneratorSpec("rp-lb", {"n": 3})).instance
        reports = inst.truthful_profile()
        expected = repeated_random_priority(inst, reports, 2 * MIN_BLOCK, seed=2)

        def no_fork():
            raise AssertionError("forked while another thread was alive")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            result = repeated_random_priority(inst, reports, 2 * MIN_BLOCK, seed=2)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert result == expected

    def test_runs_serially_without_fork(self, monkeypatch):
        inst = generate(GeneratorSpec("rp-lb", {"n": 3})).instance
        reports = inst.truthful_profile()
        expected = random_priority(inst, reports, samples=2 * MIN_BLOCK, seed=2)
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert random_priority(inst, reports, samples=2 * MIN_BLOCK, seed=2) == expected
