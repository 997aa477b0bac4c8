from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eatsim import Lexicographic, Proportional, run, expected_payoffs, valuation_of
from eatsim.instances import GeneratorSpec, generate
from eatsim.strategies import (
    GridProportional,
    Sequential,
    SingleMinded,
    Truthful,
    Uniform,
    as_ordinal,
    default_grid_resolution,
    describe_families,
    epsilon_strategy,
    expand_families,
    family_size,
    ps_profile,
    sequential,
    single_minded,
    uniform,
)

from helpers import random_valuation, rng_for

F = Fraction


def test_single_minded_bids_are_built_once():
    rng = rng_for("single-minded-once")
    first, second = (dict(expand_families([SingleMinded()], random_valuation(rng, 4), 4))
                     for _ in range(2))
    assert first.keys() == second.keys()
    assert all(first[label] is second[label] for label in first)


class TestSingleMinded:
    def test_basic(self):
        assert single_minded(1, 3).report.values == (F(0), F(1), F(0))

    def test_single_item_world(self):
        assert single_minded(0, 1).report.values == (F(1),)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            single_minded(3, 3)

    @pytest.mark.parametrize("item", [True, False, 1.0], ids=["true", "false", "float"])
    def test_item_must_be_an_int(self, item):
        # True == 1, so the cache used to hand back the bid on item 2 once
        # single_minded(1, 2) had been built
        single_minded(1, 2)
        single_minded(0, 2)
        with pytest.raises(ValueError, match="^single-minded bid entries must be int item "
                                             "indices$"):
            single_minded(item, 2)

    def test_drives_down_consumption_time(self):
        # two-agent instance: holding the rival fixed, bidding everything on
        # item 1 finishes it at 3/4
        inst = generate(GeneratorSpec("example2")).instance
        profile = [single_minded(0, 2), inst.truthful_profile()[1]]
        assert run(2, 2, profile).consumption_times()[0] == F(3, 4)


class TestEpsilonStrategy:
    def test_two_item_example(self):
        strat = epsilon_strategy((1, 0), F(1, 10), 2)
        assert strat.report.values == (F(1, 10), F(9, 10))

    def test_length_one_degenerates_to_single_minded(self):
        strat = epsilon_strategy((0,), F(1, 4), 3)
        assert strat == single_minded(0, 3)

    def test_unit_sum_for_longer_orders(self):
        strat = epsilon_strategy((3, 1, 0, 2), F(1, 7), 4)
        assert sum(strat.report.values) == 1
        assert strat.report[1] == F(1, 7)
        assert strat.report[0] == F(1, 49)

    @pytest.mark.parametrize("eps", [F(0), F(1, 2), F(3, 4)])
    def test_eps_domain(self, eps):
        with pytest.raises(ValueError):
            epsilon_strategy((0, 1), eps, 2)

    def test_duplicate_order_rejected(self):
        with pytest.raises(ValueError):
            epsilon_strategy((0, 0), F(1, 4), 2)

    def test_order_past_m_rejected(self):
        with pytest.raises(ValueError, match="item out of range for m = 2"):
            epsilon_strategy((0, 2), F(1, 4), 2)

    def test_payoff_gap_shrinks_as_eps_halves(self):
        # the proportional approximation converges to the sequential bid
        rng = rng_for("eps-convergence-unit")
        ladder = [F(1, 2 ** t) for t in range(3, 9)]
        for trial in range(25):
            n, m = rng.randint(2, 6), rng.randint(2, 4)
            valuations = [random_valuation(rng, m) for _ in range(n)]
            profile = [Proportional(v) for v in valuations]
            agent = rng.randrange(n)
            order = valuations[agent].preference_order()[:rng.randint(1, m)]
            seq = list(profile)
            seq[agent] = sequential(order)
            target = expected_payoffs(run(n, m, seq), valuations)[agent]
            gaps = []
            for eps in ladder:
                approx = list(profile)
                approx[agent] = epsilon_strategy(order, eps, m)
                got = expected_payoffs(run(n, m, approx), valuations)[agent]
                gaps.append(abs(got - target))
            assert all(b <= a for a, b in zip(gaps, gaps[1:]))


class TestSequentialAndOrdinal:
    def test_constructor(self):
        assert sequential((2, 0, 1)).order == (2, 0, 1)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            sequential((1, 1))

    def test_ordinal_ranks_by_decreasing_report(self):
        strat = Proportional(valuation_of(["1/10", "7/10", "1/5"]))
        assert as_ordinal(strat, 3).order == (1, 2, 0)

    def test_ordinal_of_prefix_is_completed_by_index(self):
        assert as_ordinal(Lexicographic((2,)), 4).order == (2, 0, 1, 3)

    def test_greedy_sequential_profile_reproduces_ordinal_run(self):
        # hand-derived: A eats item 1 alone; B and C split item 2 by 1/2,
        # then split item 3; depletions at 1/2, 1, 1
        inst = generate(GeneratorSpec("example1")).instance
        profile = ps_profile(inst.truthful_profile(), 3)
        trace = run(3, 3, profile)
        assert trace.shares == (
            (F(1), F(0), F(0)),
            (F(0), F(1, 2), F(1, 2)),
            (F(0), F(1, 2), F(1, 2)),
        )
        assert trace.consumption_times() == (F(1), F(1, 2), F(1))
        for seg in trace.segments:
            assert all(sum(row, F(0)) == 1 for row in seg.rates)
            assert all(max(row) == 1 for row in seg.rates)


class TestUniformBids:
    def test_basic(self):
        strat = uniform((0, 1), 4)
        assert strat.report.values == (F(1, 2), F(1, 2), F(0), F(0))

    def test_singleton_equals_single_minded(self):
        assert uniform((4,), 5) == single_minded(4, 5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            uniform((), 3)

    def test_item_past_m_rejected(self):
        with pytest.raises(ValueError, match="item out of range for m = 3"):
            uniform([5], 3)


class TestFamilies:
    def test_canonical_enumeration_order(self):
        truth = valuation_of(["1/2", "1/3", "1/6"])
        families = [GridProportional(2), Uniform(((0,),)), Sequential(((2, 0),)),
                    SingleMinded(), Truthful()]
        labels = [label for label, _ in expand_families(families, truth, 3)]
        assert labels[0] == "truthful"
        assert labels[1:4] == ["single-minded(1)", "single-minded(2)", "single-minded(3)"]
        assert labels[4] == "sequential(3,1)"
        assert labels[5] == "uniform({1})"
        assert labels[6].startswith("grid(")

    def test_grid_size(self):
        truth = valuation_of(["1/2", "1/2"])
        members = list(GridProportional(12).members(truth, 2))
        assert len(members) == family_size(GridProportional(12), 2) == 13

    def test_grid_three_items(self):
        truth = valuation_of(["1/3", "1/3", "1/3"])
        members = list(GridProportional(6).members(truth, 3))
        assert len(members) == 28
        assert all(sum(s.report.values) == 1 for _, s in members)

    @pytest.mark.parametrize("family", ["truthful", object(), None, Truthful],
                             ids=["str", "object", "none", "class"])
    def test_non_family_rejected(self, family):
        truth = valuation_of(["1/2", "1/2"])
        with pytest.raises(TypeError, match="not a strategy family"):
            family_size(family, 2)
        with pytest.raises(TypeError, match="not a strategy family"):
            list(expand_families([Truthful(), family], truth, 2))
        with pytest.raises(TypeError, match="not a strategy family"):
            describe_families([family], 2)

    def test_grid_resolution_must_be_positive(self):
        with pytest.raises(ValueError, match="grid resolution must be positive"):
            GridProportional(0)

    def test_grid_resolution_must_not_be_a_float(self):
        with pytest.raises(ValueError, match="^floats are not exact; pass Fraction, int, or a "
                                             "rational string$"):
            GridProportional(2.5)

    def test_greedy_defaults_follow_the_agent(self):
        truth = valuation_of(["1/10", "7/10", "1/5"])
        assert list(Sequential().members(truth, 3)) == [
            ("sequential(2)", Lexicographic((1,))), ("sequential(2,3)", Lexicographic((1, 2))),
            ("sequential(2,3,1)", Lexicographic((1, 2, 0)))]
        assert [label for label, _ in Uniform().members(truth, 3)] == [
            "uniform({2})", "uniform({2,3})", "uniform({1,2,3})"]

    def test_greedy_members_equal_their_checked_twins(self):
        # the greedy members skip Lexicographic's checks and extend each
        # label from the last; with tied values they must still be the
        # checked members of the sorted greedy orders, labelled as before
        rng = rng_for("greedy-members")
        ties = 0
        for _ in range(200):
            m = rng.randint(1, 9)
            truth = random_valuation(rng, m, weight_max=3)
            ties += len(set(truth.values)) < m
            members = list(Sequential().members(truth, m))
            full = truth.preference_order()
            twins = [(f"sequential({','.join(str(j + 1) for j in order)})", Lexicographic(order))
                     for order in sorted(full[:k] for k in range(1, m + 1))]
            assert members == twins
            for (_, member), (_, twin) in zip(members, twins):
                assert type(member) is Lexicographic and type(member.order) is tuple
                assert hash(member) == hash(twin)
                assert {member: 0}[twin] == 0
        assert ties > 100

    def test_named_orders_are_checked_when_built(self):
        # each order gets the checks of its Lexicographic member, at once
        with pytest.raises(ValueError, match="^lexicographic order contains duplicates$"):
            Sequential(((0, 0),))
        with pytest.raises(ValueError, match="^lexicographic order has a negative index$"):
            Sequential(((1,), (-1,)))
        with pytest.raises(ValueError, match="^lexicographic order entries must be int item "
                                             "indices$"):
            Sequential(((0, "1"),))
        # the empty order is a valid Lexicographic, and so a valid member
        assert Sequential(((),)).size(2) == 1

    def test_named_sets_must_not_be_empty(self):
        # a repeated, negative or non-int item is refused by the one check of
        # item indices (tests/test_model.py)
        with pytest.raises(ValueError, match=r"^uniform set \(\) is empty$"):
            Uniform(((1,), ()))

    def test_named_items_past_m_are_left_to_the_sweep(self):
        truth = valuation_of(["1/2", "1/2"])
        assert list(Sequential(((2,),)).members(truth, 2)) == [
            ("sequential(3)", Lexicographic((2,)))]
        with pytest.raises(ValueError, match="item out of range for m = 2"):
            list(Uniform(((2,),)).members(truth, 2))

    def test_families_of_one_kind_follow_their_key(self):
        # grid:3,grid:2 used to expand and print in the order given
        truth = valuation_of(["1/2", "1/3", "1/6"])
        for families, first in [
                ([GridProportional(3), GridProportional(2)], "grid[d=2, 6 points]"),
                ([Sequential(((1,), (0,))), Sequential()], "sequential[greedy orders]"),
                ([Uniform(((2,),)), Uniform(((1,),)), Uniform()], "uniform[top-value sets]")]:
            ordered = sorted(families, key=lambda family: family.key())
            assert describe_families(families, 3).startswith(first)
            assert describe_families(families, 3) == describe_families(ordered, 3)
            assert list(expand_families(families, truth, 3)) == \
                list(expand_families(ordered, truth, 3))
        # named lists are keyed by their sorted entries, as their members are
        assert Sequential(((1,), (0,))).key() == Sequential(((0,), (1,))).key()
        assert Uniform(((1, 0),)).key() == Uniform(((0, 1),)).key()


# Families of each kind for m <= 4 items, with default and explicit
# parameters: explicit orders and sets are drawn from permutations, so their
# items are distinct and in range.
def _prefixes(m):
    return st.permutations(range(m)).flatmap(
        lambda p: st.integers(1, m).map(lambda k: tuple(p[:k])))


def _family(kind, m):
    explicit = st.lists(_prefixes(m), max_size=4).map(tuple)
    if kind == "truthful":
        return st.just(Truthful())
    if kind == "single-minded":
        return st.just(SingleMinded())
    if kind == "sequential":
        return st.just(Sequential()) | explicit.map(Sequential)
    if kind == "uniform":
        return st.just(Uniform()) | explicit.map(Uniform)
    resolutions = st.integers(1, 4)
    if m <= 3:
        resolutions |= st.just(default_grid_resolution(m))
    return resolutions.map(GridProportional)


_KINDS = ["truthful", "single-minded", "sequential", "uniform", "grid"]


@st.composite
def _truth_and_families(draw, kinds):
    m = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)
                   .filter(lambda ws: sum(ws) > 0))
    truth = valuation_of([Fraction(w, sum(weights)) for w in weights])
    return m, truth, [draw(_family(kind, m)) for kind in kinds]


class TestFamilyProperties:
    @pytest.mark.parametrize("kind", _KINDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_size_counts_the_members(self, kind, data):
        m, truth, (family,) = data.draw(_truth_and_families([kind]))
        assert family_size(family, m) == len(list(expand_families([family], truth, m)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_expansion_ignores_the_order_families_are_given_in(self, data):
        kinds = data.draw(st.lists(st.sampled_from(_KINDS), min_size=1, unique=True))
        m, truth, families = data.draw(_truth_and_families(kinds))
        shuffled = data.draw(st.permutations(families))
        assert list(expand_families(shuffled, truth, m)) == \
            list(expand_families(families, truth, m))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_expansion_ignores_the_order_of_families_of_one_kind(self, data):
        kinds = data.draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6))
        m, truth, families = data.draw(_truth_and_families(kinds))
        shuffled = data.draw(st.permutations(families))
        assert describe_families(shuffled, m) == describe_families(families, m)
        assert list(expand_families(shuffled, truth, m)) == \
            list(expand_families(families, truth, m))
