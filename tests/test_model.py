import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eatsim import model
from eatsim.engine import _kernel_args, run, sample_allocation
from eatsim.equilibrium import best_response, run_profile, sequential_payoff_floor, verify_ne
from eatsim.instances import GeneratorError, GeneratorSpec, generate
from eatsim.lotteries import random_priority, repeated_random_priority
from eatsim.model import (
    FLOATS_NOT_EXACT,
    LOWEST_INDEX_FIRST,
    Instance,
    InvalidInstanceError,
    Lexicographic,
    ParseError,
    Proportional,
    Valuation,
    ZeroPolicy,
    as_rational,
    check_strategy,
    fixed_order_policy,
    format_rational,
    instance_defects,
    instance_from_json,
    instance_to_json,
    integer_form,
    parse_rational,
    profile_from_json,
    profile_to_json,
    strategy_from_json,
    strategy_to_json,
    valuation_of,
)
from eatsim.strategies import (
    GridProportional,
    Sequential,
    Uniform,
    epsilon_strategy,
    single_minded,
    uniform,
)
from helpers import assert_exports_render_row_by_row, random_run_case, rng_for


class TestParseRational:
    def test_fraction_text(self):
        assert parse_rational("2/3") == Fraction(2, 3)

    def test_decimal_is_exact(self):
        assert parse_rational("0.6") == Fraction(3, 5)

    def test_reduces_to_lowest_terms(self):
        value = parse_rational("4/6")
        assert (value.numerator, value.denominator) == (2, 3)

    def test_integer(self):
        assert parse_rational("7") == 7

    @pytest.mark.parametrize("bad", ["", "abc", "1/0", "1//2", "2/3/4"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    @given(st.fractions())
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value


class TestValuation:
    def test_unit_sum_required(self):
        with pytest.raises(ValueError, match="^valuation sums to 5/6, expected 1$"):
            Valuation((Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(ValueError, match="^valuation sums to 2, expected 1$"):
            Valuation((1, Fraction(1)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Valuation((Fraction(3, 2), Fraction(-1, 2)))

    def test_memo_keeps_only_rows_of_strings(self):
        memo = {}
        assert valuation_of(["1", "0"], memo) is valuation_of(["1", "0"], memo)
        assert valuation_of([1, 0], memo) == valuation_of(["1", "0"], memo)
        # an equal key of other types is no licence to skip the checks
        with pytest.raises(ValueError, match=f"^{FLOATS_NOT_EXACT}$"):
            valuation_of([1.0, 0], memo)
        with pytest.raises(ValueError, match="bool"):
            valuation_of([True, 0], memo)

    def test_single_item(self):
        assert Valuation((Fraction(1),))[0] == 1

    def test_entries_are_stored_as_fractions(self):
        v = Valuation([1, "0", Fraction(0)])
        assert v.values == (1, 0, 0)
        assert type(v.values) is tuple
        assert all(type(x) is Fraction for x in v.values)

    def test_preference_order_breaks_ties_by_index(self):
        v = valuation_of(["1/4", "1/4", "1/2"])
        assert v.preference_order() == (2, 0, 1)

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=8)
           .filter(lambda ws: sum(ws) > 0))
    def test_normalized_weights_always_valid(self, weights):
        total = sum(weights)
        v = Valuation(tuple(Fraction(w, total) for w in weights))
        assert sum(v.values) == 1
        assert v.preference_order() == tuple(
            sorted(range(len(weights)), key=lambda j: (-v[j], j)))


class TestIntegerForm:
    @given(st.lists(st.fractions(), max_size=12))
    def test_exact_round_trip_over_the_least_denominator(self, values):
        d, nums = integer_form(values)
        assert d >= 1 and len(nums) == len(values)
        assert [Fraction(x, d) for x in nums] == values
        assert math.gcd(d, *nums) == 1

    def test_empty_list(self):
        assert integer_form([]) == (1, ())

    def test_valuation_caches_its_form_without_changing_identity(self):
        fresh = valuation_of(["1/6", "1/3", "1/2"])
        used = valuation_of(["1/6", "1/3", "1/2"])
        assert used.integer_form == (6, (1, 2, 3))
        assert used.integer_form is used.integer_form
        assert "integer_form" not in repr(used)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == (
            "Valuation(values=(Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))")


class TestInstance:
    def test_example1_table_is_valid(self):
        rows = [["3/5", "3/10", "1/10"], ["1/10", "7/10", "1/5"], ["1/5", "1/2", "3/10"]]
        inst = Instance(3, 3, tuple(valuation_of(r) for r in rows))
        assert instance_defects(inst.n, inst.m, inst.valuations) == []

    def test_single_agent(self):
        inst = Instance(1, 1, (valuation_of(["1"]),))
        assert inst.m == 1

    def test_defect_list_is_complete(self):
        defects = instance_defects(
            2, 2,
            [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2),)],
        )
        assert any("sum" in d for d in defects)
        assert any("length" in d for d in defects)
        assert len(defects) == 2

    def test_json_round_trip(self):
        rows = [["3/5", "3/10", "1/10"], ["1/10", "7/10", "1/5"], ["1/5", "1/2", "3/10"]]
        inst = Instance(3, 3, tuple(valuation_of(r) for r in rows),
                        agent_labels=("A", "B", "C"))
        again = instance_from_json(instance_to_json(inst))
        assert again == inst

    def test_value_table_is_cached_over_one_least_denominator(self):
        inst = Instance(2, 2, (valuation_of(["1/2", "1/2"]), valuation_of(["1/3", "2/3"])))
        assert inst.value_table == (6, ((3, 3), (2, 4)))
        assert inst.value_table is inst.value_table
        assert inst == Instance(2, 2, inst.valuations)

    def test_json_defects_listed_in_full(self):
        doc = {"n": 3, "m": 2, "valuations": [["1/2", "1/3"], ["3/2", "-1/2"], ["1"]],
               "labels": {"items": ["x"]}}
        with pytest.raises(InvalidInstanceError) as exc:
            instance_from_json(doc)
        assert exc.value.defects == [
            "agent 1: values sum to 5/6, expected 1",
            "agent 2: negative value at item 2",
            "agent 3: row length 1 != m = 2",
            "expected 2 item labels, got 1",
        ]
        doc = {"n": 2, "m": 2, "valuations": [["1/2", "1/2"]], "labels": {"agents": ["A"]}}
        with pytest.raises(InvalidInstanceError) as exc:
            instance_from_json(doc)
        assert exc.value.defects == [
            "expected 2 valuation rows, got 1", "expected 2 agent labels, got 1"]

    def test_repeated_rows_share_one_valuation(self):
        doc = {"n": 3, "m": 2, "valuations": [["1/2", "1/2"], ["1", "0"], ["1/2", "1/2"]]}
        inst = instance_from_json(doc)
        assert inst.valuations[0] is inst.valuations[2]
        assert inst.valuations == (valuation_of(["1/2", "1/2"]), valuation_of(["1", "0"]),
                                   valuation_of(["1/2", "1/2"]))

    def test_repeated_bad_rows_are_each_listed(self):
        doc = {"n": 2, "m": 2, "valuations": [["1/2", "1/3"], ["1/2", "1/3"]]}
        with pytest.raises(InvalidInstanceError) as exc:
            instance_from_json(doc)
        assert exc.value.defects == ["agent 1: values sum to 5/6, expected 1",
                                     "agent 2: values sum to 5/6, expected 1"]

    @pytest.mark.parametrize("labels", [[], 0, "", False, None, 7, ["a", "b"]], ids=repr)
    def test_labels_that_are_no_object_are_refused(self, labels):
        doc = {"n": 1, "m": 1, "valuations": [["1"]], "labels": labels}
        with pytest.raises(ParseError, match="^'labels' must be an object$"):
            instance_from_json(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"n": 1, "m": 1, "valuations": [["1"]], "valuation": []},
         "^instance document has an unknown key 'valuation'$"),
        ({"n": 1, "m": 1, "valuations": [["1"]], "labels": {"agent": ["a"]}},
         "^'labels' has an unknown key 'agent'$"),
        ({"n": 1, "m": 1, "valuations": [["1"]], "labels": {"items": ["x"], "Items": ["y"]}},
         "^'labels' has an unknown key 'Items'$"),
    ], ids=["instance", "labels", "labels-case"])
    def test_unknown_keys_are_refused(self, doc, message):
        # a misspelt field used to be read as absent
        with pytest.raises(ParseError, match=message):
            instance_from_json(doc)

    def test_sizes_that_are_no_ints_measure_no_rows(self):
        # the rows used to be counted against n = "1" too
        assert instance_defects("1", 1, (valuation_of(["1"]),)) == ["n must be an int, got str"]
        assert instance_defects("1", "x", (valuation_of(["1"]),), ("a",), ("b",)) == [
            "n must be an int, got str", "m must be an int, got str"]

    def test_rows_that_are_no_valuations_are_refused(self):
        # the tuple row used to build, and opt or run then raised AttributeError
        with pytest.raises(InvalidInstanceError) as exc:
            Instance(2, 2, ((Fraction(1), Fraction(0)), ("1", "0")))
        assert exc.value.defects == ["agent 1: row is not a Valuation",
                                     "agent 2: row is not a Valuation"]

    @pytest.mark.parametrize("labels, valid", [
        (("a",), True), (["a"], True),
        ((5,), False), ("a", False), (("a", None), False), (5, False), ([b"a"], False),
    ], ids=repr)
    def test_an_instance_that_builds_round_trips_through_json(self, labels, valid):
        # (5,) used to build and be written as "agents": [5], which reading
        # then refused; "a" was taken as the one label "a"
        rows = (valuation_of(["1"]),)
        for what, agent_labels, item_labels in (("agent", labels, None), ("item", None, labels)):
            if valid:
                inst = Instance(1, 1, rows, agent_labels, item_labels)
                assert instance_from_json(instance_to_json(inst)) == inst
                continue
            with pytest.raises(InvalidInstanceError) as exc:
                Instance(1, 1, rows, agent_labels, item_labels)
            assert exc.value.defects == [f"{what} labels must be a sequence of strings"]

    def test_bad_sum_reported_with_agent_index(self):
        doc = {"n": 1, "m": 2, "valuations": [["1/2", "1/3"]]}
        with pytest.raises(InvalidInstanceError) as exc:
            instance_from_json(doc)
        assert "agent 1" in str(exc.value)


class TestStrategies:
    @pytest.mark.parametrize("report", [(Fraction(1),), ["1"], "1", None], ids=repr)
    def test_a_proportional_report_is_a_valuation(self, report):
        # the tuple report used to build, and engine.run then raised AttributeError
        with pytest.raises(ValueError) as exc:
            Proportional(report)
        assert type(exc.value) is ValueError and str(exc.value) == \
            f"proportional report must be a Valuation, got {type(report).__name__}"
        assert run(1, 1, [Proportional(valuation_of(["1"]))]).shares == ((Fraction(1),),)

    def test_lexicographic_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Lexicographic((0, 1, 0))

    def test_lexicographic_order_is_a_tuple_of_ints(self):
        # a list order used to run under cps only: ps and RP concatenated
        # it with a tuple, and the strategy could not be hashed
        listed = Lexicographic([0, 1])
        assert listed == Lexicographic((0, 1))
        assert hash(listed) == hash(Lexicographic((0, 1)))
        assert listed.order == (0, 1) and type(listed.order) is tuple
        for mechanism in ("cps", "ps"):
            assert run_profile(2, 3, [listed, Lexicographic((2,))], mechanism) == \
                run_profile(2, 3, [Lexicographic((0, 1)), Lexicographic((2,))], mechanism)
        instance = Instance(2, 3, (valuation_of(["1/2", "1/2", "0"]),
                                   valuation_of(["0", "1/2", "1/2"])))
        assert random_priority(instance, [listed, Lexicographic((2,))]) == \
            random_priority(instance, [Lexicographic((0, 1)), Lexicographic((2,))])

    def test_lexicographic_rejects_negative_indices(self):
        with pytest.raises(ValueError, match="negative index"):
            Lexicographic((-1,))

    def test_profile_arity_checked(self):
        with pytest.raises(ValueError):
            run(2, 2, [Proportional(valuation_of(["1", "0"]))])

    def test_profile_order_range_checked(self):
        with pytest.raises(ValueError):
            check_strategy(0, 2, Lexicographic((5,)))

    def test_strategy_json_uses_one_based_indices(self):
        doc = strategy_to_json(Lexicographic((2, 0)))
        assert doc == {"kind": "lexicographic", "order": [3, 1]}
        assert strategy_from_json(doc, m=3) == Lexicographic((2, 0))

    def test_proportional_json_round_trip(self):
        strat = Proportional(valuation_of(["2/3", "1/3"]))
        assert strategy_from_json(strategy_to_json(strat), m=2) == strat

    def test_profile_json_round_trip(self):
        profile = [Proportional(valuation_of(["1", "0"])), Lexicographic((1,))]
        assert profile_from_json(profile_to_json(profile), 2, 2) == profile

    @pytest.mark.parametrize("kind", ["proportional", "lexicographic"])
    def test_a_strategy_without_its_field_is_refused(self, kind):
        field = "report" if kind == "proportional" else "order"
        with pytest.raises(ParseError, match=f"^{kind} strategy has no '{field}' field$"):
            strategy_from_json({"kind": kind})

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "lexicographic", "ordr": [2], "order": []},
         "^lexicographic strategy has an unknown key 'ordr'$"),
        ({"kind": "lexicographic", "order": [1], "report": ["1", "0"]},
         "^lexicographic strategy has an unknown key 'report'$"),
        ({"kind": "proportional", "report": ["1", "0"], "order": [1]},
         "^proportional strategy has an unknown key 'order'$"),
        ({"kind": "proportional", "reprot": ["1", "0"]},
         "^proportional strategy has an unknown key 'reprot'$"),
    ], ids=["misspelt-order", "order-and-report", "report-and-order", "misspelt-report"])
    def test_a_key_outside_the_kind_is_refused(self, doc, message):
        with pytest.raises(ParseError, match=message):
            strategy_from_json(doc, m=2)

    def test_a_float_report_entry_is_refused_as_no_rational_string(self):
        with pytest.raises(ParseError, match="^proportional report must be a list of rational "
                                             "strings$"):
            strategy_from_json({"kind": "proportional", "report": [0.5, 0.5]})

    def test_an_explicit_empty_order_stays_valid(self):
        assert strategy_from_json({"kind": "lexicographic", "order": []}, m=2) == \
            Lexicographic(())

    def test_profile_renders_each_distinct_strategy_once(self, monkeypatch):
        # repeated proportional reports, equal but not identical, and
        # repeated orders, one of them the same order as a plain list
        half = valuation_of(["1/2", "1/2"])
        profile = [Proportional(half), Lexicographic((1, 0)),
                   Proportional(valuation_of(["1/2", "1/2"])), Lexicographic([1, 0]),
                   Proportional(half), Lexicographic((0,))]
        rendered = []

        def counted(strategy):
            rendered.append(strategy)
            return strategy_to_json(strategy)

        monkeypatch.setattr(model, "strategy_to_json", counted)
        doc = profile_to_json(profile)
        assert rendered == [profile[0], profile[1], profile[5]]
        assert doc == [strategy_to_json(s) for s in profile]
        # each entry is its own dict with its own list
        lists = [entry.get("report", entry.get("order")) for entry in doc]
        assert len({id(entry) for entry in doc}) == len(profile)
        assert len({id(values) for values in lists}) == len(profile)


def _equal_copy(strategy):
    """An equal strategy built anew: its report or order is another object."""
    if isinstance(strategy, Proportional):
        return Proportional(Valuation(strategy.report.values))
    return Lexicographic(list(strategy.order))


def test_exports_render_the_fuzz_corpus_row_by_row():
    # rows and entries repeat, as one shared object and as equal copies
    rng = rng_for("exports-row-by-row")
    for _ in range(60):
        n, m, instance, profile, _ = random_run_case(rng, max_n=6, max_m=5)
        rows = [rng.choice(instance.valuations) for _ in range(n)]
        rows = [Valuation(row.values) if rng.random() < 0.3 else row for row in rows]
        entries = [rng.choice(profile) for _ in range(n)]
        entries = [_equal_copy(s) if rng.random() < 0.3 else s for s in entries]
        assert_exports_render_row_by_row(Instance(n, m, tuple(rows)), entries)


class TestZeroPolicy:
    def test_fixed_requires_permutation(self):
        with pytest.raises(ValueError):
            ZeroPolicy("fixed", (0, 0, 1))

    def test_fixed_builder(self):
        assert fixed_order_policy([2, 0, 1]).order == (2, 0, 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ZeroPolicy("random-ish")

    def test_fixed_needs_an_order(self):
        with pytest.raises(ValueError, match="fixed zero policy requires a permutation"):
            ZeroPolicy("fixed", ())

    def test_uniform_takes_no_order(self):
        with pytest.raises(ValueError, match="uniform zero policy takes no order"):
            ZeroPolicy("uniform", (0,))


# ---------------------------------------------------------------------------
# One integer rule. Every library entry that takes a count asks
# model.as_count, and every one that takes item indices asks
# model.as_item_indices; each row below used to be a check of its own, or no
# check at all.
# ---------------------------------------------------------------------------

EXAMPLE1 = generate(GeneratorSpec("example1")).instance
EXAMPLE1_TRACE = run_profile(3, 3, EXAMPLE1.truthful_profile())
ONE_ITEM = (valuation_of(["1"]),)


def _sweep(agent=0, budget=4):
    return best_response(EXAMPLE1.truthful_profile(), agent, EXAMPLE1.valuations[0],
                         [GridProportional(1)], budget=budget)


# entry -> (call with the count, the count it takes, what the message names,
# the error class); a float gets FLOATS_NOT_EXACT
COUNT_ENTRIES = {
    "single_minded-m": (lambda c: single_minded(0, c), 1, "m", ValueError),
    "uniform-m": (lambda c: uniform([0], c), 1, "m", ValueError),
    "epsilon_strategy-m": (lambda c: epsilon_strategy((0,), Fraction(1, 4), c), 1, "m",
                           ValueError),
    "GridProportional": (GridProportional, 1, "grid resolution", ValueError),
    **{f"generate-{key}": (
        lambda c, key=key: generate(GeneratorSpec("random", dict({"n": 2, "m": 2}, **{key: c}))),
        1, key, GeneratorError) for key in ("n", "m", "weight_max")},
    "random_priority-samples": (
        lambda c: random_priority(EXAMPLE1, EXAMPLE1.truthful_profile(), c, 0), 1, "samples",
        ValueError),
    "repeated_random_priority-samples": (
        lambda c: repeated_random_priority(EXAMPLE1, EXAMPLE1.truthful_profile(), c, 0), 1,
        "samples", ValueError),
    "verify_ne-budget": (
        lambda c: verify_ne(EXAMPLE1.truthful_profile(), EXAMPLE1, budget=c), 10 ** 6, "budget",
        ValueError),
    "best_response-budget": (lambda c: _sweep(budget=c), 4, "budget", ValueError),
    "best_response-agent": (lambda c: _sweep(agent=c), 0, "agent", ValueError),
    "Instance-n": (lambda c: Instance(c, 1, ONE_ITEM), 1, "n", InvalidInstanceError),
    "Instance-m": (lambda c: Instance(1, c, ONE_ITEM), 1, "m", InvalidInstanceError),
    "instance_defects-n": (lambda c: instance_defects(c, 1, ONE_ITEM), 1, "n", None),
    "run-n": (lambda c: run(c, 1, [Lexicographic(())]), 1, "n", ValueError),
    "run-m": (lambda c: run(1, c, [Lexicographic(())]), 1, "m", ValueError),
    "run_profile-n": (lambda c: run_profile(c, 1, [Lexicographic(())]), 1, "n", ValueError),
    "kernel_args-m": (lambda c: _kernel_args(1, c, [Lexicographic(())], LOWEST_INDEX_FIRST), 1,
                      "m", ValueError),
    # a seed is an int of any sign; True used to seed like 1 and report seed=True
    "random_priority-seed": (
        lambda c: random_priority(EXAMPLE1, EXAMPLE1.truthful_profile(), 1, c), -3, "seed",
        ValueError),
    "repeated_random_priority-seed": (
        lambda c: repeated_random_priority(EXAMPLE1, EXAMPLE1.truthful_profile(), 1, c), -3,
        "seed", ValueError),
    "sample_allocation-seed": (lambda c: sample_allocation(EXAMPLE1_TRACE, c), -3, "seed",
                               ValueError),
    "generate-seed": (lambda c: generate(GeneratorSpec("random", {"n": 2, "m": 2}, c)), -3,
                      "seed", GeneratorError),
}
BAD_COUNTS = {"true": True, "float": 1.0, "fraction": Fraction(1), "str": "1"}


@pytest.mark.parametrize("bad", BAD_COUNTS)
@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_a_count_is_an_int_and_no_bool(entry, bad):
    # True used to run as 1 (samples=True reported monte-carlo(samples=True),
    # Instance(True, ...) exported "n": true), 2.0 raised TypeError, and a
    # bool m found single_minded's cached bid for m = 1
    call, _, what, error = COUNT_ENTRIES[entry]
    value = BAD_COUNTS[bad]
    message = FLOATS_NOT_EXACT if bad == "float" else \
        f"{what} must be an int, got {type(value).__name__}"
    if error is None:  # reported as a defect, beside any others
        assert message in call(value)
        return
    with pytest.raises(error) as exc:
        call(value)
    if error is InvalidInstanceError:
        assert message in exc.value.defects
    else:
        assert str(exc.value) == message


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_a_count_that_is_an_int_is_taken(entry):
    call, good, _, error = COUNT_ENTRIES[entry]
    result = call(good)
    if error is None:
        assert result == []


# entry -> (call with the items, what the message names (or a function of
# the items that gives it), and m: None for no range check, or a function of
# the items)
INDEX_ENTRIES = {
    "Lexicographic": (Lexicographic, "lexicographic order", None),
    "Sequential": (lambda items: Sequential((items,)), "lexicographic order", None),
    "fixed_order_policy": (fixed_order_policy, "fixed zero policy order", len),
    "ZeroPolicy": (lambda items: ZeroPolicy("fixed", items), "fixed zero policy order", len),
    "Uniform": (lambda items: Uniform(((0,), items)), lambda items: f"uniform set {items!r}",
                None),
    "uniform": (lambda items: uniform(items, 3), "uniform bid", lambda _: 3),
    "uniform-iterator": (lambda items: uniform(iter(items), 3), "uniform bid", lambda _: 3),
    "single_minded": (lambda items: single_minded(*items, 3), "single-minded bid", lambda _: 3),
    "epsilon_strategy": (lambda items: epsilon_strategy(items, Fraction(1, 4), 3), "order",
                         lambda _: 3),
    "sequential_payoff_floor": (
        lambda items: sequential_payoff_floor(EXAMPLE1_TRACE, EXAMPLE1.valuations[0], items),
        "item sequence", lambda _: 3),
}
BAD_INDICES = {"true": (True,), "false": (0, False), "float": (1.0,),
               "fraction": (Fraction(1),), "str": ("1",), "none": (None,),
               "duplicate": (1, 1), "negative": (-1,), "past-m": (3,)}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry, (_, _, m_of) in INDEX_ENTRIES.items() for bad, items in
    BAD_INDICES.items()
    # a single-minded bid names one item, and only some entries know m
    if (entry != "single_minded" or len(items) == 1) and (bad != "past-m" or m_of)])
def test_item_indices_are_distinct_ints_in_range(entry, bad):
    # (True, False) used to pass as the permutation (1, 0), uniform([0, 0], 2)
    # bid on item 1 alone, and a repeated item passed the payoff floor
    call, what, m_of = INDEX_ENTRIES[entry]
    items = BAD_INDICES[bad]
    what = what(items) if callable(what) else what
    message = {"duplicate": f"{what} contains duplicates",
               "negative": f"{what} has a negative index",
               "past-m": f"{what} has an item out of range for m = {m_of and m_of(items)}",
               }.get(bad, f"{what} entries must be int item indices")
    with pytest.raises(ValueError) as exc:
        call(items)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# One rational rule. Every library entry that takes an exact number asks
# model.as_rational; each used to have a rule of its own.
# ---------------------------------------------------------------------------

# entry -> (call with the value, what the message names, the class of a type error)
RATIONAL_ENTRIES = {
    "Valuation": (lambda x: Valuation((x, "1")), "valuation entry", ValueError),
    "valuation_of": (lambda x: valuation_of((x, "1")), "valuation entry", ValueError),
    "verify_ne-epsilon": (lambda x: verify_ne(EXAMPLE1.truthful_profile(), EXAMPLE1, x),
                          "epsilon", ValueError),
    "epsilon_strategy-eps": (lambda x: epsilon_strategy((0, 1), x, 2), "eps", ValueError),
    "generate-eps": (lambda x: generate(GeneratorSpec("rp-lb", {"n": 3, "eps": x})), "eps",
                     GeneratorError),
}
# bad value -> the message of a ParseError, or None for a type error
BAD_RATIONALS = {
    "true": (True, None), "false": (False, None), "float": (0.5, None), "none": (None, None),
    "list": ([1], None), "dict": ({}, None), "decimal": (Decimal("0.5"), None),
    "text": ("abc", "malformed rational 'abc'"),
    "zero-denominator": ("1/0", "zero denominator in '1/0'"),
    "too-long": ("1e-99999999", "rational '1e-99999999' needs more than 4300 digits"),
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in RATIONAL_ENTRIES for bad in BAD_RATIONALS
    # a None parameter is an absent one in a GeneratorSpec
    if (entry, bad) != ("generate-eps", "none")])
def test_an_exact_number_is_a_fraction_an_int_or_rational_text(entry, bad):
    # "1/0" used to raise ZeroDivisionError in Valuation and epsilon_strategy,
    # None a TypeError in verify_ne, and True certified with epsilon 1
    call, what, error = RATIONAL_ENTRIES[entry]
    value, parse_message = BAD_RATIONALS[bad]
    if parse_message is not None:
        error, message = ParseError, parse_message
    elif bad == "float":
        message = FLOATS_NOT_EXACT
    else:
        message = f"{what} must be a Fraction, an int or a rational string, " \
            f"got {type(value).__name__}"
    with pytest.raises(ValueError) as exc:
        call(value)
    assert type(exc.value) is error and str(exc.value) == message


def test_as_rational_takes_a_fraction_as_it_is():
    third = Fraction(1, 3)
    assert as_rational(third, "x") is third
    assert as_rational(2, "x") == 2 and type(as_rational(2, "x")) is Fraction
    assert as_rational(" 0.5 ", "x") == Fraction(1, 2)
