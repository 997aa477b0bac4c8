import json
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eatsim import _kernel, engine
from eatsim import (
    Lexicographic,
    Proportional,
    expected_payoffs,
    valuation_of,
)
from eatsim.equilibrium import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    best_response,
    certificate_to_json,
    deviation_report_to_json,
    ratio_report,
    run_profile,
    sequential_payoff_floor,
    verify_ne,
)
from eatsim.instances import GeneratorSpec, generate, random_instance
from eatsim.model import (
    Instance,
    LOWEST_INDEX_FIRST,
    ParseError,
    UNIFORM_OVER_REMAINING,
    fixed_order_policy,
    format_rational,
    strategy_to_json,
)
from eatsim.strategies import (
    DEFAULT_FAMILIES,
    GridProportional,
    Sequential,
    SingleMinded,
    Truthful,
    Uniform,
    describe_families,
    expand_families,
    single_minded,
)

from eatsim.engine import _kernel_args, _set_slot
from helpers import (
    random_profile, random_run_case, random_strategy, random_valuation, rng_for)

F = Fraction

SWEEP_FAMILIES = [Truthful(), SingleMinded(), Sequential(), Uniform()]


def _policy(rng, name, m):
    return {"uniform": UNIFORM_OVER_REMAINING, "lowest-index": LOWEST_INDEX_FIRST,
            "fixed": fixed_order_policy(rng.sample(range(m), m))}[name]


def _plain_reports(profile, instance, families, mechanism, policy):
    """One best_response per agent, sharing no work across agents."""
    return tuple(
        best_response(profile, agent, instance.valuations[agent], families,
                      mechanism, policy, collect_candidates=True)
        for agent in range(instance.n))


@pytest.fixture
def kernel_calls(monkeypatch):
    """The depletion events of each kernel run made while the test runs."""
    calls = []
    run_eating = _kernel.run_eating

    def counted(*args):
        result = run_eating(*args)
        calls.append(result[1])
        return result

    monkeypatch.setattr(_kernel, "run_eating", counted)
    return calls


def _segments(calls):
    """The kernel segments of the recorded runs: each run's distinct
    depletion times."""
    return sum(len({(num, den) for num, den, _ in events}) for events in calls)


@pytest.fixture(scope="module")
def example2():
    return generate(GeneratorSpec("example2")).instance


class TestBestResponse:
    def test_example2_single_minded_beats_truth(self, example2):
        report = best_response(
            profile=example2.truthful_profile(),
            agent=0,
            true_valuation=example2.valuations[0],
            families=[Truthful(), SingleMinded()],
        )
        assert report.best_label == "single-minded(1)"
        assert report.best_payoff == F(7, 12)
        assert report.baseline_payoff == F(5, 9)
        assert report.gain == F(7, 12) - F(5, 9) == F(1, 36)

    def test_grid_optimum_at_least_single_minded(self, example2):
        report = best_response(
            profile=example2.truthful_profile(),
            agent=0,
            true_valuation=example2.valuations[0],
            families=[GridProportional(12)],
        )
        assert report.best_payoff >= F(7, 12)

    def test_single_minded_truth_prefers_its_item(self):
        # an agent whose true valuation is concentrated on one item never
        # finds a better single-item bid than that item
        rng = rng_for("br-single-minded-truth")
        for trial in range(100):
            n, m = rng.randint(2, 5), rng.randint(2, 5)
            item = rng.randrange(m)
            truth = single_minded(item, m).report
            opponents = random_profile(rng, n - 1, m)
            report = best_response([Proportional(truth)] + opponents, 0, truth,
                                   [SingleMinded()], collect_candidates=True)
            own = dict(report.candidates)[f"single-minded({item + 1})"]
            assert own == report.best_payoff

    def test_gain_nonnegative_when_baseline_in_family(self):
        rng = rng_for("br-gain")
        for trial in range(30):
            n, m = rng.randint(2, 4), rng.randint(2, 4)
            inst = random_instance(n, m, 10, seed=trial).instance
            report = best_response(
                inst.truthful_profile(), 0, inst.valuations[0],
                [Truthful(), SingleMinded(), Sequential(), Uniform()])
            assert report.gain >= 0

    def test_tie_breaking_is_canonical_regardless_of_family_order(self):
        # single agent: every candidate ties at payoff 1, so the canonical
        # enumeration (truthful first) must win in both orders
        inst = Instance(1, 2, (valuation_of(["1/2", "1/2"]),))
        for families in ([Truthful(), SingleMinded()], [SingleMinded(), Truthful()]):
            report = best_response(inst.truthful_profile(), 0, inst.valuations[0], families)
            assert report.best_label == "truthful"
            assert report.best_payoff == 1

    @pytest.mark.parametrize("policy_name", ["uniform", "lowest-index", "fixed"])
    def test_baseline_slot_reached_late_is_the_best(self, policy_name):
        # the baseline payoff, 1/2, is known before any candidate runs, but
        # single-minded(2) is the first candidate with the baseline's slot:
        # truthful (7/15) and single-minded(1) (1/3) before it pay less, so
        # it is the best response
        truth = valuation_of(["1/3", "2/3"])
        profile = [single_minded(1, 2), Lexicographic((1, 0))]
        policy = _policy(rng_for(f"br-baseline-trap:{policy_name}"), policy_name, 2)
        for collect in (True, False):
            report = best_response(profile, 0, truth, [Truthful(), SingleMinded()],
                                   policy=policy, collect_candidates=collect)
            assert report.best_label == "single-minded(2)"
            assert report.best_strategy == single_minded(1, 2)
            assert report.best_payoff == report.baseline_payoff == F(1, 2)
            assert report.gain == 0
        assert report.candidates is None
        assert best_response(profile, 0, truth, [Truthful(), SingleMinded()], policy=policy,
                             collect_candidates=True).candidates == (
            ("truthful", F(7, 15)), ("single-minded(1)", F(1, 3)),
            ("single-minded(2)", F(1, 2)))

    def test_budget_enforced(self, example2):
        with pytest.raises(BudgetExceededError):
            best_response(example2.truthful_profile(), 0, example2.valuations[0],
                          [GridProportional(12)], budget=5)


    @pytest.mark.parametrize("agent", [-1, 3, 4])
    def test_agent_index_out_of_range_rejected(self, agent):
        # at agent -1 the deviator's row used to be the last opponent's,
        # priced with the deviator's valuation; past n the kernel raised
        # IndexError
        instance = generate(GeneratorSpec("example1")).instance
        profile = instance.truthful_profile()
        with pytest.raises(ValueError, match=f"agent {agent} out of range for 3 agents"):
            best_response(profile, agent, instance.valuations[2], [Truthful()])

    @pytest.mark.parametrize("family", ["truthful", object(), None],
                             ids=["str", "object", "none"])
    def test_non_family_rejected(self, example2, family):
        with pytest.raises(TypeError, match="not a strategy family"):
            verify_ne(example2.truthful_profile(), example2, families=[family])
        with pytest.raises(TypeError, match="not a strategy family"):
            best_response(example2.truthful_profile(), 0, example2.valuations[0],
                          [Truthful(), family])

    @pytest.mark.parametrize("families", [
        [Sequential(orders=())], [Uniform(sets=())], [Sequential(orders=()), Uniform(sets=())]],
        ids=["sequential", "uniform", "both"])
    def test_families_without_members_rejected(self, example2, families):
        with pytest.raises(ValueError, match="no members"):
            best_response(example2.truthful_profile(), 0, example2.valuations[0], families)
        with pytest.raises(ValueError, match="no members"):
            verify_ne(example2.truthful_profile(), example2, families=families)


class TestSweepMatchesPlainRuns:
    """Each candidate of a sweep is keyed by its slot, which ``engine._slot``
    writes in the shortest form that eats the same; each distinct slot costs
    one lean kernel run and one comparison, and a repeated slot reuses its
    payoff. Every payoff must be the one a full run of the whole profile
    gives, and the report must name the first maximiser."""

    @pytest.mark.parametrize("mechanism", ["cps", "ps"])
    @pytest.mark.parametrize("policy_name", ["uniform", "lowest-index", "fixed"])
    def test_candidate_payoffs_equal_full_runs(self, mechanism, policy_name):
        self._check_sweeps(rng_for(f"sweep-plain-runs:{mechanism}:{policy_name}"),
                           mechanism, policy_name, baseline="random")

    @pytest.mark.parametrize("mechanism", ["cps", "ps"])
    @pytest.mark.parametrize("policy_name", ["uniform", "lowest-index", "fixed"])
    def test_coinciding_candidate_payoffs_equal_full_runs(self, mechanism, policy_name):
        # the deviator is single-minded on item j and truthful: the baseline,
        # truthful, single-minded(j), uniform({j}) and sequential(j) eat alike
        # under CPS, and under PS so does every candidate with the same
        # ordinal shadow, so most payoffs are reused
        self._check_sweeps(rng_for(f"sweep-coinciding-runs:{mechanism}:{policy_name}"),
                           mechanism, policy_name, baseline="single-minded")

    @pytest.mark.parametrize("mechanism", ["cps", "ps"])
    @pytest.mark.parametrize("policy_name", ["uniform", "lowest-index", "fixed"])
    def test_prefix_baseline_payoffs_equal_full_runs(self, mechanism, policy_name):
        # the deviator plays an order prefix, and its completion is one of the
        # candidates: under the lowest-index and fixed policies the two eat
        # alike and share the baseline's payoff
        self._check_sweeps(rng_for(f"sweep-prefix-runs:{mechanism}:{policy_name}"),
                           mechanism, policy_name, baseline="prefix")

    @staticmethod
    def _check_sweeps(rng, mechanism, policy_name, baseline):
        for _ in range(12):
            n, m, instance, profile, _ = random_run_case(rng, max_n=5, max_m=5)
            policy = _policy(rng, policy_name, m)
            agent = rng.randrange(n)
            zero_order = policy.order or range(m)

            def completion(order):
                return order + tuple(j for j in zero_order if j not in order)

            # random prefixes of every length, the empty one included, and
            # their completions; one-item orders fall to the zero policy
            prefixes = [tuple(rng.sample(range(m), k)) for k in range(m + 1)]
            orders = tuple((j,) for j in range(m)) + tuple(prefixes) + tuple(
                map(completion, prefixes))
            if baseline == "single-minded":
                rows = list(instance.valuations)
                rows[agent] = single_minded(rng.randrange(m), m).report
                instance = Instance(n, m, tuple(rows))
                profile[agent] = Proportional(rows[agent])
            elif baseline == "prefix":
                own = tuple(rng.sample(range(m), rng.randint(0, m)))
                profile[agent] = Lexicographic(own)
                orders += (completion(own),)
            truth = instance.valuations[agent]
            families = [Truthful(), SingleMinded(), Sequential(orders), Uniform()]
            report = best_response(profile, agent, truth, families, mechanism, policy,
                                   collect_candidates=True)

            def full_run_payoff(strategy):
                trace = run_profile(n, m, profile[:agent] + [strategy] + profile[agent + 1:],
                                    mechanism, policy)
                return expected_payoffs(trace, instance.valuations)[agent]

            assert report.baseline_payoff == full_run_payoff(profile[agent])
            candidates = list(expand_families(families, truth, m))
            assert [label for label, _ in report.candidates] == [label for label, _ in candidates]
            assert [value for _, value in report.candidates] == \
                [full_run_payoff(strategy) for _, strategy in candidates]
            assert report.runs == len(candidates) + 1
            # the report names the first maximiser among the candidates
            first_best = max(range(len(candidates)),
                             key=lambda c: (report.candidates[c][1], -c))
            assert report.best_label == report.candidates[first_best][0]
            assert report.best_strategy == candidates[first_best][1]
            assert report.best_payoff == report.candidates[first_best][1]
            assert best_response(profile, agent, truth, families, mechanism, policy) == \
                replace(report, candidates=None)


class TestSweepsShareWorkAcrossAgents:
    """verify_ne sweeps once per class of agents with the same true valuation
    and the same strategy as the kernel sees it; every report must equal the
    one a sweep of that agent alone gives."""

    @pytest.mark.parametrize("name, params", [
        ("log-m-lb", {"k": 3, "q": 2}), ("sqrt-n-lb", {"n": 16}),
        ("stability-lb", {"n": 9}), ("cps-beats-ps", {"n": 9})],
        ids=["log-m-lb", "sqrt-n-lb", "stability-lb", "cps-beats-ps"])
    @pytest.mark.parametrize("mechanism", ["cps", "ps"])
    @pytest.mark.parametrize("policy_name", ["uniform", "lowest-index", "fixed"])
    def test_reports_equal_per_agent_sweeps(self, name, params, mechanism, policy_name):
        generated = generate(GeneratorSpec(name, params))
        canonical = generated.instance
        n, m = canonical.n, canonical.m
        profile = list(generated.bad_profile or canonical.truthful_profile())
        # relabel the agents so that a block of identical agents is not
        # contiguous
        rng = rng_for(f"shared-sweeps:{name}:{mechanism}:{policy_name}")
        perm = rng.sample(range(n), n)
        instance = Instance(n, m, tuple(canonical.valuations[c] for c in perm))
        profile = [profile[c] for c in perm]
        policy = _policy(rng, policy_name, m)
        cert = verify_ne(profile, instance, families=SWEEP_FAMILIES, mechanism=mechanism,
                         policy=policy, collect_candidates=True)
        plain = _plain_reports(profile, instance, SWEEP_FAMILIES, mechanism, policy)
        assert cert.reports == plain
        assert [r.agent for r in cert.reports] == list(range(n))
        witness = next((r for r in plain if r.gain > 0), None)
        assert cert.witness == witness

    @pytest.mark.parametrize("mechanism", ["cps", "ps"])
    @pytest.mark.parametrize("policy_name", ["uniform", "lowest-index", "fixed"])
    def test_agents_with_strategies_that_eat_alike_share_a_sweep(
            self, mechanism, policy_name, kernel_calls):
        # each copy has its source's valuation and plays the source's order in
        # another form that eats alike: a single-minded report for a one-item
        # order, and for any other the completion that the agent eats once
        # the order runs out (in index order under PS, in the policy's order
        # under CPS with the lowest-index or fixed policy, and under CPS with
        # the uniform policy for an order of m - 1 items only); the
        # certificate and its kernel calls must be those of the profile whose
        # copies play the source's order as written
        rng = rng_for(f"sweeps-on-eating-keys:{mechanism}:{policy_name}")
        for _ in range(10):
            m, sources = rng.randint(1, 4), rng.randint(1, 3)
            policy = _policy(rng, policy_name, m)
            valuations = [random_valuation(rng, m) for _ in range(sources)]
            orders = [tuple(rng.sample(range(m), rng.randint(0, m))) for _ in range(sources)]
            rewritten = []
            for order in orders:
                if len(order) == 1:
                    rewritten.append(single_minded(order[0], m))
                elif mechanism == "cps" and policy_name == "uniform" and len(order) < m - 1:
                    rewritten.append(Lexicographic(order))
                else:
                    zero_order = range(m) if mechanism == "ps" else policy.order or range(m)
                    rewritten.append(Lexicographic(
                        order + tuple(j for j in zero_order if j not in order)))
            perm = rng.sample(range(2 * sources), 2 * sources)
            instance = Instance(2 * sources, m, tuple((valuations * 2)[c] for c in perm))
            certs = []
            for copies in (rewritten, [Lexicographic(order) for order in orders]):
                profile = [(list(map(Lexicographic, orders)) + copies)[c] for c in perm]
                kernel_calls.clear()
                cert = verify_ne(profile, instance, families=SWEEP_FAMILIES,
                                 mechanism=mechanism, policy=policy, collect_candidates=True)
                certs.append((cert.reports, len(kernel_calls)))
                assert cert.reports == _plain_reports(profile, instance, SWEEP_FAMILIES,
                                                      mechanism, policy)
            assert certs[0] == certs[1]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_only_agents_equal_in_valuation_and_strategy_are_merged(self, data):
        # copies share a valuation, a strategy or both with their source, so
        # a sweep shared on one of the two alone gives a wrong report
        rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
        n0, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        valuations = [random_valuation(rng, m) for _ in range(n0)]
        profile = random_profile(rng, n0, m)
        for _ in range(data.draw(st.integers(1, 4))):
            source = data.draw(st.integers(0, len(profile) - 1))
            shared = data.draw(st.sampled_from(["valuation", "strategy", "both"]))
            valuation, strategy = valuations[source], profile[source]
            if shared == "strategy":
                valuation = random_valuation(rng, m)
            elif shared == "valuation":
                strategy = random_strategy(rng, m)
            valuations.append(valuation)
            profile.append(strategy)
        order = data.draw(st.permutations(range(len(profile))))
        n = len(profile)
        instance = Instance(n, m, tuple(valuations[c] for c in order))
        profile = [profile[c] for c in order]
        mechanism = data.draw(st.sampled_from(["cps", "ps"]))
        policy = _policy(rng, data.draw(st.sampled_from(["uniform", "lowest-index", "fixed"])), m)
        cert = verify_ne(profile, instance, families=SWEEP_FAMILIES, mechanism=mechanism,
                         policy=policy, collect_candidates=True)
        assert cert.reports == _plain_reports(profile, instance, SWEEP_FAMILIES,
                                              mechanism, policy)

    @staticmethod
    def _dyadic_certificate(q, mechanism, policy=LOWEST_INDEX_FIRST):
        gen = generate(GeneratorSpec("log-m-lb", {"k": 8, "q": q}))
        return verify_ne(list(gen.bad_profile), gen.instance, mechanism=mechanism,
                         families=[Truthful(), SingleMinded(), Sequential()],
                         policy=policy)

    def test_kernel_calls_on_the_dyadic_certificate(self, kernel_calls):
        # the 10 agents of log-m-lb k=8 q=2 fall into 3 classes, and a
        # candidate that eats like the baseline or an earlier candidate is not
        # run again: single-minded(j) like sequential(j), and each greedy
        # prefix like its completion; engine_runs still counts every
        # candidate of every agent
        cert = self._dyadic_certificate(2, "cps")
        assert cert.verdict == "certified"
        assert sum(r.runs for r in cert.reports) == 160
        assert len(kernel_calls) == 27
        # each lean run stops once the items left are worth the same to the
        # deviator (111 segments when it stopped only at a tail worth 0, 189
        # when every run went on to m / n)
        assert _segments(kernel_calls) == 67

    def test_kernel_calls_on_the_ps_dyadic_certificate(self, kernel_calls):
        cert = self._dyadic_certificate(2, "ps")
        assert cert.verdict == "certified"
        assert sum(r.runs for r in cert.reports) == 160
        assert len(kernel_calls) == 25
        assert _segments(kernel_calls) == 61  # 101 at a zero tail, 175 without a stop

    @pytest.mark.parametrize("mechanism, calls", [("cps", 74), ("ps", 71)])
    def test_kernel_calls_on_the_q3_certificate(self, kernel_calls, mechanism, calls):
        # PS runs each candidate as its ordinal shadow, a full order, and
        # distinct full orders keep distinct slots, so only CPS runs fewer
        cert = self._dyadic_certificate(3, mechanism)
        assert cert.verdict == "certified"
        assert sum(r.runs for r in cert.reports) == 352
        assert len(kernel_calls) == calls

    def test_kernel_calls_on_the_dyadic_certificate_under_the_uniform_policy(
            self, kernel_calls):
        # the full greedy order of each agent eats like its prefix of m - 1
        # items: under the uniform policy the last item is then eaten alone
        cert = self._dyadic_certificate(2, "cps", UNIFORM_OVER_REMAINING)
        assert cert.verdict == "refuted"
        assert sum(r.runs for r in cert.reports) == 160
        assert len(kernel_calls) == 38
        assert _segments(kernel_calls) == 86  # 115 at a zero tail, 168 without a stop

    def test_kernel_segments_on_the_sqrt_n_certificate(self, kernel_calls):
        # the bad profile's agents spread the rest of their value evenly, so
        # a lean run stops once only that even tail is left (1,244 segments
        # when it stopped only at a tail worth 0)
        gen = generate(GeneratorSpec("sqrt-n-lb", {"n": 16}))
        cert = verify_ne(list(gen.bad_profile), gen.instance)
        assert cert.verdict == "refuted"
        assert len(kernel_calls) == 136
        assert _segments(kernel_calls) == 424


class TestMemberSlotsAndClassCopies:
    """A sweep computes each member's slot once per call, at the member's
    first appearance, and the other agents of a class get a copy of its
    representative's report; certificate_to_json renders each class once."""

    @pytest.mark.parametrize("mechanism", ["cps", "ps"])
    @pytest.mark.parametrize("policy_name", ["uniform", "lowest-index", "fixed"])
    def test_every_member_gets_the_slot_of_a_fresh_set_slot(
            self, mechanism, policy_name, monkeypatch):
        # each payoff is an id of the slot the deviator held in its run, so
        # every candidate's payoff names the slot the sweep gave it, whether
        # computed then or remembered from an earlier member or agent
        ids = {}

        def slot_ids(args, agents, valuations, opening=None):
            _, _, weights, orders, _ = args
            return [(ids.setdefault((weights[i], orders[i]), len(ids)), 1) for i in agents]

        monkeypatch.setattr(engine, "_payoffs", slot_ids)
        rng = rng_for(f"sweep-member-slots:{mechanism}:{policy_name}")
        for _ in range(15):
            n, m, instance, profile, _ = random_run_case(rng, max_n=4, max_m=3)
            policy = _policy(rng, policy_name, m)
            sequences = tuple(tuple(rng.sample(range(m), rng.randint(0, m))) for _ in range(4))
            families = [Truthful(), SingleMinded(), Sequential(sequences), Uniform(),
                        GridProportional(3)]
            cert = verify_ne(profile, instance, families=families, mechanism=mechanism,
                             policy=policy, collect_candidates=True)
            slots = {slot: F(slot_id) for slot, slot_id in ids.items()}
            for report, truth in zip(cert.reports, instance.valuations):
                args = _kernel_args(n, m, profile, policy, mechanism)
                _, _, weights, orders, _ = args
                agent = report.agent
                assert report.baseline_payoff == slots[weights[agent], orders[agent]]
                members = list(expand_families(families, truth, m))
                assert [label for label, _ in report.candidates] == \
                    [label for label, _ in members]
                for (_, value), (_, member) in zip(report.candidates, members):
                    _set_slot(args, agent, member, mechanism)
                    assert value == slots[weights[agent], orders[agent]]

    @pytest.mark.parametrize("mechanism", ["cps", "ps"])
    def test_a_member_that_does_not_fit_m_is_rejected_at_its_first_appearance(
            self, mechanism):
        instance = generate(GeneratorSpec("example1")).instance
        profile = instance.truthful_profile()
        families = [Truthful(), Sequential(((0,), (0, 3), (1,)))]
        with pytest.raises(ValueError, match="^agent 2: order index out of range for m = 3$"):
            best_response(profile, 1, instance.valuations[1], families, mechanism)
        with pytest.raises(ValueError, match="^agent 1: order index out of range for m = 3$"):
            verify_ne(profile, instance, families=families, mechanism=mechanism)

    @staticmethod
    def _sqrt_n_certificate(mechanism, collect_candidates=False):
        gen = generate(GeneratorSpec("sqrt-n-lb", {"n": 16}))
        profile = list(gen.bad_profile)
        return gen.instance, profile, verify_ne(
            profile, gen.instance, families=SWEEP_FAMILIES, mechanism=mechanism,
            collect_candidates=collect_candidates)

    @pytest.mark.parametrize("mechanism", ["cps", "ps"])
    def test_class_members_copy_their_representatives_report(self, mechanism):
        instance, profile, cert = self._sqrt_n_certificate(mechanism, True)
        representatives, copies = {}, 0
        for report, truth, strategy in zip(cert.reports, instance.valuations, profile):
            first = representatives.setdefault((truth, strategy), report)
            copies += first is not report
            for field in fields(report):
                if field.name != "agent":
                    assert getattr(report, field.name) == getattr(first, field.name)
        assert copies > 0

    @pytest.mark.parametrize("mechanism", ["cps", "ps"])
    @pytest.mark.parametrize("collect", [False, True], ids=["plain", "candidates"])
    def test_certificate_json_equals_per_report_rendering(self, mechanism, collect):
        _, profile, cert = self._sqrt_n_certificate(mechanism, collect)
        doc = certificate_to_json(cert, profile)
        witness = deviation_report_to_json(cert.witness) if cert.witness else None
        assert json.dumps(doc) == json.dumps({
            "epsilon": format_rational(cert.epsilon),
            "verdict": cert.verdict,
            "mechanism": cert.mechanism,
            "families": cert.families,
            "budget": cert.budget,
            "profile": [strategy_to_json(s) for s in profile],
            "reports": [deviation_report_to_json(r) for r in cert.reports],
            "witness": witness,
        })
        # every report doc is its own dict, so relabelling the agent of one
        # in place changes no other
        docs = doc["reports"] + ([doc["witness"]] if witness else [])
        assert len({id(d) for d in docs}) == len(docs)


class TestOneCheckedSweep:
    """best_response and verify_ne share one sweep that checks the agents, the
    families and the budget, in that order, and only then the profile."""

    def test_both_entries_refuse_with_one_message(self, example2):
        # m = 2: truthful plus two single-minded candidates, so each swept
        # agent costs 4 engine runs with its baseline
        families = [Truthful(), SingleMinded()]
        with pytest.raises(BudgetExceededError,
                           match="^sweep needs 4 engine runs, budget is 3$"):
            best_response(example2.truthful_profile(), 0, example2.valuations[0],
                          families, budget=3)
        with pytest.raises(BudgetExceededError,
                           match="^sweep needs 8 engine runs, budget is 7$"):
            verify_ne(example2.truthful_profile(), example2, families=families, budget=7)

    def test_the_library_does_not_read_the_budget_variable(self, example2, monkeypatch):
        # only the CLI reads ALLOC_BUDGET; a library call takes budget=
        monkeypatch.setenv("ALLOC_BUDGET", "1")
        cert = verify_ne(example2.truthful_profile(), example2,
                         families=[Truthful(), SingleMinded()])
        assert cert.budget == DEFAULT_BUDGET == 1000000
        assert sum(r.runs for r in cert.reports) == 8
        report = best_response(example2.truthful_profile(), 0, example2.valuations[0],
                               [SingleMinded(), Truthful()])
        assert report.runs == 4

    def test_agent_checked_before_the_families(self, example2):
        with pytest.raises(ValueError, match="agent 2 out of range for 2 agents"):
            best_response(example2.truthful_profile(), 2, example2.valuations[0], [])

    @pytest.mark.parametrize("mechanism", ["cps", "ps"])
    def test_families_from_a_generator_equal_the_tuple(self, mechanism):
        """The sweep reads the families for their sizes, their description and
        each agent's members, so a one-shot iterable must give the same
        certificate and reports as the tuple."""
        instance = generate(GeneratorSpec("log-m-lb", {"k": 8, "q": 2})).instance
        profile = instance.truthful_profile()
        families = (*DEFAULT_FAMILIES, Uniform())
        cert = verify_ne(profile, instance, 0, families, mechanism,
                         collect_candidates=True)
        assert verify_ne(profile, instance, 0, (f for f in families), mechanism,
                         collect_candidates=True) == cert
        assert cert.families == describe_families(families, instance.m)
        for agent in (0, instance.n - 1):
            report = best_response(profile, agent, instance.valuations[agent],
                                   families, mechanism, collect_candidates=True)
            assert best_response(profile, agent, instance.valuations[agent],
                                 iter(families), mechanism,
                                 collect_candidates=True) == report

    def test_profile_length_checked_last(self):
        example1 = generate(GeneratorSpec("example1")).instance
        short = list(example1.truthful_profile())[:-1]
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            verify_ne(short, example1, F(-1), families=[])
        with pytest.raises(ValueError, match="need at least one strategy family"):
            verify_ne(short, example1, families=[])
        with pytest.raises(BudgetExceededError):
            verify_ne(short, example1, families=[Truthful()], budget=5)
        with pytest.raises(ValueError, match="profile has 2 strategies, expected 3"):
            verify_ne(short, example1, families=[Truthful()], budget=6)


class TestVerifyNe:
    @pytest.mark.parametrize("extra", [1, -1], ids=["n+1", "n-1"])
    def test_profile_length_must_match_instance(self, extra):
        instance = generate(GeneratorSpec("example1")).instance
        profile = list(instance.truthful_profile())
        profile = profile + profile[:1] if extra > 0 else profile[:-1]
        with pytest.raises(ValueError,
                           match=f"profile has {3 + extra} strategies, expected 3"):
            verify_ne(profile, instance, families=[Truthful(), SingleMinded()])

    @pytest.mark.parametrize("epsilon, exact", [
        ("1/10", F(1, 10)), (" 0.5 ", F(1, 2)), (1, F(1))],
        ids=["string", "decimal-string", "int"])
    def test_epsilon_is_stored_as_a_fraction(self, example2, epsilon, exact):
        cert = verify_ne(example2.truthful_profile(), example2, epsilon, [Truthful()])
        assert type(cert.epsilon) is Fraction and cert.epsilon == exact
        assert certificate_to_json(cert, example2.truthful_profile())["epsilon"] == \
            format_rational(exact)

    def test_string_epsilon_is_parsed_before_the_range_check(self, example2):
        with pytest.raises(ValueError, match="epsilon must be nonnegative, got -1/10"):
            verify_ne(example2.truthful_profile(), example2, "-1/10", [Truthful()])
        with pytest.raises(ParseError, match="malformed rational 'abc'"):
            verify_ne(example2.truthful_profile(), example2, "abc", [Truthful()])

    def test_negative_epsilon_rejected(self, example2):
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            verify_ne(example2.truthful_profile(), example2, F(-1, 2), [Truthful()])

    def test_example2_truthful_refuted_with_witness(self, example2):
        cert = verify_ne(example2.truthful_profile(), example2,
                         families=[Truthful(), SingleMinded()])
        assert cert.verdict == "refuted"
        assert cert.witness.agent == 0
        assert cert.witness.best_label == "single-minded(1)"
        assert cert.witness.gain == F(1, 36)

    def test_default_families_equal_the_explicit_call(self, example2):
        # the default used to be no family at all, which the sweep rejects
        cert = verify_ne(example2.truthful_profile(), example2)
        assert cert == verify_ne(example2.truthful_profile(), example2,
                                 families=[Truthful(), SingleMinded(), Sequential()])
        assert cert.families == "truthful + single-minded[all 2 items] + sequential[greedy orders]"
        assert cert.verdict == "refuted"

    def test_mutually_single_minded_profile_certified(self):
        n = 3
        rows = tuple(single_minded(i, n).report for i in range(n))
        inst = Instance(n, n, rows)
        cert = verify_ne(inst.truthful_profile(), inst,
                         families=[Truthful(), SingleMinded(), Sequential(), Uniform()])
        assert cert.verdict == "certified"
        assert all(r.baseline_payoff == 1 for r in cert.reports)

    def test_opposed_bids_certified_even_against_grid(self, example2):
        profile = [Proportional(valuation_of(["1", "0"])),
                   Proportional(valuation_of(["0", "1"]))]
        cert = verify_ne(profile, example2,
                         families=[Truthful(), SingleMinded(), Sequential(),
                                   Uniform(), GridProportional(12)])
        assert cert.verdict == "certified"
        assert all(r.baseline_payoff == F(2, 3) for r in cert.reports)

    def test_certified_profiles_clear_the_quarter_rule_floor(self, example2):
        # every certified profile in this suite gets the payoff-floor check
        certified = [
            ([Proportional(valuation_of(["1", "0"])),
              Proportional(valuation_of(["0", "1"]))], example2),
        ]
        n = 3
        identity = Instance(n, n, tuple(single_minded(i, n).report for i in range(n)))
        certified.append((identity.truthful_profile(), identity))
        for profile, inst in certified:
            cert = verify_ne(profile, inst, families=[Truthful(), SingleMinded()])
            assert cert.verdict == "certified"
            trace = run_profile(inst.n, inst.m, profile)
            times = trace.consumption_times()
            sequence = sorted((j for j in range(inst.m) if times[j] <= 1),
                              key=lambda j: (times[j], j))
            payoffs = expected_payoffs(trace, inst.valuations)
            for i in range(inst.n):
                floor = sequential_payoff_floor(trace, inst.valuations[i], sequence)
                assert payoffs[i] + cert.epsilon >= floor

    def test_verdict_consistency_enforced(self, example2):
        cert = verify_ne(example2.truthful_profile(), example2,
                         families=[Truthful(), SingleMinded()])
        with pytest.raises(ValueError):
            type(cert)(
                epsilon=cert.epsilon, verdict="certified", reports=cert.reports,
                witness=cert.witness, mechanism=cert.mechanism,
                families=cert.families, budget=cert.budget)

    def test_epsilon_absorbs_small_gains(self, example2):
        cert = verify_ne(example2.truthful_profile(), example2, epsilon=F(1, 10),
                         families=[Truthful(), SingleMinded()])
        assert cert.verdict == "certified"

    def test_certificate_json_shape(self, example2):
        profile = example2.truthful_profile()
        cert = verify_ne(profile, example2, families=[Truthful(), SingleMinded()],
                         collect_candidates=True)
        doc = certificate_to_json(cert, profile)
        assert doc["verdict"] == "refuted"
        assert doc["witness"]["agent"] == 1
        assert doc["reports"][0]["candidates"]

    def test_dyadic_bad_profile_is_family_relative_equilibrium(self):
        # the welfare-gap construction's designated profile holds up against
        # single-minded and greedy sequential deviations: every gain is 0
        gen = generate(GeneratorSpec("log-m-lb", {"k": 8, "q": 4}))
        inst = gen.instance
        cert = verify_ne(list(gen.bad_profile), inst, epsilon=F(1, 100),
                         families=[SingleMinded(), Sequential()])
        assert cert.verdict == "certified"
        assert all(r.gain == 0 for r in cert.reports)
        # certified profiles must clear the quarter-rule payoff floor over
        # the items finished by time one
        trace = run_profile(inst.n, inst.m, list(gen.bad_profile))
        times = trace.consumption_times()
        early = sorted((j for j in range(inst.m) if times[j] <= 1),
                       key=lambda j: (times[j], j))
        payoffs = expected_payoffs(trace, inst.valuations)
        for i in range(inst.n):
            floor = sequential_payoff_floor(trace, inst.valuations[i], early)
            assert payoffs[i] + cert.epsilon >= floor

    def test_ordinal_mechanism_sweep(self, example2):
        # under favorite-first eating the truthful profile of this instance
        # is already a strict matching, so nothing improves
        cert = verify_ne(example2.truthful_profile(), example2,
                         families=[Truthful(), SingleMinded(), Sequential()],
                         mechanism="ps")
        assert cert.verdict == "certified"
        assert all(r.baseline_payoff == F(2, 3) for r in cert.reports)


class TestMalformedProfilesUnderBothMechanisms:
    """ps converts a profile to lexicographic orders; it must first reject
    what the kernel arguments reject under cps, with the same message."""

    @pytest.mark.parametrize("entry, message", [
        (Proportional(valuation_of(["1/2", "1/2"])), "agent 2: report length 2 != m = 3"),
        ("x", "agent 2: not a strategy: 'x'"),
    ], ids=["short-report", "not-a-strategy"])
    @pytest.mark.parametrize("call", ["verify_ne", "best_response", "ratio_report",
                                      "run_profile"])
    def test_same_error_under_cps_and_ps(self, call, entry, message):
        instance = generate(GeneratorSpec("example1")).instance
        profile = instance.truthful_profile()
        profile[1] = entry
        calls = {
            "verify_ne": lambda mech: verify_ne(
                profile, instance, families=[Truthful(), SingleMinded()], mechanism=mech),
            "best_response": lambda mech: best_response(
                profile, 0, instance.valuations[0], [Truthful(), SingleMinded()], mech),
            "ratio_report": lambda mech: ratio_report(instance, profile, mech),
            "run_profile": lambda mech: run_profile(3, 3, profile, mech),
        }
        for mechanism in ("cps", "ps"):
            with pytest.raises(ValueError) as exc:
                calls[call](mechanism)
            assert str(exc.value) == message

    @pytest.mark.parametrize("call", ["verify_ne", "best_response", "ratio_report",
                                      "run_profile"])
    def test_policy_is_checked_before_the_strategies(self, call):
        instance = generate(GeneratorSpec("example1")).instance
        profile = instance.truthful_profile()
        profile[1] = Proportional(valuation_of(["1/2", "1/2"]))
        policy = fixed_order_policy((1, 0))
        families = [Truthful(), SingleMinded()]
        calls = {
            "verify_ne": lambda mech: verify_ne(profile, instance, families=families,
                                                mechanism=mech, policy=policy),
            "best_response": lambda mech: best_response(
                profile, 0, instance.valuations[0], families, mech, policy),
            "ratio_report": lambda mech: ratio_report(instance, profile, mech, policy),
            "run_profile": lambda mech: run_profile(3, 3, profile, mech, policy),
        }
        for mechanism in ("cps", "ps"):
            with pytest.raises(ValueError, match="^fixed zero policy must order all 3 items$"):
                calls[call](mechanism)

    def test_length_is_checked_before_the_strategies(self):
        instance = generate(GeneratorSpec("example1")).instance
        profile = instance.truthful_profile()
        profile[1] = "x"
        for mechanism in ("cps", "ps"):
            with pytest.raises(ValueError, match="^profile has 3 strategies, expected 4$"):
                run_profile(4, 3, profile, mechanism)


class TestRatioReport:
    def test_example2_truthful_ratio(self, example2):
        report = ratio_report(example2, example2.truthful_profile())
        assert report.welfare == F(10, 9)
        assert report.opt == F(4, 3)
        assert report.ratio == F(6, 5)

    def test_identity_ratio_one(self):
        n = 3
        inst = Instance(n, n, tuple(single_minded(i, n).report for i in range(n)))
        report = ratio_report(inst, inst.truthful_profile())
        assert report.ratio == 1

    def test_zero_welfare_flagged_not_raised(self):
        inst = Instance(2, 2, (valuation_of(["1", "0"]), valuation_of(["0", "1"])))
        swapped = [Lexicographic((1,)), Lexicographic((0,))]
        report = ratio_report(inst, swapped)
        assert report.welfare == 0
        assert report.infinite and report.ratio is None


class TestSequentialPayoffFloor:
    def test_rejects_items_past_time_one(self):
        gen = generate(GeneratorSpec("log-m-lb", {"k": 2, "q": 2}))
        trace = run_profile(gen.instance.n, gen.instance.m, list(gen.bad_profile))
        late = [j for j in range(gen.instance.m)
                if trace.consumption_times()[j] > 1]
        with pytest.raises(ValueError):
            sequential_payoff_floor(trace, gen.instance.valuations[0], late[:1])

    def test_rejects_unsorted_sequences(self, example2):
        profile = [single_minded(0, 2), example2.truthful_profile()[1]]
        trace = run_profile(2, 2, profile)
        # item 1 (index 0) finishes first; feeding them latest-first is an error
        with pytest.raises(ValueError):
            sequential_payoff_floor(trace, example2.valuations[0], [1, 0])
