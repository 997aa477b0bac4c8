import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eatsim import _kernel
from eatsim import (
    Lexicographic,
    Proportional,
    expected_payoffs,
    valuation_of,
)
from eatsim.equilibrium import (
    BudgetExceededError,
    best_response,
    certificate_to_json,
    configured_budget,
    ratio_report,
    run_profile,
    sequential_payoff_floor,
    verify_ne,
)
from eatsim.instances import GeneratorSpec, generate, random_instance
from eatsim.model import (
    Instance,
    LOWEST_INDEX_FIRST,
    UNIFORM_OVER_REMAINING,
    fixed_order_policy,
)
from eatsim.strategies import (
    GridProportional,
    Sequential,
    SingleMinded,
    Truthful,
    Uniform,
    expand_families,
    single_minded,
)

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

    def test_budget_enforced(self, example2):
        with pytest.raises(BudgetExceededError):
            best_response(example2.truthful_profile(), 0, example2.valuations[0],
                          [GridProportional(12)], budget=5)

    def test_budget_env_override(self, example2, monkeypatch):
        monkeypatch.setenv("ALLOC_BUDGET", "3")
        assert configured_budget() == 3
        with pytest.raises(BudgetExceededError):
            best_response(example2.truthful_profile(), 0, example2.valuations[0],
                          [SingleMinded(), Truthful()])


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
    """Each distinct candidate of a sweep costs one lean kernel run on the
    deviator's slot, and a repeated slot reuses its payoff; every payoff must
    be the one a full run of the whole profile gives."""

    @pytest.mark.parametrize("mechanism", ["cps", "ps"])
    @pytest.mark.parametrize("policy_name", ["uniform", "lowest-index", "fixed"])
    def test_candidate_payoffs_equal_full_runs(self, mechanism, policy_name):
        self._check_sweeps(rng_for(f"sweep-plain-runs:{mechanism}:{policy_name}"),
                           mechanism, policy_name, coincide=False)

    @pytest.mark.parametrize("mechanism", ["cps", "ps"])
    @pytest.mark.parametrize("policy_name", ["uniform", "lowest-index", "fixed"])
    def test_coinciding_candidate_payoffs_equal_full_runs(self, mechanism, policy_name):
        # the deviator is single-minded on item j and truthful: the baseline,
        # truthful, single-minded(j) and uniform({j}) are one kernel input
        # under CPS, and under PS so is every candidate with the same ordinal
        # shadow, so most payoffs are reused
        self._check_sweeps(rng_for(f"sweep-coinciding-runs:{mechanism}:{policy_name}"),
                           mechanism, policy_name, coincide=True)

    @staticmethod
    def _check_sweeps(rng, mechanism, policy_name, coincide):
        for _ in range(12):
            n, m, instance, profile, _ = random_run_case(rng, max_n=5, max_m=5)
            policy = _policy(rng, policy_name, m)
            agent = rng.randrange(n)
            if coincide:
                rows = list(instance.valuations)
                rows[agent] = single_minded(rng.randrange(m), m).report
                instance = Instance(n, m, tuple(rows))
                profile[agent] = Proportional(rows[agent])
            truth = instance.valuations[agent]
            # one-item prefix orders make the deviator fall to the zero policy
            orders = tuple((j,) for j in range(m)) + (tuple(rng.sample(range(m), m)),)
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

    def test_kernel_calls_on_the_dyadic_certificate(self, monkeypatch):
        # the 10 agents of log-m-lb k=8 q=2 fall into 3 classes, and a
        # candidate equal to the baseline or an earlier candidate is not run
        # again; engine_runs still counts every candidate of every agent
        calls = []
        run_eating = _kernel.run_eating

        def counted(*args):
            calls.append(None)
            return run_eating(*args)

        monkeypatch.setattr(_kernel, "run_eating", counted)
        gen = generate(GeneratorSpec("log-m-lb", {"k": 8, "q": 2}))
        cert = verify_ne(list(gen.bad_profile), gen.instance,
                         families=[Truthful(), SingleMinded(), Sequential()])
        assert cert.verdict == "certified"
        assert sum(r.runs for r in cert.reports) == 160
        assert len(calls) == 44


class TestVerifyNe:
    @pytest.mark.parametrize("extra", [1, -1], ids=["n+1", "n-1"])
    def test_profile_length_must_match_instance(self, extra):
        instance = generate(GeneratorSpec("example1")).instance
        profile = list(instance.truthful_profile())
        profile = profile + profile[:1] if extra > 0 else profile[:-1]
        with pytest.raises(ValueError,
                           match=f"profile has {3 + extra} strategies, instance has 3 agents"):
            verify_ne(profile, instance, families=[Truthful(), SingleMinded()])

    def test_float_epsilon_rejected(self, example2):
        # a float epsilon used to certify after a float comparison, and the
        # certificate then failed to render
        with pytest.raises(ValueError, match="floats are not exact"):
            verify_ne(example2.truthful_profile(), example2, 0.1, [Truthful()])

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

    @pytest.mark.parametrize("item", [-1, 2, 5])
    def test_rejects_items_out_of_range(self, example2, item):
        # -1 used to read the last item's time and 5 raised IndexError
        trace = run_profile(2, 2, example2.truthful_profile())
        with pytest.raises(ValueError, match=f"item {item} out of range for m = 2"):
            sequential_payoff_floor(trace, example2.valuations[0], [item])

    def test_rejects_unsorted_sequences(self, example2):
        profile = [single_minded(0, 2), example2.truthful_profile()[1]]
        trace = run_profile(2, 2, profile)
        # item 1 (index 0) finishes first; feeding them latest-first is an error
        with pytest.raises(ValueError):
            sequential_payoff_floor(trace, example2.valuations[0], [1, 0])
