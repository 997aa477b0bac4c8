"""Acceptance suite: one test per criterion, every tolerance pinned here.

All engine quantities are exact rationals, so unless a criterion states a
statistical margin the comparisons below are exact equalities or exact
inequalities. Expected constants marked "oracle" were frozen from committed
oracle runs that the independent trace checker (tests/oracle.py) validated
against the defining equations.
"""

from fractions import Fraction

import pytest

from eatsim import (
    LOWEST_INDEX_FIRST,
    Lexicographic,
    Proportional,
    UNIFORM_OVER_REMAINING,
    Valuation,
    expected_payoffs,
    run,
    valuation_of,
    welfare,
)
from eatsim.equilibrium import verify_ne
from eatsim.instances import GeneratorSpec, generate, tightness_bound
from eatsim.lotteries import opt, random_priority, repeated_random_priority
from eatsim.strategies import (
    SingleMinded,
    Truthful,
    epsilon_strategy,
    sequential,
    single_minded,
    uniform,
)

from helpers import random_profile, random_run_case, random_valuation, rng_for
from oracle import assert_valid_trace

F = Fraction


def round2(value: Fraction) -> Fraction:
    """Round half-up to two decimals, exactly."""
    return F((value * 100 + F(1, 2)).__floor__(), 100)


def display_row(row) -> tuple:
    """Two-decimal rendering of a share row: the last cell is the remainder,
    so the displayed row totals exactly 1 (rows sum to 1 when m = n)."""
    head = [round2(g) for g in row[:-1]]
    return tuple(head + [1 - sum(head)])


# --- criteria 1 and 2: golden worked examples ------------------------------

def test_a01_example1_golden():
    inst = generate(GeneratorSpec("example1")).instance
    profile = inst.truthful_profile()
    trace = run(3, 3, profile)
    assert_valid_trace(3, 3, profile, LOWEST_INDEX_FIRST, trace)

    # depletion order and exact times
    assert [j + 1 for _, j in trace.depletion_events] == [2, 1, 3]
    assert [t for t, _ in trace.depletion_events] == [F(2, 3), F(2, 3) + F(42, 167), F(1)]

    # conservation, exact
    assert all(sum(col, F(0)) == 1 for col in zip(*trace.shares))
    assert all(sum(row, F(0)) == 1 for row in trace.shares)

    # two-decimal display matches the published matrix
    published = (
        (F(62, 100), F(20, 100), F(18, 100)),
        (F(15, 100), F(47, 100), F(38, 100)),
        (F(23, 100), F(33, 100), F(44, 100)),
    )
    assert tuple(display_row(row) for row in trace.shares) == published


def test_a02_example2_golden():
    inst = generate(GeneratorSpec("example2")).instance
    truthful = inst.truthful_profile()
    assert expected_payoffs(run(2, 2, truthful), inst.valuations) == (F(5, 9), F(5, 9))

    deviated = [single_minded(0, 2), truthful[1]]
    assert expected_payoffs(run(2, 2, deviated), inst.valuations)[0] == F(7, 12)

    cert = verify_ne(truthful, inst, families=[Truthful(), SingleMinded()])
    assert cert.verdict == "refuted"
    assert cert.witness.agent == 0
    assert cert.witness.best_label == "single-minded(1)"
    assert cert.witness.best_payoff == F(7, 12)


# --- criteria 3 and 4: fuzz corpus, zero tolerance --------------------------

@pytest.fixture(scope="module")
def fuzz_corpus():
    """1000 random runs, n,m <= 8, mixed strategies, both zero policies."""
    rng = rng_for("acceptance-fuzz")
    corpus = []
    for i in range(1000):
        n, m, instance, profile, _ = random_run_case(rng)
        policy = LOWEST_INDEX_FIRST if i % 2 else UNIFORM_OVER_REMAINING
        corpus.append((n, m, run(n, m, profile, policy)))
    return corpus


def test_a03_conservation_fuzz(fuzz_corpus):
    assert len(fuzz_corpus) == 1000
    for n, m, trace in fuzz_corpus:
        assert all(sum(col, F(0)) == 1 for col in zip(*trace.shares))
        assert all(sum(row, F(0)) == F(m, n) for row in trace.shares)
        assert trace.depletion_events[-1][0] == F(m, n)


def test_a04_consumption_time_floor(fuzz_corpus):
    for n, m, trace in fuzz_corpus:
        times = sorted(t for t, _ in trace.depletion_events)
        assert all(t >= F(j + 1, n) for j, t in enumerate(times))


# --- criterion 5: single-minded bids minimize the target's finish time ------

def test_a05_single_minded_minimality_and_superset():
    rng = rng_for("acceptance-minimality")
    for _ in range(500):
        n = rng.randint(2, 8)
        m = rng.randint(1, 8)
        profile = random_profile(rng, n, m)
        policy = LOWEST_INDEX_FIRST if rng.random() < 0.5 else UNIFORM_OVER_REMAINING
        agent, item = rng.randrange(n), rng.randrange(m)
        baseline = run(n, m, profile, policy)
        deviated = list(profile)
        deviated[agent] = single_minded(item, m)
        switched = run(n, m, deviated, policy)
        t_hat = switched.consumption_times()[item]
        assert t_hat <= baseline.consumption_times()[item]
        for ell in range(16):
            t = t_hat * ell / 16
            assert baseline.remaining_at(t) <= switched.remaining_at(t)


# --- criterion 6: proportional approximations of sequential bids ------------

def test_a06_epsilon_convergence():
    """Gap to the sequential payoff is non-increasing down the ladder and
    bounded by 64*eps at every rung (the linear-in-eps guarantee with the
    constant 4*m**2 at m = 4, the corpus's largest item count)."""
    rng = rng_for("eps-ladder-a")
    ladder = [F(1, 2 ** t) for t in range(3, 9)]
    for _ in range(100):
        n, m = rng.randint(2, 6), rng.randint(2, 4)
        valuations = [random_valuation(rng, m) for _ in range(n)]
        profile = [Proportional(v) for v in valuations]
        agent = rng.randrange(n)
        order = valuations[agent].preference_order()[:rng.randint(1, m)]
        exact = list(profile)
        exact[agent] = sequential(order)
        target = expected_payoffs(run(n, m, exact), valuations)[agent]
        gaps = []
        for eps in ladder:
            approx = list(profile)
            approx[agent] = epsilon_strategy(order, eps, m)
            gaps.append(abs(expected_payoffs(run(n, m, approx), valuations)[agent] - target))
        assert all(later <= earlier for earlier, later in zip(gaps, gaps[1:]))
        assert all(gap <= 64 * eps for gap, eps in zip(gaps, ladder))
        assert gaps[-1] <= 64 * ladder[-1]


# --- criteria 7 and 8: capturing late items ---------------------------------

def test_a07_uniform_bid_capture():
    """Two agents, ten items, targets X = {8,9,10}.

    Baseline: the deviator grazes the seven decoys, the rival spreads over
    everything; every target then finishes at 155/34, 165/34, 5 >= 3 = |X|.
    Switching to the uniform bid on X wins 10/13 >= 1/2 of every target.
    """
    m = 10
    targets = (7, 8, 9)
    rival = Proportional(Valuation(tuple(F(1, 10) for _ in range(m))))
    decoy_graze = Proportional(Valuation(
        tuple(F(1, 7) if j < 7 else F(0) for j in range(m))))
    baseline = run(2, m, [decoy_graze, rival])
    times = baseline.consumption_times()
    assert [times[j] for j in targets] == [F(155, 34), F(165, 34), F(5)]
    assert all(times[j] >= 3 for j in targets)

    switched = run(2, m, [uniform(targets, m), rival])
    for j in targets:
        assert switched.shares[0][j] == F(10, 13)
        assert switched.shares[0][j] >= F(1, 2)


def test_a08_sequential_capture_under_ordinal_eating():
    """Two agents, twelve items, targets X = {10,11,12}, q = 4.

    Baseline (both grazing decoys 1..9 in order): targets finish at 5, 11/2,
    6, all at least q = 4, and |X| = 3 < floor(q). The lexicographic switch
    to X wins every target outright.
    """
    m = 12
    targets = (9, 10, 11)
    graze = Lexicographic(tuple(range(9)))
    baseline = run(2, m, [graze, graze])
    times = baseline.consumption_times()
    assert [times[j] for j in targets] == [F(5), F(11, 2), F(6)]
    assert all(times[j] >= 4 for j in targets)

    switched = run(2, m, [sequential(targets), graze])
    assert [switched.shares[0][j] for j in targets] == [F(1), F(1), F(1)]


# --- criteria 9 and 10: the two welfare-gap constructions --------------------

def test_a09_sqrt_n_welfare_gap():
    gen = generate(GeneratorSpec("sqrt-n-lb", {"n": 16, "eps": "1/4096"}))
    inst = gen.instance
    trace = run(16, 16, list(gen.bad_profile))
    assert_valid_trace(16, 16, list(gen.bad_profile), LOWEST_INDEX_FIRST, trace)
    total = welfare(trace, inst.valuations)
    best = opt(inst)[0]
    assert total == F(1281, 1280)          # oracle
    assert best == F(24319, 5120)          # oracle
    assert total <= 3
    assert best >= 4
    assert best / total >= F(4, 3)


def test_a10_log_m_welfare_gap():
    k, q = 8, 4
    gen = generate(GeneratorSpec("log-m-lb", {"k": k, "q": q}))
    inst = gen.instance
    assert (inst.n, inst.m) == (12, 31)
    trace = run(inst.n, inst.m, list(gen.bad_profile), LOWEST_INDEX_FIRST)
    assert_valid_trace(inst.n, inst.m, list(gen.bad_profile), LOWEST_INDEX_FIRST, trace)

    payoffs = expected_payoffs(trace, inst.valuations)
    assert payoffs == (F(1, 8),) * 8 + (F(1, 6), F(7, 40), F(15, 88), F(31, 192))  # oracle
    assert all(p <= F(4, inst.n) for p in payoffs)
    assert sum(payoffs, F(0)) <= 4
    assert opt(inst)[0] == 5

    # items deplete in index order; every finish time clears j/(k + floor(log2 j)),
    # with equality exactly when a dyadic block closes
    assert [j + 1 for _, j in trace.depletion_events] == list(range(1, 32))
    times = trace.consumption_times()
    boundary = []
    for j1 in range(1, 32):
        floor_time = F(j1, k + (j1.bit_length() - 1))
        assert times[j1 - 1] >= floor_time
        if times[j1 - 1] == floor_time:
            boundary.append(j1)
    assert boundary == [1, 3, 7, 15, 31]


# --- criterion 11: random-priority baselines --------------------------------

def test_a11_random_priority_bounds():
    gen = generate(GeneratorSpec("rp-lb", {"n": 4, "eps": "1/100"}))
    result = random_priority(gen.instance, list(gen.bad_profile))
    assert result.method == "exact-enumeration"
    assert result.expected_welfare == 1            # oracle: every order yields 1
    assert result.expected_welfare <= F(6, 5)
    assert opt(gen.instance)[0] == F(99, 25) >= F(39, 10)

    dyadic = generate(GeneratorSpec("log-m-lb", {"k": 8, "q": 4}))
    sampled = repeated_random_priority(dyadic.instance, list(dyadic.bad_profile),
                                       samples=100_000, seed=2026)
    assert float(sampled.expected_welfare) <= 4 + 3 * sampled.stderr


# --- criterion 12: the two mechanisms separate on tilted instances ----------

def test_a12_mechanism_separations():
    from eatsim.strategies import ps_profile

    def checked_welfare(inst, mechanism):
        profile = (inst.truthful_profile() if mechanism == "cps"
                   else ps_profile(inst.truthful_profile(), inst.m))
        trace = run(inst.n, inst.m, profile)
        assert_valid_trace(inst.n, inst.m, profile, LOWEST_INDEX_FIRST, trace)
        return welfare(trace, inst.valuations)

    crowd = generate(GeneratorSpec("cps-beats-ps", {"n": 16})).instance
    cardinal = checked_welfare(crowd, "cps")
    ordinal = checked_welfare(crowd, "ps")
    assert cardinal == F(21857, 7360)      # oracle
    assert ordinal == F(646, 455)          # oracle
    assert cardinal >= 2
    assert ordinal <= 2

    tilted = generate(GeneratorSpec("ps-beats-cps", {"n": 16})).instance
    cardinal = checked_welfare(tilted, "cps")
    ordinal = checked_welfare(tilted, "ps")
    assert ordinal == 4                    # oracle: a perfect matching
    assert cardinal == F(8, 5)             # oracle
    assert ordinal >= 3
    assert cardinal <= 2


# --- criterion 13: sequential bidding is safe, truth-telling is not ----------

def test_a13_safety_guarantee_and_counterexample():
    n = m = 6
    rng = rng_for("acceptance-safety")
    for _ in range(500):
        truth = random_valuation(rng, m)
        order = truth.preference_order()
        opponents = random_profile(rng, n - 1, m)
        trace = run(n, m, [sequential(order)] + opponents)
        shares = trace.shares[0]
        acquired = F(0)
        for rank, item in enumerate(order, start=1):
            acquired += shares[item]
            assert acquired >= F(rank, n)

    counter = generate(GeneratorSpec("counterexample-safety", {"n": 4, "eps": "1/100"}))
    trace = run(4, 4, list(counter.bad_profile))
    assert trace.shares[0][0] == F(97, 397)        # oracle
    assert trace.shares[0][0] < F(1, 4)


# --- criterion 14: the grouped time-bound sum -------------------------------

@pytest.mark.parametrize("x", [3, 4, 5])
def test_a14_tightness_bound(x):
    assert tightness_bound(x) == F(2, x)
