"""Best-response search, epsilon-Nash certification, and welfare ratios.

Certification is always relative to explicit finite strategy families: the
continuum of unit-sum reports is not searchable, so every certificate names
the families it swept. Candidate enumeration follows a fixed canonical order
(see :mod:`eatsim.strategies`) and the argmax keeps the first maximizer, so
the search is deterministic regardless of evaluation order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from . import engine
from .lotteries import opt as opt_welfare
from .model import (
    Instance,
    LOWEST_INDEX_FIRST,
    Strategy,
    Valuation,
    ZeroPolicy,
    check_strategy,
    format_rational,
    strategy_to_json,
)
from .strategies import (
    StrategyFamily,
    as_ordinal,
    describe_families,
    expand_families,
    family_size,
    ps_profile,
)

DEFAULT_BUDGET = 10 ** 6
BUDGET_ENV_VAR = "ALLOC_BUDGET"


class BudgetExceededError(RuntimeError):
    """The family expansion would exceed the configured engine-run budget."""


class BudgetConfigError(ValueError):
    """The engine-run budget in the environment is not a count."""


def configured_budget(budget: int | None = None) -> int:
    if budget is not None:
        return budget
    raw = os.environ.get(BUDGET_ENV_VAR)
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise BudgetConfigError(
            f"{BUDGET_ENV_VAR} must be a non-negative integer, got {raw!r}")
    return budget


def _mechanism_profile(n: int, m: int, profile: Sequence[Strategy], mechanism: str,
                       policy: ZeroPolicy) -> list[Strategy]:
    """The profile as the kernel runs it under ``mechanism``. Under ps the
    profile's length, the zero policy and then each strategy are checked
    before the conversion, in the order the kernel arguments check them under
    cps, so both mechanisms reject a malformed profile with the same error."""
    if mechanism == "cps":
        return list(profile)
    if mechanism == "ps":
        engine._check_shape(n, m, profile, policy)
        for i, strat in enumerate(profile):
            check_strategy(i, m, strat)
        return ps_profile(profile, m)
    raise ValueError(f"unknown eating mechanism {mechanism!r}")


def run_profile(
    n: int,
    m: int,
    profile: Sequence[Strategy],
    mechanism: str = "cps",
    policy: ZeroPolicy = LOWEST_INDEX_FIRST,
) -> engine.Trace:
    """Run a profile under the chosen eating mechanism (ordinal = converted orders)."""
    return engine.run(n, m, _mechanism_profile(n, m, profile, mechanism, policy), policy)


def _check_families(families: Sequence[StrategyFamily], m: int) -> int:
    """The number of candidates the families expand to, at least one."""
    if not families:
        raise ValueError("need at least one strategy family")
    count = sum(family_size(f, m) for f in families)
    if not count:
        raise ValueError("the strategy families have no members")
    return count


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of one agent's best-response sweep over its families."""

    agent: int
    baseline_payoff: Fraction
    best_label: str
    best_strategy: Strategy
    best_payoff: Fraction
    gain: Fraction
    families: str
    runs: int
    candidates: tuple[tuple[str, Fraction], ...] | None = None


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Family-relative epsilon-Nash verdict for one profile."""

    epsilon: Fraction
    verdict: str  # "certified" | "refuted"
    reports: tuple[DeviationReport, ...]
    witness: DeviationReport | None
    mechanism: str
    families: str
    budget: int

    def __post_init__(self):
        refuted = any(r.gain > self.epsilon for r in self.reports)
        if refuted != (self.verdict == "refuted"):
            raise ValueError("verdict inconsistent with deviation gains")


def _sweep(
    profile: Sequence[Strategy],
    m: int,
    agents: Iterable[int],
    truths: Iterable[Valuation],
    families: Sequence[StrategyFamily],
    mechanism: str,
    policy: ZeroPolicy,
    collect_candidates: bool,
) -> list[DeviationReport]:
    """Sweep each of ``agents`` (true valuations ``truths``, in the same
    order) over every family member, with ``profile[agent]`` as its baseline.

    The profile and the zero policy are checked and converted to kernel
    arguments once. Each candidate costs at most one lean kernel run that
    writes only the deviating agent's shares: it replaces that agent's slot
    only, and the baseline slot is written back after the agent's sweep. The
    kernel sees a candidate only through that slot, so a candidate whose slot
    equals the baseline's or an earlier candidate's reuses that payoff.
    ``runs`` still counts every candidate and the baseline.

    The mechanism treats agents symmetrically: rates, zero policies and
    depletion ties depend on items and an agent's own strategy, never on its
    index. So agents with the same true valuation and the same slot have the
    same sweep, which runs once, for the first of them; the others get its
    report under their own index.
    """
    n = len(profile)
    strats = _mechanism_profile(n, m, profile, mechanism, policy)
    args = engine._kernel_args(n, m, strats, policy)
    described = describe_families(families, m)
    swept: dict[tuple, DeviationReport] = {}
    reports = []
    for agent, truth in zip(agents, truths):
        baseline = engine._slot(args, agent)
        key = (truth.integer_form, baseline)
        if key in swept:
            reports.append(replace(swept[key], agent=agent))
            continue
        wanted, truth_row = [agent], [truth]
        baseline_payoff = engine._payoffs(args, wanted, truth_row)[0]
        payoffs = {baseline: baseline_payoff}
        best = None
        collected: list[tuple[str, Fraction]] = []
        for label, candidate in expand_families(families, truth, m):
            # candidates fit m by construction; ps runs their ordinal shadows
            strat = as_ordinal(candidate, m) if mechanism == "ps" else candidate
            engine._set_slot(args, agent, strat)
            slot = engine._slot(args, agent)
            value = payoffs.get(slot)
            if value is None:
                value = payoffs[slot] = engine._payoffs(args, wanted, truth_row)[0]
            collected.append((label, value))
            if best is None or value > best[2]:
                best = (label, candidate, value)
        engine._set_slot(args, agent, strats[agent])
        best_label, best_strategy, best_payoff = best
        report = swept[key] = DeviationReport(
            agent=agent,
            baseline_payoff=baseline_payoff,
            best_label=best_label,
            best_strategy=best_strategy,
            best_payoff=best_payoff,
            gain=best_payoff - baseline_payoff,
            families=described,
            runs=len(collected) + 1,
            candidates=tuple(collected) if collect_candidates else None,
        )
        reports.append(report)
    return reports


def best_response(
    profile: Sequence[Strategy],
    agent: int,
    true_valuation: Valuation,
    families: Sequence[StrategyFamily],
    mechanism: str = "cps",
    policy: ZeroPolicy = LOWEST_INDEX_FIRST,
    budget: int | None = None,
    collect_candidates: bool = False,
) -> DeviationReport:
    """Exhaustively evaluate every family member for ``agent`` against the
    rest of ``profile`` and return the payoff argmax.

    ``profile[agent]`` is the baseline. Ties keep the first candidate in
    canonical enumeration order.
    """
    n, m = len(profile), len(true_valuation)
    if not 0 <= agent < n:
        raise ValueError(f"agent {agent} out of range for {n} agents")
    total = _check_families(families, m) + 1
    budget = configured_budget(budget)
    if total > budget:
        raise BudgetExceededError(
            f"family expansion needs {total} engine runs, budget is {budget}")
    (report,) = _sweep(profile, m, [agent], [true_valuation], families,
                       mechanism, policy, collect_candidates)
    return report


def verify_ne(
    profile: Sequence[Strategy],
    instance: Instance,
    epsilon: Fraction = Fraction(0),
    families: Sequence[StrategyFamily] = (),
    mechanism: str = "cps",
    policy: ZeroPolicy = LOWEST_INDEX_FIRST,
    budget: int | None = None,
    collect_candidates: bool = False,
) -> EquilibriumCertificate:
    """Sweep every agent; certify or return the refutation.

    The verdict is an epsilon-Nash statement *within the given families*: it
    is a refutation whenever some agent gains more than epsilon, and a
    certificate otherwise.
    """
    n, m = instance.n, instance.m
    if len(profile) != n:
        raise ValueError(f"profile has {len(profile)} strategies, instance has {n} agents")
    if isinstance(epsilon, float):
        raise ValueError("floats are not exact; pass Fraction, int, or a rational string")
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    per_agent = _check_families(families, m) + 1
    budget = configured_budget(budget)
    if n * per_agent > budget:
        raise BudgetExceededError(
            f"verification needs {n * per_agent} engine runs, budget is {budget}")
    reports = _sweep(profile, m, range(n), instance.valuations, families,
                     mechanism, policy, collect_candidates)
    witness = next((r for r in reports if r.gain > epsilon), None)
    return EquilibriumCertificate(
        epsilon=epsilon,
        verdict="refuted" if witness is not None else "certified",
        reports=tuple(reports),
        witness=witness,
        mechanism=mechanism,
        families=reports[0].families,
        budget=budget,
    )


@dataclass(frozen=True)
class RatioReport:
    welfare: Fraction
    opt: Fraction
    ratio: Fraction | None  # None means infinite (zero welfare)

    @property
    def infinite(self) -> bool:
        return self.ratio is None


def ratio_report(
    instance: Instance,
    profile: Sequence[Strategy],
    mechanism: str = "cps",
    policy: ZeroPolicy = LOWEST_INDEX_FIRST,
) -> RatioReport:
    """Welfare of the profile, the optimal welfare, and their ratio.

    Zero welfare (possible when every agent's shares sit on items it does not
    value) is flagged as an infinite ratio rather than raised.
    """
    n, m = instance.n, instance.m
    args = engine._kernel_args(n, m, _mechanism_profile(n, m, profile, mechanism, policy),
                               policy)
    total = sum(engine._payoffs(args, range(n), instance.valuations), Fraction(0))
    best, _ = opt_welfare(instance)
    return RatioReport(
        welfare=total,
        opt=best,
        ratio=(best / total) if total > 0 else None,
    )


def sequential_payoff_floor(
    trace: engine.Trace,
    true_valuation: Valuation,
    items: Sequence[int],
) -> Fraction:
    """The quarter-rule payoff floor a sequential deviation guarantees.

    Given a trace and an item sequence ordered by increasing consumption
    time (all times at most 1), returns
    (1/4) * sum_l (t_{x_l} - t_{x_{l-1}}) * v'(x_l) with t_{x_0} = 0.
    A certified equilibrium payoff must clear this floor up to epsilon.
    """
    times = trace.consumption_times()
    previous = Fraction(0)
    floor = Fraction(0)
    for x in items:
        if not 0 <= x < trace.m:
            raise ValueError(f"item {x} out of range for m = {trace.m}")
        t = times[x]
        if t > 1:
            raise ValueError("floor only applies to items consumed by time 1")
        if t < previous:
            raise ValueError("items must be ordered by increasing consumption time")
        floor += (t - previous) * true_valuation[x]
        previous = t
    return floor / 4


def deviation_report_to_json(report: DeviationReport) -> dict:
    doc = {
        "agent": report.agent + 1,
        "baseline_payoff": format_rational(report.baseline_payoff),
        "best_label": report.best_label,
        "best_strategy": strategy_to_json(report.best_strategy),
        "best_payoff": format_rational(report.best_payoff),
        "gain": format_rational(report.gain),
        "families": report.families,
        "engine_runs": report.runs,
    }
    if report.candidates is not None:
        doc["candidates"] = [
            {"label": label, "payoff": format_rational(p)} for label, p in report.candidates
        ]
    return doc


def certificate_to_json(cert: EquilibriumCertificate, profile: Sequence[Strategy]) -> dict:
    return {
        "epsilon": format_rational(cert.epsilon),
        "verdict": cert.verdict,
        "mechanism": cert.mechanism,
        "families": cert.families,
        "budget": cert.budget,
        "profile": [strategy_to_json(s) for s in profile],
        "reports": [deviation_report_to_json(r) for r in cert.reports],
        "witness": deviation_report_to_json(cert.witness) if cert.witness else None,
    }
