"""Best-response search, epsilon-Nash certification, and welfare ratios.

Certification is always relative to explicit finite strategy families: the
continuum of unit-sum reports is not searchable, so every certificate names
the families it swept. Candidate enumeration follows a fixed canonical order
(see :mod:`eatsim.strategies`) and the argmax keeps the first maximizer, so
the search is deterministic regardless of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from . import _kernel, engine
from .lotteries import opt as opt_welfare
from .model import (
    Instance,
    LOWEST_INDEX_FIRST,
    Lexicographic,
    Strategy,
    Valuation,
    ZeroPolicy,
    as_count,
    as_item_indices,
    as_rational,
    check_strategy,
    format_rational,
    profile_to_json,
    strategy_to_json,
)
from .strategies import (
    DEFAULT_FAMILIES,
    StrategyFamily,
    describe_families,
    expand_families,
    family_size,
)

DEFAULT_BUDGET = 10 ** 6


class BudgetExceededError(RuntimeError):
    """A sweep would exceed its engine-run budget."""


def run_profile(
    n: int,
    m: int,
    profile: Sequence[Strategy],
    mechanism: str = "cps",
    policy: ZeroPolicy = LOWEST_INDEX_FIRST,
) -> engine.Trace:
    """Run a profile under the chosen eating mechanism (see :func:`engine.run`)."""
    return engine.run(n, m, profile, policy, mechanism)


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
    n: int,
    m: int,
    agents: Sequence[int],
    truths: Iterable[Valuation],
    families: Iterable[StrategyFamily],
    mechanism: str,
    policy: ZeroPolicy,
    budget: int,
    collect_candidates: bool,
) -> list[DeviationReport]:
    """Sweep each of ``agents`` (true valuations ``truths``, in the same
    order) over every family member, with ``profile[agent]`` as its baseline.

    This is the one place that checks and costs a sweep, in this order: each
    agent index, the families, and then the budget against
    ``len(agents) * (candidates + 1)`` engine runs. The profile, whose length
    must be n, and the zero policy are then checked and converted to kernel
    arguments once. :func:`engine._slot` writes each candidate in the
    shortest form that eats the same, so equal slots eat identically. A
    member's slot depends only on its order (a ``Lexicographic``) or its
    report's integer weights (a ``Proportional``) once m, the mechanism and
    the policy are fixed, so it is checked and computed once per call, at the
    member's first appearance, and each distinct slot gets a small id.

    The opponents' slots do not change within an agent's sweep, so their
    t = 0 kernel state (:func:`eatsim._kernel.build_opening`) is built once
    per swept agent, and every run of the sweep, the baseline's too, copies
    it and places only the agent. The greedy sequential members are built
    once per swept agent without re-checking (see
    :class:`eatsim.strategies.Sequential`).

    So a candidate costs one lookup of its slot and one of that slot's
    payoff. Only a slot new to the agent's sweep costs more: one lean kernel
    run from the opening with the agent's slot replaced (the baseline is
    written back after the sweep), and one comparison of :func:`engine._dot`
    pairs by cross-multiplication; only the reported values become
    ``Fraction``. The baseline payoff, run first, is compared at the first
    candidate with the baseline's slot, and ties keep the first candidate.
    ``runs`` counts every candidate and the baseline: ``candidates + 1``,
    as each family expands to exactly ``family_size`` members.

    The mechanism treats agents symmetrically: rates, zero policies and
    depletion ties depend on items and an agent's own strategy, never on its
    index. So agents with the same true valuation and the same slot have the
    same sweep, which runs once, for the first of them; the others get a
    copy of its report under their own index.
    """
    families = tuple(families)  # read for the sizes, the description and each agent
    for agent in agents:
        if not 0 <= as_count(agent, "agent") < n:
            raise ValueError(f"agent {agent} out of range for {n} agents")
    if not families:
        raise ValueError("need at least one strategy family")
    candidates = sum(family_size(f, m) for f in families)
    if not candidates:
        raise ValueError("the strategy families have no members")
    total = len(agents) * (candidates + 1)
    if total > as_count(budget, "budget"):
        raise BudgetExceededError(f"sweep needs {total} engine runs, budget is {budget}")
    args = engine._kernel_args(n, m, profile, policy, mechanism)
    _, _, weights, orders, zero_order = args
    described = describe_families(families, m)
    # a member's order or its report's integer form (never equal, as an
    # order holds no tuple) -> (slot id, slot), and slot -> slot id
    members: dict[tuple, tuple[int, tuple]] = {}
    slot_ids: dict[tuple, int] = {}
    swept: dict[tuple, DeviationReport] = {}
    reports = []
    for agent, truth in zip(agents, truths):
        baseline = weights[agent], orders[agent]
        key = (truth.integer_form, baseline)
        shared = swept.get(key)
        if shared is not None:
            reports.append(replace(shared, agent=agent))
            continue
        baseline_id = slot_ids.setdefault(baseline, len(slot_ids))
        wanted, truth_row = [agent], [truth]
        opening = _kernel.build_opening(*args, agent)
        baseline_pair = engine._payoffs(args, wanted, truth_row, opening)[0]
        payoffs: dict[int, tuple[int, int]] = {}
        best_num, best_den = -1, 1  # below every payoff
        collected = [] if collect_candidates else None
        for label, candidate in expand_families(families, truth, m):
            member = candidate.order if isinstance(candidate, Lexicographic) \
                else candidate.report.integer_form
            entry = members.get(member)
            if entry is None:
                check_strategy(agent, m, candidate)
                slot = engine._slot(candidate, m, mechanism, zero_order)
                entry = members[member] = slot_ids.setdefault(slot, len(slot_ids)), slot
            slot_id, slot = entry
            if collected is not None:
                collected.append((label, slot_id))
            if slot_id in payoffs:
                continue
            if slot_id == baseline_id:
                num, den = payoffs[slot_id] = baseline_pair
            else:
                weights[agent], orders[agent] = slot
                num, den = payoffs[slot_id] = engine._payoffs(
                    args, wanted, truth_row, opening)[0]
            if num * best_den > best_num * den:
                best_num, best_den = num, den
                best_label, best_strategy = label, candidate
        weights[agent], orders[agent] = baseline
        baseline_payoff = Fraction(*baseline_pair)
        best_payoff = Fraction(best_num, best_den)
        if collected is not None:
            exact = {slot_id: Fraction(*pair) for slot_id, pair in payoffs.items()}
            collected = tuple((label, exact[slot_id]) for label, slot_id in collected)
        report = swept[key] = DeviationReport(
            agent, baseline_payoff, best_label, best_strategy, best_payoff,
            best_payoff - baseline_payoff, described, candidates + 1, collected)
        reports.append(report)
    return reports


def best_response(
    profile: Sequence[Strategy],
    agent: int,
    true_valuation: Valuation,
    families: Iterable[StrategyFamily],
    mechanism: str = "cps",
    policy: ZeroPolicy = LOWEST_INDEX_FIRST,
    budget: int = DEFAULT_BUDGET,
    collect_candidates: bool = False,
) -> DeviationReport:
    """Sweep every family member for ``agent`` against the rest of
    ``profile`` and return the payoff argmax.

    Members that eat alike share one slot, and each distinct slot is
    evaluated once (see :func:`_sweep`); the report still lists and counts
    every member. ``profile[agent]`` is the baseline. Ties keep the first
    candidate in canonical enumeration order.
    """
    (report,) = _sweep(profile, len(profile), len(true_valuation), [agent],
                       [true_valuation], families, mechanism, policy,
                       budget, collect_candidates)
    return report


def verify_ne(
    profile: Sequence[Strategy],
    instance: Instance,
    epsilon: Fraction = Fraction(0),
    families: Iterable[StrategyFamily] = DEFAULT_FAMILIES,
    mechanism: str = "cps",
    policy: ZeroPolicy = LOWEST_INDEX_FIRST,
    budget: int = DEFAULT_BUDGET,
    collect_candidates: bool = False,
) -> EquilibriumCertificate:
    """Sweep every agent; certify or return the refutation.

    The verdict is an epsilon-Nash statement *within the given families*
    (by default truthful, single-minded and sequential): it is a refutation
    whenever some agent gains more than epsilon, and a certificate otherwise.
    """
    epsilon = as_rational(epsilon, "epsilon")
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    reports = _sweep(profile, instance.n, instance.m, range(instance.n),
                     instance.valuations, families, mechanism, policy, budget,
                     collect_candidates)
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

    @property
    def ratio(self) -> Fraction | None:
        """opt / welfare, or None for an infinite ratio (zero welfare)."""
        return self.opt / self.welfare if self.welfare > 0 else None

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
    n = instance.n
    args = engine._kernel_args(n, instance.m, profile, policy, mechanism)
    total = sum((Fraction(*pair) for pair in engine._payoffs(args, range(n), instance.valuations)),
                Fraction(0))
    return RatioReport(total, opt_welfare(instance)[0])


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
    items = as_item_indices(items, "item sequence", trace.m)
    times = trace.consumption_times()
    previous = Fraction(0)
    floor = Fraction(0)
    for x in items:
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
    # the reports of a class of agents hold one report's field values (see
    # _sweep), and the certificate keeps them alive for the call, so each
    # class renders once and each member's doc is a copy with its own agent
    rendered: dict[tuple, dict] = {}

    def render(report: DeviationReport) -> dict:
        key = tuple(map(id, (report.baseline_payoff, report.best_label, report.best_strategy,
                             report.best_payoff, report.gain, report.families, report.runs,
                             report.candidates)))
        doc = rendered.get(key)
        if doc is None:
            doc = rendered[key] = deviation_report_to_json(report)
        return {**doc, "agent": report.agent + 1}

    return {
        "epsilon": format_rational(cert.epsilon),
        "verdict": cert.verdict,
        "mechanism": cert.mechanism,
        "families": cert.families,
        "budget": cert.budget,
        "profile": profile_to_json(profile),
        "reports": [render(r) for r in cert.reports],
        "witness": render(cert.witness) if cert.witness else None,
    }
