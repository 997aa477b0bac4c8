"""Non-eating mechanisms and the welfare benchmark.

Random Priority samples one agent order and lets each picked agent grab its
quota of favorite available items; Repeated Random Priority draws an agent
uniformly m times in a row, one item per draw. ``opt`` is the benchmark that
hands every item to an agent that values it most.

All tie-breaks are lowest-index. Monte Carlo paths use one child stream per
sample, seeded with ``"eatsim-<mechanism>:<seed>:<sample>"``, so results are
reproducible bit for bit and samples could be drawn in any order. One
generator is reseeded per sample, which gives the same state as a fresh one.

An item is *valued* when some agent's true value for it is positive. An RRP
sample, and an RP order, sampled or enumerated, stops once every valued item
is taken: every later pick gains exactly 0. As each sample reseeds its own
stream, skipping the tail of one sample leaves every other sample unchanged,
so the results are those of playing every draw and turn to the end.

RP and RRP accumulate integers over the instance's cached value table
(:attr:`eatsim.model.Instance.value_table`). RP's exact enumeration walks
order prefixes depth-first: a prefix's last turn is played once and weighted
by the number of orders that extend it. It and sampling share one pick
routine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import Instance, Strategy
from .strategies import as_ordinal


class ExactEnumerationRefused(ValueError):
    """Exact order enumeration is capped at n = 8 (n! engine sweeps)."""


@dataclass(frozen=True)
class MechanismResult:
    """Outcome summary of a lottery mechanism run.

    ``expected_welfare`` is always an exact rational (for Monte Carlo it is
    the exact mean of the sampled welfares); ``stderr`` is present only for
    Monte Carlo results, alongside the sample count and seed that reproduce
    them.
    """

    mechanism: str
    expected_welfare: Fraction
    per_agent: tuple[Fraction, ...]
    method: str
    samples: int | None = None
    seed: int | None = None
    stderr: float | None = None

    def __post_init__(self):
        exact = self.method == "exact-enumeration"
        if exact and (self.stderr is not None or self.samples is not None):
            raise ValueError("exact results carry no error bars")
        if not exact and (self.samples is None or self.seed is None):
            raise ValueError("Monte Carlo results must carry samples and seed")


def opt(instance: Instance) -> tuple[Fraction, tuple[int, ...]]:
    """Optimal welfare and its assignment: each item to a highest-value agent.

    Ties break to the lowest agent index. Welfare is the sum of column maxima
    of the true valuation matrix, taken over the instance's cached integer
    value table.
    """
    d, rows = instance.value_table
    agents = range(instance.n)
    assignment = tuple(max(agents, key=column.__getitem__) for column in zip(*rows))
    return Fraction(sum(rows[i][j] for j, i in enumerate(assignment)), d), assignment


def _valued(rows: Sequence[Sequence[int]]) -> list[bool]:
    """Per item: does some agent's true value for it exceed 0?"""
    return [any(column) for column in zip(*rows)]


def _grab(ranking: Sequence[int], available: list[bool], count: int) -> list[int]:
    """Take the first ``count`` available items of the ranking (none for 0)."""
    taken = []
    for j in ranking:
        if len(taken) == count:
            break
        if available[j]:
            available[j] = False
            taken.append(j)
    return taken


def _stderr(total: int, total_sq: int, samples: int, scale: int) -> float:
    """Standard error of a sample mean, from exact integer sums.

    The sampled values are x_k / scale; ``total`` and ``total_sq`` sum x_k and
    x_k^2. The variance is an exact rational, and its square root is taken on
    integers with 64 significant bits before one rounding to float, so values
    of any size neither overflow nor flush to zero.
    """
    if samples < 2:
        return float("inf")
    num = samples * total_sq - total * total
    den = samples * samples * (samples - 1) * scale * scale
    shift = max(0, 64 - (num.bit_length() - den.bit_length()) // 2)
    return math.ldexp(math.isqrt((num << 2 * shift) // den), -shift)


def _seeded_orders(n: int, seed: int, samples: int):
    rng = random.Random()
    for k in range(samples):
        rng.seed(f"eatsim-rp:{seed}:{k}")  # the same state as a fresh Random(...)
        order = list(range(n))
        rng.shuffle(order)
        yield order


def random_priority(
    instance: Instance,
    reports: Sequence[Strategy],
    samples: int | None = None,
    seed: int | None = None,
) -> MechanismResult:
    """Random Priority: a random agent order; each picks its favorite quota.

    The quota is floor(m/n) items per agent, with the m mod n leftover items
    appended to the turn of the order's final agent. With ``samples`` unset
    the result is the exact average over all n! orders (refused for n > 8);
    otherwise ``samples`` seeded orders are drawn.
    """
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    n, m = instance.n, instance.m
    if len(reports) != n:
        raise ValueError(f"expected {n} reports, got {len(reports)}")
    if samples is None and n > 8:
        raise ExactEnumerationRefused(f"n = {n} > 8; use the Monte Carlo mode")
    if samples is not None and seed is None:
        raise ValueError("Monte Carlo mode requires a seed")
    rankings = [as_ordinal(s, m).order for s in reports]
    denom, value_int = instance.value_table
    valued = _valued(value_int)
    valued_count = sum(valued)
    quotas = [m // n] * (n - 1) + [m // n + m % n]
    per_agent_num = [0] * n

    def turn(agent: int, pos: int, available: list[bool]) -> tuple[list[int], int, int]:
        """The agent's pick at order position ``pos``: (items, gain, valued items)."""
        taken = _grab(rankings[agent], available, quotas[pos])
        return (taken, sum(value_int[agent][j] for j in taken),
                sum(valued[j] for j in taken))

    if samples is None:
        # Depth-first over order prefixes: a prefix's last turn is played once
        # and stands for the (n-1-pos)! orders that extend it. A prefix that
        # leaves nothing of value is not extended, as every later turn gains 0.
        weights = [math.factorial(n - 1 - pos) for pos in range(n)]
        available = [True] * m
        placed = [False] * n

        def extend(pos: int, left: int) -> None:
            for agent in range(n):
                if placed[agent]:
                    continue
                taken, gain, worth = turn(agent, pos, available)
                per_agent_num[agent] += gain * weights[pos]
                if left > worth:
                    placed[agent] = True
                    extend(pos + 1, left - worth)
                    placed[agent] = False
                for j in taken:
                    available[j] = True

        extend(0, valued_count)
        count = math.factorial(n)
    else:
        # ``common`` is the gcd of denom and every order's welfare. The error
        # bar is taken over the welfares' least common denominator, so its
        # last bit does not depend on values that no order picked.
        total_sq = 0
        common = denom
        for order in _seeded_orders(n, seed, samples):
            available = [True] * m
            left = valued_count
            order_num = 0
            for pos, agent in enumerate(order):
                if not left:
                    break  # nothing of value is left: every later turn gains 0
                _, gain, worth = turn(agent, pos, available)
                per_agent_num[agent] += gain
                order_num += gain
                left -= worth
            total_sq += order_num * order_num
            common = math.gcd(common, order_num)
        count = samples
    welfare = Fraction(sum(per_agent_num), count * denom)
    per_agent = tuple(Fraction(p, count * denom) for p in per_agent_num)
    if samples is None:
        return MechanismResult("rp", welfare, per_agent, "exact-enumeration")
    return MechanismResult(
        "rp", welfare, per_agent, f"monte-carlo(samples={samples}, seed={seed})", samples, seed,
        _stderr(sum(per_agent_num) // common, total_sq // common ** 2, samples, denom // common))


def repeated_random_priority(
    instance: Instance,
    reports: Sequence[Strategy],
    samples: int,
    seed: int,
) -> MechanismResult:
    """Repeated Random Priority: m i.i.d. uniform draws, one favorite item each."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    n, m = instance.n, instance.m
    if len(reports) != n:
        raise ValueError(f"expected {n} reports, got {len(reports)}")
    rankings = [as_ordinal(s, m).order for s in reports]
    denom, value_int = instance.value_table
    valued = _valued(value_int)
    valued_count = sum(valued)

    total_num = 0
    total_sq = 0
    per_agent_num = [0] * n
    rng = random.Random()
    draw = rng.random
    scale = float(n)
    for k in range(samples):
        # Each sample reseeds its own stream, so stopping one early leaves
        # every other sample's draws as they were. A draw is
        # int(random() * float(n)), the value choices(range(n), k=m) computes.
        rng.seed(f"eatsim-rrp:{seed}:{k}")
        available = [True] * m
        pointers = [0] * n
        sample_num = 0
        left = valued_count
        while left:  # once every valued item is taken, each later draw gains 0
            agent = int(draw() * scale)
            rank = rankings[agent]
            p = pointers[agent]
            while not available[rank[p]]:
                p += 1
            pointers[agent] = p + 1
            item = rank[p]
            available[item] = False
            if valued[item]:
                left -= 1
                gain = value_int[agent][item]
                sample_num += gain
                per_agent_num[agent] += gain
        total_num += sample_num
        total_sq += sample_num * sample_num
    mean = Fraction(total_num, samples * denom)
    stderr = _stderr(total_num, total_sq, samples, denom)
    return MechanismResult(
        mechanism="rrp",
        expected_welfare=mean,
        per_agent=tuple(Fraction(p, samples * denom) for p in per_agent_num),
        method=f"monte-carlo(samples={samples}, seed={seed})",
        samples=samples,
        seed=seed,
        stderr=stderr,
    )
