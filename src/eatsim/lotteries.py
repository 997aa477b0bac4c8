"""Non-eating mechanisms and the welfare benchmark.

Random Priority samples one agent order and lets each picked agent grab its
quota of favorite available items; Repeated Random Priority draws an agent
uniformly m times in a row, one item per draw. ``opt`` is the benchmark that
hands every item to an agent that values it most.

All tie-breaks are lowest-index. Monte Carlo paths use one child stream per
sample, seeded with ``"eatsim-<mechanism>:<seed>:<sample>"``, so results are
reproducible bit for bit and samples could be drawn in any order.

RP and RRP accumulate integers over one value table, the true values in
:func:`eatsim.model.integer_form`; RP's exact enumeration and sampling share
one loop over agent orders.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from .model import Instance, Strategy, integer_form
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
    of the true valuation matrix.
    """
    assignment = []
    total = Fraction(0)
    for j in range(instance.m):
        best_agent = 0
        best_value = instance.valuations[0][j]
        for i in range(1, instance.n):
            v = instance.valuations[i][j]
            if v > best_value:
                best_agent, best_value = i, v
        assignment.append(best_agent)
        total += best_value
    return total, tuple(assignment)


def _value_table(instance: Instance) -> tuple[int, list[tuple[int, ...]]]:
    """(d, rows): every true value as an integer numerator over one d."""
    d, flat = integer_form(v for row in instance.valuations for v in row.values)
    return d, [flat[i:i + instance.m] for i in range(0, len(flat), instance.m)]


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
    for k in range(samples):
        order = list(range(n))
        random.Random(f"eatsim-rp:{seed}:{k}").shuffle(order)
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
    if samples is None:
        if n > 8:
            raise ExactEnumerationRefused(f"n = {n} > 8; use the Monte Carlo mode")
        orders, count = permutations(range(n)), math.factorial(n)
    elif seed is None:
        raise ValueError("Monte Carlo mode requires a seed")
    else:
        orders, count = _seeded_orders(n, seed, samples), samples
    rankings = [as_ordinal(s, m).order for s in reports]
    denom, value_int = _value_table(instance)
    quota = m // n
    leftover = m % n

    # ``common`` is the gcd of denom and every order's welfare. The error bar
    # is taken over the welfares' least common denominator, so its last bit
    # does not depend on values that no order picked.
    per_agent_num = [0] * n
    total_sq = 0
    common = denom
    for order in orders:
        available = [True] * m
        order_num = 0
        for pos, agent in enumerate(order):
            quota_here = quota + (leftover if pos == n - 1 else 0)
            gain = sum(value_int[agent][j] for j in _grab(rankings[agent], available, quota_here))
            per_agent_num[agent] += gain
            order_num += gain
        total_sq += order_num * order_num
        common = math.gcd(common, order_num)
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
    denom, value_int = _value_table(instance)

    total_num = 0
    total_sq = 0
    per_agent_num = [0] * n
    agent_range = range(n)
    for k in range(samples):
        rng = random.Random(f"eatsim-rrp:{seed}:{k}")
        draws = rng.choices(agent_range, k=m)
        available = [True] * m
        pointers = [0] * n
        sample_num = 0
        for agent in draws:
            rank = rankings[agent]
            p = pointers[agent]
            while not available[rank[p]]:
                p += 1
            pointers[agent] = p + 1
            item = rank[p]
            available[item] = False
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
