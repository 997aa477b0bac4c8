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

Sampled runs use all usable CPUs. The sample indices are split into one
contiguous block per CPU, of at least ``MIN_BLOCK`` samples each, and every
block but the first runs in a forked child. A block returns integer sums
only, merged by ``sum`` and ``gcd``, so results, error bars included, are
bit-identical on any CPU count. Runs are serial on platforms without
``os.fork`` and in callers with a second thread alive.
"""

from __future__ import annotations

import marshal
import math
import os
import random
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import Instance, Strategy, check_strategy
from .strategies import as_ordinal


# Fewest samples in a block of their own: a fork costs a few ms, the time of
# a few hundred samples, so a block this size repays it several times over.
MIN_BLOCK = 2048


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


def _rankings(reports: Sequence[Strategy], n: int, m: int) -> list[tuple[int, ...]]:
    """Each report's item ranking, after checking every report against m as
    the eating mechanisms do."""
    if len(reports) != n:
        raise ValueError(f"expected {n} reports, got {len(reports)}")
    for i, strat in enumerate(reports):
        check_strategy(i, m, strat)
    return [as_ordinal(s, m).order for s in reports]


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


def _seeded_orders(n: int, seed: int, start: int, stop: int):
    rng = random.Random()
    for k in range(start, stop):
        rng.seed(f"eatsim-rp:{seed}:{k}")  # the same state as a fresh Random(...)
        order = list(range(n))
        rng.shuffle(order)
        yield order


def _bounds(samples: int) -> list[int]:
    """Split points of ``range(samples)``: one contiguous block per usable CPU,
    with at least ``MIN_BLOCK`` samples in each block."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    blocks = max(1, min(cpus, samples // MIN_BLOCK))
    return [samples * b // blocks for b in range(blocks + 1)]


def _run_blocks(block, bounds: Sequence[int]) -> list:
    """``block(start, stop)`` for each pair of adjacent split points, in order.

    Every block after the first runs in a forked child, which sends its
    result back through a pipe with :mod:`marshal`; meanwhile the parent
    runs the first block. The parent runs a block itself when its child
    cannot be forked or its result cannot be read, and it reaps every child
    before it returns or raises. Where ``os.fork`` is missing, or another
    thread is alive (a forked copy of a threaded process can deadlock), the
    whole range runs here as one block.
    """
    spans = list(zip(bounds, bounds[1:]))
    if len(spans) == 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [block(bounds[0], bounds[-1])]
    children = []  # (pid, read end of its pipe), one per forked block
    try:
        for start, stop in spans[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                break
            if pid == 0:  # the child: send the block's result, then leave
                try:
                    os.close(read)
                    with open(write, "wb") as out:
                        marshal.dump(block(start, stop), out)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = [block(*spans[0])]
        while children:
            pid, pipe = children.pop(0)
            try:
                with pipe:
                    data = pipe.read()
            finally:
                _reap(pid)
            try:
                result = marshal.loads(data)
            except (EOFError, ValueError, TypeError):  # no result, or a cut one
                result = None
            results.append(block(*spans[len(results)]) if result is None else result)
        # any blocks left had no child: the fork failed
        return results + [block(*span) for span in spans[len(results):]]
    finally:
        for pid, pipe in children:  # only when something raised
            pipe.close()
            _reap(pid)


def _reap(pid: int) -> None:
    """Wait for a child to exit; one that is already reaped (say, because
    SIGCHLD is ignored) raises nothing."""
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


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
    rankings = _rankings(reports, n, m)
    if samples is None and n > 8:
        raise ExactEnumerationRefused(f"n = {n} > 8; use the Monte Carlo mode")
    if samples is not None and seed is None:
        raise ValueError("Monte Carlo mode requires a seed")
    denom, value_int = instance.value_table
    valued = _valued(value_int)
    valued_count = sum(valued)
    quotas = [m // n] * (n - 1) + [m // n + m % n]

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
        per_agent_num = [0] * n
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
        def block(start: int, stop: int) -> tuple[list[int], int, int]:
            """(per-agent sums, sum of squared welfares, common) over the block."""
            per_agent_num = [0] * n
            total_sq = 0
            common = denom
            for order in _seeded_orders(n, seed, start, stop):
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
            return per_agent_num, total_sq, common

        blocks = _run_blocks(block, _bounds(samples))
        per_agent_num = [sum(column) for column in zip(*(b[0] for b in blocks))]
        total_sq = sum(b[1] for b in blocks)
        common = math.gcd(*(b[2] for b in blocks))
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
    rankings = _rankings(reports, n, m)
    denom, value_int = instance.value_table
    valued = _valued(value_int)
    valued_count = sum(valued)

    def block(start: int, stop: int) -> tuple[list[int], int]:
        """(per-agent sums, sum of squared welfares) over the block."""
        per_agent_num = [0] * n
        total_sq = 0
        rng = random.Random()
        draw = rng.random
        scale = float(n)
        for k in range(start, stop):
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
            total_sq += sample_num * sample_num
        return per_agent_num, total_sq

    blocks = _run_blocks(block, _bounds(samples))
    per_agent_num = [sum(column) for column in zip(*(b[0] for b in blocks))]
    total_num = sum(per_agent_num)
    total_sq = sum(b[1] for b in blocks)
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
