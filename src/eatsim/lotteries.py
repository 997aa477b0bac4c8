"""Non-eating mechanisms and the welfare benchmark.

Random Priority samples one agent order and lets each picked agent grab its
quota of favorite available items; Repeated Random Priority draws an agent
uniformly m times in a row, one item per draw. ``opt`` is the benchmark that
hands every item to an agent that values it most.

Each agent ranks items by its report's ordinal shadow
(:func:`eatsim.strategies.as_ordinal`), the order PS eats in. RP and RRP
share one checked setup, ``_setup``: a sample count below 1 is refused
first, then the profile is checked by ``engine._kernel_args`` under ps, so a
malformed profile gets the eating mechanisms' error, and then a sampled run
without a seed is refused, before any sample is played.

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
(:attr:`eatsim.model.Instance.value_table`). Exact RP goes through order
positions breadth-first: prefixes that place the same agents and take the
same items share one state, whose next turns are each played once, weighted
by the orders through it. It and sampling share one pick routine.

Sampled RP and RRP differ only in how a block of samples is played; one
Monte Carlo driver, ``_monte_carlo``, runs the blocks, merges them and
builds the result with its error bar. Sampled runs use all usable CPUs. The
sample indices are split into one contiguous block per CPU, of at least
``MIN_BLOCK`` samples each, and every block but the first runs in a forked
child. A block returns integer sums only, merged by ``sum`` and ``gcd``, so
results, error bars included, are bit-identical on any CPU count. Runs are
serial on platforms without ``os.fork`` and in callers with a second thread
alive.
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

from . import engine, strategies
from .model import LOWEST_INDEX_FIRST, Instance, Strategy, as_count, valued_items


# Fewest samples in a block of their own: a fork costs a few ms, the time of
# a few hundred samples, so a block this size repays it several times over.
MIN_BLOCK = 2048


class ExactEnumerationRefused(ValueError):
    """Exact Random Priority is refused for more than 8 agents; sample instead."""


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


def _setup(
    instance: Instance,
    reports: Sequence[Strategy],
    samples: int | None,
    seed: int | None,
) -> tuple[list[tuple[int, ...]], int, tuple[tuple[int, ...], ...], list[bool]]:
    """The checks RP and RRP make, in this order, and what both play over.

    ``samples`` is None for exact RP only. A sample count must be at least
    1; then the profile must pass the eating mechanisms' check under ps;
    then a sampled run needs an int seed. Returns each report's ranking, the
    value table's denominator and integer rows, and the valued-item mask.
    """
    if samples is not None and as_count(samples, "samples") < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    engine._kernel_args(instance.n, instance.m, reports, LOWEST_INDEX_FIRST, "ps")
    if samples is not None and seed is None:
        raise ValueError("Monte Carlo mode requires a seed")
    if samples is not None:
        as_count(seed, "seed")  # any int, a negative one too
    denom, value_int = instance.value_table
    rankings = [strategies._ordinal_order(s, instance.m) for s in reports]
    return rankings, denom, value_int, valued_items(value_int)


def _monte_carlo(mechanism: str, denom: int, samples: int, seed: int, block) -> MechanismResult:
    """The Monte Carlo result of ``block`` over ``range(samples)``.

    ``block(start, stop)`` plays samples start to stop - 1 and returns
    (per-agent sums, sum of squared welfares, common), all numerators over
    ``denom``, where ``common`` divides ``denom`` and every welfare it
    played. The error bar is taken over ``denom // common`` for the gcd of
    the blocks' commons.
    """
    blocks = _run_blocks(block, _bounds(samples))
    per_agent_num = [sum(column) for column in zip(*(b[0] for b in blocks))]
    total = sum(per_agent_num)
    total_sq = sum(b[1] for b in blocks)
    common = math.gcd(*(b[2] for b in blocks))
    count = samples * denom
    return MechanismResult(
        mechanism, Fraction(total, count), tuple(Fraction(p, count) for p in per_agent_num),
        f"monte-carlo(samples={samples}, seed={seed})", samples, seed,
        _stderr(total // common, total_sq // common ** 2, samples, denom // common))


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
    rankings, denom, value_int, valued = _setup(instance, reports, samples, seed)
    n, m = instance.n, instance.m
    if samples is None and n > 8:
        raise ExactEnumerationRefused(f"n = {n} > 8; use the Monte Carlo mode")
    valued_count = sum(valued)
    quotas = [m // n] * (n - 1) + [m // n + m % n]

    def turn(agent: int, pos: int, available: list[bool]) -> tuple[list[int], int, int]:
        """The agent's pick at order position ``pos``: (items, gain, valued items)."""
        taken = _grab(rankings[agent], available, quotas[pos])
        return (taken, sum(value_int[agent][j] for j in taken),
                sum(valued[j] for j in taken))

    if samples is not None:
        # ``common`` is the gcd of denom and every order's welfare. The error
        # bar is taken over the welfares' least common denominator, so its
        # last bit does not depend on values that no order picked.
        def block(start: int, stop: int) -> tuple[list[int], int, int]:
            per_agent_num = [0] * n
            total_sq = 0
            common = denom
            rng = random.Random()
            for k in range(start, stop):
                rng.seed(f"eatsim-rp:{seed}:{k}")  # the same state as a fresh Random(...)
                order = list(range(n))
                rng.shuffle(order)
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

        return _monte_carlo("rp", denom, samples, seed, block)

    # ``layer`` maps each state at ``pos`` (agents placed and items taken, as
    # bit masks, and valued items left) to the number of order prefixes that
    # reach it. A (state, agent) turn is played once and stands for
    # reach * (n-1-pos)! orders. A state with nothing of value left is not
    # extended, as every later turn gains 0.
    per_agent_num = [0] * n
    layer = {(0, 0, valued_count): 1}
    for pos in range(n):
        weight = math.factorial(n - 1 - pos)
        successors: dict[tuple[int, int, int], int] = {}
        for (placed, taken, left), reach in layer.items():
            available = [not taken >> j & 1 for j in range(m)]
            for agent in range(n):
                if placed >> agent & 1:
                    continue
                items, gain, worth = turn(agent, pos, available)
                per_agent_num[agent] += gain * reach * weight
                if left > worth:
                    state = (placed | 1 << agent,
                             taken | sum(1 << j for j in items), left - worth)
                    successors[state] = successors.get(state, 0) + reach
                for j in items:
                    available[j] = True
        layer = successors
    count = math.factorial(n) * denom
    return MechanismResult("rp", Fraction(sum(per_agent_num), count),
                           tuple(Fraction(p, count) for p in per_agent_num), "exact-enumeration")


def repeated_random_priority(
    instance: Instance,
    reports: Sequence[Strategy],
    samples: int,
    seed: int,
) -> MechanismResult:
    """Repeated Random Priority: m i.i.d. uniform draws, one favorite item each."""
    rankings, denom, value_int, valued = _setup(instance, reports, samples, seed)
    n, m = instance.n, instance.m
    valued_count = sum(valued)

    def block(start: int, stop: int) -> tuple[list[int], int, int]:
        """(per-agent sums, sum of squared welfares, 1) over the block: the
        error bar is taken over denom."""
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
        return per_agent_num, total_sq, 1

    return _monte_carlo("rrp", denom, samples, seed, block)
