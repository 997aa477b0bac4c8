"""Non-eating mechanisms and the welfare benchmark.

Random Priority draws one agent order and lets each agent in turn grab its
quota of favorite available items; Repeated Random Priority draws an agent
uniformly m times in a row, one item per draw. ``opt`` is the benchmark that
hands every item to an agent that values it most. Both lotteries are exact
unless a sample count is given: the exact result averages every order (RP)
or every draw sequence (RRP), and a sampled one draws that many.

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

An item is *valued* when some agent's true value for it is positive. A
draw sequence of either lottery, sampled or walked exactly, stops once every
valued item is taken: every later pick gains exactly 0. As each sample
reseeds its own stream, skipping the tail of one sample leaves every other
sample unchanged, so the results are those of playing every draw and turn to
the end.

RP and RRP accumulate integers over the instance's cached value table
(:attr:`eatsim.model.Instance.value_table`). Exact RP and exact RRP share
one layered walk, ``_exact``, which goes breadth-first over classes of
agents with equal rankings and value rows: prefixes that draw as many of
each class (RP only) and take the same items share one state, whose next
turns are each played once per class, weighted by the draw sequences
through it. A walk of more than ``MAX_TURNS`` turns is refused with
:class:`ExactEnumerationRefused`. The walk and sampled RP share one pick
routine, ``_grab``.

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


# Most (state, class) turns an exact walk counts, a few seconds of work: RRP on
# ps-beats-cps n=16 counts 1,048,560 of them and RP on sqrt-n-lb n=25 955,985.
MAX_TURNS = 2 * 10**6

# Fewest samples in a block of their own: a fork costs a few ms, the time of
# a few hundred samples, so a block this size repays it several times over.
MIN_BLOCK = 2048


class ExactEnumerationRefused(ValueError):
    """An exact RP or RRP walk of more than ``MAX_TURNS`` turns is refused; sample instead."""


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

    ``samples`` is None for an exact run. A sample count must be at least
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


def _exact(
    mechanism: str,
    rankings: Sequence[Sequence[int]],
    denom: int,
    value_int: tuple[tuple[int, ...], ...],
    valued: list[bool],
    quotas: Sequence[int],
    once: bool,
) -> MechanismResult:
    """The exact average over every draw sequence of a lottery, by a layered walk.

    Turn k of a sequence draws an agent, which takes the first ``quotas[k]``
    available items of its ranking. With ``once`` the sequences are the n!
    orders, each agent drawn once (RP); otherwise they are all n^len(quotas)
    sequences of agents (RRP).

    Agents with equal rankings and value rows form a class, whose members a
    uniform draw cannot tell apart. ``layer`` maps each state at turn k (the
    members drawn per class, with ``once``, one bit field per class in one int,
    so a lone agent has one bit; the items taken, as a bit mask; the valued
    items left) to the number of draw prefixes that reach it. A (state, class)
    turn is played once for reach * free prefixes, one per member not yet
    drawn, each finished in weight ways: (n-1-k)! orders or n^(len(quotas)-1-k)
    draws. A class's total is split evenly among its members, exactly by
    symmetry. A state with nothing of value left is not extended, as every
    later turn gains 0. Each layer's turns are counted before it is played, as
    states times classes (at most n - k for RP), so a walk of more than
    ``MAX_TURNS`` turns is refused before it plays the layer that would pass
    the limit. The count is exact when every agent is a class of its own, and
    an upper bound otherwise.
    """
    n, m, depth = len(rankings), len(valued), len(quotas)
    index: dict[tuple[Sequence[int], tuple[int, ...]], int] = {}  # (ranking, row) -> class
    class_of = [index.setdefault((rankings[i], value_int[i]), len(index)) for i in range(n)]
    classes, shift = [], 0  # (ranking, row, size, its field's shift and mask, what a draw adds)
    for (ranking, row), c in index.items():
        width = class_of.count(c).bit_length()
        classes.append((ranking, row, class_of.count(c), shift, (1 << width) - 1, once << shift))
        shift += width
    class_num = [0] * len(classes)
    bits = [1 << j for j in range(m)]
    layer = {(0, 0, sum(valued)): 1}
    turns = 0
    for k, quota in enumerate(quotas):
        turns += len(layer) * (min(len(classes), n - k) if once else len(classes))
        if turns > MAX_TURNS:
            raise ExactEnumerationRefused(
                f"exact {mechanism} plays more than {MAX_TURNS} turns; sample instead")
        gains = [0] * len(classes)
        successors: dict[tuple[int, int, int], int] = {}
        for (drawn, taken, left), reach in layer.items():
            available = [not taken & b for b in bits]
            for c, (ranking, row, size, shift, field, bit) in enumerate(classes):
                free = size - (drawn >> shift & field)
                if not free:
                    continue
                gain = worth = mask = 0
                for j in _grab(ranking, available, quota):
                    available[j] = True  # free again for the next class
                    gain += row[j]
                    worth += valued[j]
                    mask |= bits[j]
                ways = reach * free
                gains[c] += gain * ways
                if left > worth:
                    state = (drawn + bit, taken | mask, left - worth)
                    successors[state] = successors.get(state, 0) + ways
        rest = depth - 1 - k
        weight = math.factorial(rest) if once else n ** rest
        class_num = [total + gain * weight for total, gain in zip(class_num, gains)]
        layer = successors
    per_agent_num = [class_num[c] // classes[c][2] for c in class_of]
    count = (math.factorial(n) if once else n ** depth) * denom
    return MechanismResult(mechanism, Fraction(sum(per_agent_num), count),
                           tuple(Fraction(p, count) for p in per_agent_num), "exact-enumeration")


def random_priority(
    instance: Instance,
    reports: Sequence[Strategy],
    samples: int | None = None,
    seed: int | None = None,
) -> MechanismResult:
    """Random Priority: a random agent order; each picks its favorite quota.

    The quota is floor(m/n) items per agent, with the m mod n leftover items
    appended to the turn of the order's final agent. With ``samples`` unset
    the result is the exact average over all n! orders; otherwise ``samples``
    seeded orders are drawn.
    """
    rankings, denom, value_int, valued = _setup(instance, reports, samples, seed)
    n, m = instance.n, instance.m
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

    return _exact("rp", rankings, denom, value_int, valued, quotas, once=True)


def repeated_random_priority(
    instance: Instance,
    reports: Sequence[Strategy],
    samples: int | None = None,
    seed: int | None = None,
) -> MechanismResult:
    """Repeated Random Priority: m i.i.d. uniform draws, one favorite item each.

    With ``samples`` unset the result is the exact average over all n^m draw
    sequences; otherwise ``samples`` seeded sequences are drawn.
    """
    rankings, denom, value_int, valued = _setup(instance, reports, samples, seed)
    n, m = instance.n, instance.m
    if samples is None:
        return _exact("rrp", rankings, denom, value_int, valued, [1] * m, once=False)
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
