"""Constructors for the strategy families used in best-response search.

Four parametric families (plus truthful reporting) cover the deviations the
analysis machinery needs: single-minded bids, sequential (lexicographic)
bids, uniform bids over a target set, and an exhaustive grid over the report
simplex for tiny instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Sequence

from .model import FLOATS_NOT_EXACT, Lexicographic, Proportional, Strategy, Valuation


@cache
def single_minded(item: int, m: int) -> Proportional:
    """Report value 1 on one item and 0 elsewhere; built once per (item, m)."""
    if not 0 <= item < m:
        raise ValueError(f"item {item} out of range for m = {m}")
    return Proportional(Valuation(tuple(
        Fraction(1) if j == item else Fraction(0) for j in range(m))))


@cache
def _single_minded_members(m: int) -> tuple[tuple[str, Proportional], ...]:
    """The single-minded family's (label, member) pairs; built once per m."""
    return tuple((f"single-minded({j + 1})", single_minded(j, m)) for j in range(m))


def sequential(order: Sequence[int]) -> Lexicographic:
    """Consume the items of ``order`` one at a time, skipping finished ones."""
    return Lexicographic(tuple(order))


def _greedy_members(truth: Valuation) -> Iterator[tuple[str, Lexicographic]]:
    """The sequential family's default (label, member) pairs: each prefix of
    the preference order, shortest first. A prefix is a tuple of distinct
    nonnegative ints by construction, so its ``Lexicographic`` skips the
    checks of ``__post_init__``, and each label extends the previous one."""
    full = truth.preference_order()
    shown = ""
    for k, j in enumerate(full, 1):
        shown = f"{shown},{j + 1}" if shown else f"{j + 1}"
        member = object.__new__(Lexicographic)
        object.__setattr__(member, "order", full[:k])
        yield f"sequential({shown})", member


def uniform(items: Iterable[int], m: int) -> Proportional:
    """Report 1/k on each of k target items, 0 elsewhere."""
    chosen = set(items)
    targets = sorted(chosen)
    if not targets:
        raise ValueError("uniform bid needs a nonempty item set")
    if targets[0] < 0 or targets[-1] >= m:
        raise ValueError(f"item out of range for m = {m}")
    share = Fraction(1, len(targets))
    return Proportional(Valuation(tuple(
        share if j in chosen else Fraction(0) for j in range(m))))


def epsilon_strategy(order: Sequence[int], eps: Fraction, m: int) -> Proportional:
    """A proportional report that approximates ``sequential(order)`` as eps -> 0.

    The head item gets 1 minus the geometric tail, item x_l gets eps**(l-1)
    for l >= 2, so the report is unit-sum by construction. (The l-th power is
    taken with exponent l-1, the only convention that sums to one.)
    """
    if isinstance(eps, float):
        raise ValueError(FLOATS_NOT_EXACT)
    eps = Fraction(eps)
    if not Fraction(0) < eps < Fraction(1, 2):
        raise ValueError("eps must lie strictly between 0 and 1/2")
    order = tuple(order)
    if len(set(order)) != len(order) or not order:
        raise ValueError("order must be nonempty and free of duplicates")
    if any(not 0 <= j < m for j in order):
        raise ValueError(f"item out of range for m = {m}")
    k = len(order)
    values = [Fraction(0)] * m
    values[order[0]] = 1 - sum((eps ** ell for ell in range(1, k)), Fraction(0))
    for ell in range(2, k + 1):
        values[order[ell - 1]] = eps ** (ell - 1)
    return Proportional(Valuation(tuple(values)))


def _ordinal_order(strategy: Strategy, m: int) -> tuple[int, ...]:
    """The order of :func:`as_ordinal`, as a plain tuple, for a strategy that
    fits m (see :func:`eatsim.model.check_strategy`)."""
    if isinstance(strategy, Lexicographic):
        taken = set(strategy.order)
        return strategy.order + tuple(j for j in range(m) if j not in taken)
    return strategy.report.preference_order()


def as_ordinal(strategy: Strategy, m: int) -> Lexicographic:
    """The ordinal shadow of a strategy: a full preference order over all items.

    Proportional reports rank items by decreasing value, ties by lowest
    index; zero-valued items sort last, so the order never exhausts and the
    ordinal mechanism never consults the zero policy. An order keeps its
    items and appends the others in index order. The ordinal mechanism's
    kernel arguments take the same order from :func:`_ordinal_order`,
    without building the ``Lexicographic``.
    """
    return Lexicographic(_ordinal_order(strategy, m))


def ps_profile(profile: Sequence[Strategy], m: int) -> list[Lexicographic]:
    """Convert a profile to the ordinal mechanism's behaviour (favorite-first eating)."""
    return [as_ordinal(s, m) for s in profile]


# ---------------------------------------------------------------------------
# Families. ``expand`` enumerates candidates in the canonical order used by
# best-response search: truthful, single-minded by item, sequential orders
# lexicographically, uniform sets by size then lexicographically, grid points
# lexicographically.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Truthful:
    pass


@dataclass(frozen=True)
class SingleMinded:
    """Every single-item bid."""


@dataclass(frozen=True)
class Sequential:
    """Lexicographic candidates; ``orders=None`` means the deviating agent's
    own decreasing-true-value order and all its prefixes (the greedy orders)."""

    orders: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class Uniform:
    """Uniform-bid candidates; ``sets=None`` means the agent's top-k value
    sets for every k."""

    sets: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class GridProportional:
    """All unit-sum reports with entries that are multiples of 1/resolution.

    Exhaustive best response only makes sense at tiny scale: the family has
    C(resolution + m - 1, m - 1) members.
    """

    resolution: int

    def __post_init__(self):
        if isinstance(self.resolution, float):
            raise ValueError(FLOATS_NOT_EXACT)
        if self.resolution < 1:
            raise ValueError("grid resolution must be positive")


StrategyFamily = Truthful | SingleMinded | Sequential | Uniform | GridProportional

# The families a certificate sweeps when the caller names none: the default
# of ``equilibrium.verify_ne`` and of the CLI's ``--families``.
DEFAULT_FAMILIES = (Truthful(), SingleMinded(), Sequential())

_FAMILY_RANK = {Truthful: 0, SingleMinded: 1, Sequential: 2, Uniform: 3, GridProportional: 4}


def _rank(family: StrategyFamily) -> int:
    """The family's place in canonical enumeration order."""
    rank = _FAMILY_RANK.get(type(family))
    if rank is None:
        raise TypeError(f"not a strategy family: {family!r}")
    return rank


def default_grid_resolution(m: int) -> int:
    # d = 12 is affordable for two items, d = 6 for three; beyond that the
    # closed families above replace exhaustive search.
    if m <= 2:
        return 12
    if m == 3:
        return 6
    raise ValueError("no default grid resolution beyond m = 3; pass one explicitly")


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer vectors of length ``parts`` summing to ``total``, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def family_size(family: StrategyFamily, m: int) -> int:
    if isinstance(family, Truthful):
        return 1
    if isinstance(family, SingleMinded):
        return m
    if isinstance(family, Sequential):
        return m if family.orders is None else len(family.orders)
    if isinstance(family, Uniform):
        return m if family.sets is None else len(family.sets)
    if isinstance(family, GridProportional):
        return math.comb(family.resolution + m - 1, m - 1)
    raise TypeError(f"not a strategy family: {family!r}")


def expand_family(
    family: StrategyFamily, truth: Valuation, m: int
) -> Iterator[tuple[str, Strategy]]:
    """Yield (label, candidate strategy) pairs in canonical order.

    The default sequential members, the prefixes of the agent's preference
    order, are valid by construction and are built without re-checking;
    orders the caller names in ``Sequential(orders)`` are still checked. A
    member that does not fit m is left to the sweep's strategy check.
    """
    if isinstance(family, Truthful):
        yield "truthful", Proportional(truth)
    elif isinstance(family, SingleMinded):
        yield from _single_minded_members(m)
    elif isinstance(family, Sequential):
        if family.orders is None:
            # sorted, the greedy prefixes come shortest first: in prefix order
            yield from _greedy_members(truth)
        else:
            for order in sorted(family.orders):
                shown = ",".join(str(j + 1) for j in order)
                yield f"sequential({shown})", sequential(order)
    elif isinstance(family, Uniform):
        sets = top_value_sets(truth) if family.sets is None else family.sets
        for items in sorted(sets, key=lambda s: (len(s), tuple(sorted(s)))):
            shown = ",".join(str(j + 1) for j in sorted(items))
            yield f"uniform({{{shown}}})", uniform(items, m)
    elif isinstance(family, GridProportional):
        d = family.resolution
        for comp in _compositions(d, m):
            report = Valuation(tuple(Fraction(c, d) for c in comp))
            shown = ",".join(str(Fraction(c, d)) for c in comp)
            yield f"grid({shown})", Proportional(report)
    else:
        raise TypeError(f"not a strategy family: {family!r}")


def expand_families(
    families: Sequence[StrategyFamily], truth: Valuation, m: int
) -> Iterator[tuple[str, Strategy]]:
    """Expand several families back to back, in canonical family order."""
    for family in sorted(families, key=_rank):
        yield from expand_family(family, truth, m)


def describe_families(families: Sequence[StrategyFamily], m: int) -> str:
    parts = []
    for family in sorted(families, key=_rank):
        if isinstance(family, Truthful):
            parts.append("truthful")
        elif isinstance(family, SingleMinded):
            parts.append(f"single-minded[all {m} items]")
        elif isinstance(family, Sequential):
            count = "greedy" if family.orders is None else str(len(family.orders))
            parts.append(f"sequential[{count} orders]")
        elif isinstance(family, Uniform):
            count = "top-value" if family.sets is None else str(len(family.sets))
            parts.append(f"uniform[{count} sets]")
        else:
            parts.append(f"grid[d={family.resolution}, {family_size(family, m)} points]")
    return " + ".join(parts)


def greedy_orders(truth: Valuation) -> tuple[tuple[int, ...], ...]:
    """The agent's decreasing-true-value order and all its nonempty prefixes:
    the orders of the members :func:`expand_family` builds for ``Sequential()``."""
    full = truth.preference_order()
    return tuple(full[:k] for k in range(1, len(full) + 1))


def top_value_sets(truth: Valuation) -> tuple[tuple[int, ...], ...]:
    """Top-k sets by true value for k = 1..m (the uniform-bid candidates)."""
    full = truth.preference_order()
    return tuple(tuple(sorted(full[:k])) for k in range(1, len(full) + 1))
