"""Strategy constructors and the strategy families of best-response search.

Truthful reporting and four parametric families cover the deviations the
analysis needs: single-minded bids, sequential (lexicographic) bids, uniform
bids over a target set, and an exhaustive grid over the report simplex for
tiny instances. Each family is one class that states its ``token`` in the
CLI's ``--families``, its ``size(m)`` for m items, its ``members(truth, m)``,
(label, strategy) pairs in canonical order, its certificate text
``describe(m)``, and its ``key()``, which orders the families of one kind.
``FAMILY_KINDS`` orders the classes: a new family is one class placed there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Sequence

from .model import (ONE, ZERO, Lexicographic, Proportional, Strategy, Valuation, as_count,
                    as_item_indices, as_rational)


def single_minded(item: int, m: int) -> Proportional:
    """Report value 1 on one item and 0 elsewhere; built once per (item, m)."""
    # before the cache, where item True or m = 1.0 would find a cached bid
    as_item_indices((item,), "single-minded bid", as_count(m, "m"))
    return _single_minded(item, m)


@cache
def _single_minded(item: int, m: int) -> Proportional:
    return Proportional(Valuation(tuple(ONE if j == item else ZERO for j in range(m))))


@cache
def _single_minded_members(m: int) -> tuple[tuple[str, Proportional], ...]:
    """The single-minded family's (label, member) pairs; built once per m."""
    return tuple((f"single-minded({j + 1})", single_minded(j, m)) for j in range(m))


def sequential(order: Sequence[int]) -> Lexicographic:
    """Consume the items of ``order`` one at a time, skipping finished ones."""
    return Lexicographic(tuple(order))


def uniform(items: Iterable[int], m: int) -> Proportional:
    """Report 1/k on each of k target items, 0 elsewhere."""
    chosen = set(as_item_indices(items, "uniform bid", as_count(m, "m")))
    if not chosen:
        raise ValueError("uniform bid needs a nonempty item set")
    share = Fraction(1, len(chosen))
    return Proportional(Valuation(tuple(
        share if j in chosen else Fraction(0) for j in range(m))))


def epsilon_strategy(order: Sequence[int], eps: Fraction, m: int) -> Proportional:
    """A proportional report that approximates ``sequential(order)`` as eps -> 0.

    The head item gets 1 minus the geometric tail, item x_l gets eps**(l-1)
    for l >= 2, so the report is unit-sum by construction. (The l-th power is
    taken with exponent l-1, the only convention that sums to one.)
    """
    eps = as_rational(eps, "eps")
    if not Fraction(0) < eps < Fraction(1, 2):
        raise ValueError("eps must lie strictly between 0 and 1/2")
    order = as_item_indices(order, "order", as_count(m, "m"))
    if not order:
        raise ValueError("order must be nonempty")
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


class StrategyFamily:
    """The base of the family classes; one with a ``parameter`` k is also written ``token:<k>``."""

    parameter: str | None = None

    @classmethod
    def from_token(cls, value: int | None, m: int) -> StrategyFamily:
        """The family ``token`` (value None) or ``token:<value>`` names for m items."""
        return cls()

    def key(self) -> tuple:
        """A total order on the families of this kind; equal keys give equal
        members and text."""
        return ()


@dataclass(frozen=True)
class Truthful(StrategyFamily):
    """The agent's true valuation, reported as it is."""

    token = "truthful"

    def size(self, m: int) -> int:
        return 1

    def members(self, truth: Valuation, m: int) -> Iterable[tuple[str, Strategy]]:
        return (("truthful", Proportional(truth)),)

    def describe(self, m: int) -> str:
        return "truthful"


@dataclass(frozen=True)
class SingleMinded(StrategyFamily):
    """Every single-item bid, by item."""

    token = "single-minded"

    def size(self, m: int) -> int:
        return m

    def members(self, truth: Valuation, m: int) -> Iterable[tuple[str, Strategy]]:
        return _single_minded_members(m)

    def describe(self, m: int) -> str:
        return f"single-minded[all {m} items]"


@dataclass(frozen=True)
class Sequential(StrategyFamily):
    """Lexicographic candidates, lexicographically; ``orders=None`` means the
    agent's decreasing-true-value order and all its prefixes (the greedy
    orders). Named orders are checked when built."""

    orders: tuple[tuple[int, ...], ...] | None = None
    token = "sequential"

    def __post_init__(self):
        for order in self.orders or ():
            Lexicographic(order)  # its checks, but for the range

    def key(self) -> tuple:
        # the greedy default, then named lists by their sorted orders
        return self.orders is not None, tuple(sorted(map(tuple, self.orders or ())))

    def size(self, m: int) -> int:
        return m if self.orders is None else len(self.orders)

    def members(self, truth: Valuation, m: int) -> Iterator[tuple[str, Strategy]]:
        if self.orders is not None:
            for order in sorted(self.orders):
                yield f"sequential({','.join(str(j + 1) for j in order)})", sequential(order)
            return
        # each prefix of the preference order, shortest first, as sorted; a
        # prefix holds distinct nonnegative ints by construction, so it skips
        # the checks of ``Lexicographic``, and each label extends the last
        full = truth.preference_order()
        shown = ""
        for k, j in enumerate(full, 1):
            shown = f"{shown},{j + 1}" if shown else f"{j + 1}"
            member = object.__new__(Lexicographic)
            object.__setattr__(member, "order", full[:k])
            yield f"sequential({shown})", member

    def describe(self, m: int) -> str:
        count = "greedy" if self.orders is None else str(len(self.orders))
        return f"sequential[{count} orders]"


@dataclass(frozen=True)
class Uniform(StrategyFamily):
    """Uniform-bid candidates, by set size then lexicographically;
    ``sets=None`` means the agent's top-k value sets for every k. Named sets
    are checked when built."""

    sets: tuple[tuple[int, ...], ...] | None = None
    token = "uniform"

    def __post_init__(self):
        for items in self.sets or ():
            if not as_item_indices(items, f"uniform set {items!r}"):
                raise ValueError(f"uniform set {items!r} is empty")

    def key(self) -> tuple:
        # the top-value default, then named lists by their sorted sets
        return self.sets is not None, tuple(sorted(tuple(sorted(s)) for s in self.sets or ()))

    def size(self, m: int) -> int:
        return m if self.sets is None else len(self.sets)

    def members(self, truth: Valuation, m: int) -> Iterator[tuple[str, Strategy]]:
        full = truth.preference_order()
        sets = [full[:k] for k in range(1, len(full) + 1)] if self.sets is None else self.sets
        for items in sorted(map(sorted, sets), key=lambda s: (len(s), s)):
            yield f"uniform({{{','.join(str(j + 1) for j in items)}}})", uniform(items, m)

    def describe(self, m: int) -> str:
        count = "top-value" if self.sets is None else str(len(self.sets))
        return f"uniform[{count} sets]"


@dataclass(frozen=True)
class GridProportional(StrategyFamily):
    """All unit-sum reports with entries that are multiples of 1/resolution.

    Exhaustive best response only makes sense at tiny scale: the family has
    C(resolution + m - 1, m - 1) members, in lexicographic order.
    """

    resolution: int
    token = "grid"
    parameter = "resolution"

    def __post_init__(self):
        if as_count(self.resolution, "grid resolution") < 1:
            raise ValueError("grid resolution must be positive")

    @classmethod
    def from_token(cls, value: int | None, m: int) -> GridProportional:
        return cls(default_grid_resolution(m) if value is None else value)

    def key(self) -> tuple:
        return (self.resolution,)

    def size(self, m: int) -> int:
        return math.comb(self.resolution + m - 1, m - 1)

    def members(self, truth: Valuation, m: int) -> Iterator[tuple[str, Strategy]]:
        d, slots = self.resolution, self.resolution + m - 1
        # stars and bars: the m - 1 bars' slots, lexicographic, give the
        # entries' numerators in lexicographic order
        for bars in itertools.combinations(range(slots), m - 1):
            shares = [Fraction(b - a - 1, d) for a, b in zip((-1, *bars), (*bars, slots))]
            yield f"grid({','.join(map(str, shares))})", Proportional(Valuation(tuple(shares)))

    def describe(self, m: int) -> str:
        return f"grid[d={self.resolution}, {self.size(m)} points]"


# The family classes in canonical order, the order of every expansion and
# description; the CLI's ``--families`` takes their tokens.
FAMILY_KINDS = (Truthful, SingleMinded, Sequential, Uniform, GridProportional)

# The families a certificate sweeps when the caller names none: the default
# of ``equilibrium.verify_ne`` and of the CLI's ``--families``.
DEFAULT_FAMILIES = (Truthful(), SingleMinded(), Sequential())


def default_grid_resolution(m: int) -> int:
    # d = 12 is affordable for two items, d = 6 for three; beyond that the
    # closed families above replace exhaustive search.
    if m <= 2:
        return 12
    if m == 3:
        return 6
    raise ValueError("no default grid resolution beyond m = 3; pass one explicitly")


def _kind_rank(family: StrategyFamily) -> int:
    """The family's place in canonical order; a ``TypeError`` for a non-family."""
    if type(family) not in FAMILY_KINDS:
        raise TypeError(f"not a strategy family: {family!r}")
    return FAMILY_KINDS.index(type(family))


def _canonical_key(family: StrategyFamily) -> tuple:
    """By kind, then by the family's ``key()`` within its kind."""
    return _kind_rank(family), family.key()


def family_size(family: StrategyFamily, m: int) -> int:
    _kind_rank(family)
    return family.size(m)


def expand_families(
    families: Sequence[StrategyFamily], truth: Valuation, m: int
) -> Iterator[tuple[str, Strategy]]:
    """Every family's (label, member) pairs back to back, in canonical family
    order; a member that does not fit m is left to the sweep's check."""
    for family in sorted(families, key=_canonical_key):
        yield from family.members(truth, m)


def describe_families(families: Sequence[StrategyFamily], m: int) -> str:
    return " + ".join(family.describe(m) for family in sorted(families, key=_canonical_key))
