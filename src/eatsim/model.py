"""Exact numerics and the shared domain vocabulary.

Every quantity in the simulator (values, rates, times, shares, payoffs) is an
exact rational, carried by :class:`fractions.Fraction`. Floating point never
enters a computation path; decimal strings exist for display only.

:func:`integer_form` is the one conversion from exact values to integers:
numerators over the least common denominator. A valuation's unit-sum check
and preference order, kernel weights, payoffs, and the lotteries' value table
(:attr:`Instance.value_table`, built from the rows' forms) all use it.

Item and agent indices are 0-based inside the package and 1-based in every
external format (JSON files, CLI output).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union


class ParseError(ValueError):
    """Raised for malformed rational strings or malformed input files."""


class InvalidInstanceError(ValueError):
    """Raised when an instance violates its invariants.

    Carries the complete defect list in ``defects``, one string per violation.
    """

    def __init__(self, defects: list[str]):
        super().__init__("; ".join(defects))
        self.defects = defects


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or a finite decimal into an exact Fraction.

    Decimals convert exactly (power-of-ten denominator, then reduced):
    ``"0.6"`` becomes 3/5, never a float.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {type(text).__name__}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ParseError(f"malformed rational {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``p/q`` (or ``p`` when integral); parse round-trips."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def decimal_str(value: Fraction, digits: int = 6) -> str:
    """Approximate decimal rendering, display only (never fed back into math)."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


ZERO = Fraction(0)
ONE = Fraction(1)


def integer_form(values: Iterable[Fraction]) -> tuple[int, tuple[int, ...]]:
    """``(d, nums)`` with ``values[j] == nums[j] / d`` and d least (1 if empty)."""
    values = tuple(values)
    d = math.lcm(*(v.denominator for v in values))
    return d, tuple(v.numerator * (d // v.denominator) for v in values)


@dataclass(frozen=True)
class Valuation:
    """A unit-sum valuation: one nonnegative Fraction per item, summing to 1.

    The sum is checked, never silently normalized.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if any(isinstance(v, float) for v in self.values):
            raise ValueError(
                "floats are not exact; pass Fraction, int, or a rational string")
        vals = tuple(v if type(v) is Fraction else Fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        d, nums = self.integer_form
        if any(x < 0 for x in nums):
            raise ValueError("valuation has a negative entry")
        if sum(nums) != d:
            raise ValueError(f"valuation sums to {Fraction(sum(nums), d)}, expected 1")

    def __getitem__(self, item: int) -> Fraction:
        return self.values[item]

    def __len__(self) -> int:
        return len(self.values)

    def support(self) -> tuple[int, ...]:
        """Items with strictly positive value."""
        return tuple(j for j, v in enumerate(self.values) if v > 0)

    def preference_order(self) -> tuple[int, ...]:
        """All items sorted by decreasing value, ties broken by lowest index."""
        nums = self.integer_form[1]
        return tuple(sorted(range(len(nums)), key=nums.__getitem__, reverse=True))

    @cached_property
    def integer_form(self) -> tuple[int, tuple[int, ...]]:
        """:func:`integer_form` of the values, computed once on first use."""
        return integer_form(self.values)


def valuation_of(entries: Iterable[Union[Fraction, int, str]]) -> Valuation:
    """Build a Valuation from Fractions, ints, or rational strings.

    Floats are rejected: 0.6 the float is 5404319552844595/2**53, not 3/5.
    Quote decimals ("0.6") to get the exact value.
    """
    vals = []
    for e in entries:
        if isinstance(e, str):
            vals.append(parse_rational(e))
        elif isinstance(e, float):
            raise ParseError(f"float {e!r} is not exact; quote it as a string")
        else:
            vals.append(Fraction(e))
    return Valuation(tuple(vals))


@dataclass(frozen=True)
class Instance:
    """An allocation problem: ``n`` agents, ``m`` items, true unit-sum valuations."""

    n: int
    m: int
    valuations: tuple[Valuation, ...]
    agent_labels: tuple[str, ...] | None = None
    item_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        defects = instance_defects(self.n, self.m, self.valuations,
                                   self.agent_labels, self.item_labels)
        if defects:
            raise InvalidInstanceError(defects)

    def truthful_profile(self) -> list["Strategy"]:
        return [Proportional(v) for v in self.valuations]

    @cached_property
    def value_table(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(d, rows)``: every true value as ``rows[i][j] / d``, d least.

        Built once from the rows' cached :func:`integer_form`.
        """
        forms = [v.integer_form for v in self.valuations]
        d = math.lcm(*(dv for dv, _ in forms))
        return d, tuple(tuple(x * (d // dv) for x in nums) for dv, nums in forms)


def instance_defects(
    n: int,
    m: int,
    valuations: Sequence[Sequence[Fraction] | Valuation],
    agent_labels: Sequence[str] | None = None,
    item_labels: Sequence[str] | None = None,
) -> list[str]:
    """Collect every invariant violation of a raw instance (empty list = valid).

    Works on raw rows (pre-Valuation) so a broken file reports all its defects
    at once instead of failing on the first bad row. A row that is already a
    :class:`Valuation` passed the sign and sum checks when it was built.
    """
    defects: list[str] = []
    if n < 1:
        defects.append(f"n = {n} must be at least 1")
    if m < 1:
        defects.append(f"m = {m} must be at least 1")
    if len(valuations) != n:
        defects.append(f"expected {n} valuation rows, got {len(valuations)}")
    for i, row in enumerate(valuations):
        vals = row.values if isinstance(row, Valuation) else tuple(row)
        if len(vals) != m:
            defects.append(f"agent {i + 1}: row length {len(vals)} != m = {m}")
            continue
        if isinstance(row, Valuation):
            continue
        negatives = [j for j, v in enumerate(vals) if v < 0]
        for j in negatives:
            defects.append(f"agent {i + 1}: negative value at item {j + 1}")
        if not negatives and sum(vals, ZERO) != ONE:
            defects.append(f"agent {i + 1}: values sum to {sum(vals, ZERO)}, expected 1")
    if agent_labels is not None and len(agent_labels) != n:
        defects.append(f"expected {n} agent labels, got {len(agent_labels)}")
    if item_labels is not None and len(item_labels) != m:
        defects.append(f"expected {m} item labels, got {len(item_labels)}")
    return defects


def validate_instance(instance: Instance) -> Instance:
    """Return the instance iff every invariant holds (construction re-checks)."""
    defects = instance_defects(instance.n, instance.m, instance.valuations,
                               instance.agent_labels, instance.item_labels)
    if defects:
        raise InvalidInstanceError(defects)
    return instance


@dataclass(frozen=True)
class Proportional:
    """Report a unit-sum valuation; consumption splits in proportion to it."""

    report: Valuation


@dataclass(frozen=True)
class Lexicographic:
    """Consume the first still-available item of ``order``, at rate 1.

    The order may be a strict prefix of the items; once exhausted the agent
    falls through to the zero policy.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(self.order)
        if not all(isinstance(j, int) for j in order):
            raise ValueError("lexicographic order entries must be int item indices")
        object.__setattr__(self, "order", order)
        if len(set(self.order)) != len(self.order):
            raise ValueError("lexicographic order contains duplicates")
        if any(j < 0 for j in self.order):
            raise ValueError("lexicographic order has a negative index")


# A ``|`` union, not ``typing.Union[...]``: typing caches its subscriptions,
# so each fresh import of this module would stay alive in that cache.
Strategy = Proportional | Lexicographic


def check_strategy(i: int, m: int, strat: Strategy) -> None:
    """Reject agent i's strategy if it does not fit m items."""
    if isinstance(strat, Proportional):
        if len(strat.report) != m:
            raise ValueError(f"agent {i + 1}: report length {len(strat.report)} != m = {m}")
    elif isinstance(strat, Lexicographic):
        if any(j >= m for j in strat.order):
            raise ValueError(f"agent {i + 1}: order index out of range for m = {m}")
    else:
        raise ValueError(f"agent {i + 1}: not a strategy: {strat!r}")


@dataclass(frozen=True)
class ZeroPolicy:
    """What an agent eats when it values none of the remaining items.

    ``uniform`` spreads rate 1 evenly over the remaining items;
    ``lowest-index`` puts rate 1 on the lowest-indexed remaining item;
    ``fixed`` puts rate 1 on the first remaining item of a fixed permutation.
    """

    kind: str
    order: tuple[int, ...] | None = None

    _KINDS = ("uniform", "lowest-index", "fixed")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown zero policy {self.kind!r}")
        if self.kind == "fixed":
            if not self.order:
                raise ValueError("fixed zero policy requires a permutation")
            if sorted(self.order) != list(range(len(self.order))):
                raise ValueError("fixed zero policy order must be a permutation of all items")
        elif self.order is not None:
            raise ValueError(f"{self.kind} zero policy takes no order")


UNIFORM_OVER_REMAINING = ZeroPolicy("uniform")
LOWEST_INDEX_FIRST = ZeroPolicy("lowest-index")


def fixed_order_policy(order: Sequence[int]) -> ZeroPolicy:
    return ZeroPolicy("fixed", tuple(order))


# ---------------------------------------------------------------------------
# JSON interchange. External formats are 1-based; all indices are shifted at
# this boundary and nowhere else.
# ---------------------------------------------------------------------------

def instance_to_json(instance: Instance) -> dict:
    doc: dict = {
        "n": instance.n,
        "m": instance.m,
        "valuations": [[format_rational(v) for v in row.values] for row in instance.valuations],
    }
    if instance.agent_labels or instance.item_labels:
        doc["labels"] = {}
        if instance.agent_labels:
            doc["labels"]["agents"] = list(instance.agent_labels)
        if instance.item_labels:
            doc["labels"]["items"] = list(instance.item_labels)
    return doc


def instance_from_json(doc: dict) -> Instance:
    """Parse and fully validate an instance document.

    Raises ParseError for structural problems and InvalidInstanceError (with
    the complete defect list) for invariant violations.
    """
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    try:
        n = int(doc["n"])
        m = int(doc["m"])
        raw_rows = doc["valuations"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"instance document missing or malformed field: {exc}") from None
    for key in ("n", "m"):
        if type(doc[key]) is not int:  # int() above also takes 2.7, true and "2"
            raise ParseError(f"{key!r} must be a JSON integer, got {json.dumps(doc[key])}")
    if not isinstance(raw_rows, list):
        raise ParseError("'valuations' must be a list of rows")
    rows = []
    for i, raw in enumerate(raw_rows):
        if not isinstance(raw, list):
            raise ParseError(f"agent {i + 1}: valuation row must be a list")
        rows.append(tuple(parse_rational(x) for x in raw))
    labels = doc.get("labels") or {}
    if not isinstance(labels, dict):
        raise ParseError("'labels' must be an object")
    agent_labels, item_labels = (_labels(labels, key) for key in ("agents", "items"))
    try:
        valuations = tuple(Valuation(r) for r in rows)
    except ValueError:
        # a sign or sum defect: report every defect of the raw rows at once
        raise InvalidInstanceError(
            instance_defects(n, m, rows, agent_labels, item_labels)) from None
    return Instance(n, m, valuations, agent_labels, item_labels)


def _labels(labels: dict, key: str) -> tuple[str, ...] | None:
    if key not in labels:
        return None
    names = labels[key]
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ParseError(f"labels.{key} must be a list of strings")
    return tuple(names)


def load_json(path: str):
    """The JSON document in an input file. Invalid JSON is a ParseError, and
    so are text that is not UTF-8, an integer too long for ``int`` and
    nesting too deep for the decoder."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None


def strategy_to_json(strategy: Strategy) -> dict:
    if isinstance(strategy, Proportional):
        return {"kind": "proportional",
                "report": [format_rational(v) for v in strategy.report.values]}
    return {"kind": "lexicographic", "order": [j + 1 for j in strategy.order]}


def strategy_from_json(doc: dict, m: int | None = None) -> Strategy:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("strategy must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "proportional":
        entries = doc.get("report", [])
        # JSON true/false are Python ints, and null is no rational at all
        if not isinstance(entries, list) or not all(
                type(x) in (str, int, float) for x in entries):
            raise ParseError("proportional report must be a list of rational strings")
        report = valuation_of(entries)
        if m is not None and len(report) != m:
            raise ParseError(f"proportional report has length {len(report)}, expected {m}")
        return Proportional(report)
    if kind == "lexicographic":
        order = doc.get("order", [])
        if not isinstance(order, list) or any(type(j) is not int or j < 1 for j in order):
            raise ParseError("lexicographic order must contain 1-based item indices")
        if m is not None and any(j > m for j in order):
            raise ParseError(f"lexicographic order index out of range for m = {m}")
        return Lexicographic(tuple(j - 1 for j in order))
    raise ParseError(f"unknown strategy kind {kind!r}")


def profile_to_json(profile: Sequence[Strategy]) -> list[dict]:
    return [strategy_to_json(s) for s in profile]


def profile_from_json(doc, n: int | None = None, m: int | None = None) -> list[Strategy]:
    if not isinstance(doc, list):
        raise ParseError("profile must be a JSON list of strategies")
    if n is not None and len(doc) != n:
        raise ParseError(f"profile has {len(doc)} strategies, expected {n}")
    return [strategy_from_json(d, m) for d in doc]
