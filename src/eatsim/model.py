"""Exact numerics and the shared domain vocabulary.

Every quantity in the simulator (values, rates, times, shares, payoffs) is an
exact rational, carried by :class:`fractions.Fraction`. Floating point never
enters a computation path; decimal strings exist for display only.

:func:`integer_form` is the one conversion from exact values to integers:
numerators over the least common denominator. A valuation's unit-sum check
and preference order, kernel weights, payoffs, and the lotteries' value table
(:attr:`Instance.value_table`, built from the rows' forms) all use it. Beside
it, :func:`as_count`, :func:`as_item_indices` and :func:`as_rational` are the
one rule for counts, item indices (an ``int`` but no bool) and exact numbers;
the JSON readers check text.

Item and agent indices are 0-based inside the package and 1-based in every
external format (JSON files, CLI output).
"""

from __future__ import annotations

import json
import math
from collections import Counter
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


# CPython's default limit on the digits of an int converted from or to text
MAX_DIGITS = 4300

# what every library entry that takes an exact number says to a float
FLOATS_NOT_EXACT = "floats are not exact; pass Fraction, int, or a rational string"


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or a finite decimal into an exact Fraction.

    Decimals convert exactly (power-of-ten denominator, then reduced):
    ``"0.6"`` becomes 3/5, never a float. A decimal whose numerator or
    denominator, before reduction, would pass ``MAX_DIGITS`` digits is
    refused before it is built: ``"1e-99999999"`` would take minutes.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {type(text).__name__}")
    literal = text.strip()
    if "/" not in literal:  # int() already limits p and q
        body, _, exponent = literal.lower().partition("e")
        whole, _, decimals = body.partition(".")
        try:
            exp = int(exponent or 0)
        except ValueError:
            raise ParseError(f"malformed rational {text!r}") from None
        digits = len((whole + decimals).lstrip("+-").replace("_", "").lstrip("0"))
        if max(digits, 1) + exp > MAX_DIGITS or 1 + len(decimals) - exp > MAX_DIGITS:
            raise ParseError(f"rational {text!r} needs more than {MAX_DIGITS} digits")
    try:
        return Fraction(literal)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ParseError(f"malformed rational {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``p/q`` (or ``p`` when integral); parse round-trips
    up to ``MAX_DIGITS``.

    A result can have twice the digits of its inputs. An integer past
    CPython's ``MAX_DIGITS`` limit on ``str`` is rendered by ``Decimal``,
    which is exact and has no limit but is slower, so only on that path."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        num = str(Decimal(value.numerator))
        return num if value.denominator == 1 else f"{num}/{Decimal(value.denominator)!s}"


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


def as_count(value, what: str) -> int:
    """``value`` if it is an int but no bool, else a ``ValueError`` naming
    ``what`` (:data:`FLOATS_NOT_EXACT` for a float). Ranges are the caller's."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise ValueError(FLOATS_NOT_EXACT)
    raise ValueError(f"{what} must be an int, got {type(value).__name__}")


def as_rational(value, what: str) -> Fraction:
    """``value`` as a Fraction: a Fraction as it is, an int (no bool), text by
    :func:`parse_rational`; else a ``ValueError`` (:data:`FLOATS_NOT_EXACT` for a float)."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(FLOATS_NOT_EXACT if isinstance(value, float) else f"{what} must be a "
                     f"Fraction, an int or a rational string, got {type(value).__name__}")


def as_item_indices(items: Iterable[int], what: str, m: int | None = None) -> tuple[int, ...]:
    """``items`` as a tuple of distinct ints (no bools), each at least 0 and
    below ``m`` if given, else a ``ValueError`` whose text starts with ``what``."""
    items = tuple(items)
    if not all(type(j) is int for j in items):
        raise ValueError(f"{what} entries must be int item indices")
    if len(set(items)) != len(items):
        raise ValueError(f"{what} contains duplicates")
    if items and min(items) < 0:
        raise ValueError(f"{what} has a negative index")
    if m is not None and items and max(items) >= m:
        raise ValueError(f"{what} has an item out of range for m = {m}")
    return items


def valued_items(rows: Iterable[Sequence[int]]) -> list[bool]:
    """Per item: does some row's value for it exceed 0? Rows hold nonnegative
    integers."""
    return [any(column) for column in zip(*rows)]


@dataclass(frozen=True)
class Valuation:
    """A unit-sum valuation: one nonnegative Fraction per item, summing to 1.

    The sum is checked, never silently normalized.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(v if type(v) is Fraction else as_rational(v, "valuation entry")
                     for v in self.values)
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

    @cached_property
    def value_counts(self) -> dict[int, int]:
        """The number of items of each value of :attr:`integer_form`,
        counted once on first use; a plain dict, which copies fast."""
        return dict(Counter(self.integer_form[1]))


def valuation_of(entries: Iterable[Union[Fraction, int, str]],
                 memo: dict | None = None) -> Valuation:
    """Build a Valuation from Fractions, ints, or rational strings.

    Floats are rejected: 0.6 the float is 5404319552844595/2**53, not 3/5.
    Quote decimals ("0.6") to get the exact value. ``memo``, one dict per
    document, keeps each distinct string's value and each distinct row's
    Valuation, looked up before the row is walked (rows key as written, with
    their entries' types: hashing a Fraction is slow, and 1, 1.0 and True are
    equal keys).
    """
    memo = {} if memo is None else memo
    entries = tuple(entries)
    key = entries, tuple(map(type, entries))
    try:
        known = key in memo
    except TypeError:  # an unhashable entry, which Valuation refuses below
        known = False
    if not known:  # strings through the memo; Valuation checks every other entry
        memo[key] = Valuation(tuple(_parsed(e, memo) if isinstance(e, str) else e
                                    for e in entries))
    return memo[key]


def _parsed(text, memo: dict) -> Fraction:
    """:func:`parse_rational`, run once per distinct string in ``memo``."""
    if type(text) is not str:  # not a key: 1, 1.0 and True are equal keys
        return parse_rational(text)
    if text not in memo:
        memo[text] = parse_rational(text)
    return memo[text]


@dataclass(frozen=True)
class Instance:
    """An allocation problem: ``n`` agents, ``m`` items, true unit-sum valuations."""

    n: int
    m: int
    valuations: tuple[Valuation, ...]
    agent_labels: tuple[str, ...] | None = None
    item_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        defects = [f"agent {i + 1}: row is not a Valuation"
                   for i, row in enumerate(self.valuations) if not isinstance(row, Valuation)]
        defects = defects or instance_defects(self.n, self.m, self.valuations,
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
    counts = set()  # the sizes that are ints, so the rows can be measured against them
    for what, size in (("n", n), ("m", m)):
        try:
            if as_count(size, what) < 1:
                defects.append(f"{what} = {size} must be at least 1")
            counts.add(what)
        except ValueError as exc:
            defects.append(str(exc))
    if "n" in counts and len(valuations) != n:
        defects.append(f"expected {n} valuation rows, got {len(valuations)}")
    for i, row in enumerate(valuations):
        vals = row.values if isinstance(row, Valuation) else tuple(row)
        if "m" in counts and len(vals) != m:
            defects.append(f"agent {i + 1}: row length {len(vals)} != m = {m}")
            continue
        if isinstance(row, Valuation):
            continue
        negatives = [j for j, v in enumerate(vals) if v < 0]
        for j in negatives:
            defects.append(f"agent {i + 1}: negative value at item {j + 1}")
        if not negatives and sum(vals, ZERO) != ONE:
            defects.append(f"agent {i + 1}: values sum to {sum(vals, ZERO)}, expected 1")
    if agent_labels is not None and "n" in counts and len(agent_labels) != n:
        defects.append(f"expected {n} agent labels, got {len(agent_labels)}")
    if item_labels is not None and "m" in counts and len(item_labels) != m:
        defects.append(f"expected {m} item labels, got {len(item_labels)}")
    return defects


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
        object.__setattr__(self, "order", as_item_indices(self.order, "lexicographic order"))


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
            object.__setattr__(self, "order", as_item_indices(  # so a permutation
                self.order, "fixed zero policy order", len(self.order)))
        elif self.order is not None:
            raise ValueError(f"{self.kind} zero policy takes no order")


UNIFORM_OVER_REMAINING = ZeroPolicy("uniform")
LOWEST_INDEX_FIRST = ZeroPolicy("lowest-index")


def fixed_order_policy(order: Sequence[int]) -> ZeroPolicy:
    return ZeroPolicy("fixed", tuple(order))


# ---------------------------------------------------------------------------
# JSON interchange. External formats are 1-based and the library is 0-based.
# Indices are shifted where text leaves or enters the library: here for
# instances and profiles, in engine.trace_to_json, in
# equilibrium.deviation_report_to_json, in the strategies' labels, in error
# messages that name an agent or item, and in cli for its arguments and
# printed lines.
#
# Instances and profiles repeat few distinct rows: the exports render each
# distinct row once, keyed on its cached integer form (a tuple of Fractions
# hashes slowly), and give every row its own list, so a caller may edit one
# row of a document without touching another.
# ---------------------------------------------------------------------------

def instance_to_json(instance: Instance) -> dict:
    rendered: dict[tuple, list[str]] = {}
    rows = []
    for row in instance.valuations:
        text = rendered.get(row.integer_form)
        if text is None:
            text = rendered[row.integer_form] = [format_rational(v) for v in row.values]
        rows.append(text.copy())
    doc: dict = {"n": instance.n, "m": instance.m, "valuations": rows}
    labels = {key: list(names) for key, names in (
        ("agents", instance.agent_labels), ("items", instance.item_labels)) if names}
    if labels:
        doc["labels"] = labels
    return doc


def instance_from_json(doc: dict) -> Instance:
    """Parse and fully validate an instance document.

    Raises ParseError for structural problems and InvalidInstanceError (with
    the complete defect list) for invariant violations.
    """
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    _known_keys(doc, ("n", "m", "valuations", "labels"), "instance document")
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
    # each string's value, and the index of each distinct row's first copy:
    # a repeated row is parsed and checked once
    memo: dict = {}
    rows, first = [], []
    for i, raw in enumerate(raw_rows):
        if not isinstance(raw, list):
            raise ParseError(f"agent {i + 1}: valuation row must be a list")
        try:
            j = memo.setdefault(tuple(raw), i)
        except TypeError:  # an unhashable entry, which _parsed names
            j = i
        rows.append(rows[j] if j < i else tuple(_parsed(x, memo) for x in raw))
        first.append(j)
    labels = doc.get("labels", {})
    if not isinstance(labels, dict):  # null, [] and 0 too: no labels is no key
        raise ParseError("'labels' must be an object")
    _known_keys(labels, ("agents", "items"), "'labels'")
    agent_labels, item_labels = (_labels(labels, key) for key in ("agents", "items"))
    try:
        made = {j: Valuation(rows[j]) for j in set(first)}
    except ValueError:
        # a sign or sum defect: report every defect of the raw rows at once
        raise InvalidInstanceError(
            instance_defects(n, m, rows, agent_labels, item_labels)) from None
    return Instance(n, m, tuple(made[j] for j in first), agent_labels, item_labels)


def _known_keys(doc: dict, known: tuple[str, ...], what: str) -> None:
    """Refuse a key outside ``known``: a misspelt field would be read as absent."""
    for key in doc:
        if key not in known:
            raise ParseError(f"{what} has an unknown key {key!r}")


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


def strategy_from_json(doc: dict, m: int | None = None, memo: dict | None = None) -> Strategy:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("strategy must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind not in ("proportional", "lexicographic"):
        raise ParseError(f"unknown strategy kind {kind!r}")
    field = "report" if kind == "proportional" else "order"
    _known_keys(doc, ("kind", field), f"{kind} strategy")
    if field not in doc:  # an empty report or order is written out, never implied
        raise ParseError(f"{kind} strategy has no {field!r} field")
    if kind == "proportional":
        entries = doc["report"]
        # JSON true/false are Python ints; null and a float are no exact rational
        if not isinstance(entries, list) or not all(
                type(x) in (str, int) for x in entries):
            raise ParseError("proportional report must be a list of rational strings")
        report = valuation_of(entries, memo)
        if m is not None and len(report) != m:
            raise ParseError(f"proportional report has length {len(report)}, expected {m}")
        return Proportional(report)
    order = doc["order"]
    if not isinstance(order, list) or any(type(j) is not int or j < 1 for j in order):
        raise ParseError("lexicographic order must contain 1-based item indices")
    if m is not None and any(j > m for j in order):
        raise ParseError(f"lexicographic order index out of range for m = {m}")
    return Lexicographic(tuple(j - 1 for j in order))


def profile_to_json(profile: Sequence[Strategy]) -> list[dict]:
    """:func:`strategy_to_json` of each entry, each distinct strategy rendered
    once, keyed on its order or its report's integer form."""
    rendered: dict[tuple, dict] = {}
    docs = []
    for strategy in profile:
        if isinstance(strategy, Lexicographic):
            key, field = strategy.order, "order"
        else:
            key, field = strategy.report.integer_form, "report"
        doc = rendered.get(key)
        if doc is None:
            doc = rendered[key] = strategy_to_json(strategy)
        docs.append({"kind": doc["kind"], field: doc[field].copy()})
    return docs


def profile_from_json(doc, n: int | None = None, m: int | None = None) -> list[Strategy]:
    if not isinstance(doc, list):
        raise ParseError("profile must be a JSON list of strategies")
    if n is not None and len(doc) != n:
        raise ParseError(f"profile has {len(doc)} strategies, expected {n}")
    memo: dict = {}
    return [strategy_from_json(d, m, memo) for d in doc]
