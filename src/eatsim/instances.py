"""Generators for the named stress constructions plus seeded random instances.

Each generator is a pure function of its parameter set: the same
GeneratorSpec always yields a bit-identical instance. Several constructions
also designate a "bad profile", the reported strategies that drive the
mechanism's welfare down; generators attach it so the ratio harness can run
the construction end to end.

One table, ``_GENERATORS``, names each generator's builder and its required
and optional parameters, drawn from ``PARAMETERS``. :func:`generate` binds a
spec against it: a parameter the generator does not take is refused, ``eps``
must pass ``model.as_rational``, and every other parameter, and the seed,
``model.as_count``. The builders check the domains. The CLI makes one flag
per entry of ``PARAMETERS``.

The constructions are blocks of interchangeable agents. A generator builds
the :class:`Valuation` of each distinct row once and repeats that object
wherever the row recurs, in the instance and in the bad profile, so a block
is sum-checked and integer-formed once; ``model.instance_to_json`` and
``model.profile_to_json`` then render each distinct row once. A single-minded
row is the report of :func:`eatsim.strategies.single_minded`, the same cached
object as the single-minded family's member.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .model import (
    ZERO,
    Instance,
    ParseError,
    Proportional,
    Strategy,
    Valuation,
    as_count,
    as_rational,
)
from .strategies import single_minded


class GeneratorError(ValueError):
    """Unknown generator or a parameter outside its documented domain."""


# The most valuation entries, n * m, that a generator builds; each generator
# checks its n and m before it builds a row.
MAX_ENTRIES = 10 ** 6


def _check_size(n: int, m: int) -> None:
    if n * m > MAX_ENTRIES:
        raise GeneratorError(f"n * m = {n} * {m} is over the bound of {MAX_ENTRIES}")


def _doubling(e: int) -> int:
    """2**e - 1 items, or a GeneratorError before 2**e is built if it is over the bound."""
    if e >= MAX_ENTRIES.bit_length():
        raise GeneratorError(f"2**{e} - 1 items is over the bound of {MAX_ENTRIES}")
    return 2 ** e - 1


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    params: Mapping[str, int | str | Fraction] = field(default_factory=dict)
    seed: int | None = None


@dataclass(frozen=True)
class Generated:
    instance: Instance
    bad_profile: tuple[Strategy, ...] | None
    notes: dict


def _require_square(n: int) -> int:
    """sqrt(n) for the n x n square constructions, which need a square n >= 4."""
    if n < 0:
        raise GeneratorError("needs n >= 4")
    root = math.isqrt(n)
    if root * root != n:
        raise GeneratorError(f"n = {n} must be a perfect square")
    _check_size(n, n)
    if root < 2:
        raise GeneratorError("needs n >= 4")
    return root


def _check_eps(eps: Fraction, n: int) -> Fraction:
    if not Fraction(0) < eps < Fraction(1, n):
        raise GeneratorError(f"eps = {eps} must lie in (0, 1/{n})")
    return eps


def _rows(rows: Sequence[Valuation | Sequence[Fraction]], **labels) -> Instance:
    """The instance of these rows; a row that is already a Valuation is kept
    as it is, so a repeated one stays one shared object."""
    valuations = tuple(r if isinstance(r, Valuation) else Valuation(tuple(r)) for r in rows)
    return Instance(len(valuations), len(valuations[0]), valuations, **labels)


def example1() -> Generated:
    rows = [
        [Fraction(3, 5), Fraction(3, 10), Fraction(1, 10)],
        [Fraction(1, 10), Fraction(7, 10), Fraction(1, 5)],
        [Fraction(1, 5), Fraction(1, 2), Fraction(3, 10)],
    ]
    inst = _rows(rows, agent_labels=("A", "B", "C"))
    return Generated(inst, None, {"description": "three agents, staggered depletion"})


def example2() -> Generated:
    rows = [
        [Fraction(2, 3), Fraction(1, 3)],
        [Fraction(1, 3), Fraction(2, 3)],
    ]
    inst = _rows(rows, agent_labels=("A", "B"))
    return Generated(inst, None, {"description": "two agents with opposed favorites"})


def sqrt_n_lb(n: int, eps: Fraction | None = None) -> Generated:
    """Square-root welfare gap for any fair mechanism.

    Agents come in sqrt(n) blocks of sqrt(n); block b's report puts 1/n + eps
    on item b and spreads the rest evenly. True valuations replace the first
    agent of each block with a single-minded bidder for the block item, so
    the optimum is at least sqrt(n) while the reported profile (the attached
    bad profile) splits every item nearly uniformly.
    """
    root = _require_square(n)
    eps = _check_eps(eps if eps is not None else Fraction(1, n ** 3), n)
    high = Fraction(1, n) + eps
    low = Fraction(1, n) - eps / (n - 1)
    true_rows, bad = [], []
    for block in range(root):
        report = Valuation(tuple(high if j == block else low for j in range(n)))
        true_rows += [single_minded(block, n).report] + [report] * (root - 1)
        bad += [Proportional(report)] * root
    inst = _rows(true_rows)
    bad = tuple(bad)
    return Generated(inst, bad, {"description": "sqrt(n) lower-bound blocks", "eps": eps})


def log_m_lb(k: int, q: int) -> Generated:
    """Item-count welfare gap: k agents chase one item, q agents hold dyadic blocks.

    Agent k+z (z = 1..q) values the 2**z items of block z at 1/2**z each, so
    m = 2**(q+1) - 1 and the optimum is q + 1. The bad profile is truthful
    reporting; with the lowest-index zero policy the items then deplete in
    index order while every agent's payoff stays below 4/n.
    """
    if k < 1 or q < 1:
        raise GeneratorError("needs k >= 1 and q >= 1")
    n = k + q
    m = _doubling(q + 1)
    _check_size(n, m)
    rows = [single_minded(0, m).report] * k
    for z in range(1, q + 1):
        lo, hi = 2 ** z - 1, 2 ** (z + 1) - 1
        value = Fraction(1, 2 ** z)
        rows.append([value if lo <= j < hi else ZERO for j in range(m)])
    inst = _rows(rows)
    bad = tuple(Proportional(v) for v in inst.valuations)
    return Generated(inst, bad, {"description": "log-m lower-bound dyadic blocks",
                                 "opt": q + 1})


def stability_lb(n: int) -> Generated:
    """Best-equilibrium gap: sqrt(n) matched specialists vs a uniform crowd."""
    root = _require_square(n)
    crowd = Valuation(tuple(Fraction(1, root) if j < root else ZERO for j in range(n)))
    inst = _rows([single_minded(i, n).report for i in range(root)] + [crowd] * (n - root))
    return Generated(inst, None, {"description": "price-of-stability specialists"})


def rp_lb(n: int, eps: Fraction | None = None) -> Generated:
    """Random Priority collapse with m = n*n: one lucky agent takes everything of value."""
    if n < 2:
        raise GeneratorError("needs n >= 2")
    m = n * n
    _check_size(n, m)
    eps = _check_eps(eps if eps is not None else Fraction(1, n ** 2), n)
    rows = [[(1 - eps) if j == i else eps / (n - 1) for j in range(n)] + [Fraction(0)] * (m - n)
            for i in range(n)]
    inst = _rows(rows)
    bad = tuple(Proportional(v) for v in inst.valuations)
    return Generated(inst, bad, {"description": "random-priority lower bound", "eps": eps})


def ps_beats_cps(n: int) -> Generated:
    """Near-uniform values with a mild own-item tilt: splitting rates wastes it."""
    root = _require_square(n)
    own = Fraction(1, root)
    other = (1 - own) / (n - 1)
    rows = [[own if j == i else other for j in range(n)] for i in range(n)]
    inst = _rows(rows)
    return Generated(inst, None, {"description": "ordinal eating wins: tilted uniform"})


def cps_beats_ps(n: int, eps: Fraction | None = None) -> Generated:
    """Specialists plus a crowd that mildly prefers the specialists' items.

    Ordinal eating sends the whole crowd swarming over the first items and
    starves the specialists; proportional eating barely perturbs them.
    """
    root = _require_square(n)
    eps = _check_eps(eps if eps is not None else Fraction(1, n ** 2), n)
    high = Fraction(1, n) + eps
    low = Fraction(1, n) - eps / (root - 1)
    crowd = Valuation(tuple(high if j < root else low for j in range(n)))
    inst = _rows([single_minded(i, n).report for i in range(root)] + [crowd] * (n - root))
    return Generated(inst, None, {"description": "cardinal eating wins: specialists + crowd",
                                  "eps": eps})


def tightness(x: int, k: int | None = None) -> Generated:
    """Doubling-bundle layout behind the j/n time-bound slack computation.

    x groups of k agents; group z holds disjoint blocks of 2**z items valued
    1/2**z each. With k at its default value the bound evaluates to exactly
    2/x (see :func:`tightness_bound`).
    """
    if x < 2:
        raise GeneratorError("needs x >= 2")
    blocks = _doubling(x)
    k = k if k is not None else default_tightness_k(x)
    if k < 1:
        raise GeneratorError("needs k >= 1")
    m = blocks * k
    _check_size(x * k, m)
    rows = []
    offset = 0
    for z in range(x):
        size = 2 ** z
        value = Fraction(1, size)
        for _ in range(k):
            row = [Fraction(0)] * m
            for j in range(offset, offset + size):
                row[j] = value
            rows.append(row)
            offset += size
    inst = _rows(rows)
    return Generated(inst, None, {"description": "time-bound tightness layout",
                                  "x": x, "k": k, "bound": tightness_bound(x, k)})


def default_tightness_k(x: int) -> int:
    return -((2 ** x - 1) // -(x * x))  # ceil((2**x - 1) / x**2)


def tightness_bound(x: int, k: int | None = None) -> Fraction:
    """Evaluate the grouped time-bound sum sum_z k * (1/2**z) * (2**(z+1) k / n).

    With n = (x*k)**2 the sum telescopes to exactly 2/x for any k, so the
    rounding of k to an integer costs nothing here.
    """
    if x < 2:
        raise GeneratorError("needs x >= 2")
    k = k if k is not None else default_tightness_k(x)
    n = (x * k) ** 2
    return sum((k * Fraction(1, 2 ** z) * Fraction(2 ** (z + 1) * k, n) for z in range(x)),
               Fraction(0))


def counterexample_safety(n: int, eps: Fraction | None = None) -> Generated:
    """One hedging agent against a wall of single-minded rivals for item 1.

    Truthful reporting leaves the hedger with strictly less than 1/n of its
    top item, so truth-telling fails the safety-guarantee test here.
    """
    if n < 2:
        raise GeneratorError("needs n >= 2")
    _check_size(n, n)
    eps = _check_eps(eps if eps is not None else Fraction(1, n ** 2), n)
    hedger = [1 - (n - 1) * eps] + [eps] * (n - 1)
    inst = _rows([hedger] + [single_minded(0, n).report] * (n - 1))
    bad = tuple(Proportional(v) for v in inst.valuations)
    return Generated(inst, bad, {"description": "truth-telling safety counterexample",
                                 "eps": eps})


def random_instance(n: int, m: int, weight_max: int = 20, seed: int = 0) -> Generated:
    """Seeded random instance from integer weights, normalized exactly.

    Each entry draws an integer weight uniformly from [0, weight_max]; a row
    that comes up all zero is redrawn. Exact normalization keeps every value
    rational with a small denominator (no floating-point sampling anywhere).
    """
    if n < 1 or m < 1:
        raise GeneratorError("needs n >= 1 and m >= 1")
    if weight_max < 1:
        raise GeneratorError("needs weight_max >= 1")
    _check_size(n, m)
    rng = random.Random(f"eatsim-gen:{seed}:{n}x{m}:{weight_max}")
    rows = []
    for _ in range(n):
        while True:
            weights = [rng.randint(0, weight_max) for _ in range(m)]
            total = sum(weights)
            if total:
                break
        rows.append([Fraction(w, total) for w in weights])
    inst = _rows(rows)
    return Generated(inst, None, {"description": "random integer-weight instance",
                                  "seed": seed, "weight_max": weight_max})


# name -> (builder, required parameters, optional parameters), in the order
# the unknown-name error lists them; an absent optional parameter takes the
# builder's default
_GENERATORS = {
    "example1": (example1, (), ()),
    "example2": (example2, (), ()),
    "sqrt-n-lb": (sqrt_n_lb, ("n",), ("eps",)),
    "log-m-lb": (log_m_lb, ("k", "q"), ()),
    "stability-lb": (stability_lb, ("n",), ()),
    "rp-lb": (rp_lb, ("n",), ("eps",)),
    "ps-beats-cps": (ps_beats_cps, ("n",), ()),
    "cps-beats-ps": (cps_beats_ps, ("n",), ("eps",)),
    "tightness": (tightness, ("x",), ("k",)),
    "counterexample-safety": (counterexample_safety, ("n",), ("eps",)),
    "random": (random_instance, ("n", "m"), ("weight_max",)),
}

# every generator parameter, in the order the CLI lists its flags
PARAMETERS = ("n", "m", "k", "q", "x", "eps", "weight_max")


def _bind(key: str, raw) -> int | Fraction:
    """One value by model's rules: eps is exact; every other parameter, and the seed, an int."""
    try:
        return as_rational(raw, key) if key == "eps" else as_count(raw, key)
    except ParseError:
        raise
    except ValueError as exc:
        raise GeneratorError(str(exc)) from None


def generate(spec: GeneratorSpec) -> Generated:
    """Bind a GeneratorSpec's parameters and build it; deterministic given the spec.

    A parameter the generator does not take is refused, and None means absent.
    """
    if spec.name not in _GENERATORS:
        raise GeneratorError(f"unknown generator {spec.name!r}; known: {', '.join(_GENERATORS)}")
    build, required, optional = _GENERATORS[spec.name]
    params = {key: raw for key, raw in spec.params.items() if raw is not None}
    if unknown := [key for key in params if key not in required + optional]:
        where = "; the seed is GeneratorSpec.seed" if unknown[0] == "seed" else ""
        raise GeneratorError(f"{spec.name} takes no parameter {unknown[0]!r}; its parameters: "
                             f"{', '.join(required + optional) or 'none'}{where}")
    kwargs = {key: _bind(key, raw) for key, raw in params.items()}
    if missing := [key for key in required if key not in kwargs]:
        raise GeneratorError(f"missing required parameter {missing[0]!r}")
    seed = 0 if spec.seed is None else _bind("seed", spec.seed)
    if spec.name == "random":
        kwargs["seed"] = seed
    return build(**kwargs)
