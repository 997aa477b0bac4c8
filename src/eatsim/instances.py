"""Generators for the named stress constructions plus seeded random instances.

Each generator is a pure function of its parameter set: the same
GeneratorSpec always yields a bit-identical instance. Several constructions
also designate a "bad profile", the reported strategies that drive the
mechanism's welfare down; generators attach it so the ratio harness can run
the construction end to end.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .model import (
    Instance,
    Proportional,
    Strategy,
    Valuation,
    parse_rational,
)

GENERATOR_NAMES = (
    "example1",
    "example2",
    "sqrt-n-lb",
    "log-m-lb",
    "stability-lb",
    "rp-lb",
    "ps-beats-cps",
    "cps-beats-ps",
    "tightness",
    "counterexample-safety",
    "random",
)


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


def _frac(params: Mapping, key: str, default: Fraction | None = None) -> Fraction | None:
    if key not in params or params[key] is None:
        return default
    raw = params[key]
    if isinstance(raw, str):
        return parse_rational(raw)
    return Fraction(raw)


def _int(params: Mapping, key: str, default: int | None = None) -> int | None:
    if key not in params or params[key] is None:
        return default
    return int(params[key])


def _req(params: Mapping, key: str) -> int:
    value = _int(params, key)
    if value is None:
        raise GeneratorError(f"missing required parameter {key!r}")
    return value


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


def _rows(rows: Sequence[Sequence[Fraction]], **labels) -> Instance:
    n = len(rows)
    m = len(rows[0])
    return Instance(n, m, tuple(Valuation(tuple(r)) for r in rows), **labels)


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
    reported = []
    for i in range(n):
        block = i // root
        reported.append([high if j == block else low for j in range(n)])
    true_rows = [list(row) for row in reported]
    for block in range(root):
        designated = block * root
        true_rows[designated] = [Fraction(1) if j == block else Fraction(0) for j in range(n)]
    inst = _rows(true_rows)
    bad = tuple(Proportional(Valuation(tuple(row))) for row in reported)
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
    rows = []
    for _ in range(k):
        rows.append([Fraction(1) if j == 0 else Fraction(0) for j in range(m)])
    for z in range(1, q + 1):
        lo = 2 ** z - 1
        hi = 2 ** (z + 1) - 1
        value = Fraction(1, 2 ** z)
        rows.append([value if lo <= j < hi else Fraction(0) for j in range(m)])
    inst = _rows(rows)
    bad = tuple(Proportional(v) for v in inst.valuations)
    return Generated(inst, bad, {"description": "log-m lower-bound dyadic blocks",
                                 "opt": q + 1})


def stability_lb(n: int) -> Generated:
    """Best-equilibrium gap: sqrt(n) matched specialists vs a uniform crowd."""
    root = _require_square(n)
    rows = []
    for i in range(n):
        if i < root:
            rows.append([Fraction(1) if j == i else Fraction(0) for j in range(n)])
        else:
            rows.append([Fraction(1, root) if j < root else Fraction(0) for j in range(n)])
    inst = _rows(rows)
    return Generated(inst, None, {"description": "price-of-stability specialists"})


def rp_lb(n: int, eps: Fraction | None = None) -> Generated:
    """Random Priority collapse with m = n*n: one lucky agent takes everything of value."""
    if n < 2:
        raise GeneratorError("needs n >= 2")
    m = n * n
    _check_size(n, m)
    eps = _check_eps(eps if eps is not None else Fraction(1, n ** 2), n)
    rows = []
    for i in range(n):
        row = [Fraction(0)] * m
        for j in range(n):
            row[j] = (1 - eps) if j == i else eps / (n - 1)
        rows.append(row)
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
    rows = []
    for i in range(n):
        if i < root:
            rows.append([Fraction(1) if j == i else Fraction(0) for j in range(n)])
        else:
            rows.append([high if j < root else low for j in range(n)])
    inst = _rows(rows)
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
    total = Fraction(0)
    for z in range(x):
        total += k * Fraction(1, 2 ** z) * Fraction(2 ** (z + 1) * k, n)
    return total


def counterexample_safety(n: int, eps: Fraction | None = None) -> Generated:
    """One hedging agent against a wall of single-minded rivals for item 1.

    Truthful reporting leaves the hedger with strictly less than 1/n of its
    top item, so truth-telling fails the safety-guarantee test here.
    """
    if n < 2:
        raise GeneratorError("needs n >= 2")
    _check_size(n, n)
    eps = _check_eps(eps if eps is not None else Fraction(1, n ** 2), n)
    rows = [[1 - (n - 1) * eps] + [eps] * (n - 1)]
    for _ in range(n - 1):
        rows.append([Fraction(1)] + [Fraction(0)] * (n - 1))
    inst = _rows([[Fraction(v) for v in row] for row in rows])
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


def generate(spec: GeneratorSpec) -> Generated:
    """Dispatch a GeneratorSpec; deterministic given the spec."""
    name, params = spec.name, spec.params
    if name == "example1":
        return example1()
    if name == "example2":
        return example2()
    if name == "sqrt-n-lb":
        return sqrt_n_lb(_req(params, "n"), _frac(params, "eps"))
    if name == "log-m-lb":
        return log_m_lb(_req(params, "k"), _req(params, "q"))
    if name == "stability-lb":
        return stability_lb(_req(params, "n"))
    if name == "rp-lb":
        return rp_lb(_req(params, "n"), _frac(params, "eps"))
    if name == "ps-beats-cps":
        return ps_beats_cps(_req(params, "n"))
    if name == "cps-beats-ps":
        return cps_beats_ps(_req(params, "n"), _frac(params, "eps"))
    if name == "tightness":
        return tightness(_req(params, "x"), _int(params, "k"))
    if name == "counterexample-safety":
        return counterexample_safety(_req(params, "n"), _frac(params, "eps"))
    if name == "random":
        return random_instance(_req(params, "n"), _req(params, "m"),
                               _int(params, "weight_max", 20), spec.seed or 0)
    raise GeneratorError(f"unknown generator {name!r}; known: {', '.join(GENERATOR_NAMES)}")
