"""Shared corpus builders and checks for the test suite.

Everything here is seeded: the same tag always produces the same instances,
profiles, and draws, so every fuzz-style test is reproducible bit for bit.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from eatsim.equilibrium import certificate_to_json, verify_ne
from eatsim.instances import random_instance
from eatsim.model import (
    LOWEST_INDEX_FIRST,
    Lexicographic,
    Proportional,
    UNIFORM_OVER_REMAINING,
    Valuation,
    format_rational,
    instance_to_json,
    profile_to_json,
    strategy_to_json,
)
from eatsim.strategies import Truthful


def rng_for(tag: str) -> random.Random:
    return random.Random(f"eatsim-tests:{tag}")


def random_valuation(rng: random.Random, m: int, weight_max: int = 12) -> Valuation:
    while True:
        weights = [rng.randint(0, weight_max) for _ in range(m)]
        total = sum(weights)
        if total:
            return Valuation(tuple(Fraction(w, total) for w in weights))


def random_strategy(rng: random.Random, m: int):
    if rng.random() < 0.5:
        return Proportional(random_valuation(rng, m))
    k = rng.randint(1, m)
    return Lexicographic(tuple(rng.sample(range(m), k)))


def random_profile(rng: random.Random, n: int, m: int):
    return [random_strategy(rng, m) for _ in range(n)]


def random_run_case(rng: random.Random, max_n: int = 8, max_m: int = 8):
    """(n, m, instance, mixed profile, zero policy) for one fuzz run."""
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    instance = random_instance(n, m, 12, seed=rng.randrange(10 ** 9)).instance
    profile = random_profile(rng, n, m)
    policy = LOWEST_INDEX_FIRST if rng.random() < 0.5 else UNIFORM_OVER_REMAINING
    return n, m, instance, profile, policy


def _assert_unshared(objects) -> None:
    assert len({id(x) for x in objects}) == len(objects)


def assert_exports_render_row_by_row(instance, profile) -> None:
    """instance_to_json, profile_to_json and the profile of a certificate
    equal the rendering of each row and entry on its own, and no two rows or
    entries of one document share a list or a dict."""
    rows = instance_to_json(instance)["valuations"]
    assert rows == [[format_rational(v) for v in row.values] for row in instance.valuations]
    _assert_unshared(rows)
    reference = json.dumps([strategy_to_json(s) for s in profile])
    cert = verify_ne(profile, instance, families=[Truthful()])
    for entries in (profile_to_json(profile), certificate_to_json(cert, profile)["profile"]):
        assert json.dumps(entries) == reference
        _assert_unshared(entries)
        _assert_unshared([entry.get("report", entry.get("order")) for entry in entries])
