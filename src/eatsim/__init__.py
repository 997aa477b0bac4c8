"""eatsim: exact simulation of simultaneous-eating allocation mechanisms.

The engine runs the continuous eating process (cardinal rate-splitting or
ordinal favorite-first, per strategy) with exact rational arithmetic and
returns the full piecewise-constant trace. On top of it sit strategy
constructors, Random Priority baselines, best-response search with
family-relative equilibrium certificates, welfare-ratio reports, and
generators for the stress constructions, all reachable from the ``eatsim``
command line tool.
"""

from .engine import (
    Segment,
    Trace,
    expected_payoffs,
    kernel_name,
    run,
    sample_allocation,
    trace_to_json,
    welfare,
)
from .model import (
    Instance,
    InvalidInstanceError,
    Lexicographic,
    LOWEST_INDEX_FIRST,
    ParseError,
    Proportional,
    Strategy,
    UNIFORM_OVER_REMAINING,
    Valuation,
    ZeroPolicy,
    decimal_str,
    fixed_order_policy,
    format_rational,
    parse_rational,
    valuation_of,
)

__version__ = "0.1.0"

__all__ = [
    "Instance",
    "InvalidInstanceError",
    "Lexicographic",
    "LOWEST_INDEX_FIRST",
    "ParseError",
    "Proportional",
    "Segment",
    "Strategy",
    "Trace",
    "UNIFORM_OVER_REMAINING",
    "Valuation",
    "ZeroPolicy",
    "decimal_str",
    "expected_payoffs",
    "fixed_order_policy",
    "format_rational",
    "kernel_name",
    "parse_rational",
    "run",
    "sample_allocation",
    "trace_to_json",
    "valuation_of",
    "welfare",
]
