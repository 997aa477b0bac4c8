"""Layer spans for the traced benchmark run, recorded from outside the program.

The tracer wraps the public entry points of each ``eatsim`` module (plus the
kernel's ``run_eating``) and records one span per call: name, start, end,
parent, and the bookkeeping time the wrapper itself spent inside the parent.
Spans stay in memory; the benchmark writes them out when it ends.

A wrapped function that no longer exists is an error, not a zero: layers move
between modules as the program changes, and a silent 0 would read as a gain.
"""

from __future__ import annotations

import math
import time
from collections import Counter

# (module, attribute, span name). "kernel" is the module eatsim.engine selected
# at import time (engine._kernel_impl). A span name's prefix up to the last
# "/" is its layer group.
TARGETS = (
    ("kernel", "run_eating", "kernel/run_eating"),
    ("engine", "run", "engine.run/run"),
    ("engine", "expected_payoffs", "engine.payoffs/expected_payoffs"),
    ("engine", "welfare", "engine.payoffs/welfare"),
    ("engine", "trace_to_json", "engine.export/trace_to_json"),
    ("equilibrium", "verify_ne", "equilibrium/verify_ne"),
    ("equilibrium", "best_response", "equilibrium/best_response"),
    ("equilibrium", "run_profile", "equilibrium/run_profile"),
    ("equilibrium", "ratio_report", "equilibrium/ratio_report"),
    ("equilibrium", "certificate_to_json", "equilibrium/certificate_to_json"),
    ("strategies", "expand_families", "strategies/expand_families"),
    ("strategies", "ps_profile", "strategies/ps_profile"),
    ("lotteries", "opt", "lotteries.opt/opt"),
    ("lotteries", "random_priority", "lotteries.rp/random_priority"),
    ("lotteries", "repeated_random_priority", "lotteries.rrp/repeated_random_priority"),
    ("cli", "main", "cli/main"),
    ("instances", "generate", "instances/generate"),
    ("instances", "random_instance", "instances/random_instance"),
)

# expand_families is a generator: each next() is its own span.
_GENERATORS = {"strategies/expand_families"}

# Span fields.
NAME, START, END, PARENT, OVERHEAD = range(5)


class MissingTargetError(RuntimeError):
    """A function the tracer must wrap is not where the target table says."""


def _group(name: str) -> str:
    return name.rsplit("/", 1)[0]


class _CountedPayoffs(tuple):
    """A payoff tuple that counts how many of its entries the caller reads."""

    def __getitem__(self, key):
        value = tuple.__getitem__(self, key)
        self.counts["payoff_read"] += len(value) if isinstance(key, slice) else 1
        return value

    def __iter__(self):
        for value in tuple.__iter__(self):
            self.counts["payoff_read"] += 1
            yield value


class Tracer:
    """Wraps the layer entry points of one set of loaded eatsim modules."""

    def __init__(self, modules):
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _owner(self, key: str):
        if key == "kernel":
            owner = getattr(self.modules.engine, "_kernel_impl", None)
            if owner is None:
                raise MissingTargetError("eatsim.engine._kernel_impl no longer exists")
            return owner
        return getattr(self.modules, key)

    def install(self) -> None:
        """Replace every target, in each of the modules that binds it."""
        resolved = []
        for key, attr, name in TARGETS:
            owner = self._owner(key)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                raise MissingTargetError(
                    f"{getattr(owner, '__name__', key)}.{attr} no longer exists; "
                    "update perfbench/tracer.py TARGETS")
            resolved.append((owner, attr, name, fn))
        holders = list(vars(self.modules).values())
        for owner, attr, name, fn in resolved:
            wrapper = self._wrap_generator(fn, name) if name in _GENERATORS \
                else self._wrap(fn, name, _AFTER.get(name))
            for holder in holders + [owner] * (owner not in holders):
                for field, value in list(vars(holder).items()):
                    if value is fn:
                        self._restore.append((holder, field, fn))
                        setattr(holder, field, wrapper)

    def uninstall(self) -> None:
        for holder, field, fn in reversed(self._restore):
            setattr(holder, field, fn)
        self._restore.clear()

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    # -- wrappers -----------------------------------------------------------

    def _open(self, name: str) -> tuple[list, int]:
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span, parent

    def _charge(self, parent: int, seconds: float) -> None:
        if parent >= 0:
            self.spans[parent][OVERHEAD] += seconds

    def _wrap(self, fn, name, after):
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            entered = clock()
            span, parent = tracer._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.stack.pop()
                span[START], span[END] = start, end
            if after is not None:
                result = after(tracer, result)
            tracer._charge(parent, (start - entered) + (clock() - end))
            return result

        return wrapper

    def _wrap_generator(self, fn, name):
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                entered = clock()
                span, parent = tracer._open(name)
                start = clock()
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    tracer.stack.pop()
                    span[START], span[END] = start, end
                    tracer._charge(parent, (start - entered) + (clock() - end))
                yield item

        return wrapper


# -- per-target counters, run after the wrapped call returns ---------------

def _after_kernel(tracer, result):
    _, events, gamma = result
    counts = tracer.counts
    counts["kernel_segments"] += len({(num, den) for num, den, _ in events})
    share_bits = max((den.bit_length() for row in gamma for _, den in row), default=0)
    time_bits = max((den.bit_length() for _, den, _ in events), default=0)
    counts["share_bits_max"] = max(counts["share_bits_max"], share_bits)
    counts["time_bits_max"] = max(counts["time_bits_max"], time_bits)
    return result


def _after_payoffs(tracer, result):
    tracer.counts["payoff_computed"] += len(result)
    counted = _CountedPayoffs(result)
    counted.counts = tracer.counts
    return counted


def _after_rp(tracer, result):
    exact = result.method == "exact-enumeration"
    tracer.counts["rp_orders"] += math.factorial(len(result.per_agent)) if exact \
        else result.samples
    return result


def _after_rrp(tracer, result):
    tracer.counts["rrp_samples"] += result.samples
    return result


_AFTER = {
    "kernel/run_eating": _after_kernel,
    "engine.payoffs/expected_payoffs": _after_payoffs,
    "lotteries.rp/random_priority": _after_rp,
    "lotteries.rrp/repeated_random_priority": _after_rrp,
}


# -- layer metrics ------------------------------------------------------------

def _times(spans):
    """Per layer group: busy time (outermost spans) and self time."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    busy: Counter = Counter()
    own: Counter = Counter()
    groups = [_group(span[NAME]) for span in spans]
    for idx, span in enumerate(spans):
        duration = span[END] - span[START]
        group = groups[idx]
        own[group] += duration - child_time[idx] - span[OVERHEAD]
        ancestor = span[PARENT]
        while ancestor >= 0 and groups[ancestor] != group:
            ancestor = spans[ancestor][PARENT]
        if ancestor < 0:
            busy[group] += duration
    return busy, own, groups


def op_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans and counts."""
    busy, own, groups = _times(spans)
    engine_runs = 0
    for idx, group in enumerate(groups):
        if group != "engine.run":
            continue
        ancestor = spans[idx][PARENT]
        while ancestor >= 0 and groups[ancestor] != "equilibrium":
            ancestor = spans[ancestor][PARENT]
        engine_runs += ancestor >= 0
    computed = counts["payoff_computed"]
    return {
        "kernel.calls": groups.count("kernel"),
        "kernel.busy_s": busy["kernel"],
        "kernel.segments": counts["kernel_segments"],
        "kernel.share_bits_max": counts["share_bits_max"],
        "kernel.time_bits_max": counts["time_bits_max"],
        "engine.run.self_s": own["engine.run"],
        "engine.payoffs_s": busy["engine.payoffs"],
        "engine.export_s": busy["engine.export"],
        "engine.payoff_used_ratio": counts["payoff_read"] / computed if computed else 0.0,
        "equilibrium.self_s": own["equilibrium"],
        "equilibrium.engine_runs": engine_runs,
        "strategies.busy_s": busy["strategies"],
        "lotteries.opt_s": busy["lotteries.opt"],
        "lotteries.rp_s": busy["lotteries.rp"],
        "lotteries.rrp_s": busy["lotteries.rrp"],
        "lotteries.rp_orders": counts["rp_orders"],
        "lotteries.rrp_samples": counts["rrp_samples"],
        "cli.self_s": own["cli"],
    }


def setup_metrics(spans) -> dict[str, float]:
    busy, _, _ = _times(spans)
    return {"instances.generate_s": busy["instances"]}
