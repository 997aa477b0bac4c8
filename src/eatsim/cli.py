"""Command line surface: experiment orchestration, file I/O, CSV/JSON reports.

A run is its argument list: running the same list again reproduces
byte-identical outputs (Monte Carlo included, via seeds). This module is the
only one that reads the outside world: the argument list, and for the
sweeps, best-response and verify-ne, the engine-run budget ``ALLOC_BUDGET``,
which the library takes as its ``budget=`` argument. ``_integer`` is the one
reader of every integer in them, in flags, family tokens and ``ALLOC_BUDGET``.

Each subcommand is declared once, in ``_SUBCOMMANDS``; the parser is built
from the declarations, and ``execute`` resolves the instance, the profile and
the zero policy, in that order, before the handler makes its own checks.

Exit codes: 0 success, 1 parse error or unreadable/unwritable file,
2 invariant/domain violation, 3 equilibrium refuted, 4 budget or enumeration
refusal, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from . import engine, equilibrium, instances, lotteries, strategies
from .model import (
    MAX_DIGITS,
    Instance,
    InvalidInstanceError,
    ParseError,
    Strategy,
    ZeroPolicy,
    decimal_str,
    fixed_order_policy,
    format_rational,
    instance_from_json,
    instance_to_json,
    load_json,
    parse_rational,
    profile_from_json,
    profile_to_json,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_REFUTED = 3
EXIT_BUDGET = 4
EXIT_USAGE = 64

POA_CSV_COLUMNS = [
    "n", "m", "mechanism",
    "welfare", "welfare_approx",
    "opt", "opt_approx",
    "ratio", "ratio_approx",
]

# --families default: the tokens of the library's default families
DEFAULT_FAMILIES = ",".join(family.token for family in strategies.DEFAULT_FAMILIES)

RRP_SAMPLES = 10000


class UsageError(Exception):
    """An argument list or ``ALLOC_BUDGET`` value the CLI refuses: exit 64."""


class _Parser(argparse.ArgumentParser):
    # scripting contract: bad usage exits 64, not argparse's default 2
    def error(self, message):
        raise UsageError(message)


def _integer(text: str) -> int:
    """ASCII digits and an optional leading "-" (int() also takes " 1_0 " and "٣")."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit() and len(digits) <= MAX_DIGITS:
        return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _positive(text: str) -> int:
    """An :func:`_integer` of at least 1: ``--samples`` and ``grid:<d>``."""
    try:
        value = _integer(text)
    except argparse.ArgumentTypeError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    files: dict[str, str] = field(default_factory=dict)


class _Subcommand(NamedTuple):
    """A subcommand's help and handler, ``run(opts, instance, generated,
    profile, policy)``; what an absent ``--profile`` means (``"truthful"``,
    ``"bad-if-any"`` for the generator's bad profile if it has one, or None
    for no ``--profile``); its ``--mechanism`` choices; whether it takes
    ``--zero-policy``; and its own (flag, keywords), after the shared ones."""

    help: str
    run: Callable[..., CliResult]
    profile: str | None = None
    mechanisms: tuple[str, ...] = ()
    zero_policy: bool = False
    flags: tuple[tuple[str, dict], ...] = ()


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process: parsing keeps no state between calls."""
    parser = _Parser(prog="eatsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--instance", help="instance JSON file")
        p.add_argument("--generator", help="named instance generator")
        for key in instances.PARAMETERS:
            if key == "eps":
                p.add_argument("--eps", help="rational, e.g. 1/4096")
            else:
                p.add_argument("--" + key.replace("_", "-"), type=_integer)
        if command.profile:
            p.add_argument("--profile", help="profile JSON file, 'truthful', or 'bad'")
        if command.mechanisms:
            p.add_argument("--mechanism", choices=list(command.mechanisms),
                           default=command.mechanisms[0])
        if command.zero_policy:
            p.add_argument("--zero-policy", default="lowest-index",
                           help="uniform | lowest-index | fixed:<1-based permutation>")
        p.add_argument("--seed", type=_integer, default=0)
        p.add_argument("--out", help="output file path")
        for flag, keywords in command.flags:
            p.add_argument(flag, **keywords)
    return parser


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The subcommand and the options it was given or defaults to."""
    # argparse reads a value such as "-1/2" as an option: attach it as "--eps=-1/2"
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if re.match(r"-\.?\d", argv[i]) and argv[i - 1][:2] == "--" and "=" not in argv[i - 1]:
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    namespace = _build_parser().parse_args(argv)
    if namespace.command is None:
        raise UsageError("a subcommand is required")
    options = {k: v for k, v in vars(namespace).items() if k != "command" and v is not None}
    return namespace.command, options


# ---------------------------------------------------------------------------
# resolution helpers
# ---------------------------------------------------------------------------

def _resolve_instance(opts: dict) -> tuple[Instance, instances.Generated | None]:
    if opts.get("instance") and opts.get("generator"):
        raise UsageError("pass either --instance or --generator, not both")
    if opts.get("instance"):
        return instance_from_json(load_json(opts["instance"])), None
    if opts.get("generator"):
        params = {key: opts[key] for key in instances.PARAMETERS if key in opts}
        generated = instances.generate(
            instances.GeneratorSpec(opts["generator"], params, opts["seed"]))
        return generated.instance, generated
    raise UsageError("an --instance file or a --generator is required")


def _resolve_profile(opts: dict, instance: Instance,
                     generated: instances.Generated | None, default: str) -> list[Strategy]:
    token = opts.get("profile")
    if token is None:
        bad = default == "bad-if-any" and generated is not None and generated.bad_profile
        token = "bad" if bad else "truthful"
    if token == "truthful":
        return instance.truthful_profile()
    if token == "bad":
        if generated is None or generated.bad_profile is None:
            raise UsageError("this instance has no designated bad profile")
        return list(generated.bad_profile)
    return profile_from_json(load_json(token), instance.n, instance.m)


def _resolve_policy(opts: dict, m: int) -> ZeroPolicy:
    token = opts["zero_policy"]
    if token in ("uniform", "lowest-index"):
        return ZeroPolicy(token)
    if token.startswith("fixed:"):
        try:
            order = [_integer(x) - 1 for x in token[len("fixed:"):].split(",")]
        except argparse.ArgumentTypeError:
            raise UsageError(f"bad fixed policy {token!r}") from None
        if sorted(order) != list(range(m)):
            raise UsageError("fixed policy must be a permutation of all items")
        return fixed_order_policy(order)
    raise UsageError(f"unknown zero policy {token!r}")


def _resolve_families(opts: dict, m: int):
    """``--families``: family tokens, and ``token:<k>`` for a family's parameter k."""
    families = []
    for token in filter(None, map(str.strip, opts["families"].split(","))):
        name, colon, text = token.partition(":")
        kind = next((k for k in strategies.FAMILY_KINDS if k.token == name), None)
        if kind is None or (colon and kind.parameter is None):
            raise UsageError(f"unknown family {token!r}")
        try:
            value = _positive(text) if colon else None
        except argparse.ArgumentTypeError:
            raise UsageError(f"{name} {kind.parameter} must be a positive integer, "
                             f"got {token!r}") from None
        families.append(kind.from_token(value, m))
    if not families:
        raise UsageError("no strategy families given")
    return families


def _budget() -> int:
    """``ALLOC_BUDGET``, a sweep's cap on engine runs; unset or empty is the default."""
    raw = os.environ.get("ALLOC_BUDGET")
    if not raw:
        return equilibrium.DEFAULT_BUDGET
    try:
        if raw[0] != "-":  # a sign, even on 0, is no budget
            return _integer(raw)
    except argparse.ArgumentTypeError:
        pass
    raise UsageError(f"ALLOC_BUDGET must be a non-negative integer, got {raw!r}")


def _both(value: Fraction) -> str:
    return f"{format_rational(value)} (~{decimal_str(value)})"


def _agent_name(instance: Instance, i: int) -> str:
    if instance.agent_labels:
        return f"agent {i + 1} [{instance.agent_labels[i]}]"
    return f"agent {i + 1}"


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _out_file(opts: dict, make_doc) -> dict[str, str]:
    """The ``--out`` file as ``{path: JSON text}``; ``make_doc()`` runs only if asked."""
    return {opts["out"]: _json_text(make_doc())} if opts.get("out") else {}


def _lottery(opts: dict, mechanism: str, instance: Instance,
             profile: list[Strategy]) -> lotteries.MechanismResult:
    """RP, exact unless --samples; or RRP, RRP_SAMPLES draws unless --samples."""
    samples = opts.get("samples")
    if mechanism == "rp":
        return lotteries.random_priority(instance, profile, samples, opts["seed"])
    return lotteries.repeated_random_priority(instance, profile, samples or RRP_SAMPLES,
                                              opts["seed"])


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_simulate(opts, instance, generated, profile, policy) -> CliResult:
    mechanism = opts["mechanism"]
    trace = equilibrium.run_profile(instance.n, instance.m, profile, mechanism, policy)
    payoffs = engine.expected_payoffs(trace, instance.valuations)

    out = io.StringIO()
    out.write(f"instance: n={instance.n} m={instance.m}\n")
    out.write(f"mechanism: {mechanism}  zero-policy: {opts['zero_policy']}"
              f"  kernel: {engine.kernel_name()}\n")
    out.write("depletion events:\n")
    for idx, (t, j) in enumerate(trace.depletion_events, start=1):
        out.write(f"  t{idx} = {_both(t)}  item {j + 1}\n")
    out.write("shares (agents x items):\n")
    for i, row in enumerate(trace.shares):
        cells = " | ".join(_both(g) for g in row)
        out.write(f"  {_agent_name(instance, i)}: {cells}\n")
    out.write("payoffs:\n")
    for i, p in enumerate(payoffs):
        out.write(f"  {_agent_name(instance, i)}: {_both(p)}\n")
    out.write(f"welfare: {_both(sum(payoffs, Fraction(0)))}\n")
    return CliResult(EXIT_OK, out.getvalue(), _out_file(
        opts, lambda: engine.trace_to_json(trace, decimals=True)))


def _assignment(instance: Instance, assignment: tuple[int, ...]) -> tuple[str, dict]:
    """An item-to-agent assignment as printed lines and as its JSON map."""
    lines = "".join(f"  item {j + 1} -> {_agent_name(instance, agent)}\n"
                    for j, agent in enumerate(assignment))
    return lines, {str(j + 1): agent + 1 for j, agent in enumerate(assignment)}


def _cmd_opt(opts, instance, *_) -> CliResult:
    value, assignment = lotteries.opt(instance)
    lines, doc = _assignment(instance, assignment)
    return CliResult(EXIT_OK, f"opt welfare: {_both(value)}\n{lines}", _out_file(opts, lambda: {
        "opt_welfare": format_rational(value),
        "opt_welfare_approx": decimal_str(value),
        "assignment": doc,
    }))


def _cmd_poa(opts, instance, generated, profile, policy) -> CliResult:
    mechanism = opts["mechanism"]
    mechanisms = ["cps", "ps"] if mechanism == "both" else [mechanism]

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(POA_CSV_COLUMNS)
    for mech in mechanisms:
        if mech in ("cps", "ps"):
            row = equilibrium.ratio_report(instance, profile, mech, policy)
        else:
            welfare = _lottery(opts, mech, instance, profile).expected_welfare
            row = equilibrium.RatioReport(welfare, lotteries.opt(instance)[0])
        ratio = row.ratio
        writer.writerow([
            instance.n, instance.m, mech,
            format_rational(row.welfare), decimal_str(row.welfare),
            format_rational(row.opt), decimal_str(row.opt),
            "inf" if ratio is None else format_rational(ratio),
            "inf" if ratio is None else decimal_str(ratio),
        ])
    text = buffer.getvalue()
    files = {opts["out"]: text} if opts.get("out") else {}
    return CliResult(EXIT_OK, text, files)


def _cmd_best_response(opts, instance, generated, profile, policy) -> CliResult:
    agent = opts["agent"] - 1
    if not 0 <= agent < instance.n:
        raise UsageError(f"--agent must be in 1..{instance.n}")
    families = _resolve_families(opts, instance.m)
    report = equilibrium.best_response(
        profile, agent, instance.valuations[agent], families,
        mechanism=opts["mechanism"], policy=policy, budget=_budget(),
        collect_candidates=opts["dump_candidates"])
    out = io.StringIO()
    out.write(f"{_agent_name(instance, agent)} over {report.families}\n")
    out.write(f"baseline payoff: {_both(report.baseline_payoff)}\n")
    out.write(f"best: {report.best_label} payoff {_both(report.best_payoff)}"
              f" gain {_both(report.gain)}\n")
    if report.candidates:
        for label, payoff in report.candidates:
            out.write(f"  candidate {label}: {_both(payoff)}\n")
    return CliResult(EXIT_OK, out.getvalue(), _out_file(
        opts, lambda: equilibrium.deviation_report_to_json(report)))


def _cmd_verify_ne(opts, instance, generated, profile, policy) -> CliResult:
    families = _resolve_families(opts, instance.m)
    epsilon = parse_rational(opts["epsilon"])
    cert = equilibrium.verify_ne(
        profile, instance, epsilon, families,
        mechanism=opts["mechanism"], policy=policy, budget=_budget(),
        collect_candidates=opts["dump_candidates"])
    out = io.StringIO()
    out.write(f"verdict: {cert.verdict} (epsilon = {format_rational(cert.epsilon)},"
              f" families: {cert.families})\n")
    for report in cert.reports:
        out.write(f"  {_agent_name(instance, report.agent)}:"
                  f" baseline {_both(report.baseline_payoff)},"
                  f" best {report.best_label} {_both(report.best_payoff)},"
                  f" gain {_both(report.gain)}\n")
    if cert.witness is not None:
        out.write(f"witness: {_agent_name(instance, cert.witness.agent)}"
                  f" deviates to {cert.witness.best_label}"
                  f" for a gain of {_both(cert.witness.gain)}\n")
    code = EXIT_REFUTED if cert.verdict == "refuted" else EXIT_OK
    return CliResult(code, out.getvalue(), _out_file(
        opts, lambda: equilibrium.certificate_to_json(cert, profile)))


def _mechanism_result_doc(result: lotteries.MechanismResult) -> dict:
    doc = {
        "mechanism": result.mechanism,
        "method": result.method,
        "expected_welfare": format_rational(result.expected_welfare),
        "expected_welfare_approx": decimal_str(result.expected_welfare),
        "per_agent": [format_rational(p) for p in result.per_agent],
    }
    if result.samples is not None:
        doc["samples"] = result.samples
        doc["seed"] = result.seed
        doc["stderr"] = repr(result.stderr)
    return doc


def _cmd_lottery(mechanism, opts, instance, generated, profile, *_) -> CliResult:
    result = _lottery(opts, mechanism, instance, profile)
    out = io.StringIO()
    out.write(f"{result.mechanism} ({result.method})\n")
    out.write(f"expected welfare: {_both(result.expected_welfare)}")
    if result.stderr is not None:
        out.write(f"  stderr ~{result.stderr:.6g}")
    out.write("\n")
    for i, p in enumerate(result.per_agent):
        out.write(f"  agent {i + 1}: {_both(p)}\n")
    return CliResult(EXIT_OK, out.getvalue(), _out_file(
        opts, lambda: _mechanism_result_doc(result)))


def _cmd_generate(opts, instance, generated, *_) -> CliResult:
    if generated is None:
        raise UsageError("generate requires --generator")
    doc = instance_to_json(instance)
    out = io.StringIO()
    out.write(f"generated {opts['generator']}: n={instance.n} m={instance.m}\n")
    for key, value in sorted(generated.notes.items()):
        out.write(f"  {key}: {value}\n")
    files = _out_file(opts, lambda: doc)
    if not files:
        out.write(_json_text(doc))
    if opts.get("profile_out"):
        if generated.bad_profile is None:
            raise UsageError(f"generator {opts['generator']!r} has no designated bad profile")
        if opts.get("out") and os.path.realpath(opts["out"]) == os.path.realpath(
                opts["profile_out"]):
            raise UsageError("--out and --profile-out name the same file")
        files[opts["profile_out"]] = _json_text(profile_to_json(generated.bad_profile))
    return CliResult(EXIT_OK, out.getvalue(), files)


def _cmd_sample(opts, instance, generated, profile, policy) -> CliResult:
    trace = equilibrium.run_profile(instance.n, instance.m, profile,
                                    opts["mechanism"], policy)
    seed = opts["seed"]
    lines, doc = _assignment(instance, engine.sample_allocation(trace, seed))
    return CliResult(EXIT_OK, f"seed {seed}\n{lines}", _out_file(
        opts, lambda: {"seed": seed, "assignment": doc}))


_EATING = ("cps", "ps")
_FAMILIES_FLAG = ("--families", {"default": DEFAULT_FAMILIES})
_DUMP_FLAG = ("--dump-candidates", {"action": "store_true"})

# Every subcommand, in the order ``--help`` lists them.
_SUBCOMMANDS = {
    "simulate": _Subcommand(
        "run the eating process and export the trace", _cmd_simulate,
        profile="truthful", mechanisms=_EATING, zero_policy=True),
    "opt": _Subcommand("optimal welfare benchmark and assignment", _cmd_opt),
    "poa": _Subcommand(
        "welfare/opt ratio rows as CSV", _cmd_poa, profile="bad-if-any",
        mechanisms=(*_EATING, "rp", "rrp", "both"), zero_policy=True,
        flags=(("--samples", {"type": _positive, "help": "Monte Carlo samples for "
                              "rp/rrp rows (rp defaults to exact)"}),)),
    "best-response": _Subcommand(
        "sweep strategy families for one agent", _cmd_best_response,
        profile="truthful", mechanisms=_EATING, zero_policy=True,
        flags=(("--agent", {"type": _integer, "required": True, "help": "1-based agent index"}),
               _FAMILIES_FLAG, _DUMP_FLAG)),
    "verify-ne": _Subcommand(
        "family-relative epsilon-Nash certificate", _cmd_verify_ne,
        profile="truthful", mechanisms=_EATING, zero_policy=True,
        flags=(_FAMILIES_FLAG,
               ("--epsilon", {"default": "0", "help": "rational slack, default 0"}), _DUMP_FLAG)),
    "rp": _Subcommand(
        "random priority (exact n! enumeration or sampled)",
        functools.partial(_cmd_lottery, "rp"), profile="truthful",
        flags=(("--samples", {"type": _positive,
                              "help": "Monte Carlo sample count (omit for exact)"}),)),
    "rrp": _Subcommand(
        "repeated random priority (sampled)", functools.partial(_cmd_lottery, "rrp"),
        profile="truthful", flags=(("--samples", {"type": _positive}),)),
    "generate": _Subcommand(
        "write a generated instance (and bad profile)", _cmd_generate,
        flags=(("--profile-out", {"help": "also write the designated bad profile here"}),)),
    "sample": _Subcommand(
        "draw one allocation from the eating lottery", _cmd_sample,
        profile="truthful", mechanisms=_EATING, zero_policy=True),
}


def execute(argv: list[str]) -> CliResult:
    """Run an argument list and capture stdout text plus files to write.

    A usage error raises :class:`UsageError`, which :func:`main` turns
    into exit 64; domain errors map onto the exit-code contract, so the CLI
    and programmatic callers agree on failure modes.
    """
    name, opts = _parse(argv)
    command = _SUBCOMMANDS[name]
    try:
        instance, generated = _resolve_instance(opts)
        profile = (_resolve_profile(opts, instance, generated, command.profile)
                   if command.profile else None)
        policy = _resolve_policy(opts, instance.m) if command.zero_policy else None
        return command.run(opts, instance, generated, profile, policy)
    except UsageError:
        raise
    except (ParseError, OSError) as exc:
        return CliResult(EXIT_PARSE, f"error: {exc}\n")
    except InvalidInstanceError as exc:
        lines = "\n".join(f"  {d}" for d in exc.defects)
        return CliResult(EXIT_INVALID, f"invalid instance:\n{lines}\n")
    except (equilibrium.BudgetExceededError, lotteries.ExactEnumerationRefused) as exc:
        return CliResult(EXIT_BUDGET, f"refused: {exc}\n")
    except instances.GeneratorError as exc:
        return CliResult(EXIT_INVALID, f"generator error: {exc}\n")
    except ValueError as exc:
        return CliResult(EXIT_INVALID, f"error: {exc}\n")


def main(argv: list[str] | None = None) -> int:
    try:
        result = execute(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        _build_parser().print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        # files first, so a run whose output cannot be written prints only the error
        for path, text in sorted(result.files.items()):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        sys.stdout.write(f"error: {exc}\n")
        return EXIT_PARSE
    sys.stdout.write(result.stdout)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
