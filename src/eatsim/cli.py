"""Command line surface: experiment orchestration, file I/O, CSV/JSON reports.

Every run is captured as an :class:`ExperimentConfig`, a fully serializable
record of the subcommand and its options; re-executing an identical config
reproduces byte-identical outputs (Monte Carlo included, via seeds).

Option defaults live in the parser only; handlers read ``opts[...]``.

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
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import engine, equilibrium, instances, lotteries
from .model import (
    Instance,
    InvalidInstanceError,
    LOWEST_INDEX_FIRST,
    ParseError,
    Strategy,
    UNIFORM_OVER_REMAINING,
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
from .strategies import (
    GridProportional,
    Sequential,
    SingleMinded,
    Truthful,
    Uniform,
    default_grid_resolution,
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

DEFAULT_FAMILIES = "truthful,single-minded,sequential"

RRP_SAMPLES = 10000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # scripting contract: bad usage exits 64, not argparse's default 2
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int | None:
    try:
        value = int(text)
    except ValueError:
        return None
    return value if value > 0 else None


def _sample_count(text: str) -> int:
    value = _positive_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One CLI invocation, as data. Identical configs rerun bit-identically."""

    command: str
    options: dict

    def to_json(self) -> dict:
        return {"command": self.command, "options": dict(self.options)}

    @staticmethod
    def from_json(doc: dict) -> "ExperimentConfig":
        return ExperimentConfig(doc["command"], dict(doc["options"]))


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    files: dict[str, str] = field(default_factory=dict)


def _build_parser() -> _Parser:
    parser = _Parser(prog="eatsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    def add_common(p, profile=True, mechanism=None, policy=True):
        p.add_argument("--instance", help="instance JSON file")
        p.add_argument("--generator", help="named instance generator")
        p.add_argument("--n", type=int)
        p.add_argument("--m", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--x", type=int)
        p.add_argument("--eps", help="rational, e.g. 1/4096")
        p.add_argument("--weight-max", type=int, dest="weight_max")
        if profile:
            p.add_argument("--profile", help="profile JSON file, 'truthful', or 'bad'")
        if mechanism:
            p.add_argument("--mechanism", choices=mechanism, default=mechanism[0])
        if policy:
            p.add_argument("--zero-policy", dest="zero_policy", default="lowest-index",
                           help="uniform | lowest-index | fixed:<1-based permutation>")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output file path")

    p = sub.add_parser("simulate", help="run the eating process and export the trace")
    add_common(p, mechanism=["cps", "ps"])

    p = sub.add_parser("opt", help="optimal welfare benchmark and assignment")
    add_common(p, profile=False, policy=False)

    p = sub.add_parser("poa", help="welfare/opt ratio rows as CSV")
    add_common(p, mechanism=["cps", "ps", "rp", "rrp", "both"])
    p.add_argument("--samples", type=_sample_count,
                   help="Monte Carlo samples for rp/rrp rows (rp defaults to exact)")

    p = sub.add_parser("best-response", help="sweep strategy families for one agent")
    add_common(p, mechanism=["cps", "ps"])
    p.add_argument("--agent", type=int, required=True, help="1-based agent index")
    p.add_argument("--families", default=DEFAULT_FAMILIES)
    p.add_argument("--dump-candidates", action="store_true", dest="dump_candidates")

    p = sub.add_parser("verify-ne", help="family-relative epsilon-Nash certificate")
    add_common(p, mechanism=["cps", "ps"])
    p.add_argument("--families", default=DEFAULT_FAMILIES)
    p.add_argument("--epsilon", default="0", help="rational slack, default 0")
    p.add_argument("--dump-candidates", action="store_true", dest="dump_candidates")

    p = sub.add_parser("rp", help="random priority (exact n! enumeration or sampled)")
    add_common(p, policy=False)
    p.add_argument("--samples", type=_sample_count,
                   help="Monte Carlo sample count (omit for exact)")

    p = sub.add_parser("rrp", help="repeated random priority (sampled)")
    add_common(p, policy=False)
    p.add_argument("--samples", type=_sample_count)

    p = sub.add_parser("generate", help="write a generated instance (and bad profile)")
    add_common(p, profile=False, policy=False)
    p.add_argument("--profile-out", dest="profile_out",
                   help="also write the designated bad profile here")

    p = sub.add_parser("sample", help="draw one allocation from the eating lottery")
    add_common(p, mechanism=["cps", "ps"])

    return parser


def config_from_argv(argv: list[str]) -> ExperimentConfig:
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    if namespace.command is None:
        raise _UsageError("a subcommand is required")
    options = {k: v for k, v in vars(namespace).items() if k != "command" and v is not None}
    return ExperimentConfig(namespace.command, options)


# ---------------------------------------------------------------------------
# resolution helpers
# ---------------------------------------------------------------------------

def _resolve_instance(opts: dict) -> tuple[Instance, instances.Generated | None]:
    if opts.get("instance") and opts.get("generator"):
        raise _UsageError("pass either --instance or --generator, not both")
    if opts.get("instance"):
        return instance_from_json(load_json(opts["instance"])), None
    if opts.get("generator"):
        params = {key: opts[key] for key in ("n", "m", "k", "q", "x", "eps", "weight_max")
                  if key in opts}
        generated = instances.generate(
            instances.GeneratorSpec(opts["generator"], params, opts["seed"]))
        return generated.instance, generated
    raise _UsageError("an --instance file or a --generator is required")


def _resolve_profile(opts: dict, instance: Instance,
                     generated: instances.Generated | None,
                     default: str = "truthful") -> list[Strategy]:
    token = opts.get("profile", default)
    if token == "truthful":
        return instance.truthful_profile()
    if token == "bad":
        if generated is None or generated.bad_profile is None:
            raise _UsageError("this instance has no designated bad profile")
        return list(generated.bad_profile)
    return profile_from_json(load_json(token), instance.n, instance.m)


def _resolve_policy(opts: dict, m: int) -> ZeroPolicy:
    token = opts["zero_policy"]
    if token == "uniform":
        return UNIFORM_OVER_REMAINING
    if token == "lowest-index":
        return LOWEST_INDEX_FIRST
    if token.startswith("fixed:"):
        try:
            order = [int(x) - 1 for x in token[len("fixed:"):].split(",")]
        except ValueError:
            raise _UsageError(f"bad fixed policy {token!r}") from None
        if sorted(order) != list(range(m)):
            raise _UsageError("fixed policy must be a permutation of all items")
        return fixed_order_policy(order)
    raise _UsageError(f"unknown zero policy {token!r}")


def _resolve_families(opts: dict, m: int):
    families = []
    for token in opts["families"].split(","):
        token = token.strip()
        if token == "truthful":
            families.append(Truthful())
        elif token == "single-minded":
            families.append(SingleMinded())
        elif token == "sequential":
            families.append(Sequential())
        elif token == "uniform":
            families.append(Uniform())
        elif token == "grid":
            families.append(GridProportional(default_grid_resolution(m)))
        elif token.startswith("grid:"):
            resolution = _positive_int(token[len("grid:"):])
            if resolution is None:
                raise _UsageError(f"grid resolution must be a positive integer, got {token!r}")
            families.append(GridProportional(resolution))
        elif token:
            raise _UsageError(f"unknown family {token!r}")
    if not families:
        raise _UsageError("no strategy families given")
    return families


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
        return lotteries.random_priority(instance, profile, samples,
                                         None if samples is None else opts["seed"])
    return lotteries.repeated_random_priority(instance, profile, samples or RRP_SAMPLES,
                                              opts["seed"])


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_simulate(opts: dict) -> CliResult:
    instance, generated = _resolve_instance(opts)
    profile = _resolve_profile(opts, instance, generated)
    policy = _resolve_policy(opts, instance.m)
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


def _cmd_opt(opts: dict) -> CliResult:
    instance, _ = _resolve_instance(opts)
    value, assignment = lotteries.opt(instance)
    out = io.StringIO()
    out.write(f"opt welfare: {_both(value)}\n")
    for j, agent in enumerate(assignment):
        out.write(f"  item {j + 1} -> {_agent_name(instance, agent)}\n")
    return CliResult(EXIT_OK, out.getvalue(), _out_file(opts, lambda: {
        "opt_welfare": format_rational(value),
        "opt_welfare_approx": decimal_str(value),
        "assignment": {str(j + 1): agent + 1 for j, agent in enumerate(assignment)},
    }))


def _cmd_poa(opts: dict) -> CliResult:
    instance, generated = _resolve_instance(opts)
    default = "bad" if generated is not None and generated.bad_profile else "truthful"
    profile = _resolve_profile(opts, instance, generated, default=default)
    policy = _resolve_policy(opts, instance.m)
    mechanism = opts["mechanism"]
    mechanisms = ["cps", "ps"] if mechanism == "both" else [mechanism]
    best = lotteries.opt(instance)[0]

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(POA_CSV_COLUMNS)
    for mech in mechanisms:
        if mech in ("cps", "ps"):
            total = equilibrium.ratio_report(instance, profile, mech, policy).welfare
        else:
            total = _lottery(opts, mech, instance, profile).expected_welfare
        ratio = best / total if total > 0 else None
        writer.writerow([
            instance.n, instance.m, mech,
            format_rational(total), decimal_str(total),
            format_rational(best), decimal_str(best),
            "inf" if ratio is None else format_rational(ratio),
            "inf" if ratio is None else decimal_str(ratio),
        ])
    text = buffer.getvalue()
    files = {opts["out"]: text} if opts.get("out") else {}
    return CliResult(EXIT_OK, text, files)


def _cmd_best_response(opts: dict) -> CliResult:
    instance, generated = _resolve_instance(opts)
    profile = _resolve_profile(opts, instance, generated)
    policy = _resolve_policy(opts, instance.m)
    agent = opts["agent"] - 1
    if not 0 <= agent < instance.n:
        raise _UsageError(f"--agent must be in 1..{instance.n}")
    families = _resolve_families(opts, instance.m)
    report = equilibrium.best_response(
        profile, agent, instance.valuations[agent], families,
        mechanism=opts["mechanism"], policy=policy,
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


def _cmd_verify_ne(opts: dict) -> CliResult:
    instance, generated = _resolve_instance(opts)
    profile = _resolve_profile(opts, instance, generated)
    policy = _resolve_policy(opts, instance.m)
    families = _resolve_families(opts, instance.m)
    epsilon = parse_rational(opts["epsilon"])
    cert = equilibrium.verify_ne(
        profile, instance, epsilon, families,
        mechanism=opts["mechanism"], policy=policy,
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


def _cmd_lottery(mechanism: str, opts: dict) -> CliResult:
    instance, generated = _resolve_instance(opts)
    result = _lottery(opts, mechanism, instance, _resolve_profile(opts, instance, generated))
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


def _cmd_generate(opts: dict) -> CliResult:
    instance, generated = _resolve_instance(opts)
    if generated is None:
        raise _UsageError("generate requires --generator")
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
            raise _UsageError(f"generator {opts['generator']!r} has no designated bad profile")
        if opts.get("out") and os.path.realpath(opts["out"]) == os.path.realpath(
                opts["profile_out"]):
            raise _UsageError("--out and --profile-out name the same file")
        files[opts["profile_out"]] = _json_text(profile_to_json(generated.bad_profile))
    return CliResult(EXIT_OK, out.getvalue(), files)


def _cmd_sample(opts: dict) -> CliResult:
    instance, generated = _resolve_instance(opts)
    profile = _resolve_profile(opts, instance, generated)
    policy = _resolve_policy(opts, instance.m)
    trace = equilibrium.run_profile(instance.n, instance.m, profile,
                                    opts["mechanism"], policy)
    seed = opts["seed"]
    assignment = engine.sample_allocation(trace, seed)
    out = io.StringIO()
    out.write(f"seed {seed}\n")
    for j, agent in enumerate(assignment):
        out.write(f"  item {j + 1} -> {_agent_name(instance, agent)}\n")
    return CliResult(EXIT_OK, out.getvalue(), _out_file(opts, lambda: {
        "seed": seed,
        "assignment": {str(j + 1): agent + 1 for j, agent in enumerate(assignment)},
    }))


_COMMANDS = {
    "simulate": _cmd_simulate,
    "opt": _cmd_opt,
    "poa": _cmd_poa,
    "best-response": _cmd_best_response,
    "verify-ne": _cmd_verify_ne,
    "rp": functools.partial(_cmd_lottery, "rp"),
    "rrp": functools.partial(_cmd_lottery, "rrp"),
    "generate": _cmd_generate,
    "sample": _cmd_sample,
}


def execute(config: ExperimentConfig) -> CliResult:
    """Run a config and capture stdout text plus files to write.

    Catches domain errors and maps them onto the exit-code contract so the
    CLI and programmatic callers agree on failure modes.
    """
    try:
        return _COMMANDS[config.command](dict(config.options))
    except _UsageError:
        raise
    except equilibrium.BudgetConfigError as exc:
        raise _UsageError(str(exc)) from None
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
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = config_from_argv(argv)
        result = execute(config)
    except _UsageError as exc:
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
