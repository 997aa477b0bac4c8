"""The public surface: the package's exports, the names the benchmark in
``perfbench/`` reads off eatsim's modules, and README's library example."""

import ast
import hashlib
import importlib
import re
from fractions import Fraction
from pathlib import Path

import pytest

import eatsim
from eatsim import cli, engine

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _tracer_targets():
    """The (module, attribute) pairs of ``perfbench/tracer.py``'s TARGETS,
    read from its source without importing it."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["TARGETS"]:
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracer.py has no TARGETS table")


def _workload_names():
    """Every ``ns.<module>.<attribute>`` that the benchmark's scripts read."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        names.update(re.findall(r"\bns\.(\w+)\.(\w+)", path.read_text(encoding="utf-8")))
    return sorted(names)


# named outright: run.py reads kernel_name through getattr and refuses to
# compare results whose kernel stamps differ; trace-scaling runs run_profile
# and sweep-dyadic sizes its sweep with family_size
PINNED = [("engine", "kernel_name"), ("equilibrium", "run_profile"),
          ("strategies", "family_size")]


def _owner(module):
    # the tracer's "kernel" is the module the engine runs
    return engine._kernel_impl if module == "kernel" else \
        importlib.import_module(f"eatsim.{module}")


def test_every_exported_name_resolves():
    assert [name for name in eatsim.__all__ if not hasattr(eatsim, name)] == []


def test_every_name_the_benchmark_reads_resolves():
    # the tracer wraps its targets, so each must be a function
    missing = [f"{module}.{attr}" for module, attr in _tracer_targets() + PINNED
               if not callable(getattr(_owner(module), attr, None))]
    missing += [f"{module}.{attr}" for module, attr in _workload_names()
                if not hasattr(_owner(module), attr)]
    assert missing == []


def test_readme_library_example_holds():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library surface\n\n```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        _, _, comment = lines[node.end_lineno - 1].partition("#")
        if isinstance(node, ast.Expr) and comment.strip():
            assert eval(source, namespace) == eval(comment, {"Fraction": Fraction}), source
            checked += 1
        else:
            exec(source, namespace)
    assert checked == 4


# sha256 of each subcommand's flag table (_flag_table), recorded when every
# integer flag took the CLI's one integer reader (cli._integer, or
# cli._positive for --samples) as its type: a renamed, reordered or retyped
# flag, or new help text, changes its digest. The table, not
# format_help(), is hashed: argparse lays help text out differently across
# the CPython releases that tier-1 runs on.
FLAG_DIGESTS = {
    "simulate": "258d4797e327b36549d08c1ea892fc50b045b3d6dcd594328f69b09663858add",
    "opt": "071336d2444164824d2c2d6e5ea4628eb62d4ed7506001eba263b27cedbf7b40",
    "poa": "a3ac6d2f52eb6ba64755b97e3d7fd23cfc1d45e673c1a19156d430a1606dab5c",
    "best-response": "c6e10f3dc3e73c6d83eba906c82f6967078b7258174433378170892b5954f5ac",
    "verify-ne": "025b3597cd2bb2f82b76106056fa0be43f85fb32577647806bf3923d0f6218ed",
    "rp": "17c4ee75681e25b8f3053982eea3c12036b27e83c438a581950f75ac0147c2f8",
    "rrp": "554109ccff796f8f67a5f35f6a93e2eb661d4917a59ff0d758a4b2b8a641cf94",
    "generate": "96540de7ad04379a7716e3640bd5f2e081be9be06defbd1c0521b0d00d9e8eec",
    "sample": "258d4797e327b36549d08c1ea892fc50b045b3d6dcd594328f69b09663858add",
}


def _subparsers():
    """The CLI's subcommand name -> its parser."""
    return cli._build_parser()._subparsers._group_actions[0].choices


def _flag_table(parser):
    """One line per flag: what it is called, stores, parses and prints."""
    return "".join(
        repr((action.option_strings, action.dest, getattr(action.type, "__name__", action.type),
              action.default, action.choices, action.required, action.nargs, action.metavar,
              action.help)) + "\n"
        for action in parser._actions)


def test_every_subcommand_is_pinned():
    assert list(_subparsers()) == list(FLAG_DIGESTS)


@pytest.mark.parametrize("command", FLAG_DIGESTS)
def test_subcommand_flags_are_pinned(command):
    table = _flag_table(_subparsers()[command])
    assert hashlib.sha256(table.encode("utf-8")).hexdigest() == FLAG_DIGESTS[command], table


def _enclosing_functions(pattern):
    """(file name, innermost enclosing function) of each match of ``pattern``
    in the text of eatsim's modules; None for a match outside any function."""
    found = set()
    for path in sorted((ROOT / "src" / "eatsim").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        spans = [(node.lineno, node.end_lineno, node.name) for node in ast.walk(ast.parse(text))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for match in re.finditer(pattern, text):
            line = text.count("\n", 0, match.start()) + 1
            inside = [(start, name) for start, end, name in spans if start <= line <= end]
            found.add((path.name, max(inside)[1] if inside else None))
    return found


def test_only_the_cli_reads_the_environment():
    assert {path for path, _ in _enclosing_functions(r"\b(environ|getenv)\b")} == {"cli.py"}


def test_only_model_decides_what_an_integer_is():
    # the library's two checks, and the JSON readers, which read outside
    # text; any other copy of the rule belongs in one of the two checks
    assert _enclosing_functions(r"type\([^)]*\) is (not )?int\b") == {
        ("model.py", "as_count"), ("model.py", "as_item_indices"), ("model.py", "as_rational"),
        ("model.py", "instance_from_json"), ("model.py", "strategy_from_json")}


def test_only_model_decides_what_a_rational_is():
    # as_rational, and the parsers of outside text; any other copy of the
    # rule belongs in as_rational
    assert _enclosing_functions(r"\bFLOATS_NOT_EXACT\b") == {
        ("model.py", None), ("model.py", "as_count"), ("model.py", "as_rational")}
    assert _enclosing_functions(r"(?<!def )\bparse_rational\(") == {
        ("model.py", "as_rational"), ("model.py", "_parsed"), ("cli.py", "_cmd_verify_ne")}
