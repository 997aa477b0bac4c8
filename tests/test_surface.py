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


# sha256 of each subcommand's flag table (_flag_table), recorded before the
# generator flags were built from instances.PARAMETERS: a renamed, reordered
# or retyped flag, or new help text, changes its digest. The table, not
# format_help(), is hashed: argparse lays help text out differently across
# the CPython releases that tier-1 runs on.
FLAG_DIGESTS = {
    "simulate": "76f3bccb5bca9447b7b9355c32de1817724adc425fc19ee1e40a304541d4c97a",
    "opt": "97f5758147e8739016c34b0831cd27d3df264461f2ab778ae44f77ce9b8e2eec",
    "poa": "139ee816f091c2011aa6296d7c14afec257db5fedfa619df7536f22d4fb37f12",
    "best-response": "06c7e5e4807578b248b5f71395907ea02f47774f1ca003e7321b63ed07d4791f",
    "verify-ne": "efc4491dc5722496a44802d47e8c16cc5ef7340b99cd2485ca73bfaceb6e7b94",
    "rp": "c980693e429db45b3a4dfa96862b301e0b451a79163644f64eadeec3392df7dc",
    "rrp": "f6d7cdff61fa8d6c442f9837e0681a0f2ed20c1f5a37aab97e8d40fad8e9e878",
    "generate": "a476ef33d18b96e3d2ca50cf818ae5dc486eccb17243a8a8f543f264e5247c6f",
    "sample": "76f3bccb5bca9447b7b9355c32de1817724adc425fc19ee1e40a304541d4c97a",
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
