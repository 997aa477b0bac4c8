"""The public surface: the package's exports, the names the benchmark in
``perfbench/`` reads off eatsim's modules, and README's library example."""

import ast
import importlib
import re
from fractions import Fraction
from pathlib import Path

import eatsim
from eatsim import engine

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
