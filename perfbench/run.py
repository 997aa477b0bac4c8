#!/usr/bin/env python3
"""Layered benchmark for eatsim: three workloads, exact output checks, layer spans.

Run from the repository root; ``src/`` is put on the path, so eatsim need not
be installed, and the kernel is whichever one ``eatsim.engine`` selects.

    python3 perfbench/run.py --workload sweep-dyadic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --repeat 5 --out perfbench/out/before.json
    python3 perfbench/run.py --compare perfbench/out/before.json perfbench/out/after.json
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record

One workload: set up several times (import eatsim, build the seeded inputs);
then repeat the operation for about ``--seconds``, check every output
exactly, and set up once more after each operation. An operation is a list of
short parts, each timed on its own. A shared host runs the same code up to
1.8x slower for spells of seconds to minutes, so every untraced timing is
bracketed by a fixed calibration loop and scaled to the reference host's
speed (``CalibratedTimer``). ``wall_ref_s`` is one operation at that speed:
the sum over the parts of each part's median scaled time in the run.
``setup_s`` is the median scaled set-up. ``peak_rss_mb`` is the process's
peak RSS.
With ``--trace 1`` the run alternates untraced operations with traced ones,
which wrap the layer entry points (see ``tracer.py``), and reports per-layer
medians of the traced ones plus ``trace_overhead``, the median ratio of
traced to untraced wall time over adjacent pairs; spans go to
``perfbench/out/``. The last stdout line is one JSON object: correct,
attempted, failed, metrics. Exit code 1 means an operation failed its check
or raised; 2 means the benchmark could not run at all.

``--workload all`` runs each workload ``--repeat`` times, serially, each in a
fresh process, and writes every result to ``--out``. ``--compare`` prints one
row per workload for two such files. ``--smoke`` checks the benchmark itself;
``--record`` rewrites ``digests.json`` from the current outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
from workloads import all_workloads, run_parts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
SETUP_REPS = 5
# Time of _calibration_loop on the reference host (2-vCPU VM, CPython 3.11.7)
# in its fast state; CalibratedTimer scales every time to this speed.
CALIBRATION_S = 0.03
EATSIM_MODULES = ("model", "engine", "strategies", "instances", "lotteries",
                  "equilibrium", "cli")
clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark cannot run here (no eatsim source, bad arguments, ...)."""


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None


def load_eatsim() -> SimpleNamespace:
    """Import eatsim afresh from ``src/`` (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "eatsim" or n.startswith("eatsim.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(1, str(SRC))
    try:
        package = importlib.import_module("eatsim")
        if Path(package.__file__).resolve().parent != SRC / "eatsim":
            raise BenchError(f"eatsim was imported from {package.__file__}, not {SRC}")
        return SimpleNamespace(**{name: importlib.import_module(f"eatsim.{name}")
                                  for name in EATSIM_MODULES})
    except ImportError as exc:
        raise BenchError(f"cannot import eatsim from {SRC}: {exc}") from None


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment_stamp(seed) -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "eatsim").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "commit": _commit(), "source_sha256": sources.hexdigest(),
            "nproc": os.cpu_count(), "seed": seed}


def _median(values):
    return statistics.median(values) if values else 0.0


def spread(values) -> float | None:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2 or not statistics.median(values):
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def timed(fn):
    """Call ``fn``; return its result and its wall time."""
    gc.collect()
    start = clock()
    result = fn()
    return result, clock() - start


def _calibration_loop():
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(i % 7 + 1, i)
    table = {}
    for i in range(150_000):
        key = (i * 2654435761) % 1009
        table[key] = table.get(key, 0) + i
    return total, table


class CalibratedTimer:
    """Times a call at the reference host's speed.

    A shared host runs the same code up to 1.8x slower for spells that last
    from seconds to minutes. Each call is bracketed by runs of a fixed loop of
    stdlib ``Fraction``, int and dict work; the call's time is divided by the
    mean of the two loop times and multiplied by ``CALIBRATION_S``, the loop's
    time on the reference host. The loop is not eatsim code, so a change to
    eatsim moves the result as it moves wall time.
    """

    def __init__(self):
        self.last = timed(_calibration_loop)[1]

    def __call__(self, fn):
        result, took = timed(fn)
        before, self.last = self.last, timed(_calibration_loop)[1]
        return result, took * 2 * CALIBRATION_S / (before + self.last)


def run_op(ns, workload, inputs, recorded, timer=timed, tracer=None) -> dict:
    """Time one operation part by part with ``timer``, then check its output.

    ``wall`` is the sum of the part times; a raise counts as a failure and
    leaves ``wall`` unset.
    """
    op = {"wall": None, "parts": [], "failures": []}
    if tracer is not None:
        tracer.install()
    try:
        output = []
        for _, part in workload.parts(ns, inputs):
            result, took = timer(part)
            output.append(result)
            op["parts"].append(took)
        op["wall"] = sum(op["parts"])
    except Exception as exc:  # counted as a failed op; the run goes on
        traceback.print_exc()
        op["failures"].append(f"raised {type(exc).__name__}: {exc}")
        output = None
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        spans, counts = tracer.take()
        op["layers"] = tracing.op_metrics(spans, counts)
        op["spans"] = spans
    if output is not None:
        try:
            op["failures"] += workload.check(inputs, output, recorded)
        except Exception as exc:  # a check that cannot run is a failure
            traceback.print_exc()
            op["failures"].append(f"check raised {type(exc).__name__}: {exc}")
    return op


def run_ops(ns, workload, inputs, recorded, seconds, timer=timed, tracer=None,
            between=None):
    """Repeat the operation within ``seconds``, at least once.

    A round starts only while the typical round so far still fits in the time
    left, so a run lasts about ``seconds`` whatever one operation costs. With
    a tracer, each round is an untraced operation followed by a traced one,
    so the two sides of ``trace_overhead`` see the same machine load.
    ``between`` runs after each round.
    """
    ops, rounds = [], []
    began = clock()
    while True:
        start = clock()
        ops.append(run_op(ns, workload, inputs, recorded, timer))
        if tracer is not None:
            ops.append(run_op(ns, workload, inputs, recorded, timer, tracer))
        if between is not None:
            between()
        rounds.append(clock() - start)
        if clock() - began + statistics.median(rounds) > seconds:
            return ops


def set_up(workload, seed, size, traced=False, timer=timed):
    """Import eatsim afresh and build the workload's inputs, timed by ``timer``."""
    def build():
        ns = load_eatsim()
        tracer = tracing.Tracer(ns) if traced else None
        if tracer is not None:
            tracer.install()
        try:
            return ns, workload.build(ns, seed, size), tracer
        finally:
            if tracer is not None:
                tracer.uninstall()

    (ns, inputs, tracer), took = timer(build)
    layers = tracing.setup_metrics(tracer.take()[0]) if tracer is not None else None
    return ns, inputs, took, layers


def run_workload(args, spec) -> int:
    work_dir = OUT / f"work-{os.getpid()}"
    workload = all_workloads(work_dir)[args.workload]
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    stamp = environment_stamp(args.seed)
    setup_times, setup_layers = [], []
    timer = timed if args.trace else CalibratedTimer()
    try:
        for _ in range(SETUP_REPS):
            ns, inputs, took, layers = set_up(workload, args.seed, args.size, args.trace,
                                              timer)
            setup_times.append(took)
            setup_layers.append(layers)
        kernel_name = getattr(ns.engine, "kernel_name", None)
        stamp["kernel"] = kernel_name() if kernel_name else None

        if args.trace:
            ops = run_ops(ns, workload, inputs, recorded, args.seconds,
                          tracer=tracing.Tracer(ns))
            traced = ops[1::2]
            values = {name: _median([op["layers"][name] for op in traced])
                      for name in traced[0]["layers"]}
            values["instances.generate_s"] = _median(
                [layers["instances.generate_s"] for layers in setup_layers])
            values["trace_overhead"] = _median([
                t["wall"] / p["wall"] for p, t in zip(ops[0::2], traced)
                if p["wall"] and t["wall"]])
            specs = spec["per_layer"]
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            OUT.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps({
                "stamp": stamp, "fields": ["name", "start", "end", "parent", "overhead"],
                "ops": [op.pop("spans") for op in traced]}), encoding="utf-8")
        else:
            # One more set-up after each operation samples the machine's state
            # across the whole run, not only at its start.
            def between():
                setup_times.append(set_up(workload, args.seed, args.size, timer=timer)[2])

            ops = run_ops(ns, workload, inputs, recorded, args.seconds, timer, between=between)
            part_times = list(zip(*[op["parts"] for op in ops if op["wall"] is not None]))
            values = {"wall_ref_s": sum(_median(times) for times in part_times),
                      "setup_s": _median(setup_times),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            specs = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    failed = sum(1 for op in ops if op["failures"])
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    result = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "stamp": stamp,
        "attempted": len(ops), "failed": failed, "fail_ratio": failed / len(ops),
        "metrics": metrics,
        "samples": {"parts": [op["parts"] for op in ops], "setup_s": setup_times},
        "failures": [f for op in ops for f in op["failures"]],
    }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1), encoding="utf-8")

    print(f"# stamp {json.dumps(stamp, sort_keys=True)}")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {args.workload} ({args.size}) seed {args.seed}: {len(ops)} ops,"
          f" {len(setup_times)} set-ups{', traced' if args.trace else ''}")
    for name, metric in metrics.items():
        print(f"#   {name:<26} {metric['value']:<14.6g} {metric['unit']}")
    print(f"#   {'fail_ratio':<26} {result['fail_ratio']:<14.6g} ({failed}/{len(ops)})")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# all workloads, each in a fresh process
# ---------------------------------------------------------------------------

def run_child(name, seed, seconds, trace, size, out_path) -> tuple[int, str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    if out_path is not None:
        cmd += ["--out", str(out_path)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900 + 3 * seconds)
    return proc.returncode, proc.stdout


def run_all(args, spec) -> int:
    names = list(all_workloads(OUT))
    runs: dict[str, list] = {name: [] for name in names}
    OUT.mkdir(parents=True, exist_ok=True)
    status = 0
    for name in names:
        for r in range(args.repeat):
            child_out = OUT / f"child-{os.getpid()}.json"
            code, _ = run_child(name, args.seed + r, args.seconds, args.trace,
                                args.size, child_out)
            if not child_out.exists():
                print(f"{name} seed {args.seed + r}: no result (exit {code})", file=sys.stderr)
                return 2
            runs[name].append(json.loads(child_out.read_text(encoding="utf-8")))
            child_out.unlink()
            status = max(status, code)
            print(f"  {name} seed {args.seed + r}: exit {code}", file=sys.stderr)
    out = Path(args.out or OUT / "latest.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs}, indent=1), encoding="utf-8")

    specs = spec["per_layer" if args.trace else "end_to_end"]
    print(f"{'metric':<26} {'unit':<6}" + "".join(f" {n:>22}" for n in names))
    for s in specs:
        cells = []
        for n in names:
            values = [r["metrics"][s["name"]]["value"] for r in runs[n]]
            width = spread(values)
            cells.append(f"{_median(values):.6g}" + (f" ±{width:.1%}" if width is not None else ""))
        print(f"{s['name']:<26} {s['unit']:<6}" + "".join(f" {c:>22}" for c in cells))
    ratios = [sum(r["failed"] for r in runs[n]) / sum(r["attempted"] for r in runs[n])
              for n in names]
    print(f"{'fail_ratio':<26} {'ratio':<6}" + "".join(f" {c:>22.6g}" for c in ratios))
    print(f"medians over {args.repeat} run(s) per workload (± quartile spread over"
          f" median); results in {out}")
    return status


# ---------------------------------------------------------------------------
# compare two result files
# ---------------------------------------------------------------------------

def compare(old_path, new_path, spec) -> int:
    old, new = (json.loads(Path(p).read_text(encoding="utf-8"))["runs"]
                for p in (old_path, new_path))
    kernels = {r["stamp"].get("kernel") for doc in (old, new)
               for records in doc.values() for r in records}
    if len(kernels) > 1:
        raise BenchError(f"refusing to compare results from different kernels: {kernels}")
    for name in [n for n in old if n in new]:
        cells = []
        for s in spec["end_to_end"]:
            if s["name"] not in old[name][0]["metrics"]:
                continue
            before, after = ([r["metrics"][s["name"]]["value"] for r in doc[name]]
                             for doc in (old, new))
            b, a = statistics.median(before), statistics.median(after)
            sign = 1 if s["better"] == "lower" else -1
            worse = sign * (a - b) / b if b else 0.0
            spreads = [spread(before), spread(after)]
            if any(x is None or x > s["bound"] for x in spreads):
                wins = all(sign * (x - y) < 0 for x in after for y in before)
                verdict = "better" if wins else "unresolved"
            elif worse > s["bound"]:
                verdict = "WORSE"
            elif -worse > s["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            cells.append(f"{s['name']} {b:.4g}->{a:.4g} {s['unit']}"
                         f" ({(a - b) / b if b else 0.0:+.1%}, {verdict})")
        ratios = [sum(r["failed"] for r in doc[name]) / sum(r["attempted"] for r in doc[name])
                  for doc in (old, new)]
        cells.append(f"fail_ratio {ratios[0]:.3g}->{ratios[1]:.3g}")
        print(f"{name:<14} " + " | ".join(cells))
    return 0


# ---------------------------------------------------------------------------
# maintenance: smoke check of the benchmark, digest recording
# ---------------------------------------------------------------------------

class _Raises:
    def parts(self, ns, inputs):
        def part():
            raise ValueError("deliberate")
        return [("raises", part)]


def smoke(spec) -> int:
    problems = []
    names = list(all_workloads(OUT))
    for name in names:
        for trace in (0, 1):
            code, stdout = run_child(name, 1, 0, trace, "tiny", None)
            lines = stdout.strip().splitlines()
            last = json.loads(lines[-1]) if lines else {}
            declared = {s["name"] for s in spec["per_layer" if trace else "end_to_end"]}
            if code or not last.get("correct") or set(last.get("metrics", {})) != declared:
                problems.append(f"tiny {name} --trace {trace}: exit {code}, {lines[-1:]}")

    work_dir = OUT / f"work-{os.getpid()}"
    try:
        ns = load_eatsim()
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
        for workload in all_workloads(work_dir).values():
            inputs = workload.build(ns, 2, "tiny")
            output = run_parts(workload.parts(ns, inputs))
            problems += workload.check(inputs, output, recorded)
            for label, corrupted in workload.corruptions(output):
                if not workload.check(inputs, corrupted, recorded):
                    problems.append(f"{workload.name}: corrupted {label} passed the gate")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with contextlib.redirect_stderr(io.StringIO()):
        ops = run_ops(ns, _Raises(), None, recorded, 0)
    if not ops[0]["failures"]:
        problems.append("an operation that raised was not counted as failed")
    no_run = SimpleNamespace(**vars(ns))
    no_run.engine = SimpleNamespace(_kernel_impl=ns.engine._kernel_impl)
    try:
        tracing.Tracer(no_run).install()
        problems.append("the tracer accepted a module without engine.run")
    except tracing.MissingTargetError:
        pass

    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def record() -> int:
    """Rewrite digests.json from the outputs of the code as it stands."""
    ns = load_eatsim()
    work_dir = OUT / f"work-{os.getpid()}"
    found = {}
    try:
        for size in ("full", "tiny"):
            for workload in all_workloads(work_dir).values():
                inputs = workload.build(ns, None, size)
                output = run_parts(workload.parts(ns, inputs))
                found[inputs["key"]] = workload.digests(inputs, output)
                failures = workload.check(inputs, output, found)
                if failures:
                    raise BenchError(f"{inputs['key']} fails its own check: {failures}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {sum(len(v) for v in found.values())} digests in {DIGESTS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", help="write the full result (with stamp) here")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload with 'all'")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.compare:
            return compare(*args.compare, spec)
        if args.smoke:
            return smoke(spec)
        if args.record:
            return record()
        if args.workload == "all":
            return run_all(args, spec)
        if args.workload not in all_workloads(OUT):
            raise BenchError(f"unknown workload {args.workload!r}")
        return run_workload(args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
