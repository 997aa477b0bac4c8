"""The three benchmark workloads: inputs from a seed, one operation, its check.

An operation is a list of parts: independent calls into eatsim, each short
(under a second), which the benchmark times one by one. Its output is the list
of the parts' outputs, in order.

Every workload relabels the agents of fixed instances by a permutation drawn
from the seed. The eating process, the sweep and the welfare ratios are
symmetric in agents, so every seed gives an instance of the same difficulty,
and the exact output, mapped back to the canonical labelling, must match the
digest recorded in ``digests.json``. A workload's operation sees only the
relabelled inputs.

``size="tiny"`` shrinks each workload to a few milliseconds for the smoke
check; its digests are recorded alongside the full ones.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path


def permutation(seed: int | None, n: int) -> list[int]:
    """Agent relabelling for a seed: relabelled agent p is canonical agent perm[p]."""
    perm = list(range(n))
    if seed is not None:
        random.Random(f"perfbench:{seed}:{n}").shuffle(perm)
    return perm


def unpermute(rows: list, perm: list[int]) -> list:
    canonical = [None] * len(rows)
    for p, row in enumerate(rows):
        canonical[perm[p]] = row
    return canonical


def digest(doc) -> str:
    text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True,
                                                       separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _relabel(ns, instance, profile, perm):
    valuations = tuple(instance.valuations[c] for c in perm)
    return (ns.model.Instance(instance.n, instance.m, valuations),
            [profile[c] for c in perm])


def run_parts(parts) -> list:
    """Run an operation's parts untimed and return their outputs in order."""
    return [part() for _, part in parts]


def _digest_failures(recorded: dict, key: str, actual: dict[str, str]) -> list[str]:
    expected = recorded.get(key)
    if expected is None:
        return [f"no digests recorded for {key}"]
    failures = []
    for part, value in actual.items():
        if expected.get(part) != value:
            failures.append(f"{key} {part}: output digest differs from the recorded one")
    if set(expected) != set(actual):
        failures.append(f"{key}: parts {sorted(actual)} != recorded {sorted(expected)}")
    return failures


# ---------------------------------------------------------------------------
# sweep-dyadic: verify_ne on log-m-lb, many small engine runs
# ---------------------------------------------------------------------------

class SweepDyadic:
    name = "sweep-dyadic"
    # k=8 q=4 (768 runs) is ROADMAP's anchor, but one verify_ne there takes
    # 13-29 s on a 2-vCPU host, and a part must fit in the host's fast spells
    # of a few seconds to time steadily; q=2 keeps the construction, families
    # and policy at 160 runs, about 0.4 s.
    params = {"full": {"k": 8, "q": 2}, "tiny": {"k": 2, "q": 2}}

    def build(self, ns, seed, size):
        generated = ns.instances.generate(
            ns.instances.GeneratorSpec("log-m-lb", self.params[size]))
        n, m = generated.instance.n, generated.instance.m
        perm = permutation(seed, n)
        instance, profile = _relabel(ns, generated.instance, generated.bad_profile, perm)
        families = [ns.strategies.Truthful(), ns.strategies.SingleMinded(),
                    ns.strategies.Sequential()]
        runs = n * (1 + sum(ns.strategies.family_size(f, m) for f in families))
        return {"key": f"{self.name}/{size}", "perm": perm, "instance": instance,
                "profile": profile, "families": families, "runs": runs}

    def parts(self, ns, inputs):
        def verify():
            cert = ns.equilibrium.verify_ne(
                inputs["profile"], inputs["instance"], Fraction(0), inputs["families"],
                mechanism="cps", policy=ns.model.LOWEST_INDEX_FIRST)
            return {"verdict": cert.verdict,
                    "runs": sum(r.runs for r in cert.reports),
                    "doc": ns.equilibrium.certificate_to_json(cert, inputs["profile"])}
        return [("verify_ne", verify)]

    def canonical(self, doc, perm):
        doc = copy.deepcopy(doc)
        doc["profile"] = unpermute(doc["profile"], perm)
        for report in doc["reports"] + ([doc["witness"]] if doc["witness"] else []):
            report["agent"] = perm[report["agent"] - 1] + 1
        doc["reports"].sort(key=lambda r: r["agent"])
        return doc

    def digests(self, inputs, output):
        return {"certificate": digest(self.canonical(output[0]["doc"], inputs["perm"]))}

    def check(self, inputs, output, recorded):
        failures = []
        if len(output) != 1:
            return [f"{len(output)} part outputs, expected 1"]
        if output[0]["verdict"] != "certified":
            failures.append(f"verdict {output[0]['verdict']!r}, expected 'certified'")
        if output[0]["runs"] != inputs["runs"]:
            failures.append(f"{output[0]['runs']} engine runs, expected {inputs['runs']}")
        return failures + _digest_failures(recorded, inputs["key"],
                                           self.digests(inputs, output))

    def corruptions(self, output):
        refuted = [dict(output[0], verdict="refuted")]
        rebudgeted = copy.deepcopy(output)
        rebudgeted[0]["doc"]["budget"] += 1
        return [("verdict", refuted), ("certificate bytes", rebudgeted)]


# ---------------------------------------------------------------------------
# trace-scaling: few long runs with segments kept and exported
# ---------------------------------------------------------------------------

class TraceScaling:
    name = "trace-scaling"
    # n=40 (a 1.5 s CPS run) is left out: a part must stay well under the
    # host's fast spells of a few seconds to time steadily.
    sizes = {"full": (10, 20, 25, 30), "tiny": (4, 6)}
    weight_max = 20

    def build(self, ns, seed, size):
        cases = []
        for n in self.sizes[size]:
            base = ns.instances.random_instance(n, n, self.weight_max, seed=0).instance
            perm = permutation(seed, n)
            instance, profile = _relabel(ns, base, base.truthful_profile(), perm)
            cases.append((n, perm, instance, profile))
        return {"key": f"{self.name}/{size}", "cases": cases}

    def parts(self, ns, inputs):
        def simulate(n, perm, instance, profile, mechanism):
            trace = ns.equilibrium.run_profile(n, n, profile, mechanism)
            payoffs = list(ns.engine.expected_payoffs(trace, instance.valuations))
            return (f"{n}/{mechanism}", perm, trace, payoffs, ns.engine.trace_to_json(trace))
        return [(f"{case[0]}/{mechanism}",
                 lambda case=case, mechanism=mechanism: simulate(*case, mechanism))
                for case in inputs["cases"] for mechanism in ("cps", "ps")]

    def digests(self, inputs, output):
        found = {}
        for label, perm, _, payoffs, doc in output:
            doc = dict(doc, shares=unpermute(doc["shares"], perm), segments=[
                dict(seg, rates=unpermute(seg["rates"], perm)) for seg in doc["segments"]])
            found[label] = digest({"trace": doc, "payoffs": [
                f"{p.numerator}/{p.denominator}" for p in unpermute(payoffs, perm)]})
        return found

    def check(self, inputs, output, recorded):
        failures = []
        for label, _, trace, _, _ in output:
            n, m = trace.n, trace.m
            horizon = Fraction(m, n)
            for j in range(m):
                if sum(row[j] for row in trace.shares) != 1:
                    failures.append(f"{label}: share column {j + 1} does not sum to 1")
            for i, row in enumerate(trace.shares):
                if sum(row) != horizon:
                    failures.append(f"{label}: share row {i + 1} does not sum to m/n")
            if not trace.depletion_events or trace.depletion_events[-1][0] != horizon:
                failures.append(f"{label}: last depletion is not at m/n")
        return failures + _digest_failures(recorded, inputs["key"],
                                           self.digests(inputs, output))

    def corruptions(self, output):
        label, perm, trace, payoffs, doc = output[-1]
        shares = [list(row) for row in trace.shares]
        shares[0][0] += Fraction(1, 7)
        skewed = dataclasses.replace(trace, shares=tuple(map(tuple, shares)))
        edited = copy.deepcopy(doc)
        edited["horizon"] += "0"
        return [("shares", output[:-1] + [(label, perm, skewed, payoffs, doc)]),
                ("trace bytes", output[:-1] + [(label, perm, trace, payoffs, edited)])]


# ---------------------------------------------------------------------------
# poa-table: the CLI's welfare-ratio rows, in process
# ---------------------------------------------------------------------------

POA_HEADER = ["n", "m", "mechanism", "welfare", "welfare_approx",
              "opt", "opt_approx", "ratio", "ratio_approx"]


class PoaTable:
    name = "poa-table"
    # (instance label, generator, params); random instances use generator seed 0.
    instance_specs = {
        "full": [
            ("sqrt-n-lb-16", "sqrt-n-lb", {"n": 16, "eps": "1/4096"}),
            ("sqrt-n-lb-64", "sqrt-n-lb", {"n": 64}),
            ("log-m-lb-8-4", "log-m-lb", {"k": 8, "q": 4}),
            ("cps-beats-ps-16", "cps-beats-ps", {"n": 16}),
            ("rp-lb-7", "rp-lb", {"n": 7}),
            ("random-7x14", "random", {"n": 7, "m": 14}),
        ],
        "tiny": [
            ("sqrt-n-lb-4", "sqrt-n-lb", {"n": 4, "eps": "1/64"}),
            ("cps-beats-ps-4", "cps-beats-ps", {"n": 4}),
            ("rp-lb-3", "rp-lb", {"n": 3}),
            ("random-3x5", "random", {"n": 3, "m": 5}),
        ],
    }
    # (instance label, mechanism, samples). Sampled RRP draws agents by index,
    # so its rows run on the canonical labelling; every other row is symmetric
    # in agents and runs relabelled.
    row_specs = {
        "full": [
            ("sqrt-n-lb-16", "both", None), ("sqrt-n-lb-64", "both", None),
            ("log-m-lb-8-4", "both", None), ("cps-beats-ps-16", "both", None),
            ("rp-lb-7", "rp", None), ("random-7x14", "rp", None),
            ("rp-lb-7", "rrp", 20000), ("random-7x14", "rrp", 20000),
        ],
        "tiny": [
            ("sqrt-n-lb-4", "both", None), ("cps-beats-ps-4", "both", None),
            ("rp-lb-3", "rp", None), ("random-3x5", "rp", None),
            ("rp-lb-3", "rrp", 200), ("random-3x5", "rrp", 200),
        ],
    }

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def build(self, ns, seed, size):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        wanted = {(label, samples is None) for label, _, samples in self.row_specs[size]}
        files = {}
        for label, generator, params in self.instance_specs[size]:
            generated = ns.instances.generate(
                ns.instances.GeneratorSpec(generator, params, 0))
            instance = generated.instance
            profile = list(generated.bad_profile or instance.truthful_profile())
            for relabelled in (False, True):
                if (label, relabelled) not in wanted:
                    continue
                perm = permutation(seed if relabelled else None, instance.n)
                inst, prof = _relabel(ns, instance, profile, perm)
                stem = self.work_dir / f"{label}{'-relabelled' if relabelled else ''}"
                paths = (f"{stem}.instance.json", f"{stem}.profile.json")
                for path, doc in zip(paths, (ns.model.instance_to_json(inst),
                                             ns.model.profile_to_json(prof))):
                    Path(path).write_text(json.dumps(doc), encoding="utf-8")
                files[label, relabelled] = paths
        rows = []
        for label, mechanism, samples in self.row_specs[size]:
            instance_path, profile_path = files[label, samples is None]
            argv = ["poa", "--instance", instance_path, "--profile", profile_path,
                    "--mechanism", mechanism]
            if samples is not None:
                argv += ["--samples", str(samples), "--seed", "0"]
            rows.append((f"{label}/{mechanism}", argv))
        return {"key": f"{self.name}/{size}", "rows": rows}

    def parts(self, ns, inputs):
        def row(label, argv):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = ns.cli.main(argv)
            return (label, code, buffer.getvalue())
        return [(label, lambda label=label, argv=argv: row(label, argv))
                for label, argv in inputs["rows"]]

    def digests(self, inputs, output):
        return {label: digest(text) for label, _, text in output}

    def check(self, inputs, output, recorded):
        failures = []
        for label, code, text in output:
            if code != 0:
                failures.append(f"{label}: exit code {code}")
                continue
            rows = list(csv.reader(io.StringIO(text)))
            if not rows or rows[0] != POA_HEADER:
                failures.append(f"{label}: CSV header {rows[:1]}")
                continue
            for row in rows[1:]:
                fields = dict(zip(POA_HEADER, row))
                welfare, best = Fraction(fields["welfare"]), Fraction(fields["opt"])
                ratio = None if fields["ratio"] == "inf" else Fraction(fields["ratio"])
                if ratio != (best / welfare if welfare else None):
                    failures.append(f"{label} {fields['mechanism']}: ratio != opt/welfare")
        return failures + _digest_failures(recorded, inputs["key"],
                                           self.digests(inputs, output))

    def corruptions(self, output):
        label, code, text = output[0]
        header, first, *rest = text.splitlines(keepends=True)
        cells = first.rstrip("\n").split(",")
        wrong_ratio = cells[:7] + [str(Fraction(cells[7]) + 1), cells[8]]
        wrong_approx = cells[:4] + [cells[4] + "1"] + cells[5:]
        return [
            ("ratio", [(label, code, "".join([header, ",".join(wrong_ratio) + "\n", *rest]))]
             + output[1:]),
            ("CSV bytes", [(label, code, "".join([header, ",".join(wrong_approx) + "\n",
                                                  *rest]))] + output[1:]),
        ]


def all_workloads(work_dir: Path):
    return {w.name: w for w in (SweepDyadic(), TraceScaling(), PoaTable(work_dir))}
