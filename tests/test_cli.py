import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import eatsim
from eatsim.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REFUTED,
    EXIT_USAGE,
    POA_CSV_COLUMNS,
    UsageError,
    _parse,
    _resolve_families,
    execute,
    main,
)
from eatsim.model import (
    instance_from_json,
    instance_to_json,
    profile_from_json,
    profile_to_json,
)
from eatsim.strategies import DEFAULT_FAMILIES

F = Fraction


def run_cli(argv):
    return execute(argv)


class TestUsage:
    def test_empty_args_exit_64(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [[], ["nope"], ["best-response", "--generator", "example1"]],
                             ids=["empty", "unknown-command", "no-agent"])
    def test_argv_the_parser_refuses_is_a_usage_error(self, argv, capsys):
        # execute used to take a config that no parser had checked, and an
        # unknown command or a missing option raised KeyError
        with pytest.raises(UsageError):
            execute(argv)
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_unknown_family_exit_64(self, capsys):
        code = main(["verify-ne", "--generator", "example2",
                     "--families", "mystery"])
        assert code == EXIT_USAGE

    def test_instance_and_generator_conflict(self, capsys):
        assert main(["simulate", "--instance", "x.json",
                     "--generator", "example1"]) == EXIT_USAGE

    def test_bad_fixed_policy_exit_64(self, capsys):
        assert main(["simulate", "--generator", "example1",
                     "--zero-policy", "fixed:1,1,2"]) == EXIT_USAGE


class TestSimulate:
    def test_prints_exact_times_and_shares(self):
        result = run_cli(["simulate", "--generator", "example1", "--mechanism", "cps"])
        assert result.exit_code == EXIT_OK
        assert "t1 = 2/3" in result.stdout
        assert "t2 = 460/501" in result.stdout
        assert "t3 = 1" in result.stdout
        assert "514/835" in result.stdout and "~0.615569" in result.stdout

    def test_truthful_payoffs_on_two_agent_instance(self):
        result = run_cli(["simulate", "--generator", "example2",
                          "--profile", "truthful"])
        assert result.stdout.count("5/9") == 2

    def test_trace_file_written(self, tmp_path):
        out = tmp_path / "trace.json"
        result = run_cli(["simulate", "--generator", "example1",
                          "--out", str(out)])
        text = result.files[str(out)]
        doc = json.loads(text)
        assert doc["depletion_events"][0] == {"time": "2/3", "item": 2}
        assert doc["decimal_approx"]["note"].startswith("approximate")

    def test_fixed_policy_accepted(self):
        result = run_cli(["simulate", "--generator", "example1",
                          "--zero-policy", "fixed:3,1,2"])
        assert result.exit_code == EXIT_OK

    def test_ordinal_mechanism_golden(self):
        # favorite-first eating on the three-agent instance: two agents
        # swarm item 2, so it finishes at 1/2
        result = run_cli(["simulate", "--generator", "example1",
                          "--mechanism", "ps"])
        assert "t1 = 1/2" in result.stdout and "item 2" in result.stdout

    def test_parse_error_missing_file(self):
        result = run_cli(["simulate", "--instance", "does-not-exist.json"])
        assert result.exit_code == EXIT_PARSE

    def test_invalid_instance_lists_defects(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"n": 1, "m": 2, "valuations": [["1/2", "1/3"]]}))
        result = run_cli(["simulate", "--instance", str(path)])
        assert result.exit_code == EXIT_INVALID
        assert "agent 1" in result.stdout

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = run_cli(["simulate", "--instance", str(path)])
        assert result.exit_code == EXIT_PARSE


class TestOpt:
    def test_example1(self):
        result = run_cli(["opt", "--generator", "example1"])
        assert "8/5" in result.stdout

    def test_main_writes_the_out_file(self, tmp_path, capsys):
        out = tmp_path / "opt.json"
        assert main(["opt", "--generator", "example1", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("opt welfare: 8/5 (~1.6)\n")
        assert json.loads(out.read_text()) == {
            "assignment": {"1": 1, "2": 2, "3": 3},
            "opt_welfare": "8/5",
            "opt_welfare_approx": "1.6",
        }

    def test_results_past_the_int_digit_limit_print_exactly(self, tmp_path, capsys):
        # each value fits CPython's 4,300-digit str limit; the welfare
        # (2pq - p - q) / (pq) has about 8,600 digits in each part
        p, q = 10 ** 4299 + 1, 10 ** 4299 + 3
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 2, "m": 2, "valuations": [
            [f"1/{p}", f"{p - 1}/{p}"], [f"{q - 1}/{q}", f"1/{q}"]]}))
        assert main(["opt", "--instance", str(path)]) == EXIT_OK
        opt_line = capsys.readouterr().out.splitlines()[0]
        assert main(["poa", "--instance", str(path), "--mechanism", "rp"]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split(",")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            exact = f"{2 * p * q - p - q}/{p * q}"
        finally:
            sys.set_int_max_str_digits(limit)
        assert opt_line == f"opt welfare: {exact} (~2.00000)"
        # each agent gets its favorite item in either order: RP welfare = opt
        assert row[:3] == ["2", "2", "rp"] and row[3] == row[5] == exact
        assert row[7:] == ["1", "1"]


class TestPoa:
    def test_csv_header_is_stable(self):
        result = run_cli(["poa", "--generator", "example2", "--profile", "truthful"])
        header = result.stdout.splitlines()[0]
        assert header == ",".join(POA_CSV_COLUMNS)
        assert header == ("n,m,mechanism,welfare,welfare_approx,"
                          "opt,opt_approx,ratio,ratio_approx")

    def test_log_m_row(self):
        result = run_cli(["poa", "--generator", "log-m-lb", "--k", "8", "--q", "4"])
        row = result.stdout.splitlines()[1].split(",")
        assert row[:3] == ["12", "31", "cps"]
        assert F(row[3]) <= 4
        assert F(row[5]) == 5
        assert F(row[7]) >= F(5, 4)

    def test_both_mechanisms_two_rows(self):
        result = run_cli(["poa", "--generator", "ps-beats-cps", "--n", "16",
                          "--mechanism", "both", "--profile", "truthful"])
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 3
        cps_row, ps_row = lines[1].split(","), lines[2].split(",")
        assert cps_row[2] == "cps" and F(cps_row[3]) == F(8, 5)
        assert ps_row[2] == "ps" and F(ps_row[3]) == 4

    def test_rp_row_uses_exact_enumeration(self):
        result = run_cli(["poa", "--generator", "rp-lb", "--n", "4",
                          "--eps", "1/100", "--mechanism", "rp"])
        row = result.stdout.splitlines()[1].split(",")
        assert row[2] == "rp"
        assert F(row[3]) == 1 and F(row[5]) == F(99, 25)

    def test_rrp_row_is_seeded(self):
        argv = ["poa", "--generator", "log-m-lb", "--k", "4", "--q", "3",
                "--mechanism", "rrp", "--samples", "400", "--seed", "9"]
        first, second = run_cli(argv), run_cli(argv)
        assert first.stdout == second.stdout
        assert first.stdout.splitlines()[1].split(",")[2] == "rrp"

    def test_uses_designated_bad_profile_by_default(self):
        result = run_cli(["poa", "--generator", "sqrt-n-lb", "--n", "16",
                          "--eps", "1/4096"])
        row = result.stdout.splitlines()[1].split(",")
        assert F(row[3]) <= 3 and F(row[5]) >= 4

    def test_zero_welfare_renders_inf(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(
            {"n": 2, "m": 2, "valuations": [["1", "0"], ["0", "1"]]}))
        prof_path = tmp_path / "prof.json"
        prof_path.write_text(json.dumps([
            {"kind": "lexicographic", "order": [2]},
            {"kind": "lexicographic", "order": [1]},
        ]))
        result = run_cli(["poa", "--instance", str(inst_path),
                          "--profile", str(prof_path)])
        row = result.stdout.splitlines()[1].split(",")
        assert row[3] == "0" and row[7] == "inf" and row[8] == "inf"


class TestVerifyAndBestResponse:
    def test_example2_truthful_refuted_exit_3(self):
        result = run_cli(["verify-ne", "--generator", "example2",
                          "--profile", "truthful",
                          "--families", "truthful,single-minded"])
        assert result.exit_code == EXIT_REFUTED
        assert "single-minded(1)" in result.stdout
        assert "1/36" in result.stdout

    def test_certificate_file(self, tmp_path):
        out = tmp_path / "cert.json"
        result = run_cli(["verify-ne", "--generator", "example2",
                          "--profile", "truthful", "--out", str(out),
                          "--dump-candidates"])
        doc = json.loads(result.files[str(out)])
        assert doc["verdict"] == "refuted"
        assert doc["reports"][0]["candidates"]

    def test_budget_exceeded_exit_4(self, monkeypatch):
        monkeypatch.setenv("ALLOC_BUDGET", "2")
        result = run_cli(["verify-ne", "--generator", "example2",
                          "--profile", "truthful"])
        assert result.exit_code == EXIT_BUDGET

    def test_best_response_budget_exceeded_exit_4(self, monkeypatch, capsys):
        monkeypatch.setenv("ALLOC_BUDGET", "2")
        assert main(["best-response", *_EXAMPLE2, "--agent", "1"]) == EXIT_BUDGET
        assert capsys.readouterr().out == "refused: sweep needs 6 engine runs, budget is 2\n"

    def test_poa_ignores_the_budget(self, monkeypatch, capsys):
        # only the sweeps, best-response and verify-ne, read ALLOC_BUDGET
        monkeypatch.setenv("ALLOC_BUDGET", "abc")
        assert main(["poa", *_EXAMPLE2]) == EXIT_OK

    @pytest.mark.parametrize("budget, recorded", [("8", 8), ("", 1000000), (None, 1000000)],
                             ids=["eight", "empty", "unset"])
    def test_certificate_records_the_budget(self, monkeypatch, budget, recorded):
        # moved from the library: the certificate names the budget it ran under
        if budget is None:
            monkeypatch.delenv("ALLOC_BUDGET", raising=False)
        else:
            monkeypatch.setenv("ALLOC_BUDGET", budget)
        result = run_cli(["verify-ne", *_EXAMPLE2, "--families", "truthful,single-minded",
                          "--out", "cert.json"])
        doc = json.loads(result.files["cert.json"])
        assert doc["budget"] == recorded
        assert sum(report["engine_runs"] for report in doc["reports"]) == 8

    def test_certified_profile_exit_0(self, tmp_path):
        # mutually single-minded agents: nobody can improve on payoff 1
        inst_path = tmp_path / "identity.json"
        inst_path.write_text(json.dumps({
            "n": 3, "m": 3,
            "valuations": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        }))
        result = run_cli(["verify-ne", "--instance", str(inst_path),
                          "--profile", "truthful"])
        assert result.exit_code == EXIT_OK
        assert "verdict: certified" in result.stdout

    def test_dyadic_bad_profile_certified_with_default_families(self):
        result = run_cli(["verify-ne", "--generator", "log-m-lb",
                          "--k", "4", "--q", "3", "--profile", "bad"])
        assert result.exit_code == EXIT_OK
        assert "verdict: certified" in result.stdout

    @pytest.mark.parametrize("argv", [["verify-ne"], ["best-response", "--agent", "1"]],
                             ids=["verify-ne", "best-response"])
    def test_default_families_are_the_library_default(self, argv):
        # one set of default families, for --families and for verify_ne
        _, opts = _parse(argv + ["--generator", "example2"])
        assert _resolve_families(opts, 2) == list(DEFAULT_FAMILIES)

    def test_negative_epsilon_exit_2(self, capsys):
        assert main(["verify-ne", "--generator", "example2", "--profile", "truthful",
                     "--families", "truthful", "--epsilon=-1/2"]) == EXIT_INVALID
        assert "epsilon must be nonnegative" in capsys.readouterr().out

    def test_best_response_report(self):
        result = run_cli(["best-response", "--generator", "example2",
                          "--profile", "truthful", "--agent", "1",
                          "--families", "truthful,single-minded,grid:12",
                          "--dump-candidates"])
        assert result.exit_code == EXIT_OK
        assert "best: single-minded(1) payoff 7/12" in result.stdout
        assert "candidate grid(" in result.stdout


class TestDefaultGridResolution:
    @pytest.mark.parametrize("generator, shown", [
        ("example2", "grid[d=12, 13 points]"),
        ("example1", "grid[d=6, 28 points]"),
    ], ids=["m=2", "m=3"])
    def test_grid_without_a_resolution(self, generator, shown):
        result = run_cli(["best-response", "--generator", generator, "--profile", "truthful",
                          "--agent", "1", "--families", "grid"])
        assert result.exit_code == EXIT_OK
        assert result.stdout.splitlines()[0].endswith(f" over {shown}")

    def test_no_default_beyond_three_items(self, capsys):
        assert main(["best-response", "--generator", "random", "--n", "2", "--m", "4",
                     "--seed", "0", "--profile", "truthful", "--agent", "1",
                     "--families", "grid"]) == EXIT_INVALID
        assert capsys.readouterr().out == \
            "error: no default grid resolution beyond m = 3; pass one explicitly\n"

    def test_grids_in_either_order_give_one_certificate(self):
        # the second list used to print and sweep grid[d=3] first
        first, second = (run_cli(["verify-ne", *_EXAMPLE1, "--families", families,
                                  "--out", "cert.json"])
                         for families in ("grid:2,grid:3", "grid:3,grid:2"))
        assert first.files == second.files and first.stdout == second.stdout
        assert "families: grid[d=2, 6 points] + grid[d=3, 10 points]" in first.stdout


class TestLotteryCommands:
    def test_rp_exact(self):
        result = run_cli(["rp", "--generator", "rp-lb", "--n", "4",
                          "--eps", "1/100"])
        assert "exact-enumeration" in result.stdout
        assert "expected welfare: 1 (~1)" in result.stdout

    def test_rp_exact_refused_for_large_n(self):
        result = run_cli(["rp", "--generator", "random", "--n", "9", "--m", "9",
                          "--seed", "0", "--profile", "truthful"])
        assert result.exit_code == EXIT_BUDGET

    def test_rrp_reports_stderr_and_seed(self, tmp_path):
        out = tmp_path / "rrp.json"
        result = run_cli(["rrp", "--generator", "log-m-lb", "--k", "4", "--q", "3",
                          "--samples", "500", "--seed", "7", "--out", str(out)])
        doc = json.loads(result.files[str(out)])
        assert doc["samples"] == 500 and doc["seed"] == 7
        assert "stderr" in doc


class TestLotteryOutputBytes:
    # sha256 of outputs that carry the Monte Carlo stderr repr, per-agent
    # rationals and allocation draws, so a change to how they are summed or
    # drawn cannot move them unnoticed
    @pytest.mark.parametrize("argv, digest", [
        (["rp", "--generator", "rp-lb", "--n", "4", "--eps", "1/100",
          "--samples", "300", "--seed", "1"],
         "f79342222ab5f5f8168488898e5b316da0000e50fcab69dc6a016b33a66a6acd"),
        (["rp", "--generator", "random", "--n", "5", "--m", "7", "--seed", "3",
          "--samples", "300"],
         "b66342d97c18f5768268fe32bc00ec1e5a4190c7eea055e2a9a123f3d54537c7"),
        (["rrp", "--generator", "rp-lb", "--n", "4", "--eps", "1/100",
          "--samples", "300", "--seed", "1"],
         "428823ba821746267e25b3a18d0e0f8b71d163eef8818ae7c557aff3ec56eae0"),
        (["sample", "--generator", "example1", "--seed", "7"],
         "036d5ce5be870fa192418061f3144ae70877960cdd58d26c8a464d171e8f28e3"),
    ], ids=["rp-lb-rp", "random-rp", "rp-lb-rrp", "example1-sample"])
    def test_out_file_digest(self, argv, digest):
        text = run_cli(argv + ["--out", "result.json"]).files["result.json"]
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_poa_rp_stdout_digest(self):
        text = run_cli(["poa", "--generator", "rp-lb", "--n", "5", "--mechanism", "rp"]).stdout
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "df9a2bbe9f67278f6bb54e58d24c732399a426e7fd2bd8094a3a086e42d22d99")


class TestSweepOutputBytes:
    # sha256 of sweep outputs, so that the lean per-candidate kernel runs
    # cannot move a certificate, a payoff or a label unnoticed
    @pytest.mark.parametrize("mechanism, digest", [
        ("cps", "8f356c23d1d79151aa3a537f4e45543eada41ef8537507e46096cbbcb0ccef32"),
        ("ps", "a254f2dfb1e81e9d5e5f6850fb5e547f53edce312acc789b8448e00c2391c6c7"),
    ])
    def test_log_m_certificate_digest(self, mechanism, digest):
        result = run_cli(["verify-ne", "--generator", "log-m-lb", "--k", "8", "--q", "3",
                          "--mechanism", mechanism, "--out", "cert.json"])
        assert result.exit_code == EXIT_OK
        assert hashlib.sha256(result.files["cert.json"].encode("utf-8")).hexdigest() == digest

    # the anchor certificate: its eight identical chasers share one sweep
    @pytest.mark.parametrize("mechanism, digest", [
        ("cps", "b2d7f1e0bf8c8e79c9c4e214218dfa2aebb936cc6c7963ae04dfa6b829305e9e"),
        ("ps", "9f4a1f8211c86ab0cf7af8f6f2dc61414fe7f323c16bc93935bf2785c3e6acdb"),
    ])
    def test_log_m_q4_certificate_digest(self, mechanism, digest):
        result = run_cli(["verify-ne", "--generator", "log-m-lb", "--k", "8", "--q", "4",
                          "--mechanism", mechanism, "--out", "cert.json"])
        assert result.exit_code == EXIT_OK
        assert hashlib.sha256(result.files["cert.json"].encode("utf-8")).hexdigest() == digest

    # the zero policy decides which candidates eat alike under CPS: under the
    # uniform policy an order prefix is not its completion, under a fixed
    # one it is the completion in the policy's order
    @pytest.mark.parametrize("policy, digest", [
        ("uniform", "cb59a69615600b35c84d91c2ba42c880910b7e52a8d49103abb6099d80883f6d"),
        ("fixed:3,1,4,15,9,2,6,5,8,7,10,14,13,11,12",
         "b811ecfc5886dc1a24c73bf16910d85e8f4392d7003960070526566cdbd32a64"),
    ], ids=["uniform", "fixed"])
    def test_log_m_q3_candidates_digest_under_zero_policy(self, policy, digest):
        result = run_cli(["verify-ne", "--generator", "log-m-lb", "--k", "8", "--q", "3",
                          "--dump-candidates", "--zero-policy", policy, "--out", "cert.json"])
        assert result.exit_code == EXIT_REFUTED
        assert hashlib.sha256(result.files["cert.json"].encode("utf-8")).hexdigest() == digest

    def test_sqrt_n_certificate_stdout_digest(self):
        result = run_cli(["verify-ne", "--generator", "sqrt-n-lb", "--n", "16", "--families",
                          "truthful,single-minded,sequential,uniform", "--dump-candidates"])
        assert result.exit_code == EXIT_REFUTED
        assert hashlib.sha256(result.stdout.encode("utf-8")).hexdigest() == \
            "9adafec5abceac7630a4c06ad76007363182f907730d1f3963dcbbb28dc830f2"

    @pytest.mark.parametrize("agent, digest", [
        ("1", "7efb41fed6fbc2ec272f16b3a6286c7130fffb15965798ad0fd2c9a77f44ec6a"),
        ("2", "482817a7e977ca36bc5abc690cd2dbdfc969caaa2699c675e47f186539bfc762"),
    ])
    def test_sqrt_n_best_response_stdout_digest(self, agent, digest):
        text = run_cli(["best-response", "--generator", "sqrt-n-lb", "--n", "16",
                        "--agent", agent, "--dump-candidates"]).stdout
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


_LOG_M_Q3 = ["--generator", "log-m-lb", "--k", "8", "--q", "3"]
_FIXED_15 = "fixed:15,14,13,12,11,10,9,8,7,6,5,4,3,2,1"
_EXAMPLE1 = ["--generator", "example1"]
_EXAMPLE2 = ["--generator", "example2"]
_ALL_FAMILIES = "truthful,single-minded,sequential,uniform,grid"


def _certificate(k, q, mechanism, policy):
    return ["verify-ne", "--generator", "log-m-lb", "--k", str(k), "--q", str(q),
            "--mechanism", mechanism, "--zero-policy", policy]


def _simulate_30x30(mechanism, policy):
    return ["simulate", "--generator", "random", "--n", "30", "--m", "30", "--weight-max", "20",
            "--seed", "0", "--mechanism", mechanism, "--zero-policy", policy]


# sha256 of whole CLI outputs at sizes no other test reaches: (argv, exit
# code, digest of --out or None for no --out, digest of stdout or None when
# it is not checked).
#  - log-m-lb k=8 q=5 and q=6 and k=512 q=4 certificates: a sweep runs the
#    kernel once per way of eating, and the bytes must be those of one run
#    per candidate; under the uniform policy k=8 q=5 CPS is refuted; at
#    k=512 the kernel moves the 512 zero-policy chasers as one group; each
#    lean run stops once the items its deviator values have run out, and
#    q=6 (3,584 runs) checks that stop on a larger sweep.
#  - random 30x30 simulate: the --out export with its decimal block, and the
#    payoffs on stdout; every agent values every item, so the zero policy
#    never fires and changes only the stdout header.
#  - candidate dumps of best-response and verify-ne, and the sqrt-n-lb n=16
#    certificates, whose agents fall into classes of proportional reports
#    that share one sweep (CPS refuted, PS certified).
#  - certificates under the fixed zero policy and uniform-policy candidates:
#    each sweep builds the opponents' opening kernel state and the greedy
#    members once per swept agent, and the bytes must be those of a fresh
#    kernel run per candidate.
#  - log-m-lb k=8 q=3 and sqrt-n-lb simulate, which fire the zero policy at
#    tied depletions, so most shares are written over a running denominator;
#    under PS the bad profiles' repeated shadows put many eaters on one item.
#  - every strategy family on example1 (m = 3, so grid takes its default
#    d = 6), and grid:4 with uniform on example2: the certificate text, the
#    members' order and labels, and the engine runs of each family.
CLI_DIGESTS = {
    "families-all-ex1-cps": (
        ["verify-ne", *_EXAMPLE1, "--families", _ALL_FAMILIES, "--mechanism", "cps"],
        EXIT_REFUTED, "1f0791fa5907b463217b53774c1aa7990958cdff18a35d2cfea150297de6324b",
        "4e30f48499bd8a2b3667e3c651f79566f4aaa7bad76777b0f76151fe50ba752a"),
    "families-all-ex1-ps": (
        ["verify-ne", *_EXAMPLE1, "--families", _ALL_FAMILIES, "--mechanism", "ps"],
        EXIT_OK, "6e7901f205cdb0403e02d1e56efeaceda52f4d642e784d4a618bedf04ddad19b",
        "74069b5ee1b81b878c6e2e8761dceb0725704ebb79a466cf27f79866d066bccb"),
    "br-families-all-ex1-cps": (
        ["best-response", *_EXAMPLE1, "--families", _ALL_FAMILIES, "--agent", "1",
         "--dump-candidates", "--mechanism", "cps"],
        EXIT_OK, "969b7a7b227e795894b7e8905fe7a6ab9566f4faa24e175468d6e374569818b9",
        "8c1b0135aac6d7c998fd59fa45161a405bd4e12fbc85e3f8d2d74aa3b0515408"),
    "br-families-all-ex1-ps": (
        ["best-response", *_EXAMPLE1, "--families", _ALL_FAMILIES, "--agent", "1",
         "--dump-candidates", "--mechanism", "ps"],
        EXIT_OK, "2cbcca2ea5226c41af9f632619cbd7f8beac96af86bd738021f5aa7a0a538789",
        "5fa545a68b072d5bbfed13ed7dc68b55adf0184274296ae646e9eda11c767c04"),
    "grid4-uniform-ex2-cps": (
        ["verify-ne", *_EXAMPLE2, "--families", "grid:4,uniform", "--mechanism", "cps"],
        EXIT_REFUTED, "0fa9b9cb4f70a9a5e69d0170de7c6e35b5687d637b516f87aecec81dcd2cc0ce",
        "32a01dad05e343af04a802861dbd45376d57cd0076cd11aa61fa45923140e5bf"),
    "grid4-uniform-ex2-ps": (
        ["verify-ne", *_EXAMPLE2, "--families", "grid:4,uniform", "--mechanism", "ps"],
        EXIT_OK, "76017b25a23af4d53d9c46f2c83e5094200807bc4036800c48e326c2c968329a",
        "9ba65a8cdf9d2d775efae6ed62ae28f6405070d4b2d79d8297c25ae52ee36e63"),
    "cert-k8-q5-cps-lowest": (
        _certificate(8, 5, "cps", "lowest-index"), EXIT_OK,
        "1ac68c12d5b9781681713567bb90f37d4377fc1219d7e18f78728b0b63b9e7ab", None),
    "cert-k8-q5-ps-lowest": (
        _certificate(8, 5, "ps", "lowest-index"), EXIT_OK,
        "f8223fac3f951aa8fc93dcd5a9c5aaab1977164df204cef5fa3af3e92f615bb8", None),
    "cert-k8-q5-cps-uniform": (
        _certificate(8, 5, "cps", "uniform"), EXIT_REFUTED,
        "1646f705bda8df29133d836ac47e4ada503013db90c33c63279aff8b519c888f", None),
    "cert-k512-q4-cps-lowest": (
        _certificate(512, 4, "cps", "lowest-index"), EXIT_OK,
        "c103547c6470174cb78bdc21d15bdef92a795c3cd6d3b4aa40b62cec8fea869e", None),
    "cert-k512-q4-ps-lowest": (
        _certificate(512, 4, "ps", "lowest-index"), EXIT_OK,
        "981ecbb87c132af033ede078fafbfc2c5c0bebf2150138ce81dd324e962ed954", None),
    "cert-k8-q6-cps-lowest": (
        _certificate(8, 6, "cps", "lowest-index"), EXIT_OK,
        "c474054928d9002bdf7e03d20539b95b9fd1783aed311f5d99c7e36a767710f1", None),
    "sim-30x30-cps-lowest": (
        _simulate_30x30("cps", "lowest-index"), EXIT_OK,
        "345fa58a782621dd83c52fc457a7397f9f5bbec4f4dcd39dcbbae54847d4e377",
        "b8aa079779bbc3810fba3f2f79de544a91494ee8b6d4f2037dcd3649df7de717"),
    "sim-30x30-cps-uniform": (
        _simulate_30x30("cps", "uniform"), EXIT_OK,
        "345fa58a782621dd83c52fc457a7397f9f5bbec4f4dcd39dcbbae54847d4e377",
        "c96a44c887a51f48b35bd93f8ad5834e0926071577d3b8e0421236ffb0349674"),
    "sim-30x30-ps-lowest": (
        _simulate_30x30("ps", "lowest-index"), EXIT_OK,
        "55fa698388f8682b544669d60bb6aa314a61fa1502a24201e803f8195faf4529",
        "05015b883a052ce677c154190d6e2b28b2109dd1f47eb044a0b65879ba7afa46"),
    "sim-30x30-ps-uniform": (
        _simulate_30x30("ps", "uniform"), EXIT_OK,
        "55fa698388f8682b544669d60bb6aa314a61fa1502a24201e803f8195faf4529",
        "a6f796843571c0ca7ee9f800254a427fae9af111399c0e1344c564d9fea9a90a"),
    "br-k8-q3-cps": (
        ["best-response", *_LOG_M_Q3, "--agent", "9", "--dump-candidates", "--mechanism", "cps"],
        EXIT_OK, None, "fcbdea2fff07984e0415c15125c57da05a870d51a87dea6584eaa2821e0bc842"),
    "br-k8-q3-ps": (
        ["best-response", *_LOG_M_Q3, "--agent", "9", "--dump-candidates", "--mechanism", "ps"],
        EXIT_OK, None, "fcbdea2fff07984e0415c15125c57da05a870d51a87dea6584eaa2821e0bc842"),
    "cert-k8-q3-candidates": (
        ["verify-ne", *_LOG_M_Q3, "--dump-candidates"], EXIT_OK,
        "367c8c1d0dc187e15568d9329d143b9abb1b3cc71a513ffa0709d5b0d034b85d", None),
    "cert-sqrt-n16-cps": (
        ["verify-ne", "--generator", "sqrt-n-lb", "--n", "16", "--profile", "bad",
         "--mechanism", "cps"], EXIT_REFUTED,
        "cdd2de8630fd4b65a05b901767e563d89b758ab9ebae4a0552cf78279cb83d2f", None),
    "cert-sqrt-n16-ps": (
        ["verify-ne", "--generator", "sqrt-n-lb", "--n", "16", "--profile", "bad",
         "--mechanism", "ps"], EXIT_OK,
        "e3e7a0330a2462f00edef1f2675b5dc9f07a25ede859c90d46a7604432250edd", None),
    "cert-k8-q3-fixed-cps": (
        ["verify-ne", *_LOG_M_Q3, "--mechanism", "cps", "--zero-policy", _FIXED_15], EXIT_OK,
        "a896ca4ae324312faa6c7cf40f4cf9216b89879f769e65a001d737dc53457d28", None),
    "cert-k8-q3-fixed-ps": (
        ["verify-ne", *_LOG_M_Q3, "--mechanism", "ps", "--zero-policy", _FIXED_15], EXIT_OK,
        "a254f2dfb1e81e9d5e5f6850fb5e547f53edce312acc789b8448e00c2391c6c7", None),
    "cert-k8-q3-uniform-cps": (
        ["verify-ne", *_LOG_M_Q3, "--mechanism", "cps", "--zero-policy", "uniform"],
        EXIT_REFUTED, "1ab5f123c08e5ae8d2d34929ae24b301585b816fe8ceb8a33bd3c52e640c4386", None),
    "br-k8-q3-uniform-cps": (
        ["best-response", *_LOG_M_Q3, "--agent", "9", "--zero-policy", "uniform",
         "--dump-candidates", "--mechanism", "cps"],
        EXIT_OK, None, "0a706758bb49911b0f66933b24a2c0f0ad74953033f56b4eede6fabc2fd1fa5a"),
    "sim-k8-q3-cps-uniform": (
        ["simulate", *_LOG_M_Q3, "--mechanism", "cps", "--zero-policy", "uniform"], EXIT_OK,
        "9bee191006ddaad843436512136f5a4a1e2fa71d4b0c562d52a32551a3491909",
        "679c204be03adf1701877cf0d0e194aa3c6fbbae373c867d1bd9991bc00d1f4c"),
    "sim-k8-q3-cps-lowest": (
        ["simulate", *_LOG_M_Q3, "--mechanism", "cps", "--zero-policy", "lowest-index"], EXIT_OK,
        "b2d52ce81e95dc64ee1b156d7f7df7df7eb4250e64889b8d902c256352df4755",
        "747dafa102fec69e478f681bade830a494179940950ffac59984b501c2d0feb4"),
    "sim-k8-q3-cps-fixed": (
        ["simulate", *_LOG_M_Q3, "--mechanism", "cps", "--zero-policy", _FIXED_15], EXIT_OK,
        "0cc8a23e2a38c5487ea180548517e71cfa8905876423c023b6c4c6536221f6c7",
        "adc76c6b293e843e79d70d0214d410647742450eece37aa09300f0e9361176c6"),
    "sim-k8-q3-ps-lowest": (
        ["simulate", *_LOG_M_Q3, "--mechanism", "ps", "--zero-policy", "lowest-index"], EXIT_OK,
        "f79104e7dff59a2b1d390f1f81fe73247abb65d291a19ee1fe4a144b54e43c7e",
        "78bade5a00d1a5f22f29756df290b296dc50f3418585cccaf061206340241544"),
    "sim-sqrt-n16": (
        ["simulate", "--generator", "sqrt-n-lb", "--n", "16", "--profile", "bad"], EXIT_OK,
        "ad2e0c14537b931c8e37b809ce83ba8f0d79b6c6da5394f17c357e0273e65926",
        "e0e81a40e334ee7e2757e4d01f12b5b3a6d745d10f5d2b9806fa6c062c88fd40"),
    "sim-sqrt-n16-ps": (
        ["simulate", "--generator", "sqrt-n-lb", "--n", "16", "--profile", "bad",
         "--mechanism", "ps"], EXIT_OK,
        "a5b34a6ae60eb493f6165d791a05a802de108a7ad301c43194c4719f3bbf6e45",
        "1866295700de27c0b5b4d7d55502df85ab2d2ebe3717f189ea0dbb35d0151b3c"),
    "sim-sqrt-n64-ps": (
        ["simulate", "--generator", "sqrt-n-lb", "--n", "64", "--profile", "bad",
         "--mechanism", "ps"], EXIT_OK,
        "7ff6631614a6206fedaeaedf1c57caed9223435c33f5480f5d1a38da7af504cc",
        "34e68492930d41768e4259c347f74e795470161f3d2b263f6edd8bddfeaddd01"),
}


@pytest.mark.parametrize("key", CLI_DIGESTS)
def test_cli_output_digest(key, tmp_path, capsys):
    argv, code, out_digest, stdout_digest = CLI_DIGESTS[key]
    out = tmp_path / "out"
    assert main(argv + (["--out", str(out)] if out_digest else [])) == code
    stdout = capsys.readouterr().out
    if out_digest:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == out_digest
    if stdout_digest:
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == stdout_digest


# generate --out --profile-out on the constructions whose rows repeat: the
# sha256 of the instance file, of the profile file (None: the generator has
# no bad profile, so there is no --profile-out) and of stdout
GENERATE_DIGESTS = {
    "sqrt-n-lb-64": (
        ["--generator", "sqrt-n-lb", "--n", "64"],
        "5f10e880ad3eff01181e83b4801a434d6779b224b46967e14f3b248d986db81d",
        "fa29137ebfaf5be063517940348705a1b7ccf26af587f7d6f1169ae649f1f51b",
        "95b26cf23f41af7708a1c8e7eeaf0d8b84a4cd1f7b3c045ab42cd7f763781a04"),
    "log-m-lb-8-4": (
        ["--generator", "log-m-lb", "--k", "8", "--q", "4"],
        "9fa2c0aea780c2dbaf78616c4b818164c795ba3a531960cea578ad2cdbf70c21",
        "3ab99d46846bf3949c565c34b536075548af2f854def4c425167e715d5c1bb03",
        "f84acbbedf927291d1d9b1e2ac13f14355f788fe17e25e42bfb911d094eb1410"),
    "stability-lb-16": (
        ["--generator", "stability-lb", "--n", "16"],
        "1fb62d87f1d88c7a897e05fe79b7345acc254603df223e1cecab4b9da2a37a5c", None,
        "f4b50b632b51c10ea66a2cf4c5f33520ae5be3cb774fec439d15485a1d6e3216"),
    "cps-beats-ps-16": (
        ["--generator", "cps-beats-ps", "--n", "16"],
        "f528733a6af4b0eecd064dcf9a5005c02bf6224ced8498bdb8a0961240896013", None,
        "5a6e9a26548947fb921d1c698ff48e5feb77b52cd9882fa08e22600ef160fe33"),
    "counterexample-safety-5": (
        ["--generator", "counterexample-safety", "--n", "5"],
        "9e7c0906c05ccae0e50fdbf8f12182a4e741149dc0cb4035cf08857330b0224a",
        "2ff278ac37de4dae7d0a5b41b649906fb6d420ec8312cd347d80fab19b5828c4",
        "9651fd786414ee043c9b891108ec89a51d72b329839f493f49a811d046ef2c74"),
}


@pytest.mark.parametrize("key", GENERATE_DIGESTS)
def test_generate_output_digest(key, tmp_path, capsys):
    args, instance_digest, profile_digest, stdout_digest = GENERATE_DIGESTS[key]
    instance, profile = tmp_path / "instance.json", tmp_path / "profile.json"
    argv = ["generate", *args, "--out", str(instance)]
    if profile_digest:
        argv += ["--profile-out", str(profile)]
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    assert hashlib.sha256(instance.read_bytes()).hexdigest() == instance_digest
    if profile_digest:
        assert hashlib.sha256(profile.read_bytes()).hexdigest() == profile_digest
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == stdout_digest


# generate's arguments, and whether the generator has a bad profile to write
READ_BACK = {key: (args, profile_digest is not None)
             for key, (args, _, profile_digest, _) in GENERATE_DIGESTS.items()}
READ_BACK.update({"example1": (_EXAMPLE1, False), "example2": (_EXAMPLE2, False)})


@pytest.mark.parametrize("key", READ_BACK)
def test_generated_files_read_back(key, tmp_path):
    args, has_profile = READ_BACK[key]
    # the instance and profile files hold only keys their readers know
    instance, profile = tmp_path / "instance.json", tmp_path / "profile.json"
    argv = ["generate", *args, "--out", str(instance)]
    files = run_cli(argv + (["--profile-out", str(profile)] if has_profile else [])).files
    doc = json.loads(files[str(instance)])
    read = instance_from_json(doc)
    assert instance_to_json(read) == doc
    if has_profile:
        doc = json.loads(files[str(profile)])
        assert profile_to_json(profile_from_json(doc, read.n, read.m)) == doc


class TestGenerateAndSample:
    def test_generate_writes_instance_and_profile(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        prof_path = tmp_path / "prof.json"
        result = run_cli(["generate", "--generator", "log-m-lb", "--k", "2", "--q", "2",
                          "--out", str(inst_path), "--profile-out", str(prof_path)])
        inst = instance_from_json(json.loads(result.files[str(inst_path)]))
        assert (inst.n, inst.m) == (4, 7)
        profile = profile_from_json(json.loads(result.files[str(prof_path)]),
                                    inst.n, inst.m)
        assert len(profile) == 4

    def test_out_and_profile_out_naming_one_file_exit_64(self, tmp_path, monkeypatch,
                                                          capsys):
        # the instance used to be dropped: the profile overwrote it, exit 0
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main(["generate", "--generator", "log-m-lb", "--k", "2", "--q", "2",
                     "--out", "same.json", "--profile-out", "sub/../same.json"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "usage error: --out and --profile-out name the same file\n")
        assert not (tmp_path / "same.json").exists()

    def test_generator_domain_error_exit_2(self):
        result = run_cli(["generate", "--generator", "sqrt-n-lb", "--n", "10"])
        assert result.exit_code == EXIT_INVALID

    def test_oversized_generator_exit_2(self, capsys):
        assert main(["poa", "--generator", "tightness", "--x", "40"]) == EXIT_INVALID
        assert "over the bound" in capsys.readouterr().out

    def test_sample_deterministic(self):
        argv = ["sample", "--generator", "example1", "--seed", "42"]
        assert run_cli(argv).stdout == run_cli(argv).stdout


class TestConfigRoundTrip:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--generator", "example1", "--out", "trace.json"],
        ["poa", "--generator", "log-m-lb", "--k", "4", "--q", "3",
         "--mechanism", "both", "--out", "poa.csv"],
        ["rrp", "--generator", "log-m-lb", "--k", "4", "--q", "3",
         "--samples", "300", "--seed", "5", "--out", "rrp.json"],
        ["verify-ne", "--generator", "example2", "--profile", "truthful",
         "--out", "cert.json"],
        ["sample", "--generator", "example1", "--seed", "3", "--out", "alloc.json"],
    ], ids=lambda a: a[0])
    def test_rerun_from_serialized_config_is_bit_identical(self, argv):
        # a run is its argument list
        reloaded = json.loads(json.dumps(argv))
        first = execute(argv)
        second = execute(reloaded)
        assert first.exit_code == second.exit_code
        assert first.stdout == second.stdout
        assert first.files == second.files


class TestUsageErrorsNameTheBadValue:
    def test_rp_zero_samples_exit_64(self, capsys):
        code = main(["rp", "--generator", "rp-lb", "--n", "3", "--eps", "1/100",
                     "--samples", "0"])
        assert code == EXIT_USAGE
        assert "--samples: must be a positive integer, got '0'" in capsys.readouterr().err

    def test_non_integer_grid_resolution_exit_64(self, capsys):
        code = main(["verify-ne", "--generator", "example2", "--families", "grid:x"])
        assert code == EXIT_USAGE
        assert "'grid:x'" in capsys.readouterr().err

    def test_non_integer_budget_exit_64(self, monkeypatch, capsys):
        monkeypatch.setenv("ALLOC_BUDGET", "abc")
        code = main(["verify-ne", "--generator", "example2", "--profile", "truthful"])
        assert code == EXIT_USAGE
        assert "ALLOC_BUDGET must be a non-negative integer, got 'abc'" in \
            capsys.readouterr().err


# Every integer the command line reads goes through one reader, which takes
# ASCII digits with an optional leading "-" and nothing else: int() alone
# used to run --n " 1_0 " as n = 10, --agent +1, --seed and --n in
# Arabic-Indic digits, grid:+2 and --samples " 1_0 ". Each input: its
# argument list, the value at "{}" (for ALLOC_BUDGET, the command it bounds),
# and the usage line a spelling it refuses prints.
def _int_flag(flag):
    return lambda text: f"argument {flag}: invalid int value: {text!r}"


_GENERATE_RANDOM = ["generate", "--generator", "random"]
INTEGER_INPUTS = {
    "--n": ([*_GENERATE_RANDOM, "--n", "{}", "--m", "2"], _int_flag("--n")),
    "--m": ([*_GENERATE_RANDOM, "--n", "2", "--m", "{}"], _int_flag("--m")),
    "--k": (["generate", "--generator", "log-m-lb", "--k", "{}", "--q", "2"], _int_flag("--k")),
    "--q": (["generate", "--generator", "log-m-lb", "--k", "2", "--q", "{}"], _int_flag("--q")),
    "--x": (["generate", "--generator", "tightness", "--x", "{}"], _int_flag("--x")),
    "--weight-max": ([*_GENERATE_RANDOM, "--n", "2", "--m", "2", "--weight-max", "{}"],
                     _int_flag("--weight-max")),
    "--seed": (["sample", *_EXAMPLE1, "--seed", "{}"], _int_flag("--seed")),
    "--agent": (["best-response", *_EXAMPLE2, "--agent", "{}"], _int_flag("--agent")),
    "--samples": (["rrp", *_EXAMPLE2, "--samples", "{}"],
                  lambda text: f"argument --samples: must be a positive integer, got {text!r}"),
    "grid": (["verify-ne", *_EXAMPLE2, "--families", "grid:{}"],
             lambda text: "grid resolution must be a positive integer, got "
                          f"{f'grid:{text}'.strip()!r}"),
    "fixed": (["simulate", *_EXAMPLE1, "--zero-policy", "fixed:2,3,{}"],
              lambda text: f"bad fixed policy {f'fixed:2,3,{text}'!r}"),
    "ALLOC_BUDGET": (["best-response", *_EXAMPLE2, "--agent", "1"],
                     lambda text: f"ALLOC_BUDGET must be a non-negative integer, got {text!r}"),
}
_SPELLINGS = [" 1_0 ", "+1", "\u0661", "1.0"]
# ALLOC_BUDGET takes no sign at all, not even on 0
_BUDGET_SPELLINGS = ["abc", "-1", "-0", "+5", "1e3", "\u0663"]


@pytest.mark.parametrize("key, text", [(key, text) for key in INTEGER_INPUTS
                                       for text in _SPELLINGS]
                         + [("ALLOC_BUDGET", text) for text in _BUDGET_SPELLINGS],
                         ids=lambda x: ascii(x).strip("'"))
def test_integer_text_is_ascii_digits(key, text, monkeypatch, capsys):
    argv, line = INTEGER_INPUTS[key]
    if key == "ALLOC_BUDGET":
        monkeypatch.setenv("ALLOC_BUDGET", text)
    else:
        argv = [arg.replace("{}", text) for arg in argv]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"usage error: {line(text)}\n")


@pytest.mark.parametrize("argv, code, out", [
    # the sign stays readable where it was
    (["sample", *_EXAMPLE1, "--seed", "-3"], EXIT_OK, "seed -3\n"),
    ([*_GENERATE_RANDOM, "--n", "-4", "--m", "2"], EXIT_INVALID,
     "generator error: needs n >= 1 and m >= 1\n"),
    (["best-response", *_EXAMPLE2, "--agent", "1", "--families", "grid:2"], EXIT_OK,
     "agent 1 [A] over grid[d=2, 3 points]\n"),
    (["simulate", *_EXAMPLE1, "--zero-policy", "fixed:2,3,1"], EXIT_OK, "instance: n=3 m=3\n"),
], ids=["negative-seed", "negative-n", "grid", "fixed"])
def test_integer_text_that_is_ascii_digits_is_read(argv, code, out, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out.startswith(out)


def test_a_sign_rule_keeps_its_line(monkeypatch, capsys):
    assert main(["rrp", *_EXAMPLE2, "--samples", "0"]) == EXIT_USAGE
    assert "usage error: argument --samples: must be a positive integer, got '0'\n" in \
        capsys.readouterr().err
    monkeypatch.setenv("ALLOC_BUDGET", "0")
    assert main(["best-response", *_EXAMPLE2, "--agent", "1"]) == EXIT_BUDGET
    assert capsys.readouterr().out == "refused: sweep needs 6 engine runs, budget is 0\n"


_INSTANCE = {"n": 2, "m": 2, "valuations": [["1/2", "1/2"], ["1", "0"]]}
_INPUT_FILES = {
    "instance.json": _INSTANCE,
    "short-row.json": {"n": 2, "m": 2, "valuations": [["1"], ["1", "0"]]},
    "n-word.json": dict(_INSTANCE, n="two"),
    "n-half.json": dict(_INSTANCE, n=2.5),
    "rows-not-list.json": dict(_INSTANCE, valuations="1/2"),
    "short-labels.json": dict(_INSTANCE, labels={"agents": ["a"]}),
    "long-item-labels.json": dict(_INSTANCE, labels={"items": ["x", "y", "z"]}),
    "duplicates.json": [{"kind": "lexicographic", "order": [1, 1]},
                        {"kind": "lexicographic", "order": [2]}],
    "floats.json": [{"kind": "proportional", "report": [0.5, 0.5]},
                    {"kind": "lexicographic", "order": [2]}],
    "profile-object.json": {"kind": "lexicographic", "order": [1]},
    "labels-int.json": dict(_INSTANCE, labels=7),
    "labels-empty-list.json": dict(_INSTANCE, labels=[]),
    "labels-zero.json": dict(_INSTANCE, labels=0),
    "labels-empty-string.json": dict(_INSTANCE, labels=""),
    "labels-false.json": dict(_INSTANCE, labels=False),
    "labels-null.json": dict(_INSTANCE, labels=None),
    "agent-labels-int.json": dict(_INSTANCE, labels={"agents": 5}),
    "item-labels-null.json": dict(_INSTANCE, labels={"items": None}),
    "agent-labels-ints.json": dict(_INSTANCE, labels={"agents": [1, 2]}),
    # a str is written as it stands: json.dumps cannot write 1e400
    "n-overflow.json": '{"n": 1e400, "m": 2, "valuations": [["1/2", "1/2"], ["1", "0"]]}',
    "n-float.json": dict(_INSTANCE, n=2.7),
    "n-bool.json": dict(_INSTANCE, n=True),
    "report-int.json": [{"kind": "proportional", "report": 5},
                        {"kind": "lexicographic", "order": [2]}],
    "order-int.json": [{"kind": "lexicographic", "order": 5},
                       {"kind": "lexicographic", "order": [2]}],
    "report-null.json": [{"kind": "proportional", "report": [None, "1"]},
                         {"kind": "lexicographic", "order": [2]}],
    "order-bool.json": [{"kind": "lexicographic", "order": [True]},
                        {"kind": "lexicographic", "order": [2]}],
    "report-bools.json": [{"kind": "proportional", "report": [True, False]},
                          {"kind": "lexicographic", "order": [2]}],
    "report-missing.json": [{"kind": "proportional"}, {"kind": "lexicographic", "order": [2]}],
    "order-missing.json": [{"kind": "lexicographic"}, {"kind": "lexicographic", "order": [2]}],
    "not-utf8.json": b'\xff{"n": 2, "m": 2, "valuations": [["1/2", "1/2"], ["1", "0"]]}',
    # more digits than int() converts by default (4,300)
    "n-5001-digits.json": '{"n": 1' + "0" * 5000 + ', "m": 2, "valuations": []}',
    "deep.json": '{"n": 2, "m": 2, "valuations": ' + "[" * 100_000 + "]" * 100_000 + "}",
    # Fraction would build 10**999999 and 10**99999999 for these
    "huge-exponent.json": dict(_INSTANCE, valuations=[["1e999999", "0"], ["1", "0"]]),
    "report-huge-exponent.json": [{"kind": "proportional", "report": ["1e-99999999", "1"]},
                                  {"kind": "lexicographic", "order": [2]}],
    # misspelt or stray keys, which used to be read as absent, with exit 0
    "instance-extra-key.json": dict(_INSTANCE, valuation=[["1", "0"], ["1", "0"]]),
    "labels-misspelt.json": dict(_INSTANCE, labels={"agent": ["a", "b"]}),
    "order-misspelt.json": [{"kind": "lexicographic", "ordr": [2], "order": []},
                            {"kind": "lexicographic", "order": [2]}],
    "order-with-report.json": [{"kind": "lexicographic", "order": [1], "report": ["0", "1"]},
                               {"kind": "lexicographic", "order": [2]}],
    "report-with-order.json": [{"kind": "proportional", "report": ["1", "0"], "order": [2]},
                               {"kind": "lexicographic", "order": [2]}],
}
_RP_LB = ["--generator", "rp-lb", "--n", "3"]
_ON_FILE = ["simulate", "--instance", "{dir}/instance.json", "--profile"]
# the subcommands that take --zero-policy, and those that take --profile
_WITH_POLICY = ["simulate", "poa", "best-response", "verify-ne", "sample"]
_PROFILED = [*_WITH_POLICY, "rp", "rrp"]

MALFORMED = {
    "fixed-repeat": ["simulate", *_EXAMPLE1, "--zero-policy", "fixed:1,1,2"],
    "fixed-words": ["simulate", *_EXAMPLE1, "--zero-policy", "fixed:a,b,c"],
    "fixed-empty": ["simulate", *_EXAMPLE1, "--zero-policy", "fixed:"],
    "fixed-short": ["simulate", *_EXAMPLE1, "--zero-policy", "fixed:1,2"],
    "agent-0": ["best-response", *_EXAMPLE1, "--agent", "0"],
    "agent-past-n": ["best-response", *_EXAMPLE1, "--agent", "4"],
    "agent-word": ["best-response", *_EXAMPLE1, "--agent", "x"],
    "families-empty": ["verify-ne", *_EXAMPLE2, "--families", ""],
    "families-comma": ["verify-ne", *_EXAMPLE2, "--families", ","],
    "epsilon-word": ["verify-ne", *_EXAMPLE2, "--epsilon", "abc"],
    "epsilon-zero-den": ["verify-ne", *_EXAMPLE2, "--epsilon", "1/0"],
    "eps-word": ["generate", *_RP_LB, "--eps", "x"],
    "eps-zero-den": ["generate", *_RP_LB, "--eps", "1/0"],
    "eps-above": ["generate", *_RP_LB, "--eps", "2"],
    "eps-zero": ["generate", *_RP_LB, "--eps", "0"],
    "eps-negative": ["generate", *_RP_LB, "--eps", "-1/2"],
    "epsilon-negative": ["verify-ne", *_EXAMPLE2, "--epsilon", "-1/10"],
    "n-not-square": ["generate", "--generator", "sqrt-n-lb", "--n", "5"],
    "rp-n-9": ["rp", "--generator", "random", "--n", "9", "--m", "9"],
    "poa-rp-n-9": ["poa", "--generator", "random", "--n", "9", "--m", "9",
                   "--mechanism", "rp"],
    "weight-max-0": ["generate", "--generator", "random", "--n", "2", "--m", "2",
                     "--weight-max", "0"],
    "unknown-generator": ["simulate", "--generator", "no-such-generator"],
    "no-bad-profile": ["simulate", *_EXAMPLE1, "--profile", "bad"],
    "missing-instance": ["simulate", "--instance", "{dir}/missing.json"],
    "missing-profile": [*_ON_FILE, "{dir}/missing.json"],
    "profile-duplicates": [*_ON_FILE, "{dir}/duplicates.json"],
    "profile-floats": [*_ON_FILE, "{dir}/floats.json"],
    "profile-not-list": [*_ON_FILE, "{dir}/profile-object.json"],
    "short-row": ["simulate", "--instance", "{dir}/short-row.json"],
    "n-word": ["simulate", "--instance", "{dir}/n-word.json"],
    "n-half": ["simulate", "--instance", "{dir}/n-half.json"],
    "rows-not-list": ["simulate", "--instance", "{dir}/rows-not-list.json"],
    "short-agent-labels": ["simulate", "--instance", "{dir}/short-labels.json"],
    "long-item-labels": ["simulate", "--instance", "{dir}/long-item-labels.json"],
    "seed-word": ["simulate", *_EXAMPLE1, "--seed", "x"],
    "sample-seed-word": ["sample", *_EXAMPLE1, "--seed", "x"],
    "labels-not-object": ["simulate", "--instance", "{dir}/labels-int.json"],
    "labels-empty-list": ["simulate", "--instance", "{dir}/labels-empty-list.json"],
    "labels-zero": ["simulate", "--instance", "{dir}/labels-zero.json"],
    "labels-empty-string": ["simulate", "--instance", "{dir}/labels-empty-string.json"],
    "labels-false": ["simulate", "--instance", "{dir}/labels-false.json"],
    "labels-null": ["simulate", "--instance", "{dir}/labels-null.json"],
    "agent-labels-not-list": ["simulate", "--instance", "{dir}/agent-labels-int.json"],
    "item-labels-null": ["simulate", "--instance", "{dir}/item-labels-null.json"],
    "agent-labels-not-strings": ["opt", "--instance", "{dir}/agent-labels-ints.json"],
    "n-overflow": ["simulate", "--instance", "{dir}/n-overflow.json"],
    "n-float": ["opt", "--instance", "{dir}/n-float.json"],
    "n-bool": ["simulate", "--instance", "{dir}/n-bool.json"],
    "instance-not-utf8": ["simulate", "--instance", "{dir}/not-utf8.json"],
    "n-5001-digits": ["simulate", "--instance", "{dir}/n-5001-digits.json"],
    "nested-too-deep": ["simulate", "--instance", "{dir}/deep.json"],
    "report-not-list": [*_ON_FILE, "{dir}/report-int.json"],
    "order-not-list": [*_ON_FILE, "{dir}/order-int.json"],
    "report-null-entry": [*_ON_FILE, "{dir}/report-null.json"],
    "order-bool-entry": [*_ON_FILE, "{dir}/order-bool.json"],
    "report-bool-entries": [*_ON_FILE, "{dir}/report-bools.json"],
    "report-missing": [*_ON_FILE, "{dir}/report-missing.json"],
    "order-missing": [*_ON_FILE, "{dir}/order-missing.json"],
    "out-missing-dir": ["simulate", *_EXAMPLE1, "--out", "{dir}/missing/trace.json"],
    "out-onto-dir": ["generate", *_EXAMPLE1, "--out", "{dir}"],
    "profile-out-missing-dir": ["generate", "--generator", "log-m-lb", "--k", "2", "--q", "2",
                                "--profile-out", "{dir}/missing/profile.json"],
    "profile-out-onto-dir": ["generate", "--generator", "log-m-lb", "--k", "2", "--q", "2",
                             "--profile-out", "{dir}"],
    "sqrt-n-lb-negative-n": ["generate", "--generator", "sqrt-n-lb", "--n", "-4"],
    "stability-lb-negative-n": ["generate", "--generator", "stability-lb", "--n", "-4"],
    "ps-beats-cps-negative-n": ["generate", "--generator", "ps-beats-cps", "--n", "-4"],
    "cps-beats-ps-negative-n": ["generate", "--generator", "cps-beats-ps", "--n", "-4"],
    "instance-huge-exponent": ["simulate", "--instance", "{dir}/huge-exponent.json"],
    "report-huge-exponent": [*_ON_FILE, "{dir}/report-huge-exponent.json"],
    "eps-huge-exponent": ["poa", "--generator", "sqrt-n-lb", "--n", "4",
                          "--eps", "1e-999999999"],
    "epsilon-huge-exponent": ["verify-ne", *_EXAMPLE2, "--epsilon", "1e-99999999999"],
    "instance-extra-key": ["simulate", "--instance", "{dir}/instance-extra-key.json"],
    "labels-misspelt": ["simulate", "--instance", "{dir}/labels-misspelt.json"],
    "order-misspelt": [*_ON_FILE, "{dir}/order-misspelt.json"],
    "order-with-report": [*_ON_FILE, "{dir}/order-with-report.json"],
    "report-with-order": [*_ON_FILE, "{dir}/report-with-order.json"],
    # several bad inputs at once: the instance is resolved first, then the
    # profile, then the zero policy, then each command's own checks
    **{f"{command}-unreadable-instance-first": [
        command, "--instance", "{dir}/missing.json", "--profile", "{dir}/duplicates.json",
        *(["--zero-policy", "random"] if command in _WITH_POLICY else []),
        *(["--agent", "9"] if command == "best-response" else [])]
       for command in _PROFILED},
    **{f"{command}-bad-profile-before-policy": [
        command, "--instance", "{dir}/instance.json", "--profile", "{dir}/duplicates.json",
        "--zero-policy", "random",
        *(["--agent", "9"] if command == "best-response" else []),
        *(["--families", "nope", "--epsilon", "abc"] if command == "verify-ne" else [])]
       for command in _WITH_POLICY},
    "generate-unreadable-instance-first": ["generate", "--instance", "{dir}/missing.json",
                                           "--profile-out", "{dir}/p.json"],
}


def _in_dir(argv, tmp_path):
    """argv with {dir} set to tmp_path, which then holds every input file."""
    for name, doc in _INPUT_FILES.items():
        if isinstance(doc, bytes):
            (tmp_path / name).write_bytes(doc)
        else:
            (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return [arg.replace("{dir}", str(tmp_path)) for arg in argv]


# The exit code of each malformed input that REJECTED does not pin with its
# printed line; every MALFORMED key is in exactly one of the two.
MALFORMED_EXITS = {
    "fixed-repeat": EXIT_USAGE,
    "fixed-words": EXIT_USAGE,
    "fixed-empty": EXIT_USAGE,
    "fixed-short": EXIT_USAGE,
    "agent-0": EXIT_USAGE,
    "agent-past-n": EXIT_USAGE,
    "agent-word": EXIT_USAGE,
    "families-empty": EXIT_USAGE,
    "families-comma": EXIT_USAGE,
    "epsilon-word": EXIT_PARSE,
    "epsilon-zero-den": EXIT_PARSE,
    "eps-word": EXIT_PARSE,
    "eps-zero-den": EXIT_PARSE,
    "eps-above": EXIT_INVALID,
    "eps-zero": EXIT_INVALID,
    "n-not-square": EXIT_INVALID,
    "rp-n-9": EXIT_BUDGET,
    "poa-rp-n-9": EXIT_BUDGET,
    "weight-max-0": EXIT_INVALID,
    "unknown-generator": EXIT_INVALID,
    "no-bad-profile": EXIT_USAGE,
    "missing-instance": EXIT_PARSE,
    "missing-profile": EXIT_PARSE,
    "profile-duplicates": EXIT_INVALID,
    "profile-floats": EXIT_PARSE,
    "profile-not-list": EXIT_PARSE,
    "short-row": EXIT_INVALID,
    "n-word": EXIT_PARSE,
    "n-half": EXIT_PARSE,
    "rows-not-list": EXIT_PARSE,
    "short-agent-labels": EXIT_INVALID,
    "long-item-labels": EXIT_INVALID,
    "seed-word": EXIT_USAGE,
    "sample-seed-word": EXIT_USAGE,
}


@pytest.mark.parametrize("key", MALFORMED)
def test_malformed_input_gets_a_documented_exit_code(key, tmp_path, capsys):
    code = REJECTED[key][0] if key in REJECTED else MALFORMED_EXITS[key]
    assert main(_in_dir(MALFORMED[key], tmp_path)) == code


# Inputs that used to end in a traceback or be read as something else: each
# exits with its code and prints its one error line, and nothing else.
REJECTED = {
    "labels-not-object": (EXIT_PARSE, "error: 'labels' must be an object"),
    "labels-empty-list": (EXIT_PARSE, "error: 'labels' must be an object"),
    "labels-zero": (EXIT_PARSE, "error: 'labels' must be an object"),
    "labels-empty-string": (EXIT_PARSE, "error: 'labels' must be an object"),
    "labels-false": (EXIT_PARSE, "error: 'labels' must be an object"),
    "labels-null": (EXIT_PARSE, "error: 'labels' must be an object"),
    "agent-labels-not-list": (EXIT_PARSE, "error: labels.agents must be a list of strings"),
    "item-labels-null": (EXIT_PARSE, "error: labels.items must be a list of strings"),
    "agent-labels-not-strings": (EXIT_PARSE, "error: labels.agents must be a list of strings"),
    "n-overflow": (EXIT_PARSE, "error: instance document missing or malformed field: "
                               "cannot convert float infinity to integer"),
    "n-float": (EXIT_PARSE, "error: 'n' must be a JSON integer, got 2.7"),
    "n-bool": (EXIT_PARSE, "error: 'n' must be a JSON integer, got true"),
    "instance-not-utf8": (EXIT_PARSE, "error: {dir}/not-utf8.json: invalid JSON: 'utf-8' "
                                      "codec can't decode byte 0xff in position 0"),
    "n-5001-digits": (EXIT_PARSE, "error: {dir}/n-5001-digits.json: invalid JSON: "
                                  "Exceeds the limit (4300 digits)"),
    "nested-too-deep": (EXIT_PARSE, "error: {dir}/deep.json: invalid JSON: maximum "
                                    "recursion depth exceeded"),
    "report-not-list": (EXIT_PARSE, "error: proportional report must be a list of "
                                    "rational strings"),
    "order-not-list": (EXIT_PARSE, "error: lexicographic order must contain 1-based "
                                   "item indices"),
    "report-null-entry": (EXIT_PARSE, "error: proportional report must be a list of "
                                      "rational strings"),
    "order-bool-entry": (EXIT_PARSE, "error: lexicographic order must contain 1-based "
                                     "item indices"),
    "report-bool-entries": (EXIT_PARSE, "error: proportional report must be a list of "
                                        "rational strings"),
    "report-missing": (EXIT_PARSE, "error: proportional strategy has no 'report' field"),
    "order-missing": (EXIT_PARSE, "error: lexicographic strategy has no 'order' field"),
    "out-missing-dir": (EXIT_PARSE, "error: [Errno 2] No such file or directory: "),
    "out-onto-dir": (EXIT_PARSE, "error: [Errno 21] Is a directory: "),
    "profile-out-missing-dir": (EXIT_PARSE, "error: [Errno 2] No such file or directory: "),
    "profile-out-onto-dir": (EXIT_PARSE, "error: [Errno 21] Is a directory: "),
    "sqrt-n-lb-negative-n": (EXIT_INVALID, "generator error: needs n >= 4"),
    "stability-lb-negative-n": (EXIT_INVALID, "generator error: needs n >= 4"),
    "ps-beats-cps-negative-n": (EXIT_INVALID, "generator error: needs n >= 4"),
    "cps-beats-ps-negative-n": (EXIT_INVALID, "generator error: needs n >= 4"),
    "instance-huge-exponent": (EXIT_PARSE, "error: rational '1e999999' needs more than "
                                           "4300 digits"),
    "report-huge-exponent": (EXIT_PARSE, "error: rational '1e-99999999' needs more than "
                                         "4300 digits"),
    # a negative rational after its option is that option's value, as with
    # --eps=-1/2, not an unknown option
    "eps-negative": (EXIT_INVALID, "generator error: eps = -1/2 must lie in (0, 1/3)"),
    "epsilon-negative": (EXIT_INVALID, "error: epsilon must be nonnegative, got -1/10"),
    "eps-huge-exponent": (EXIT_PARSE, "error: rational '1e-999999999' needs more than "
                                      "4300 digits"),
    "epsilon-huge-exponent": (EXIT_PARSE, "error: rational '1e-99999999999' needs more "
                                          "than 4300 digits"),
    "instance-extra-key": (EXIT_PARSE, "error: instance document has an unknown key "
                                       "'valuation'"),
    "labels-misspelt": (EXIT_PARSE, "error: 'labels' has an unknown key 'agent'"),
    "order-misspelt": (EXIT_PARSE, "error: lexicographic strategy has an unknown key 'ordr'"),
    "order-with-report": (EXIT_PARSE, "error: lexicographic strategy has an unknown key "
                                      "'report'"),
    "report-with-order": (EXIT_PARSE, "error: proportional strategy has an unknown key "
                                      "'order'"),
    **{f"{command}-unreadable-instance-first": (
        EXIT_PARSE, "error: [Errno 2] No such file or directory: '{dir}/missing.json'")
       for command in _PROFILED},
    **{f"{command}-bad-profile-before-policy": (
        EXIT_INVALID, "error: lexicographic order contains duplicates")
       for command in _WITH_POLICY},
    "generate-unreadable-instance-first": (
        EXIT_PARSE, "error: [Errno 2] No such file or directory: '{dir}/missing.json'"),
}


@pytest.mark.parametrize("key", REJECTED)
def test_rejected_input_prints_only_its_error(key, tmp_path, capsys):
    code, line = REJECTED[key]
    line = line.replace("{dir}", str(tmp_path))
    argv = _in_dir(MALFORMED[key], tmp_path)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out.startswith(line) and captured.out.count("\n") == 1
    assert captured.err == ""


_ON_INSTANCE = ["simulate", "--instance", "{dir}/instance.json", "--profile", "{dir}/p.json"]

# Documented exits of inputs that no other test feeds in: (the file p.json
# written next to instance.json, argv, exit code, what the run prints first).
# Exits 1 and 2 print to stdout, a usage error (64) to stderr.
DOCUMENTED_EXITS = {
    "instance-is-a-list": ([_INSTANCE], ["simulate", "--instance", "{dir}/p.json"],
                           EXIT_PARSE, "error: instance document must be a JSON object\n"),
    "row-not-a-list": (dict(_INSTANCE, valuations=["1/2", ["1", "0"]]),
                       ["simulate", "--instance", "{dir}/p.json"],
                       EXIT_PARSE, "error: agent 1: valuation row must be a list\n"),
    "float-value": (dict(_INSTANCE, valuations=[[0.5, "1/2"], ["1", "0"]]),
                    ["simulate", "--instance", "{dir}/p.json"],
                    EXIT_PARSE, "error: expected a rational string, got float\n"),
    "malformed-exponent": (dict(_INSTANCE, valuations=[["1e+x", "1/2"], ["1", "0"]]),
                           ["simulate", "--instance", "{dir}/p.json"],
                           EXIT_PARSE, "error: malformed rational '1e+x'\n"),
    "labels-a-list": (dict(_INSTANCE, labels=["a", "b"]),
                      ["simulate", "--instance", "{dir}/p.json"],
                      EXIT_PARSE, "error: 'labels' must be an object\n"),
    "strategy-without-kind": ([{"order": [1]}, {"kind": "lexicographic", "order": [2]}],
                              _ON_INSTANCE, EXIT_PARSE,
                              "error: strategy must be an object with a 'kind' field\n"),
    "kind-greedy": ([{"kind": "greedy"}, {"kind": "lexicographic", "order": [2]}],
                    _ON_INSTANCE, EXIT_PARSE, "error: unknown strategy kind 'greedy'\n"),
    "report-wrong-length": ([{"kind": "proportional", "report": ["1"]},
                             {"kind": "lexicographic", "order": [2]}], _ON_INSTANCE,
                            EXIT_PARSE, "error: proportional report has length 1, expected 2\n"),
    "order-past-m": ([{"kind": "lexicographic", "order": [3]},
                      {"kind": "lexicographic", "order": [2]}], _ON_INSTANCE, EXIT_PARSE,
                     "error: lexicographic order index out of range for m = 2\n"),
    "profile-wrong-length": ([{"kind": "lexicographic", "order": [1]}], _ON_INSTANCE,
                             EXIT_PARSE, "error: profile has 1 strategies, expected 2\n"),
    "no-agents": (dict(_INSTANCE, n=0, valuations=[]), ["simulate", "--instance", "{dir}/p.json"],
                  EXIT_INVALID, "invalid instance:\n  n = 0 must be at least 1\n"),
    "no-instance": (None, ["simulate"], EXIT_USAGE,
                    "usage error: an --instance file or a --generator is required\n"),
    "zero-policy-random": (None, ["simulate", *_EXAMPLE1, "--zero-policy", "random"],
                           EXIT_USAGE, "usage error: unknown zero policy 'random'\n"),
    "generate-from-file": (None, ["generate", "--instance", "{dir}/instance.json"], EXIT_USAGE,
                           "usage error: generate requires --generator\n"),
    "random-too-large": (None, ["poa", "--generator", "random", "--n", "2000", "--m", "1000"],
                         EXIT_INVALID, "generator error: n * m = 2000 * 1000 is over the "
                                       "bound of 1000000\n"),
    "eps-not-rational": (None, ["poa", "--generator", "sqrt-n-lb", "--n", "4", "--eps", "abc"],
                         EXIT_PARSE, "error: malformed rational 'abc'\n"),
    "tightness-k-0": (None, ["poa", "--generator", "tightness", "--x", "3", "--k", "0"],
                      EXIT_INVALID, "generator error: needs k >= 1\n"),
    "counterexample-safety-n-1": (None, ["poa", "--generator", "counterexample-safety",
                                         "--n", "1"],
                                  EXIT_INVALID, "generator error: needs n >= 2\n"),
    # a flag the generator does not take used to be ignored, with exit 0
    "flag-outside-generator": (None, ["poa", "--generator", "sqrt-n-lb", "--n", "4",
                                      "--m", "3"], EXIT_INVALID,
                               "generator error: sqrt-n-lb takes no parameter 'm'; "
                               "its parameters: n, eps\n"),
    "weight-max-for-log-m": (None, ["generate", "--generator", "log-m-lb", "--k", "2", "--q",
                                    "2", "--weight-max", "5"], EXIT_INVALID,
                             "generator error: log-m-lb takes no parameter 'weight_max'; "
                             "its parameters: k, q\n"),
    # an unhashable entry is named, whether or not its row repeats
    "list-value": (dict(_INSTANCE, valuations=[["1/2", ["1"]], ["1/2", ["1"]]]),
                   ["simulate", "--instance", "{dir}/p.json"],
                   EXIT_PARSE, "error: expected a rational string, got list\n"),
    "dict-value": (dict(_INSTANCE, valuations=[["1", "0"], [{}, "1"]]),
                   ["simulate", "--instance", "{dir}/p.json"],
                   EXIT_PARSE, "error: expected a rational string, got dict\n"),
    # several bad inputs at once, where a usage error wins (see MALFORMED)
    "poa-no-bad-profile-before-policy": (None, ["poa", *_EXAMPLE1, "--profile", "bad",
                                                "--zero-policy", "random"], EXIT_USAGE,
                                         "usage error: this instance has no designated bad "
                                         "profile\n"),
    "poa-truthful-default-then-policy": (None, ["poa", *_EXAMPLE1, "--zero-policy", "random"],
                                         EXIT_USAGE,
                                         "usage error: unknown zero policy 'random'\n"),
    "both-inputs-before-reading-either": (None, ["opt", *_EXAMPLE1, "--instance",
                                                 "{dir}/missing.json"], EXIT_USAGE,
                                          "usage error: pass either --instance or "
                                          "--generator, not both\n"),
    "policy-before-agent": (None, ["best-response", *_EXAMPLE1, "--agent", "9",
                                   "--zero-policy", "random", "--families", "nope"],
                            EXIT_USAGE, "usage error: unknown zero policy 'random'\n"),
    "agent-before-families": (None, ["best-response", *_EXAMPLE1, "--agent", "9",
                                     "--families", "nope"], EXIT_USAGE,
                              "usage error: --agent must be in 1..3\n"),
    "families-before-epsilon": (None, ["verify-ne", *_EXAMPLE1, "--families", "nope",
                                       "--epsilon", "abc"], EXIT_USAGE,
                                "usage error: unknown family 'nope'\n"),
    "sample-no-bad-profile-before-policy": (None, ["sample", *_EXAMPLE1, "--zero-policy",
                                                   "fixed:1", "--profile", "bad"], EXIT_USAGE,
                                            "usage error: this instance has no designated "
                                            "bad profile\n"),
    # the CLI reads the budget before verify_ne checks epsilon's sign; this
    # exited 2 while the library read ALLOC_BUDGET itself
    "budget-before-epsilon-sign": (None, ["verify-ne", *_EXAMPLE2, "--epsilon=-1/2"],
                                   EXIT_USAGE, "usage error: ALLOC_BUDGET must be a "
                                               "non-negative integer, got 'abc'\n"),
}

# ALLOC_BUDGET for the DOCUMENTED_EXITS rows that set it
_ROW_BUDGET = {"budget-before-epsilon-sign": "abc"}


@pytest.mark.parametrize("key", DOCUMENTED_EXITS)
def test_documented_exit_without_traceback(key, tmp_path, monkeypatch, capsys):
    doc, argv, code, text = DOCUMENTED_EXITS[key]
    if key in _ROW_BUDGET:
        monkeypatch.setenv("ALLOC_BUDGET", _ROW_BUDGET[key])
    (tmp_path / "instance.json").write_text(json.dumps(_INSTANCE))
    if doc is not None:
        (tmp_path / "p.json").write_text(json.dumps(doc))
    assert main([arg.replace("{dir}", str(tmp_path)) for arg in argv]) == code
    captured = capsys.readouterr()
    if code == EXIT_USAGE:
        assert captured.out == "" and captured.err.startswith(text)
    else:
        assert captured.out == text and captured.err == ""


def test_readme_examples_exit_as_documented(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert len(lines) == 6 and all(line.startswith("eatsim ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        expected = EXIT_REFUTED if argv[0] == "verify-ne" else EXIT_OK
        assert main(argv) == expected, line
    capsys.readouterr()
    assert (tmp_path / "inst.json").is_file() and (tmp_path / "prof.json").is_file()


def fresh_main(argv):
    """(exit code, stdout, stderr) of ``main(argv)`` in a new process."""
    src = str(Path(eatsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from eatsim.cli import main; "
                               "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_repeated_main_calls_match_fresh_processes(capsys):
    """One process reuses its parser: each call still prints what a new process does."""
    poa = ["poa", "--generator", "rp-lb", "--n", "4", "--mechanism", "both"]
    calls = [poa, ["poa", *_EXAMPLE1, "--mechanism", "nope"],
             ["verify-ne", *_EXAMPLE2, "--profile", "truthful"], poa]
    seen = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        seen.append((code, captured.out, captured.err))
        assert seen[-1] == fresh_main(argv)
    assert [code for code, _, _ in seen] == [EXIT_OK, EXIT_USAGE, EXIT_REFUTED, EXIT_OK]
    assert seen[1][2].startswith("usage error: ") and "usage: eatsim" in seen[1][2]
