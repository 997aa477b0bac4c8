import hashlib
import json
from fractions import Fraction

import pytest

from eatsim.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REFUTED,
    EXIT_USAGE,
    ExperimentConfig,
    POA_CSV_COLUMNS,
    config_from_argv,
    execute,
    main,
)
from eatsim.model import instance_from_json, profile_from_json

F = Fraction


def run_cli(argv):
    return execute(config_from_argv(argv))


class TestUsage:
    def test_empty_args_exit_64(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

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
        config = config_from_argv(argv)
        reloaded = ExperimentConfig.from_json(json.loads(json.dumps(config.to_json())))
        first = execute(config)
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
    "not-utf8.json": b'\xff{"n": 2, "m": 2, "valuations": [["1/2", "1/2"], ["1", "0"]]}',
    # more digits than int() converts by default (4,300)
    "n-5001-digits.json": '{"n": 1' + "0" * 5000 + ', "m": 2, "valuations": []}',
    "deep.json": '{"n": 2, "m": 2, "valuations": ' + "[" * 100_000 + "]" * 100_000 + "}",
}
_EXAMPLE1 = ["--generator", "example1"]
_EXAMPLE2 = ["--generator", "example2"]
_RP_LB = ["--generator", "rp-lb", "--n", "3"]
_ON_FILE = ["simulate", "--instance", "{dir}/instance.json", "--profile"]

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
}


def _in_dir(argv, tmp_path):
    """argv with {dir} set to tmp_path, which then holds every input file."""
    for name, doc in _INPUT_FILES.items():
        if isinstance(doc, bytes):
            (tmp_path / name).write_bytes(doc)
        else:
            (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return [arg.replace("{dir}", str(tmp_path)) for arg in argv]


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_gets_a_documented_exit_code(argv, tmp_path, capsys):
    argv = _in_dir(argv, tmp_path)
    assert main(argv) in {EXIT_OK, EXIT_PARSE, EXIT_INVALID, EXIT_REFUTED,
                          EXIT_BUDGET, EXIT_USAGE}


# Inputs that used to end in a traceback or be read as something else: each
# exits with its code and prints its one error line, and nothing else.
REJECTED = {
    "labels-not-object": (EXIT_PARSE, "error: 'labels' must be an object"),
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
    "out-missing-dir": (EXIT_PARSE, "error: [Errno 2] No such file or directory: "),
    "out-onto-dir": (EXIT_PARSE, "error: [Errno 21] Is a directory: "),
    "profile-out-missing-dir": (EXIT_PARSE, "error: [Errno 2] No such file or directory: "),
    "profile-out-onto-dir": (EXIT_PARSE, "error: [Errno 21] Is a directory: "),
    "sqrt-n-lb-negative-n": (EXIT_INVALID, "generator error: needs n >= 4"),
    "stability-lb-negative-n": (EXIT_INVALID, "generator error: needs n >= 4"),
    "ps-beats-cps-negative-n": (EXIT_INVALID, "generator error: needs n >= 4"),
    "cps-beats-ps-negative-n": (EXIT_INVALID, "generator error: needs n >= 4"),
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
