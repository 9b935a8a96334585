import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import uccert.cli
import uccert.hypotheses
from uccert.carleman import CarlemanReport
from uccert.cli import _smoothing_ladder, build_parser, main, parse_config_file, parse_metric, resolve_args
from uccert.errors import ContractViolation
from uccert.grids import make_grid, unit_box


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as f:
        return json.load(f)


class TestConfigParsing:
    def test_sections_and_comments(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("# header comment\n[geometry]\ndim = 2  # trailing\nmetric = diag(-1, 1)\n"
                     "\n[run]\ncommand = check\n")
        sections = parse_config_file(str(p))
        assert sections["geometry"]["dim"] == "2"
        assert sections["run"]["command"] == "check"

    @pytest.mark.parametrize("command, text", [
        ("check", b"[geometry]\n# a comment \xff\ndim = 3\n"),
        ("run", b"[run]\ncommand = check\n# a comment \xff\nmodel = ik2\n")], ids=["check", "run"])
    def test_config_not_utf8_is_usage_error(self, tmp_path, capsys, command, text):
        conf = tmp_path / "bad.conf"
        conf.write_bytes(text)
        out = tmp_path / "o"
        assert main([command, "--config", str(conf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"uccert: error: {conf}: not UTF-8 text (invalid start byte)\n"
        assert not out.exists()
        with pytest.raises(ContractViolation, match="not UTF-8 text"):
            parse_config_file(str(conf))

    def test_key_outside_section_rejected(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("dim = 2\n")
        with pytest.raises(ContractViolation):
            parse_config_file(str(p))

    def test_metric_forms(self):
        q = parse_metric("diag(-1, 1, 1)", 3)
        assert q([0, 0, 0])[0, 0] == -1.0
        q2 = parse_metric("wave(2)", 3)
        assert np.allclose(q2([0, 0, 0]), np.diag([-1.0, 1.0, 1.0]))
        q3 = parse_metric("[[-1.0, 0.0], [0.0, 1.0]]", 2)
        assert q3([0, 0])[1, 1] == 1.0
        q4 = parse_metric("bumpy_wave(2, 0.05)", 3)
        assert q4.name == "bumpy_wave2(amp=0.05)"
        with pytest.raises(ContractViolation):
            parse_metric("diag(1)", 3)
        with pytest.raises(ContractViolation):
            parse_metric("hyperbolic(3)", 3)


class TestExitCodes:
    def test_check_model_pass(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["check", "--model", "ik2", "--out", out]) == 0
        rep = read_report(out)
        assert rep["passed"] and rep["schema"] == "ucp-report/1"

    def test_check_control_fails_with_named_culprit(self, tmp_path):
        for name, failure in (("ctrl-a", "characteristic_minus"),
                              ("ctrl-b", "transversality"),
                              ("ctrl-c", "sign_condition")):
            out = str(tmp_path / name)
            assert main(["check", "--model", name, "--out", out]) == 1
            rep = read_report(out)
            assert rep["hypotheses"]["failed"] == [failure]

    def test_unknown_model_is_usage_error(self, tmp_path):
        assert main(["check", "--model", "ik1x", "--out", str(tmp_path / "x")]) == 2

    def test_missing_geometry_is_usage_error(self, tmp_path):
        assert main(["certify", "--out", str(tmp_path / "x")]) == 2

    def test_bad_flag_is_usage_error(self, capsys):
        # one line each, where argparse would print its usage block
        for argv in (["check", "--frobnicate"], ["check", "--model"], ["check", "stray"],
                     ["certify", "--model", "ik2", "--samples", "many"], ["frobnicate"], []):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("uccert: error: ") and err.count("\n") == 1, argv


class TestCertifyCommand:
    def test_constants_and_csv(self, tmp_path):
        out = str(tmp_path / "c")
        assert main(["certify", "--model", "ik2", "--lambda", "2", "--out", out]) == 0
        rep = read_report(out)["certificate"]
        assert rep["m0"] == pytest.approx(np.sqrt(2.0), abs=1e-6)
        assert rep["lambda0"] == pytest.approx(1.0, abs=1e-3)
        assert rep["worst_margin"] == pytest.approx(-6.0, abs=1e-3)
        with open(os.path.join(out, "constraint_samples.csv")) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == rep["n_samples"]
        for row in rows:
            assert abs(float(row["margin"]) + 6.0) < 1e-3

    def test_failed_certification_exit_one(self, tmp_path):
        out = str(tmp_path / "f")
        assert main(["certify", "--model", "ik2", "--lambda", "0.5", "--out", out]) == 1

    @pytest.mark.parametrize("lam", ["1e307", "1e308"])
    def test_overflow_is_degenerate_with_finite_numbers(self, tmp_path, lam):
        out = str(tmp_path / "o")
        assert main(["certify", "--model", "ik2", "--lambda", lam, "--out", out]) == 1

        def refuse(name):
            raise ValueError(f"report.json holds {name}")
        with open(os.path.join(out, "report.json")) as f:
            cert = json.load(f, parse_constant=refuse)["certificate"]
        assert cert["status"] == "degenerate" and cert["notes"]["gate"] == ["arithmetic"]
        assert cert["notes"]["arithmetic"]["lambda_used"] == float(lam)

    def test_samples_bound(self, tmp_path, capsys, monkeypatch):
        assert main(["certify", "--model", "ik2", "--samples", str(uccert.cli.MAX_CONSTRAINT_SAMPLES),
                     "--out", str(tmp_path / "ok")]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("certify did work before its sample bound")
        monkeypatch.setattr(uccert.cli, "resolve_model", refuse)
        for command in ("certify", "all"):
            out = str(tmp_path / command)
            argv = [command, "--model", "ik2", "--samples", "1048577", "--out", out]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "--samples 1048577 is above the bound of 1048576" in err
            assert err.count("\n") == 1 and not os.path.exists(out)

    def test_inline_geometry_reproduces_model(self, tmp_path):
        conf = tmp_path / "geo.conf"
        conf.write_text(
            "[geometry]\n"
            "dim = 3\n"
            "metric = diag(-1, 1, 1)\n"
            "phi_plus = norm(x2, x3) - 1 - x1\n"
            "phi_minus = norm(x2, x3) - 1 + x1\n"
            "box = -0.4:0.4, 0.6:1.4, -0.4:0.4\n"
            "x0 = 0, 1, 0\n")
        out = str(tmp_path / "g")
        assert main(["certify", "--config", str(conf), "--lambda", "2", "--out", out]) == 0
        rep = read_report(out)["certificate"]
        assert rep["m0"] == pytest.approx(np.sqrt(2.0), abs=1e-6)


class TestRunCommand:
    def test_command_from_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "[geometry]\n"
            "dim = 3\n"
            "metric = wave(2)\n"
            "phi_plus = norm(x2, x3) - 1 - x1\n"
            "phi_minus = norm(x2, x3) - 1 + x1\n"
            "box = -0.4:0.4, 0.6:1.4, -0.4:0.4\n"
            "x0 = 0, 1, 0\n"
            "\n[run]\n"
            "command = certify\n"
            "lambda = 2\n"
            "seed = 9\n")
        out = str(tmp_path / "o")
        assert main(["run", "--config", str(conf), "--out", out]) == 0
        rep = read_report(out)
        assert rep["command"] == "certify"
        assert rep["seed"] == 9
        assert rep["certificate"]["lambda_used"] == 2.0

    def test_cli_flag_overrides_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("[run]\ncommand = certify\nmodel = ik2\nlambda = 2\n")
        out = str(tmp_path / "o")
        assert main(["run", "--config", str(conf), "--lambda", "1.5", "--out", out]) == 0
        assert read_report(out)["certificate"]["lambda_used"] == 1.5

    def test_run_without_section_rejected(self, tmp_path):
        conf = tmp_path / "r.conf"
        conf.write_text("[geometry]\ndim = 2\n")
        assert main(["run", "--config", str(conf), "--out", str(tmp_path / "o")]) == 2

    def test_nonpositive_tolerance_rejected(self, tmp_path):
        assert main(["check", "--model", "ik2", "--tol-pos", "0",
                     "--out", str(tmp_path / "o")]) == 2


class TestDeterminism:
    OUTPUTS = {"certify": ("report.json", "constraint_samples.csv"),
               "rays": ("report.json", "rays.csv")}

    @pytest.mark.parametrize("model", ["ik2", "ik4"])
    @pytest.mark.parametrize("command", ["certify", "rays"])
    def test_outputs_byte_identical(self, tmp_path, model, command):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert main([command, "--model", model, "--lambda", "2",
                         "--seed", "5", "--out", out]) == 0
        for name in self.OUTPUTS[command]:
            with open(os.path.join(a, name), "rb") as f1, open(os.path.join(b, name), "rb") as f2:
                assert f1.read() == f2.read(), name


class TestSharedParser:
    """main builds its parser once per process; each call parses afresh."""

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_flag_does_not_leak_into_the_next_call(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["certify", "--model", "ik3", "--lambda", "2", "--samples", "7",
                     "--out", out]) == 0
        assert read_report(out)["certificate"]["n_samples"] == 7
        assert main(["certify", "--model", "ik3", "--lambda", "2", "--out", out]) == 0
        cert = read_report(out)["certificate"]
        assert cert["notes"]["n_seeds"] == 2000
        assert cert["n_samples"] == 2000

    def test_parse_error_then_valid_call(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["certify", "--model", "ik2", "--samples", "many"]) == 2
        assert main(["certify", "--model", "ik2", "--lambda", "2", "--out", out]) == 0
        assert read_report(out)["seed"] == 0

    def test_run_merge_after_a_plain_call(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("[run]\ncommand = certify\nmodel = ik2\nlambda = 2\nseed = 9\n")
        out = str(tmp_path / "o")
        assert main(["certify", "--model", "ik2", "--lambda", "2", "--seed", "4", "--out", out]) == 0
        assert read_report(out)["seed"] == 4
        assert main(["run", "--config", str(conf), "--out", out]) == 0
        assert read_report(out)["seed"] == 9
        assert main(["run", "--config", str(conf), "--seed", "0", "--out", out]) == 0
        assert read_report(out)["seed"] == 0


class TestCornerRunsInOneProcess:
    def test_a_run_reads_nothing_an_earlier_run_built(self, tmp_path):
        # the benchmark calls main repeatedly in one process
        first = ["corner", "--grid", "128", "--seed", "0"]
        outs = [str(tmp_path / name) for name in "abc"]
        codes = [main(first + ["--out", outs[0]]),
                 main(["corner", "--dim", "3", "--grid", "48", "--seed", "5", "--out", outs[1]]),
                 main(first + ["--out", outs[2]])]
        assert codes[0] == codes[2] and set(codes) <= {0, 1}
        for name in ("report.json", "corner_residuals.csv"):
            with open(os.path.join(outs[0], name), "rb") as f1, \
                    open(os.path.join(outs[2], name), "rb") as f2:
                assert f1.read() == f2.read(), name


class TestAllPipeline:
    def test_full_pipeline_ik2(self, tmp_path):
        import time
        out = str(tmp_path / "all")
        t0 = time.monotonic()
        rc = main(["all", "--model", "ik2", "--lambda", "2", "--grid", "128",
                   "--corpus", "16", "--out", out])
        elapsed = time.monotonic() - t0
        assert rc == 0
        rep = read_report(out)
        assert rep["passed"]
        assert set(rep["stage_exit_codes"]) == {"check", "certify", "rays",
                                                "corner", "carleman"}
        assert all(v == 0 for v in rep["stage_exit_codes"].values())
        assert elapsed < 180.0
        for stage in rep["stage_exit_codes"]:
            assert os.path.exists(os.path.join(out, stage, "report.json"))

    def test_geometry_missing_surface_is_usage_error(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text(
            "[geometry]\n"
            "dim = 3\n"
            "metric = wave(2)\n"
            "phi_plus = norm(x2, x3) - 1 - x1\n"
            "phi_minus = norm(x2, x3) - 1 + x1\n"
            "box = 5:6, 5:6, 5:6\n"
            "x0 = 0, 1, 0\n")
        assert main(["check", "--config", str(conf),
                     "--out", str(tmp_path / "o")]) == 2


BUMPY = ("[geometry]\ndim = 3\nmetric = bumpy_wave(2, 0.05)\n"
         "phi_plus = norm(x2, x3) - 1 - x1\nphi_minus = norm(x2, x3) - 1 + x1\n"
         "box = -0.4:0.4, 0.6:1.4, -0.4:0.4\nx0 = 0, 1, 0\n")

STAGES = ["check", "certify", "rays", "corner", "carleman"]


class TestCommandTable:
    """Each command is a (plan, run) pair in one table; the parser, the [run]
    section and `all` read it, and one writer turns a run into files and an
    exit code."""

    # the flags of an `all` run that each stage reads when run alone
    FLAGS = {"check": ["--lambda", "2"], "certify": ["--lambda", "2"], "rays": ["--lambda", "2"],
             "corner": ["--grid", "64"], "carleman": ["--lambda", "2", "--grid", "64", "--corpus", "8"]}

    @pytest.mark.parametrize("source", ["model", "config"])
    def test_all_stages_equal_the_standalone_commands(self, tmp_path, source):
        conf = tmp_path / "bumpy.conf"
        conf.write_text(BUMPY)
        geometry = ["--model", "ik2"] if source == "model" else ["--config", str(conf)]
        out = tmp_path / "all"
        argv = ["all", *geometry, "--lambda", "2", "--grid", "64", "--corpus", "8", "--seed", "3"]
        assert main(argv + ["--out", str(out)]) in (0, 1)
        codes = read_report(out)["stage_exit_codes"]
        assert list(codes) == sorted(STAGES)
        for stage in STAGES:
            alone = tmp_path / stage
            argv = [stage, *(geometry if stage in ("check", "certify", "rays") else []), *self.FLAGS[stage]]
            assert main(argv + ["--seed", "3", "--out", str(alone)]) == codes[stage]
            names = sorted(os.listdir(alone))
            assert sorted(os.listdir(out / stage)) == names and "report.json" in names
            for name in names:
                assert (out / stage / name).read_bytes() == (alone / name).read_bytes(), (stage, name)

    def test_all_plans_every_stage_once_before_the_first_runs(self, tmp_path, monkeypatch):
        calls = []

        def counted(name, plan, run):
            def counted_plan(args):
                calls.append(("plan", name))
                return plan(args)

            def counted_run(args, planned):
                calls.append(("run", name))
                return run(args, planned)
            return counted_plan, counted_run
        for name, (plan, run, flags) in list(uccert.cli.COMMANDS.items()):
            monkeypatch.setitem(uccert.cli.COMMANDS, name, (*counted(name, plan, run), flags))
        assert main(["all", "--model", "ik2", "--grid", "64", "--corpus", "8",
                     "--out", str(tmp_path / "o")]) == 0
        # certify's plan first: its bound stops a run before the model is read
        planned = ["certify", "check", "rays", "corner", "carleman"]
        assert calls == ([("plan", "all")] + [("plan", name) for name in planned]
                         + [("run", "all")] + [("run", name) for name in STAGES])

    @pytest.mark.parametrize("argv, code", [
        (["check", "--model", "ik2"], 0),
        (["check", "--model", "ctrl-a"], 1),
        (["certify", "--model", "ik2", "--lambda", "2"], 0),
        (["certify", "--model", "ik2", "--lambda", "0.5"], 1),
        (["rays", "--model", "ik2", "--lambda", "2"], 0),
        (["rays", "--model", "ik2", "--lambda", "0.5"], 1),
        (["corner", "--grid", "64", "--tests", "3"], 0),
        (["corner", "--grid", "64", "--tests", "3"], 1),
        (["carleman", "--grid", "32"], 0),
        (["carleman", "--grid", "32", "--lambda", "0.5"], 1),
        (["all", "--model", "ik2", "--grid", "64", "--corpus", "8"], 0),
        (["all", "--model", "ik2", "--grid", "64", "--corpus", "8", "--lambda", "0.5"], 1)])
    def test_exit_code_is_zero_exactly_when_the_report_passed(self, tmp_path, monkeypatch, argv, code):
        if argv[0] == "corner" and code:
            # identity residuals held to zero fail every corpus field
            monkeypatch.setattr(uccert.cli, "WEAK_K", dict.fromkeys(uccert.cli.WEAK_K, 0.0))
        out = str(tmp_path / "o")
        assert main(argv + ["--out", out]) == code
        assert read_report(out)["passed"] is (code == 0)

    def test_parser_offers_the_table_and_run(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == [*uccert.cli.COMMANDS, "run"]

    @pytest.mark.parametrize("via", ["flag", "run"])
    def test_all_gives_samples_to_the_certificate_alone(self, tmp_path, via):
        # --samples 100000 is within the constraint-sample bound; check samples
        # at the geometry's own 200, as a check run alone at --samples 200
        conf = tmp_path / "run.conf"
        conf.write_text("[run]\ncommand = all\nmodel = ik2\nsamples = 100000\ngrid = 64\n")
        out, alone = tmp_path / "all", tmp_path / "check"
        argv = (["all", "--model", "ik2", "--samples", "100000", "--grid", "64"] if via == "flag"
                else ["run", "--config", str(conf)])
        assert main(argv + ["--corpus", "8", "--out", str(out)]) == 0
        assert main(["check", "--model", "ik2", "--samples", "200", "--out", str(alone)]) == 0
        assert (out / "check" / "report.json").read_bytes() == (alone / "report.json").read_bytes()
        assert read_report(out / "certify")["certificate"]["notes"]["n_seeds"] == 100000


# each command's flags, written out here rather than read from the command table
GEOMETRY_FLAGS = {"model", "config", "out", "seed", "lambda", "tol-zero", "tol-pos"}
COMMAND_FLAGS = {"check": GEOMETRY_FLAGS | {"samples", "tol-char"}, "certify": GEOMETRY_FLAGS | {"samples"},
                 "rays": GEOMETRY_FLAGS | {"ds", "s-fit", "max-rays"},
                 "corner": {"out", "seed", "grid", "dim", "tests"},
                 "carleman": {"out", "seed", "grid", "lambda", "mu", "corpus", "lambda-max"}}
# a value that each flag accepts, so that a refusal is the flag's alone
FLAG_VALUES = {"model": "ik2", "config": "geo.conf", "out": "o", "seed": "1", "samples": "10", "lambda": "2",
               "mu": "1", "grid": "64", "tol-zero": "1e-10", "tol-char": "1e-8", "tol-pos": "1e-6",
               "ds": "0.001", "s-fit": "0.05", "max-rays": "2", "dim": "2", "tests": "3", "corpus": "8",
               "lambda-max": "64"}


class TestFlagSets:
    """Each command takes the flags it reads, and any other flag or [run] key
    exits 2 with one line that names the flag and the command."""

    def test_eighteen_flags_each_read_by_a_command(self):
        assert len(FLAG_VALUES) == 18 and set().union(*COMMAND_FLAGS.values()) == set(FLAG_VALUES)

    @pytest.mark.parametrize("command", [*COMMAND_FLAGS, "all", "run"])
    def test_help_lists_exactly_the_flags_the_command_reads(self, capsys, command):
        assert main([command, "--help"]) == 0
        listed = re.findall(r"^  --([a-z-]+)", capsys.readouterr().out, re.M)
        assert sorted(listed) == sorted(COMMAND_FLAGS.get(command, FLAG_VALUES))

    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_each_flag_the_command_reads_is_taken(self, tmp_path, command):
        # as an option or a [run] key, into a namespace of the command's flags alone
        conf = tmp_path / "run.conf"
        for flag in sorted(COMMAND_FLAGS[command]):
            conf.write_text(f"[run]\ncommand = {command}\n{flag.replace('-', '_')} = {FLAG_VALUES[flag]}\n")
            for argv in ([command, f"--{flag}", FLAG_VALUES[flag]], ["run", "--config", str(conf)]):
                if flag != "config" or argv[0] != "run":
                    assert len(vars(resolve_args(argv))) == 1 + len(COMMAND_FLAGS[command]), argv

    @pytest.mark.parametrize("via", ["command", "run-flag", "run-key"])
    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_a_flag_the_command_does_not_read_exits_2(self, tmp_path, capsys, command, via):
        conf, out = tmp_path / "run.conf", tmp_path / "o"
        unread = set(FLAG_VALUES) - COMMAND_FLAGS[command]
        if via != "command":
            # run's own --config names its [run] section, and config is never a [run] key
            unread -= {"config"}
        for flag in sorted(unread):
            key = f"{flag.replace('-', '_')} = {FLAG_VALUES[flag]}\n" if via == "run-key" else ""
            conf.write_text(f"[run]\ncommand = {command}\n{key}")
            argv = [command] if via == "command" else ["run", "--config", str(conf)]
            if via != "run-key":
                argv += [f"--{flag}", FLAG_VALUES[flag]]
            assert main(argv + ["--out", str(out)]) == 2
            assert capsys.readouterr().err == f"uccert: error: {command} does not read --{flag}\n"
            assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        ("certify --model ik2 --grid 7 --corpus 3 --dim 3", "certify does not read --grid"),
        ("carleman --model ik3 --grid 64", "carleman does not read --model"),
        ("corner --model ik4 --lambda 9 --grid 64", "corner does not read --model"),
        ("rays --model ik2 --mu 5 --tests 9", "rays does not read --mu"),
        ("rays --model ik4 --samples 5", "rays does not read --samples")])
    def test_invocations_that_once_dropped_flags_exit_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert main(argv.split() + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"uccert: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("via, message", [("flag", "unrecognized arguments: --n-pts 5"),
                                              ("run-key", "unknown key 'n_pts' in [run] section")])
    def test_removed_transfer_points_flag_exits_2(self, tmp_path, capsys, via, message):
        # the inequality transfer reads every node of the open quadrant, so
        # no flag sizes it
        conf, out = tmp_path / "run.conf", tmp_path / "o"
        conf.write_text("[run]\ncommand = corner\nn_pts = 5\n")
        argv = ["corner", "--n-pts", "5"] if via == "flag" else ["run", "--config", str(conf)]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"uccert: error: {message}\n"
        assert not out.exists()

    def test_readme_flag_table_matches_the_parser(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as f:
            rows = re.findall(r"^\| `--([a-z-]+)` \| (.+) \| (.+) \|$", f.read(), re.M)
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {command: {a.option_strings[-1][2:]: a.help for a in parser._actions[1:]}
                   for command, parser in sub.choices.items()}
        assert [flag for flag, _, _ in rows] == list(options["run"]) == list(options["all"])
        for flag, default, read_by in rows:
            in_help = re.search(r"\(default (.*)\)$", options["run"][flag])
            assert default == (in_help.group(1) if in_help else "—"), flag
            assert read_by.split(", ") == [c for c in COMMAND_FLAGS if flag in options[c]], flag


class TestRaysCommand:
    def test_contacts_and_csv(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["rays", "--model", "ik2", "--lambda", "2", "--out", out]) == 0
        rep = read_report(out)
        assert rep["passed"]
        sides = {(c["field"], c["side"]) for c in rep["contacts"]}
        assert sides == {("bent", "below"), ("surface", "above")}
        with open(os.path.join(out, "rays.csv")) as f:
            header = f.readline().strip().split(",")
        assert header == ["ray", "field", "s", "x1", "x2", "x3",
                          "xi1", "xi2", "xi3", "p", "psi"]

    @pytest.mark.parametrize("argv, steps", [(["--ds", "1e-9"], "50000002"),
                                             (["--ds", "1e-300", "--s-fit", "1e300"], "inf")])
    def test_step_bound_stops_before_any_work(self, tmp_path, capsys, argv, steps):
        out = str(tmp_path / "r")
        t0 = time.perf_counter()
        assert main(["rays", "--model", "ik2", "--out", out] + argv) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "--ds" in err and "--s-fit" in err and f"takes {steps} RK4 steps" in err
        assert not os.path.exists(out)

    def test_step_bound_admits_its_own_count(self, tmp_path, monkeypatch):
        # the default --s-fit 0.05 at --ds 1e-3 takes 52 steps per side
        monkeypatch.setattr(uccert.cli, "MAX_RAY_STEPS", 52)
        assert main(["rays", "--model", "ik2", "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(uccert.cli, "MAX_RAY_STEPS", 51)
        assert main(["rays", "--model", "ik2", "--out", str(tmp_path / "b")]) == 2

    def test_row_bound_stops_before_any_work(self, tmp_path, capsys):
        # 1000 rays of 2 x 19002 + 1 points would march a (19003, 2000, 6) state array
        out = str(tmp_path / "r")
        argv = ["--max-rays", "1000", "--ds", "1e-5", "--s-fit", "0.19"]
        t0 = time.perf_counter()
        assert main(["rays", "--model", "ik3", "--out", out] + argv) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err == ("uccert: error: --max-rays 1000 at --ds 1e-05 and --s-fit 0.19 takes 38005000 "
                       "rows of rays.csv, above the bound of 524288\n")
        assert not os.path.exists(out)

    def test_row_bound_admits_its_own_count(self, tmp_path, monkeypatch):
        # the defaults take 8 rays of 105 points
        monkeypatch.setattr(uccert.cli, "MAX_RAY_ROWS", 840)
        assert main(["rays", "--model", "ik3", "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(uccert.cli, "MAX_RAY_ROWS", 839)
        assert main(["rays", "--model", "ik3", "--out", str(tmp_path / "b")]) == 2
        assert not (tmp_path / "b").exists()

    def test_max_rays_seeds_the_certificate(self, tmp_path):
        # ik4's first 8 of 1000 seeds sit in one cap; 8 seeds spread over the sphere
        out = str(tmp_path / "r")
        assert main(["rays", "--model", "ik4", "--lambda", "2", "--out", out]) == 0
        rep = read_report(out)
        assert rep["passed"] and rep["n_rays"] == 8
        with open(os.path.join(out, "rays.csv")) as f:
            rows = [line.split(",") for line in f.read().splitlines()[1:]]
        launch = np.array([[float(v) for v in row[8:13]] for row in rows if float(row[2]) == 0.0])
        assert launch.shape == (8, 5) and np.ptp(launch[:, 4]) > 1.0

    @pytest.mark.parametrize("argv, points", [(["--s-fit", "0.001", "--ds", "0.001"], 3),
                                              (["--s-fit", "0.0019", "--ds", "0.001"], 3),
                                              (["--ds", "1"], 1)])
    def test_fit_window_bound_stops_before_any_work(self, tmp_path, capsys, argv, points):
        out = str(tmp_path / "r")
        assert main(["rays", "--model", "ik2", "--out", out] + argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"leaves {points} ray points in the fit window, below the 5" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("s_fit", ["0.002", "0.0039"])
    def test_fit_window_of_five_points_or_more_runs(self, tmp_path, s_fit):
        # at --ds 0.001, |s| <= 0.002 holds five ray points and |s| <= 0.0039 seven
        out = str(tmp_path / "r")
        assert main(["rays", "--model", "ik2", "--s-fit", s_fit, "--ds", "0.001", "--out", out]) == 0
        assert read_report(out)["passed"]

    def test_tol_zero_sets_the_launch_check(self, tmp_path):
        # x0 sits 1e-7 off both cones: inside --tol-zero 1e-6, outside the default
        cfg = tmp_path / "off.conf"
        cfg.write_text("[geometry]\ndim = 3\nmetric = wave(2)\n"
                       "phi_plus = norm(x2, x3) - 1 - x1\nphi_minus = norm(x2, x3) - 1 + x1\n"
                       "box = -0.4:0.4, 0.6:1.4, -0.4:0.4\nx0 = 0, 1.0000001, 0\n")
        argv = ["--config", str(cfg), "--lambda", "2"]
        assert main(["certify", *argv, "--tol-zero", "1e-6", "--out", str(tmp_path / "c")]) == 0
        out = str(tmp_path / "r")
        assert main(["rays", *argv, "--tol-zero", "1e-6", "--out", out]) == 0
        rep = read_report(out)
        assert rep["passed"] and rep["n_rays"] > 0
        assert main(["rays", *argv, "--out", out]) == 1
        assert read_report(out)["certificate"]["notes"]["gate"] == ["on_surfaces"]

    def test_failed_gate_leaves_no_earlier_rays(self, tmp_path):
        # a run that fails its certificate gate replaces the last run's rays
        # with a header-only rays.csv, and its report carries the certificate
        out = str(tmp_path / "r")
        assert main(["rays", "--model", "ik2", "--lambda", "2", "--out", out]) == 0
        path = os.path.join(out, "rays.csv")
        assert os.path.getsize(path) > 10_000
        assert main(["rays", "--model", "ik2", "--lambda", "0.5", "--out", out]) == 1
        rep = read_report(out)
        assert rep["reason"] == "certification status failed" and not rep["passed"]
        cert = rep["certificate"]
        assert cert["status"] == "failed" and "lambda_threshold" in cert["notes"]["gate"]
        assert cert["notes"]["lambda_threshold"] == {"lambda_used": 0.5, "lambda0": cert["lambda0"]}
        with open(path, "rb") as f:
            assert f.read() == b"ray,field,s,x1,x2,x3,xi1,xi2,xi3,p,psi\r\n"

    def test_variable_metric_rays_are_tangent(self, tmp_path):
        # on bumpy_wave the cubic term of psi along a ray is nonzero; the
        # contact fit must not read it as a linear slope (a crossing)
        cfg = tmp_path / "bumpy.conf"
        cfg.write_text("[geometry]\ndim = 3\nmetric = bumpy_wave(2, 0.05)\n"
                       "phi_plus = norm(x2, x3) - 1 - x1\nphi_minus = norm(x2, x3) - 1 + x1\n"
                       "box = -0.4:0.4, 0.6:1.4, -0.4:0.4\nx0 = 0, 1, 0\n"
                       "\n[run]\ncommand = rays\nlambda = 2\nseed = 0\n")
        out = str(tmp_path / "r")
        assert main(["run", "--config", str(cfg), "--out", out]) == 0
        rep = read_report(out)
        assert rep["passed"] and rep["n_rays"] > 0
        for c in rep["contacts"]:
            assert c["tangency"] and abs(c["fitted_c1"]) <= c["tol_tan"]
            assert c["side"] == {"bent": "below", "surface": "above"}[c["field"]]


class TestMalformedInput:
    def _conf(self, tmp_path, metric="diag(-1, 1, 1)", x0="0, 1, 0",
              box="-0.4:0.4, 0.6:1.4, -0.4:0.4", phi_plus="norm(x2, x3) - 1 - x1"):
        conf = tmp_path / "geo.conf"
        conf.write_text(
            "[geometry]\n"
            "dim = 3\n"
            f"metric = {metric}\n"
            f"phi_plus = {phi_plus}\n"
            "phi_minus = norm(x2, x3) - 1 + x1\n"
            f"box = {box}\n"
            f"x0 = {x0}\n")
        return str(conf)

    @pytest.mark.parametrize("command", ["check", "certify"])
    @pytest.mark.parametrize("key, value, message", [
        ("x0", "0, 1", "x0 needs 3 coordinates"),
        ("x0", "0, nan, 0", "x0 must be finite"),
        ("box", "-0.4:0.4, nan:1.4, -0.4:0.4", "box must be finite"),
        ("box", "-0.4:0.4, 0.6:inf, -0.4:0.4", "box must be finite"),
        ("metric", "diag(-1, 1, nan)", "diag() entries must be finite"),
        ("metric", "[[-1, 0, 0], [0, 1, 0], [0, 0, NaN]]", "matrix entries must be finite"),
        ("metric", "bumpy_wave(2, 1e999)", "bumpy_wave amplitude must be finite"),
        ("phi_plus", "norm(x2, x3) - 1 - x1^(2)", "exponent must be a numeric literal"),
        pytest.param("phi_plus", "(" * 300 + "norm(x2, x3)" + ")" * 300, "too many nested parentheses",
                     id="phi_plus-300-nested-parentheses"),
        pytest.param("phi_plus", "norm(x2, x3) - 1 - x1" + " + 0*x1" * 1200, "nested",
                     id="phi_plus-sum-of-1203-terms")])
    def test_malformed_geometry_is_usage_error(self, tmp_path, capsys, command, key, value, message):
        out = str(tmp_path / "o")
        assert main([command, "--config", self._conf(tmp_path, **{key: value}), "--out", out]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1 and "Traceback" not in err
        if key.startswith("phi"):
            assert f"error: {key}: " in err
        assert not os.path.exists(os.path.join(out, "report.json"))

    @staticmethod
    def _nan_constant_gates(tmp_path, capsys, conf):
        """certify and rays report a degenerate jet naming phi_plus, and check
        finds no surface point, each without a traceback."""
        out = str(tmp_path / "c")
        assert main(["certify", "--config", conf, "--lambda", "2", "--out", out]) == 1
        cert = read_report(out)["certificate"]
        assert cert["status"] == "degenerate" and cert["notes"]["gate"] == ["jet"]
        assert cert["notes"]["jet"]["jet"] == "phi_plus"
        out = str(tmp_path / "r")
        assert main(["rays", "--config", conf, "--lambda", "2", "--out", out]) == 1
        assert read_report(out)["reason"] == "certification status degenerate"
        assert capsys.readouterr().err == ""
        assert main(["check", "--config", conf, "--out", str(tmp_path / "k")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("uccert: error: surface sampling failed (plus=0, ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("phi_plus", ["norm(x2, x3) - 1 - x1 + sqrt(-0.1)*0",
                                          "norm(x2, x3) - 1 - x1 + sqrt(-(.1))/x1"])
    def test_fractional_power_of_negative_constant(self, tmp_path, capsys, phi_plus):
        # the constant is nan, never a complex
        self._nan_constant_gates(tmp_path, capsys, self._conf(tmp_path, phi_plus=phi_plus))

    @pytest.mark.parametrize("phi_plus", ["norm(x2, x3) - 1 - x1 + 1/0*0",
                                          "norm(x2, x3) - 1 - x1 + 0^-1*0",
                                          "norm(x2, x3) - 1 - x1 + 1e200^2*0"])
    @pytest.mark.filterwarnings("error")      # numpy's RuntimeWarning would print a second line
    def test_constant_that_divides_by_zero_or_overflows(self, tmp_path, capsys, phi_plus):
        # inf * 0 is nan, as on arrays, never a ZeroDivisionError or OverflowError
        conf = self._conf(tmp_path, metric="bumpy_wave(2, 0.05)", phi_plus=phi_plus)
        self._nan_constant_gates(tmp_path, capsys, conf)

    def test_unknown_geometry_key_is_usage_error(self, tmp_path, capsys):
        conf = self._conf(tmp_path)
        with open(conf, "a", encoding="utf-8") as f:
            f.write("lambda = 2\n")
        assert main(["certify", "--config", conf, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "uccert: error: unknown key 'lambda' in [geometry] section\n"

    def test_unknown_run_key_is_usage_error(self, tmp_path, capsys):
        # dim, tests and grid are corner's keys, but corner reads no model: the
        # run must not drop the key and run the lab.  config is never a key
        conf = tmp_path / "run.conf"
        out = str(tmp_path / "o")
        for key, message in (("model", "corner does not read --model"),
                             ("config", "unknown key 'config' in [run] section"),
                             ("tol-zero", "unknown key 'tol-zero' in [run] section")):
            conf.write_text(f"[run]\ncommand = corner\ndim = 3\ntests = 2\ngrid = 48\n{key} = x\n")
            assert main(["run", "--config", str(conf), "--out", out]) == 2
            assert capsys.readouterr().err == f"uccert: error: {message}\n"
            assert not os.path.exists(out)

    def test_malformed_metric_entry_is_usage_error(self, tmp_path, capsys):
        conf = self._conf(tmp_path, metric="diag(-1, a, 1)")
        assert main(["certify", "--config", conf, "--out", str(tmp_path / "o")]) == 2
        assert "malformed config value" in capsys.readouterr().err
        with pytest.raises(ContractViolation):
            parse_metric("diag(-1, a, 1)", 3)

    def test_malformed_run_value_is_usage_error(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("[run]\ncommand = certify\nmodel = ik2\nlambda = two\n")
        assert main(["run", "--config", str(conf), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("argv", [["certify", "--model", "ik2", "--samples", "0"],
                                      ["certify", "--model", "ik2", "--samples", "-3"],
                                      ["corner", "--grid", "0"], ["carleman", "--grid", "0"]])
    def test_counts_below_one_rejected(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert f"{argv[-2]} must be at least 1" in capsys.readouterr().err

    def test_zero_samples_in_run_section_rejected(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("[run]\ncommand = certify\nmodel = ik2\nsamples = 0\n")
        assert main(["run", "--config", str(conf), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("x0, gate", [("0.2, 1.3, 0", "on_surfaces"), ("0, 0, 0", "jet")])
    def test_bad_base_point_is_degenerate(self, tmp_path, x0, gate):
        out = str(tmp_path / "o")
        assert main(["certify", "--config", self._conf(tmp_path, x0=x0),
                     "--lambda", "2", "--out", out]) == 1
        cert = read_report(out)["certificate"]
        assert cert["status"] == "degenerate"
        assert cert["notes"]["gate"] == [gate]

    @pytest.mark.parametrize("argv, flag, value", [(["certify", "--model", "ik2"], "--lambda", "nan"),
                                                   (["certify", "--model", "ik2"], "--lambda", "inf"),
                                                   (["carleman"], "--mu", "nan"),
                                                   (["carleman"], "--lambda-max", "inf")],
                             ids=["--lambda-nan", "--lambda-inf", "--mu-nan", "--lambda-max-inf"])
    def test_non_finite_float_rejected(self, tmp_path, capsys, argv, flag, value):
        out = str(tmp_path / "o")
        assert main(argv + [flag, value, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be finite" in err and "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "report.json"))

    @pytest.mark.parametrize("command, key, value", [("certify", "lambda", "nan"), ("certify", "lambda", "inf"),
                                                     ("carleman", "mu", "nan"),
                                                     ("carleman", "lambda_max", "inf")],
                             ids=["lambda-nan", "lambda-inf", "mu-nan", "lambda_max-inf"])
    def test_non_finite_float_in_run_section_rejected(self, tmp_path, capsys, command, key, value):
        conf = tmp_path / "run.conf"
        model = "model = ik2\n" if command == "certify" else ""
        conf.write_text(f"[run]\ncommand = {command}\n{model}{key} = {value}\n")
        assert main(["run", "--config", str(conf), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["corner", "--tests", "0"], ["corner", "--grid", "0"],
                                      ["rays", "--model", "ik2", "--max-rays", "0"]])
    def test_vacuous_counts_rejected(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "must be at least 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["--grid", "1"], "--grid 1 is too coarse"),
        (["--corpus", "0"], "--corpus must be at least 1"),
        (["--lambda-max", "1"], "--lambda-max 1 must be at least 4"),
        (["--lambda-max", "0.5"], "--lambda-max 0.5 must be at least 4"),
        (["--lambda-max", "2"], "--lambda-max 2 must be at least 4"),
        (["--lambda-max", "3.9"], "--lambda-max 3.9 must be at least 4"),
        (["--lambda-max", "0"], "--lambda-max must be positive")])
    def test_carleman_without_a_slope_is_usage_error(self, tmp_path, capsys, argv, message):
        out = str(tmp_path / "o")
        assert main(["carleman", "--grid", "16"] + argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1 and "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "report.json"))

    def test_failed_certificate_names_its_gate(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["certify", "--model", "ik2", "--lambda", "1", "--out", out]) == 1
        notes = read_report(out)["certificate"]["notes"]
        assert notes["gate"] == ["lambda_threshold"]
        assert notes["lambda_threshold"]["lambda_used"] == 1.0
        assert notes["lambda_threshold"]["lambda0"] >= 1.0


class TestCornerGridBound:
    """A grid whose smoothing ladder has fewer than two widths, or a lab too
    large to build, is a usage error."""

    # the largest even cell count whose ladder has fewer than two widths, from the ladder rule
    COARSEST = max(c for c in range(2, 256, 2) if len(_smoothing_ladder(make_grid(unit_box(2), c))) < 2)

    @pytest.mark.parametrize("argv", [["--grid", "2"], ["--grid", str(COARSEST)],
                                      ["--grid", "8", "--dim", "3"]])
    def test_coarse_grid_is_usage_error(self, tmp_path, capsys, argv):
        out = str(tmp_path / "o")
        assert main(["corner"] + argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert "too coarse for the mollifier check" in err and err.count("\n") == 1
        assert not os.path.exists(os.path.join(out, "report.json"))

    @pytest.mark.parametrize("command, argv", [("corner", ["--grid", "44"]),
                                               ("corner", ["--dim", "3", "--grid", "44"]),
                                               ("all", ["--model", "ik2", "--grid", "44"])])
    def test_one_width_is_usage_error(self, tmp_path, capsys, monkeypatch, command, argv):
        # with one width there is no pair to compare and the decay bound is 1
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the ladder rule")
        for name in ("check_assumptions", "bump_corpus", "corner_corpus"):
            monkeypatch.setattr(uccert.cli, name, refuse)
        out = str(tmp_path / "o")
        assert main([command] + argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert "--grid 44 is too coarse for the mollifier check" in err and "resolves 1 of the two" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [["--grid", "33"], ["--grid", "3"], ["--grid", "65", "--dim", "3"]])
    def test_odd_grid_is_usage_error(self, tmp_path, capsys, argv):
        out = str(tmp_path / "o")
        assert main(["corner"] + argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert f"--grid {argv[1]} must be even" in err and "node at 0" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "report.json"))

    @pytest.mark.parametrize("argv, what", [
        (["--grid", "20000000"], "nodes"), (["--grid", "1000000000"], "nodes"),
        (["--grid", "8192"], "nodes"), (["--grid", "406", "--dim", "3"], "nodes"),
        (["--tests", "1000000"], "pairing-table entries"),
        (["--tests", "400", "--grid", "8190"], "pairing-table entries"),
        (["--tests", "10923", "--grid", "64"], "residual rows"),
        (["--tests", "5462", "--grid", "24", "--dim", "3"], "residual rows")])
    def test_oversized_lab_is_usage_error(self, tmp_path, capsys, monkeypatch, argv, what):
        # stopped before any work: the grid, the corpora and the tables refuse to be built
        def refuse(*args, **kwargs):
            raise AssertionError("corner did work before its size bound")
        for name in ("make_grid", "bump_corpus", "corner_corpus", "PairingTables"):
            monkeypatch.setattr(uccert.cli, name, refuse)
        out = str(tmp_path / "o")
        assert main(["corner"] + argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert what in err and "above the bound of" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [["--grid", "512"], ["--dim", "3", "--grid", "256"], ["--dim", "3"],
                                      ["--grid", "8190"], ["--tests", "10922", "--grid", "64"],
                                      ["--tests", "5461", "--grid", "24", "--dim", "3"]])
    def test_grids_within_the_size_bound_start_work(self, tmp_path, monkeypatch, argv):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached
        monkeypatch.setattr(uccert.cli, "make_grid", reached)
        with pytest.raises(Reached):
            main(["corner"] + argv + ["--out", str(tmp_path / "o")])

    def test_next_grid_runs(self, tmp_path):
        assert len(_smoothing_ladder(make_grid(unit_box(2), self.COARSEST + 2))) >= 2
        argv = ["corner", "--grid", str(self.COARSEST + 2), "--tests", "2"]
        assert main(argv + ["--out", str(tmp_path / "o")]) in (0, 1)
        assert read_report(str(tmp_path / "o"))["cells"] == self.COARSEST + 2


class TestCarlemanSizeBound:
    """`carleman` holds its corpus as one grid of doubles per test function;
    above MAX_CARLEMAN_VALUES of them it is a usage error before any work."""

    @pytest.mark.parametrize("argv", [["--grid", "20000"], ["--grid", "1000000000"],
                                      ["--corpus", "1000000000"], ["--grid", "1024", "--corpus", "64"]])
    def test_oversized_sweep_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        # stopped before any work: the certificate, the grid and the corpus refuse to be built
        def refuse(*args, **kwargs):
            raise AssertionError("carleman did work before its size bound")
        for name in ("certify", "carleman_section", "make_grid", "bump_superposition_values"):
            monkeypatch.setattr(uccert.cli, name, refuse)
        out = str(tmp_path / "o")
        assert main(["carleman"] + argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert "corpus values" in err and "above the bound of" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [[], ["--grid", "1024"], ["--grid", "256", "--corpus", "1000"]])
    def test_sweeps_within_the_size_bound_start_work(self, tmp_path, monkeypatch, argv):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached
        monkeypatch.setattr(uccert.cli, "certify", reached)
        with pytest.raises(Reached):
            main(["carleman"] + argv + ["--out", str(tmp_path / "o")])


class TestCarlemanLambdaGate:
    """The section's bent surface needs lambda above ik2's bending threshold."""

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_nonpositive_lambda_is_usage_error(self, tmp_path, capsys, value):
        out = str(tmp_path / "o")
        assert main(["carleman", "--grid", "32", "--lambda", value, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "--lambda must be positive" in err and len(err.strip().splitlines()) == 1
        assert not os.path.exists(os.path.join(out, "report.json"))

    @pytest.mark.parametrize("value", ["0.5", "1"])
    def test_lambda_at_or_below_threshold_fails_its_gate(self, tmp_path, value):
        out, cert_out = str(tmp_path / "o"), str(tmp_path / "cert")
        assert main(["carleman", "--grid", "32", "--lambda", value, "--out", out]) == 1
        rep = read_report(out)
        assert rep["passed"] is False and "sweep" not in rep
        assert rep["notes"]["gate"] == ["lambda_threshold"]
        gate = rep["notes"]["lambda_threshold"]
        assert gate["lambda_used"] == float(value)
        main(["certify", "--model", "ik2", "--lambda", "2", "--out", cert_out])
        assert gate["lambda0"] == read_report(cert_out)["certificate"]["lambda0"]

    def test_default_lambda_passes_without_gate(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["carleman", "--grid", "32", "--out", out]) == 0
        rep = read_report(out)
        assert rep["passed"] is True and "notes" not in rep


class TestCarlemanGates:
    """A failing sweep names every condition that failed, with its numbers."""

    def test_coarse_grid_names_the_decreasing_flags(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["carleman", "--grid", "3", "--out", out]) == 1
        rep = read_report(out)
        assert rep["passed"] is False
        assert rep["notes"]["gate"] == ["decreasing_flags"]
        assert rep["r_floor_from_lam4"] == pytest.approx(6.1e-8, rel=0.01)
        assert rep["exponent_slopes"] == pytest.approx([0.5, 1.5])
        gate = rep["notes"]["decreasing_flags"]
        assert gate["steps"] == rep["sweep"]["decreasing_flags"]
        assert gate["required_ratio_at_least"] == 0.5
        r_min = rep["sweep"]["r_min"]
        for (l1, l2), pair in zip(gate["steps"], gate["r_min"]):
            assert pair == [r_min[str(l1)], r_min[str(l2)]]
            assert pair[1] < 0.5 * pair[0]

    @pytest.mark.parametrize("floor", [0.0, -1.0, math.nan])
    def test_nonpositive_floor_is_named(self, tmp_path, monkeypatch, floor):
        monkeypatch.setattr(CarlemanReport, "r_floor", lambda self, lam_from: floor)
        out = str(tmp_path / "o")
        assert main(["carleman", "--grid", "32", "--out", out]) == 1
        rep = read_report(out)
        assert rep["passed"] is False
        assert rep["notes"]["gate"] == ["r_floor"]
        gate = rep["notes"]["r_floor"]
        assert gate["required_above"] == 0.0
        assert gate["r_floor_from_lam4"] == floor or math.isnan(gate["r_floor_from_lam4"])

    @pytest.mark.parametrize("slopes, gates", [((0.6, 1.5), ["slope_rhs1"]),
                                               ((0.5, 1.4), ["slope_rhs2"]),
                                               ((math.nan, 1.56), ["slope_rhs1", "slope_rhs2"])])
    def test_slope_outside_its_bound_is_named(self, tmp_path, monkeypatch, slopes, gates):
        monkeypatch.setattr(uccert.cli, "exponent_slopes", lambda rep: slopes)
        out = str(tmp_path / "o")
        assert main(["carleman", "--grid", "32", "--out", out]) == 1
        rep = read_report(out)
        assert rep["passed"] is False
        assert rep["notes"]["gate"] == gates
        for gate, slope, wired in zip(("slope_rhs1", "slope_rhs2"), slopes, (0.5, 1.5)):
            if gate in gates:
                got = rep["notes"][gate]
                assert got["slope"] == slope or math.isnan(got["slope"])
                assert (got["wired"], got["tolerance"]) == (wired, 0.05)


class TestNegativeSeed:
    @pytest.mark.parametrize("argv", [["check", "--model", "ik2"], ["certify", "--model", "ik2"],
                                      ["rays", "--model", "ik2"], ["corner", "--grid", "64"],
                                      ["carleman", "--grid", "32"]])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, argv):
        out = str(tmp_path / "o")
        assert main(argv + ["--seed", "-1", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err and "--seed" in err
        assert not os.path.exists(out)

    def test_negative_seed_in_run_section_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("[run]\ncommand = certify\nmodel = ik2\nseed = -1\n")
        assert main(["run", "--config", str(conf), "--out", str(tmp_path / "o")]) == 2
        assert "--seed" in capsys.readouterr().err


class TestRunFlagPrecedence:
    def test_explicit_flag_equal_to_its_default_beats_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("[run]\ncommand = certify\nmodel = ik2\nlambda = 2\nseed = 9\n")
        out = str(tmp_path / "o")
        assert main(["run", "--config", str(conf), "--seed", "0", "--out", out]) == 0
        assert read_report(out)["seed"] == 0
        assert main(["run", "--config", str(conf), "--out", out]) == 0
        assert read_report(out)["seed"] == 9

    def test_builtin_defaults_fill_what_neither_sets(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("[run]\ncommand = certify\nmodel = ik2\nlambda = 2\n")
        out = str(tmp_path / "o")
        assert main(["run", "--config", str(conf), "--out", out]) == 0
        assert read_report(out)["seed"] == 0


class TestCheckSampling:
    def test_check_samples_each_surface_once(self, tmp_path, monkeypatch):
        from uccert import hypotheses
        calls, scans = [], []
        sample, scan = hypotheses.sample_surface, hypotheses._scan_residuals

        def counting(spec, which, **kw):
            calls.append(which)
            return sample(spec, which, **kw)

        def counting_scans(spec, axes, selectors):
            scans.append(tuple(selectors))
            return scan(spec, axes, selectors)

        monkeypatch.setattr(hypotheses, "sample_surface", counting)
        monkeypatch.setattr(hypotheses, "_scan_residuals", counting_scans)
        assert main(["check", "--model", "ik2", "--out", str(tmp_path / "o")]) == 0
        assert sorted(calls) == ["intersection", "minus", "plus"]
        assert scans == [("plus", "minus", "intersection")]


GEOMETRY = ("[geometry]\n"
            "dim = 3\n"
            "metric = wave(2)\n"
            "phi_plus = norm(x2, x3) - 1 - x1\n"
            "phi_minus = norm(x2, x3) - 1 + x1\n"
            "box = -0.4:0.4, 0.6:1.4, -0.4:0.4\n"
            "x0 = 0, 1, 0\n")


class TestSurfaceSamples:
    @pytest.mark.parametrize("argv, run", [(["--samples", "20"], ""), ([], "[run]\ncommand = check\nsamples = 20\n")])
    def test_samples_flag_wins_over_config(self, tmp_path, argv, run):
        # --samples, or [run] samples, sets the config geometry's surface samples
        conf, fixed = tmp_path / "g.conf", tmp_path / "fixed.conf"
        conf.write_text(GEOMETRY + "n_surface_samples = 400\n" + run)
        fixed.write_text(GEOMETRY + "n_surface_samples = 20\n")
        outs = [str(tmp_path / name) for name in ("flag", "fixed", "config")]
        assert main(["run" if run else "check", "--config", str(conf), "--out", outs[0]] + argv) == 0
        assert main(["check", "--config", str(fixed), "--out", outs[1]]) == 0
        assert main(["check", "--config", str(conf), "--out", outs[2]]) == 0
        reports = [read_report(out) for out in outs]
        assert reports[0] == reports[1] != reports[2]
        assert max(reports[0]["hypotheses"]["n_samples"].values()) < 100

    @pytest.mark.parametrize("command", ["check", "all"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_samples_bound_stops_before_sampling(self, tmp_path, capsys, monkeypatch, command, source):
        def refuse(*args, **kwargs):
            raise AssertionError("check sampled above its bound")
        monkeypatch.setattr(uccert.cli, "check_assumptions", refuse)
        over = uccert.cli.MAX_SURFACE_SAMPLES + 1
        # under all, --samples counts the certificate's directions alone: the
        # surface count above the bound comes from the config, and a small
        # --samples does not lower it
        flag = {"check": str(over), "all": "20"}[command]
        in_config = source == "config" or command == "all"
        conf = tmp_path / "g.conf"
        conf.write_text(GEOMETRY + (f"n_surface_samples = {over}\n" if in_config else ""))
        argv = [command, "--config", str(conf)] + (["--samples", flag] if source == "flag" else [])
        out = str(tmp_path / "o")
        assert main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert f"{over} surface samples" in err and "above the bound of" in err
        assert err.count("\n") == 1 and not os.path.exists(out)

    def test_samples_at_the_bound_start_work(self, tmp_path, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached
        monkeypatch.setattr(uccert.cli, "check_assumptions", reached)
        with pytest.raises(Reached):
            main(["check", "--model", "ik3", "--samples", str(uccert.cli.MAX_SURFACE_SAMPLES),
                  "--out", str(tmp_path / "o")])


class TestScanNodes:
    """`check` stops before the box scan when the scan would take more nodes
    than its bound, ik6's 8^7: 8^8 for ik7, 8^9 for ik8 and 8^10 for ik9."""

    @pytest.mark.parametrize("command", ["check", "all"])
    @pytest.mark.parametrize("model, nodes", [("ik7", 8 ** 8), ("ik8", 8 ** 9), ("ik9", 8 ** 10)])
    def test_bound_stops_before_any_scan(self, tmp_path, capsys, monkeypatch, command, model, nodes):
        def refuse(*args, **kwargs):
            raise AssertionError("check scanned above its bound")
        monkeypatch.setattr(uccert.cli, "check_assumptions", refuse)
        monkeypatch.setattr(uccert.hypotheses, "_scan_residuals", refuse)
        out = str(tmp_path / "o")
        assert main([command, "--model", model, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"{nodes} scan nodes, above the bound of {uccert.cli.MAX_SCAN_NODES}" in err
        assert err.count("\n") == 1 and "Traceback" not in err and not os.path.exists(out)

    def test_every_model_up_to_ik6_scans_within_the_bound(self, tmp_path):
        # ik5 scans 8^6 nodes and ik6 8^7, and at the surface-sample bound ik4
        # scans 14^5 and ik5 9^6
        for model in ("ik4", "ik5", "ik6"):
            for samples in (200, uccert.cli.MAX_SURFACE_SAMPLES):
                geo = uccert.cli.get_model(model, n_surface_samples=samples).geometry
                assert uccert.hypotheses.scan_nodes(geo) <= uccert.cli.MAX_SCAN_NODES
        assert main(["check", "--model", "ik5", "--out", str(tmp_path / "o")]) == 0


class TestAllChecksEveryBoundFirst:
    """`all` stops on any stage's size bound before its first stage runs."""

    CASES = {
        "MAX_CONSTRAINT_SAMPLES": (["--samples", "1048577"], "constraint samples"),
        "MAX_SURFACE_SAMPLES": (["--config", "n_surface_samples = 65537\n"], "surface samples"),
        "MAX_SCAN_NODES": (["--model", "ik9"], "scan nodes"),
        "MAX_RAY_STEPS": (["--ds", "1e-9"], "RK4 steps"),
        "MAX_RAY_ROWS": (["--max-rays", "1000", "--ds", "1e-5", "--s-fit", "0.19"], "rows of rays.csv"),
        "MAX_CORNER_NODES": (["--grid", "8192"], "nodes"),
        "MAX_PAIRING_ENTRIES": (["--tests", "1000000"], "pairing-table entries"),
        "MAX_RESIDUAL_ROWS": (["--tests", "20000", "--grid", "64"], "residual rows"),
        "MAX_CARLEMAN_VALUES": (["--corpus", "100000"], "corpus values"),
    }

    def test_every_bound_has_a_case(self):
        assert set(self.CASES) == {name for name in vars(uccert.cli) if name.startswith("MAX_")}

    @staticmethod
    def stopped_before_any_stage(tmp_path, capsys, monkeypatch, argv) -> str:
        """The one stderr line of an `all` run that must exit 2 and write
        nothing; on ik2, or on GEOMETRY plus the text after --config."""
        def refuse(*args, **kwargs):
            raise AssertionError("all ran a stage before checking every bound")
        monkeypatch.setattr(uccert.cli, "check_assumptions", refuse)
        source = ["--model", "ik2"]
        if argv[0] == "--config":
            conf = tmp_path / "g.conf"
            conf.write_text(GEOMETRY + argv[1])
            source, argv = ["--config", str(conf)], argv[2:]
        out = str(tmp_path / "o")
        assert main(["all", *source, "--out", out] + argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not os.path.exists(out)
        return err

    @pytest.mark.parametrize("bound", sorted(CASES))
    def test_bound_stops_before_any_stage(self, tmp_path, capsys, monkeypatch, bound):
        argv, what = self.CASES[bound]
        err = self.stopped_before_any_stage(tmp_path, capsys, monkeypatch, argv)
        assert what in err and f"above the bound of {getattr(uccert.cli, bound)}" in err

    def test_fit_window_stops_before_any_stage(self, tmp_path, capsys, monkeypatch):
        argv = ["--s-fit", "0.001", "--ds", "0.001", "--grid", "64"]
        err = self.stopped_before_any_stage(tmp_path, capsys, monkeypatch, argv)
        assert "leaves 3 ray points in the fit window" in err

    def test_lambda_ladder_stops_before_any_stage(self, tmp_path, capsys, monkeypatch):
        err = self.stopped_before_any_stage(tmp_path, capsys, monkeypatch, ["--lambda-max", "2"])
        assert "--lambda-max 2 must be at least 4" in err


class TestCarlemanLambdaLadder:
    """The ladder 1, 2, 4, ... must reach the floor's first lambda, 4: below
    it the floor would be NaN, which is not JSON."""

    def test_ladder_to_four_runs_and_reports_its_floor(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["carleman", "--grid", "16", "--lambda-max", "4", "--out", out]) == 0
        with open(os.path.join(out, "report.json")) as f:
            report = json.load(f, parse_constant=lambda name: pytest.fail(f"{name} in report.json"))
        assert report["sweep"]["lambdas"] == [1.0, 2.0, 4.0]
        assert report["r_floor_from_lam4"] == report["sweep"]["r_min"]["4.0"] > 0

    def test_run_section_ladder_below_four_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("[run]\ncommand = carleman\ngrid = 16\nlambda_max = 2\n")
        out = str(tmp_path / "o")
        assert main(["run", "--config", str(conf), "--out", out]) == 2
        err = capsys.readouterr().err
        assert "--lambda-max 2 must be at least 4" in err
        assert err.count("\n") == 1 and "Traceback" not in err and not os.path.exists(out)


class TestFewSurfaceSamples:
    @pytest.mark.parametrize("samples", [1, 4, 16])
    def test_ik4_check_with_few_samples(self, tmp_path, samples):
        # the lowest-residual scan seeds of ik4 all lie on the box faces and
        # project out of the box; the next seeds in residual order land inside
        out = str(tmp_path / "o")
        assert main(["check", "--model", "ik4", "--samples", str(samples), "--out", out]) == 0
        counts = read_report(out)["hypotheses"]["n_samples"]
        assert counts["plus"] > 0 and counts["minus"] > 0 and counts["intersection"] > 0


class TestModuleEntryPoint:
    def test_python_m_uccert_runs_without_install(self, tmp_path):
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        env = dict(os.environ, PYTHONPATH=src)
        out = tmp_path / "corner"
        proc = subprocess.run(
            [sys.executable, "-m", "uccert", "corner", "--grid", "64", "--tests", "3",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert read_report(out)["command"] == "corner"


_IMPORT_PROBE = """
import json, sys
import uccert, uccert.cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = sys.argv[1]
seen = {"import": loaded()}
for argv in (["check", "--model", "ik2"], ["certify", "--model", "ik2"],
             ["rays", "--model", "ik2"], ["carleman", "--grid", "32"]):
    assert uccert.cli.main(argv + ["--out", out + "/" + argv[0]]) == 0, argv
seen["pointwise"] = loaded()
assert uccert.cli.main(["corner", "--grid", "64", "--tests", "3", "--out", out + "/corner"]) == 0
seen["corner"] = loaded()
print(json.dumps(seen))
"""


class TestImportBudget:
    def test_no_command_loads_scipy(self, tmp_path):
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen["import"] == []
        assert seen["pointwise"] == []
        assert seen["corner"] == []
