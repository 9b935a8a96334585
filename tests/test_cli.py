import csv
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import uccert.cli
from uccert.carleman import CarlemanReport
from uccert.cli import _smoothing_ladder, build_parser, main, parse_config_file, parse_metric
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

    def test_bad_flag_is_usage_error(self, capsys, tmp_path):
        assert main(["check", "--frobnicate"]) == 2
        capsys.readouterr()


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
                 main(["corner", "--dim", "3", "--grid", "32", "--seed", "5", "--out", outs[1]]),
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
        # dim and tests are flags of corner, not [run] keys: the run must not
        # fall back to the 2-D lab with 20 tests
        conf = tmp_path / "run.conf"
        conf.write_text("[run]\ncommand = corner\ndim = 3\ntests = 2\ngrid = 48\n")
        out = str(tmp_path / "o")
        assert main(["run", "--config", str(conf), "--out", out]) == 2
        assert capsys.readouterr().err == "uccert: error: unknown key 'dim' in [run] section\n"
        assert not os.path.exists(os.path.join(out, "report.json"))

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

    @pytest.mark.parametrize("argv", [["--samples", "0"], ["--samples", "-3"], ["--grid", "0"]])
    def test_counts_below_one_rejected(self, tmp_path, argv):
        assert main(["certify", "--model", "ik2", "--out", str(tmp_path / "o")] + argv) == 2

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

    @pytest.mark.parametrize("flag, value", [("--lambda", "nan"), ("--lambda", "inf"),
                                             ("--mu", "nan"), ("--lambda-max", "inf")])
    def test_non_finite_float_rejected(self, tmp_path, capsys, flag, value):
        out = str(tmp_path / "o")
        assert main(["certify", "--model", "ik2", flag, value, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be finite" in err and "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "report.json"))

    @pytest.mark.parametrize("key, value", [("lambda", "nan"), ("lambda", "inf"),
                                            ("mu", "nan"), ("lambda_max", "inf")])
    def test_non_finite_float_in_run_section_rejected(self, tmp_path, capsys, key, value):
        conf = tmp_path / "run.conf"
        conf.write_text(f"[run]\ncommand = certify\nmodel = ik2\n{key} = {value}\n")
        assert main(["run", "--config", str(conf), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["corner", "--tests", "0"], ["corner", "--n-pts", "0"],
                                      ["rays", "--model", "ik2", "--max-rays", "0"]])
    def test_vacuous_counts_rejected(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "must be at least 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["--grid", "1"], "--grid 1 is too coarse"),
        (["--corpus", "0"], "--corpus must be at least 1"),
        (["--lambda-max", "1"], "--lambda-max must be at least 2"),
        (["--lambda-max", "0.5"], "--lambda-max must be at least 2")])
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
    """A grid too coarse for every rung of the smoothing ladder is a usage error."""

    # the largest even cell count whose ladder is empty, from the ladder rule
    COARSEST = max(c for c in range(2, 256, 2) if not _smoothing_ladder(make_grid(unit_box(2), c)))

    @pytest.mark.parametrize("argv", [["--grid", "2"], ["--grid", str(COARSEST)],
                                      ["--grid", "8", "--dim", "3"]])
    def test_coarse_grid_is_usage_error(self, tmp_path, capsys, argv):
        out = str(tmp_path / "o")
        assert main(["corner"] + argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert "too coarse for the mollifier check" in err and err.count("\n") == 1
        assert not os.path.exists(os.path.join(out, "report.json"))

    def test_next_grid_runs(self, tmp_path):
        assert _smoothing_ladder(make_grid(unit_box(2), self.COARSEST + 2))
        argv = ["corner", "--grid", str(self.COARSEST + 2), "--tests", "2", "--n-pts", "50"]
        assert main(argv + ["--out", str(tmp_path / "o")]) in (0, 1)
        assert read_report(str(tmp_path / "o"))["cells"] == self.COARSEST + 2


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
