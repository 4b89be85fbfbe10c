"""End-to-end checks of the command-line interface."""
import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import nlbox.cli
import nlbox.localrandom
from nlbox.boxes import Box, pr_box
from nlbox.cabello import hardy_box


def run_cli(*args, stdin=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "nlbox.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
    )


class TestVertex:
    def test_pr_box_json(self):
        proc = run_cli("vertex", "nonlocal", "0", "0", "0")
        assert proc.returncode == 0
        assert Box.from_json(proc.stdout) == pr_box()

    def test_local_vertex_json(self):
        proc = run_cli("vertex", "local", "0", "0", "0", "0")
        assert proc.returncode == 0
        box = Box.from_json(proc.stdout)
        np.testing.assert_array_equal(box.p[:, 0], 1.0)

    def test_bad_label_is_usage_error(self):
        proc = run_cli("vertex", "nonlocal", "2", "0", "0")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: label bits must be 0 or 1, got [2, 0, 0]\n"

    def test_wrong_arity_is_usage_error(self):
        proc = run_cli("vertex", "local", "0", "0", "0")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: local vertices take 4 bits\n"


class TestValidate:
    def test_valid_box_from_stdin(self):
        proc = run_cli("validate", "-", stdin=pr_box().to_json())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["valid"] is True

    def test_invalid_box_fails(self):
        bad = json.dumps({"p": [[1.0, 0.1, 0.1, 0.1]] + [[0.25] * 4] * 3})
        proc = run_cli("validate", "-", stdin=bad)
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert not report["valid"] and report["violations"]


    @pytest.mark.parametrize("text", ['{"q": 1}', "[1, 2]"])
    def test_malformed_json_is_usage_error(self, text):
        proc = run_cli("validate", "-", stdin=text)
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("args, env", [
        ("max --model ns --seed -1", {}),
        ("table2 --seed -1", {}),
        ("table3 --seed -1", {}),
    ])
    def test_negative_seed_is_usage_error(self, args, env):
        proc = run_cli(*args.split(), env={**os.environ, **env})
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert errors == [f"nlbox {args.split()[0]}: error: argument --seed: "
                          "expected an integer >= 0, got '-1'"]

    @pytest.mark.parametrize("args", [
        "vertex local 0 0 0 0", "table1", "validate -", "max --model ns",
        "table2", "lr-case 7",
    ])
    def test_seed_environment_is_ignored_by_commands_without_seed(self, args):
        unset = {k: v for k, v in os.environ.items() if k != "NLBOX_SEED"}
        proc = run_cli(*args.split(), stdin=pr_box().to_json(),
                       env={**unset, "NLBOX_SEED": "abc"})
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == run_cli(*args.split(), stdin=pr_box().to_json(),
                                      env=unset).stdout
        assert nlbox.cli.build_parser() is nlbox.cli.build_parser()

    def test_coefficient_file_without_c_is_usage_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        proc = run_cli("cabello", "--coeffs", str(path))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")


class TestOverflowingTable:
    """A uniform table whose first row is 1e308, 1e308, 0, 0: its row sums
    overflow, and each command reports the box without a numpy warning."""

    TABLE = [[1e308, 1e308, 0.0, 0.0]] + [[0.25] * 4] * 3
    REPORT = ("normalization at row XY=00; no-signaling at party A, input 0; "
              "no-signaling at party B, input 0")

    @pytest.mark.parametrize("argv, code", [(["validate"], 1), (["rac", "--box"], 2),
                                            (["ic", "--box"], 2)])
    def test_stderr_is_exact(self, tmp_path, capsys, argv, code):
        path = tmp_path / "box.json"
        path.write_text(json.dumps({"p": self.TABLE}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would raise here
            assert nlbox.cli.main([*argv, str(path)]) == code
        out = capsys.readouterr()
        if argv == ["validate"]:
            assert out.err == ""
            report = json.loads(out.out)
            assert [f"{v['kind']} at {v['location']}" for v in report["violations"]] == \
                self.REPORT.split("; ")
        else:
            assert out.out == "" and out.err == f"error: {self.REPORT}\n"


class TestUnreadFlags:
    @pytest.mark.parametrize("args", [
        "validate - --format csv",
        "cabello --coeffs 0,0,0,0,0,1 --format csv",
        "ic --box - --format csv",
        "rac --box - --format csv",
        "lr-case 3 --format csv",
        "max --model ns --format csv",
        "table1 --tol 1e-6",
        "lr-case 3 --restarts 4",
        "lr-case 3 --seed 3",
    ])
    def test_is_usage_error(self, args):
        proc = run_cli(*args.split(), stdin=pr_box().to_json())
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert errors == [f"nlbox: error: unrecognized arguments: {' '.join(args.split()[-2:])}"]


class TestNonNumericInput:
    @pytest.mark.parametrize("args, data", [
        (("cabello", "--coeffs"), {"c": {"a": 1}}),
        (("cabello", "--coeffs"), {"c": [{"a": 1}, 0, 0, 0, 0, 0]}),
        (("ic", "--coeffs"), {"c": [{"a": 1}] + [0] * 10}),
        (("validate",), {"p": {"a": 1}}),
        (("ic", "--box"), {"p": {"a": 1}}),
        (("rac", "--box"), {"p": [[{"a": 1}] * 4] * 4}),
    ])
    def test_is_usage_error(self, tmp_path, args, data):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        proc = run_cli(*args, str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")


class TestTolerance:
    BAD = json.dumps({"p": [[1.0, 0.1, 0.1, 0.1]] + [[0.25] * 4] * 3})

    @pytest.mark.parametrize("command", ["validate", "rac --box"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "abc"])
    def test_non_finite_negative_or_text_is_usage_error(self, command, tol):
        proc = run_cli(*command.split(), "-", "--tol", tol, stdin=self.BAD)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "argument --tol: " in proc.stderr and repr(tol) in proc.stderr

    def test_zero_is_accepted(self):
        proc = run_cli("validate", "-", "--tol", "0", stdin=self.BAD)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["valid"] is False


class TestCoefficientCommands:
    def test_cabello_inline_coeffs(self):
        proc = run_cli("cabello", "--coeffs", "0,0,0,0,0,1")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["success"] == 0.5
        assert payload["argument_runs"] is True

    def test_inline_and_file_coeffs_agree(self, tmp_path):
        hardy = "0.1,0.2,0,0.3,0,0.4"
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"c": [float(v) for v in hardy.split(",")]}))
        inline = run_cli("cabello", "--coeffs", hardy)
        from_file = run_cli("cabello", "--coeffs", str(path))
        assert inline.returncode == from_file.returncode == 0
        assert inline.stdout == from_file.stdout
        assert Box.from_json(json.dumps(json.loads(inline.stdout)["box"])) == hardy_box(
            [0.1, 0.2, 0, 0.3, 0, 0.4])

    def test_seven_coeffs_fail_alike_inline_and_from_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"c": [0.5, 0.5, 0, 0, 0, 0, 0]}))
        inline = run_cli("cabello", "--coeffs", "0.5,0.5,0,0,0,0,0")
        from_file = run_cli("cabello", "--coeffs", str(path))
        assert inline.returncode == from_file.returncode == 2
        assert inline.stderr == from_file.stderr
        assert inline.stderr.count("\n") == 1 and inline.stderr.startswith("error: ")

    def test_weights_whose_sum_overflows_are_a_usage_error(self, capsys):
        # in-process, with warnings as errors: no traceback and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nlbox.cli.main(["cabello", "--coeffs", "1e308,1e308" + ",0" * 9]) == 2
        assert capsys.readouterr().err == "error: coefficients sum to inf, not 1\n"

    @pytest.mark.parametrize("command", ["cabello", "ic"])
    def test_tol_applies_to_the_coefficients(self, tmp_path, capsys, command):
        # c6 = 1.0001: off the simplex at the default tol, on it at 1e-3,
        # inline and from a file alike
        inline = "0,0,0,0,0,1.0001,0,0,0,0,0"
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"c": [float(v) for v in inline.split(",")]}))
        for spec in (inline, str(path)):
            assert nlbox.cli.main([command, "--coeffs", spec]) == 2
            assert capsys.readouterr().err == "error: coefficients sum to 1.0001, not 1\n"
            assert nlbox.cli.main([command, "--coeffs", spec, "--tol", "1e-3"]) == 0
            out = capsys.readouterr()
            assert out.err == "" and json.loads(out.out)

    def test_ic_roundtrip_through_box_parser(self):
        box_json = run_cli("vertex", "nonlocal", "0", "0", "0").stdout
        proc = run_cli("ic", "--box", "-", stdin=box_json)
        payload = json.loads(proc.stdout)
        assert payload["lhs1"] == 2.0 and payload["satisfied"] is False

    def test_ic_coeffs_and_box_together_is_usage_error(self):
        proc = run_cli("ic", "--coeffs", "0,0,0,0,0,0,0,0,0,0,1", "--box", "-",
                       stdin=pr_box().to_json())
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert errors == ["nlbox ic: error: argument --box: not allowed with argument --coeffs"]

    def test_rac_on_pr_box(self):
        proc = run_cli("rac", "--box", "-", stdin=pr_box().to_json())
        assert json.loads(proc.stdout)["total"] == 2.0


class TestTables:
    def test_table1_case_9_relations(self):
        proc = run_cli("table1", "--format", "csv")
        assert proc.returncode == 0
        row9 = [l for l in proc.stdout.splitlines() if l.startswith("9,")][0]
        assert "c1 + c2 = eta - c5" in row9
        assert "c3 + c4 = eta - c5" in row9
        assert "c5 = c7 + c8 + c9 + c10" in row9

    def test_table2_passes_and_prints_case2(self):
        proc = run_cli("table2", "--format", "csv")
        assert proc.returncode == 0
        case2 = [l for l in proc.stdout.splitlines() if l.startswith("2,")]
        assert any("0.0800,0.4000" in l for l in case2)

    def test_table2_fails_on_a_fixture_row_off_its_system(self, monkeypatch, capsys):
        verify = nlbox.localrandom.verify_table2

        def one_row_off():
            checks = verify()
            checks[3] = dataclasses.replace(checks[3], constraints_ok=False)
            return checks

        monkeypatch.setattr(nlbox.localrandom, "verify_table2", one_row_off)
        assert nlbox.cli.main(["table2", "--format", "csv"]) == 1
        case = verify()[3].row.case_id
        out = capsys.readouterr()
        assert out.err == f"case {case}: fixture row is off its system\n"
        assert f"{case}," in out.out and ",True,False" in out.out

    def test_table3_case_12(self):
        proc = run_cli("table3", "--restarts", "16", "--format", "csv")
        assert proc.returncode == 0
        row12 = [l for l in proc.stdout.splitlines() if l.startswith("12,")][0]
        value = float(row12.split(",")[7])
        assert abs(value - 0.0990) <= 1e-3

    def test_table3_rows_report_their_method(self, capsys):
        assert nlbox.cli.main(["table3"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["case"] for row in rows] == list(range(1, 16))
        assert {row["method"] for row in rows} == {"algebraic"}


class TestMax:
    def test_ns_bound(self):
        payload = json.loads(run_cli("max", "--model", "ns").stdout)
        assert payload["value"] == 0.5 and payload["method"] == "vertex"
        assert payload["witness"][5] == 1.0

    def test_ic_bound_with_certificate(self):
        proc = run_cli("max", "--model", "ic")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert abs(payload["value"] - (math.sqrt(2) - 1) / 2) <= 1e-9
        assert payload["converged"] is True and payload["method"] == "closed-form"
        assert payload["upper_bound"] - payload["value"] <= 1e-9
        assert min(payload["constraint_slacks"]) >= 0.0

    def test_case_without_qm_is_usage_error(self):
        proc = run_cli("max", "--model", "ns", "--case", "3")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: --case is only valid with --model qm\n"

    def test_qm_bound(self):
        proc = run_cli("max", "--model", "qm")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert abs(payload["value"] - 0.10781271774893628) <= 1e-12
        assert payload["converged"] is True and payload["method"] == "algebraic"

    def test_qm_hardy_bound(self):
        proc = run_cli("max", "--model", "qm-hardy", "--restarts", "16")
        payload = json.loads(proc.stdout)
        assert abs(payload["value"] - (5 * math.sqrt(5) - 11) / 2) <= 1e-3
        assert payload["converged"] is True and payload["method"] == "algebraic"

    def test_lr_case_witness(self):
        proc = run_cli("lr-case", "7")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["witness"] is not None
        assert max(payload["witness_lhs"]) <= 1.0


class TestScipyFreeRuntime:
    def test_every_command_and_solve_runs_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: in a fresh process where
        # any scipy import fails, every command, every bound and every
        # local-randomness witness still runs, none of them imports sympy,
        # and none draws a random number (numpy's generators raise)
        box = tmp_path / "box.json"
        box.write_text(pr_box().to_json())
        code = textwrap.dedent(f"""
            import contextlib, io, sys
            import numpy.random
            sys.modules["scipy"] = None

            def no_draws(*args, **kwargs):
                raise AssertionError("the runtime draws no random numbers")

            for name in ("Generator", "PCG64", "SeedSequence", "default_rng"):
                setattr(numpy.random, name, no_draws)
            import nlbox, nlbox.cli
            box = {str(box)!r}
            invocations = [
                ["validate", box], ["vertex", "nonlocal", "0", "0", "0"],
                ["cabello", "--coeffs", "0,0,0,0,0,1"], ["ic", "--box", box],
                ["rac", "--box", box], ["lr-case", "9"],
                ["table1"], ["table2"], ["table3"],
                *(["max", "--model", m] for m in ("ns", "ic", "qm", "qm-hardy")),
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [nlbox.cli.main(argv) for argv in invocations]
            for cid in nlbox.lr_cases():
                system = nlbox.lr_constraints(cid)
                nlbox.max_success_under_ic(equalities=(system.a, system.b))
                nlbox.feasibility_witness(cid)
            nlbox.ns_max_success("hardy"), nlbox.ns_max_success("cabello")
            nlbox.max_cabello_qm(), nlbox.max_hardy_qm()
            print(codes, sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "sympy")))
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"{[0] * 13} ['scipy']"
