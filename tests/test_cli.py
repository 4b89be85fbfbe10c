"""End-to-end checks of the command-line interface."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

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
        assert proc.returncode == 2

    def test_wrong_arity_is_usage_error(self):
        assert run_cli("vertex", "local", "0", "0", "0").returncode == 2


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

    def test_invalid_seed_environment_is_usage_error(self):
        proc = run_cli("table1", env={**os.environ, "NLBOX_SEED": "abc"})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "invalid int value: 'abc'" in proc.stderr

    def test_coefficient_file_without_c_is_usage_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        proc = run_cli("cabello", "--coeffs", str(path))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")


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

    def test_table3_case_12(self):
        proc = run_cli("table3", "--restarts", "16", "--format", "csv")
        assert proc.returncode == 0
        row12 = [l for l in proc.stdout.splitlines() if l.startswith("12,")][0]
        value = float(row12.split(",")[7])
        assert abs(value - 0.0990) <= 1e-3


class TestMax:
    def test_ns_bound(self):
        payload = json.loads(run_cli("max", "--model", "ns").stdout)
        assert payload["value"] == 0.5
        assert payload["witness"][5] == 1.0

    def test_ic_bound_with_certificate(self):
        proc = run_cli("max", "--model", "ic")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert abs(payload["value"] - (math.sqrt(2) - 1) / 2) <= 1e-9
        assert payload["converged"] is True
        assert payload["upper_bound"] - payload["value"] <= 1e-9
        assert min(payload["constraint_slacks"]) >= 0.0

    def test_case_without_qm_is_usage_error(self):
        assert run_cli("max", "--model", "ns", "--case", "3").returncode == 2

    def test_qm_bound(self):
        proc = run_cli("max", "--model", "qm")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert abs(payload["value"] - 0.10781271774893628) <= 1e-12
        assert payload["converged"] is True

    def test_qm_hardy_bound(self):
        proc = run_cli("max", "--model", "qm-hardy", "--restarts", "16")
        payload = json.loads(proc.stdout)
        assert abs(payload["value"] - (5 * math.sqrt(5) - 11) / 2) <= 1e-3
        assert payload["converged"] is True

    def test_lr_case_witness(self):
        proc = run_cli("lr-case", "7")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["witness"] is not None
        assert max(payload["witness_lhs"]) <= 1.0
