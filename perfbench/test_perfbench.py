"""Tests of the benchmark itself: each check rejects a corrupted output, and
the traced run repeats exactly on one seed.

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks as ref  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _cli_json(out):
    rc, text = out
    return json.loads(text)


def _as_cli(payload):
    return 0, json.dumps(payload)


@pytest.fixture(scope="module")
def ns():
    wl = workloads.NsPolytope(SEED, ROOT)
    outputs = [op.run() for op in wl.ops]
    assert wl.check(outputs) == [[], [], [], []]
    return wl, outputs


@pytest.fixture(scope="module")
def ic():
    wl = workloads.IcBound(SEED, ROOT)
    outputs = [op.run() for op in wl.ops]
    assert wl.check(outputs) == [[] for _ in wl.ops]
    return wl, outputs


@pytest.fixture(scope="module")
def qm():
    wl = workloads.QuantumTables(SEED, ROOT)
    outputs = [op.run() for op in wl.ops]
    assert wl.check(outputs) == [[], [], []]
    return wl, outputs


@pytest.fixture(scope="module")
def boxes():
    wl = workloads.BoxEval(SEED, ROOT)
    outputs = [op.run() for op in wl.ops]
    assert not any(wl.check(outputs))
    return wl, outputs


def _replace_cli(outputs, i, edit):
    payload = copy.deepcopy(_cli_json(outputs[i]))
    edit(payload)
    out = list(outputs)
    out[i] = _as_cli(payload)
    return out


def test_ns_value_off_by_1e6_is_rejected(ns):
    wl, outputs = ns
    bad = _replace_cli(outputs, 0, lambda d: d.update(value=0.5 + 1e-6))
    assert wl.check(bad)[0]


def test_ns_witness_off_the_optimum_is_rejected(ns):
    wl, outputs = ns

    def edit(d):
        d["witness"][5] -= 1e-3
        d["witness"][0] += 1e-3
    assert wl.check(_replace_cli(outputs, 0, edit))[0]


def test_hardy_value_and_witness_are_checked(ns):
    wl, outputs = ns
    value, w = outputs[1]
    bad = list(outputs)
    bad[1] = (value + 1e-6, w)
    assert wl.check(bad)[1]
    w2 = np.array(w, dtype=float)
    w2[[0, 5]] += (0.01, -0.01)
    bad[1] = (value, w2)
    assert wl.check(bad)[1]


def test_table1_wrong_relations_are_rejected(ns):
    wl, outputs = ns
    # a system that no longer forces input 0_A of case 12 to be uniform
    bad = _replace_cli(outputs, 2, lambda d: d[11].update(relations=["c2 = 0"]))
    assert wl.check(bad)[2]


def test_table2_row_and_witness_corruptions_are_rejected(ns):
    wl, outputs = ns
    bad = _replace_cli(outputs, 3, lambda d: d["rows"][4].update(lhs1=d["rows"][4]["lhs1"] + 1e-9))
    assert wl.check(bad)[3]

    def move_witness(d):
        w = d["fresh_witnesses"]["9"]
        w[0], w[2] = w[0] + 1e-6, w[2] - 1e-6   # c1 + c2 = eta - c5 breaks
    assert wl.check(_replace_cli(outputs, 3, move_witness))[3]


def test_ic_witness_scaled_off_the_boundary_is_rejected(ic):
    wl, outputs = ic

    def scale(d):
        w = np.array(d["witness"])
        pr = np.zeros(11)
        pr[5] = 1.0    # the nonlocal vertex pushes both IC quadratics up
        d["witness"] = list(0.999 * w + 0.001 * pr)
    assert wl.check(_replace_cli(outputs, 0, scale))[0]
    assert wl.check(_replace_cli(outputs, 0, lambda d: d.update(value=d["value"] + 2e-8)))[0]


def test_ic_case_witness_off_its_equalities_is_rejected(ic):
    wl, outputs = ic
    res = outputs[1]
    point = res.point.copy()
    point[[0, 6]] += (1e-6, -1e-6)
    bad = list(outputs)
    bad[1] = type(res)(res.value, point, res.starts_used, res.converged, res.constraint_slacks)
    assert wl.check(bad)[1]
    bad[1] = type(res)(ref.IC_BOUND + 1e-6, res.point, res.starts_used, res.converged,
                       res.constraint_slacks)
    assert wl.check(bad)[1]


def test_qm_values_are_checked(qm):
    wl, outputs = qm
    assert wl.check(_replace_cli(outputs, 0, lambda d: d.update(value=d["value"] + 2e-5)))[0]
    assert wl.check(_replace_cli(outputs, 1, lambda d: d.update(value=d["value"] + 1e-8)))[1]

    def bend(d):
        d["witness"]["theta_x1"] += 1e-6   # q2 no longer vanishes
    assert wl.check(_replace_cli(outputs, 0, bend))[0]


def test_table3_mirror_perturbed_is_rejected(qm):
    wl, outputs = qm

    def perturb(d):
        row = next(r for r in d if r["case"] == 14)
        row["max"] += 1e-6
    assert wl.check(_replace_cli(outputs, 2, perturb))[2]


def test_box_with_one_entry_moved_is_rejected(boxes):
    wl, outputs = boxes
    for i in (0, len(wl.vectors)):   # a Cabello vector, then a quantum scenario
        bad = list(outputs)
        p = bad[i][0].copy()
        p[0, 0] += 1e-6
        p[0, 1] -= 1e-6
        bad[i] = (p,) + tuple(bad[i][1:])
        fails = wl.check(bad)
        assert fails[i] and sum(map(bool, fails)) == 1


def test_box_eval_flags_and_rac_are_checked(boxes):
    wl, outputs = boxes
    bad = list(outputs)
    p, nviol, q, lhs, rac, lr = bad[3]
    bad[3] = (p, nviol, q, lhs, (rac[0] + 1e-9, rac[1]), lr)
    assert wl.check(bad)[3]
    bad[3] = (p, nviol, q, lhs, rac, [not lr[0]] + list(lr[1:]))
    assert wl.check(bad)[3]


def _run(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_repeats_exactly(workload):
    dumps, counts = [], []
    for _ in range(2):
        proc = _run(workload, trace=1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
        path = ROOT / ".bench_trace" / f"{workload}-seed{SEED}.json"
        dumps.append(json.loads(path.read_text()))
    assert counts[0] == counts[1]
    assert dumps[0]["results"] == dumps[1]["results"]
    assert dumps[0]["counts_repeat"] and dumps[1]["counts_repeat"]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("ns-polytope", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
