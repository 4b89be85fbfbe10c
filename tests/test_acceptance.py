"""Acceptance suite: one printed pass/fail line per criterion.

Each criterion prints `ACCEPTANCE n PASS|FAIL: description` directly to the
real stdout (bypassing pytest capture) so a `pytest -v` run shows the ten
lines regardless of verbosity settings.
"""
import math
import sys
import time
from contextlib import contextmanager

import numpy as np

import reference
from reference import coeffs
from nlbox import boxes
from nlbox.cabello import (
    cabello_box,
    extract_q,
    ns_max_success,
)
from nlbox.ic import (
    ic_ab_satisfied,
    ic_ba_satisfied,
    ic_cabello_lhs,
    ic_quantities,
    max_success_under_ic,
    rac_simulate,
)
from nlbox.localrandom import (
    case_inputs,
    is_locally_random,
    lr_cases,
    lr_constraints,
    verify_table2,
)
from nlbox.quantum import (
    MeasurementDirection,
    PureState,
    QuantumScenario,
    canonical_scenario,
    max_cabello_qm,
    max_hardy_qm,
    q4_minus_q1_closed_form,
    quantum_box,
)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {description}", file=sys.__stdout__, flush=True)
        raise
    print(f"ACCEPTANCE {num} PASS: {description}", file=sys.__stdout__, flush=True)


def test_criterion_1_ns_bound():
    with criterion(1, "no-signaling maximum is exactly 0.5 at c6=1 in < 1 s"):
        for argument in ("hardy", "cabello"):
            start = time.perf_counter()
            value, witness = ns_max_success(argument)
            elapsed = time.perf_counter() - start
            assert value == 0.5
            assert abs(witness[5] - 1.0) <= 1e-9
            assert abs(sum(witness) - 1.0) <= 1e-9
            assert elapsed < 1.0, f"{argument} took {elapsed:.2f}s"


def test_criterion_2_ic_bound():
    with criterion(2, "IC-constrained maximum is 0.2071 +- 1e-3 in < 30 s"):
        start = time.perf_counter()
        result = max_success_under_ic(restarts=64, seed=0)
        elapsed = time.perf_counter() - start
        assert abs(result.value - 0.20717) <= 1e-3
        assert all(abs(s) <= 1e-6 for s in result.constraint_slacks), (
            "optimum must sit on both constraint boundaries"
        )
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_3_qm_cabello_bound():
    with criterion(3, "quantum Cabello maximum is 0.1078 +- 1e-3 in < 60 s"):
        start = time.perf_counter()
        result, _, _ = max_cabello_qm(restarts=64, seed=0)
        elapsed = time.perf_counter() - start
        assert abs(result.value - 0.1078) <= 1e-3
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_4_qm_hardy_bound():
    with criterion(4, "quantum Hardy maximum is 0.0902 +- 1e-3 in < 60 s"):
        start = time.perf_counter()
        result, _ = max_hardy_qm(restarts=64, seed=0)
        elapsed = time.perf_counter() - start
        assert abs(result.value - 0.0902) <= 1e-3
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_5_table2_fixture():
    with criterion(5, "all 45 fixture rows recompute within 5e-5, spot rows exact"):
        checks = verify_table2(tol=5e-5)
        assert len(checks) == 45
        for chk in checks:
            assert chk.lhs_match, f"case {chk.row.case_id}: {chk.recomputed}"
        spots = [
            (coeffs(c5=0.1, c10=0.1, c11=0.8), (0.0400, 0.0400)),
            (coeffs(c5=0.4, c6=0.2, c9=0.4), (0.0800, 0.4000)),
            (coeffs(c5=0.3, c6=0.3, c10=0.3, c11=0.1), (0.9000, 0.9000)),
        ]
        for c, expected in spots:
            lhs = ic_cabello_lhs(c)
            assert (round(lhs[0], 4), round(lhs[1], 4)) == expected


def test_criterion_6_table3():
    with criterion(6, "per-case quantum maxima match the table in < 5 min"):
        start = time.perf_counter()
        values = {}
        for cid in lr_cases():
            result, _, _ = max_cabello_qm(cid, restarts=64, seed=0)
            values[cid] = result.value
        elapsed = time.perf_counter() - start
        for cid in range(1, 12):
            assert values[cid] <= 1e-8, f"case {cid}: {values[cid]}"
        assert abs(values[12] - 0.0990) <= 1e-3
        assert abs(values[14] - 0.0990) <= 1e-3
        assert abs(values[13] - 0.0714) <= 1e-3
        assert abs(values[15] - 0.0714) <= 1e-3
        assert abs(values[12] - values[14]) <= 1e-6
        assert abs(values[13] - values[15]) <= 1e-6
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_7_algebra_cross_check():
    # the hand-written r, s, u, v quadratics and closed-form table of
    # tests/reference.py against the box layer on the vertex stack
    with criterion(7, "coefficient-level IC and closed-form matrix match box level"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            c = rng.dirichlet(np.ones(11))
            box = cabello_box(c)
            lhs1, lhs2 = ic_cabello_lhs(c)
            hand1, hand2 = reference.ic_lhs(c)
            q = ic_quantities(box)
            assert abs(lhs1 - hand1) <= 1e-12 and abs(lhs2 - hand2) <= 1e-12
            assert abs(hand1 - (q.e_i ** 2 + q.e_ii ** 2)) <= 1e-12
            assert abs(hand2 - (q.f_i ** 2 + q.f_ii ** 2)) <= 1e-12
            assert np.max(np.abs(reference.cabello_table(c) - box.p)) <= 1e-12


def test_criterion_8_local_randomness_equivalence():
    with criterion(8, "constraint membership matches marginal local randomness"):
        for cid in lr_cases():
            system = lr_constraints(cid)
            rng = np.random.default_rng((8, cid))
            for _ in range(200):
                c = reference.sample_case_point(cid, rng)
                box = cabello_box(c)
                for inp in case_inputs(cid):
                    assert is_locally_random(box, inp, tol=1e-9)
            checked = 0
            while checked < 200:
                c = rng.dirichlet(np.ones(11))
                if system.satisfied_by(c, tol=1e-6):
                    continue
                box = cabello_box(c)
                assert not all(
                    is_locally_random(box, inp, tol=1e-9)
                    for inp in case_inputs(cid)
                )
                checked += 1


def test_criterion_9_ic_sanity():
    with criterion(9, "PR box breaks IC, local vertices and quantum boxes obey it"):
        pr = boxes.pr_box()
        assert ic_ab_satisfied(pr).lhs == 2.0
        assert ic_ba_satisfied(pr).lhs == 2.0
        assert rac_simulate(pr).total == 2.0
        for v in reference.all_local_vertices():
            assert ic_ab_satisfied(v, 1e-9).satisfied
            assert ic_ba_satisfied(v, 1e-9).satisfied
            assert rac_simulate(v).total <= 1.0
        rng = np.random.default_rng(99)
        for _ in range(100):
            scen = QuantumScenario(
                state=PureState(rng.uniform(0.05, math.pi / 2 - 0.05),
                                rng.uniform(0, 2 * math.pi)),
                a0=MeasurementDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
                a1=MeasurementDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
                b0=MeasurementDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
                b1=MeasurementDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
            )
            box = quantum_box(scen)
            assert ic_ab_satisfied(box, 1e-9).satisfied
            assert ic_ba_satisfied(box, 1e-9).satisfied


def test_criterion_10_closed_form_equivalence():
    with criterion(10, "closed-form q4 - q1 matches the direct model on 500 triples"):
        rng = np.random.default_rng(500)
        for _ in range(500):
            beta = rng.uniform(0.05, math.pi / 2 - 0.05)
            tx0 = rng.uniform(0.05, math.pi - 0.05)
            ty0 = rng.uniform(0.05, math.pi - 0.05)
            direct = extract_q(quantum_box(canonical_scenario(beta, tx0, ty0))).success
            assert abs(q4_minus_q1_closed_form(beta, tx0, ty0) - direct) <= 1e-10
