"""Two-qubit pure-state model, constraint solving and quantum maxima."""
import math
import subprocess
import sys

import numpy as np
import pytest

from nlbox.boxes import chsh_value, marginal, validate_box
from nlbox.ic import ic_ab_satisfied, ic_ba_satisfied
from nlbox.localrandom import LR_INPUTS, is_locally_random
from nlbox.quantum import (
    DegenerateConstraintError,
    MeasurementDirection,
    PureState,
    QuantumScenario,
    canonical_scenario,
    case_geometry,
    joint_probability,
    marginal_bias,
    max_cabello_qm,
    max_hardy_qm,
    q4_minus_q1_closed_form,
    quantum_box,
    quantum_tables,
    solve_cabello_constraints,
    tsirelson_scenario,
)
from nlbox.cabello import extract_q
from nlbox.search import SearchConfig, SearchDomain, maximize

QM_MAX = 0.10781271774893628
CASE_12_MAX = 0.09920568268063716
CASE_13_MAX = 0.07155367030998326

HALF_PI = math.pi / 2


def random_scenario(rng):
    return QuantumScenario(
        state=PureState(beta=rng.uniform(0.05, HALF_PI - 0.05),
                        gamma=rng.uniform(0, 2 * math.pi)),
        a0=MeasurementDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
        a1=MeasurementDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
        b0=MeasurementDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
        b1=MeasurementDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
    )


class TestJointProbability:
    def test_maximally_entangled_equatorial(self):
        eq = MeasurementDirection(HALF_PI, 0.0)
        scen = QuantumScenario(PureState(math.pi / 4), eq, eq, eq, eq)
        for x in (0, 1):
            for y in (0, 1):
                assert abs(joint_probability(scen, 0, 0, x, y) - 0.5) <= 1e-12
                assert abs(joint_probability(scen, 1, 1, x, y) - 0.5) <= 1e-12
                assert abs(joint_probability(scen, 0, 1, x, y)) <= 1e-12

    def test_both_measure_z(self):
        z = MeasurementDirection(0.0, 0.0)
        for beta in (0.3, 0.7, 1.2):
            scen = QuantumScenario(PureState(beta), z, z, z, z)
            assert abs(joint_probability(scen, 0, 0, 0, 0) - math.cos(beta) ** 2) <= 1e-12

    def test_normalization(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            scen = random_scenario(rng)
            for x in (0, 1):
                for y in (0, 1):
                    total = sum(
                        joint_probability(scen, a, b, x, y)
                        for a in (0, 1) for b in (0, 1)
                    )
                    assert abs(total - 1.0) <= 1e-12


class TestQuantumBox:
    def test_bloch_form_matches_kron_products(self):
        rng = np.random.default_rng(11)
        scens = [random_scenario(rng) for _ in range(50)]
        dirs = [(s.a0, s.a1, s.b0, s.b1) for s in scens]
        tables = quantum_tables([s.state.beta for s in scens], [s.state.gamma for s in scens],
                                [[d.theta for d in ds] for ds in dirs],
                                [[d.phi for d in ds] for ds in dirs])
        assert tables.shape == (50, 4, 4)
        for scen, table in zip(scens, tables):
            assert scen.state.gamma != 0.0
            np.testing.assert_array_equal(quantum_box(scen).p, table)
            for x in (0, 1):
                for y in (0, 1):
                    for a in (0, 1):
                        for b in (0, 1):
                            kron = joint_probability(scen, a, b, x, y)
                            assert abs(table[2 * x + y, 2 * a + b] - kron) <= 1e-14

    def test_valid_no_signaling(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            assert validate_box(quantum_box(random_scenario(rng)), 1e-9) == []

    def test_marginals_match_bias_formula(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            scen = random_scenario(rng)
            box = quantum_box(scen)
            for party in "AB":
                for inp in (0, 1):
                    expected = marginal_bias(scen.state, scen.direction(party, inp))
                    assert abs(marginal(box, party, inp) - expected) <= 1e-12

    def test_satisfies_ic_conditions(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            box = quantum_box(random_scenario(rng))
            assert ic_ab_satisfied(box, 1e-9).satisfied
            assert ic_ba_satisfied(box, 1e-9).satisfied

    def test_chsh_within_tsirelson(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            box = quantum_box(random_scenario(rng))
            for x in (0, 1):
                for y in (0, 1):
                    assert chsh_value(box, x, y) <= 2 * math.sqrt(2) + 1e-6

    def test_product_state_limit_is_local(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            scen = random_scenario(rng)
            near_product = QuantumScenario(
                PureState(1e-6, scen.state.gamma),
                scen.a0, scen.a1, scen.b0, scen.b1,
            )
            box = quantum_box(near_product)
            for x in (0, 1):
                for y in (0, 1):
                    assert chsh_value(box, x, y) <= 2.0 + 1e-9


class TestTsirelson:
    def test_chsh_value(self):
        box = quantum_box(tsirelson_scenario())
        assert abs(chsh_value(box, 1, 1) - 2 * math.sqrt(2)) <= 1e-9

    def test_all_inputs_locally_random(self):
        box = quantum_box(tsirelson_scenario())
        for inp in LR_INPUTS:
            assert is_locally_random(box, inp)


class TestMarginalBias:
    def test_equator_is_unbiased(self):
        for beta in (0.2, 0.8, 1.4):
            bias = marginal_bias(PureState(beta), MeasurementDirection(HALF_PI, 0.3))
            assert abs(bias - 0.5) <= 1e-12

    def test_maximal_entanglement_is_unbiased(self):
        for theta in (0.1, 1.0, 2.5):
            bias = marginal_bias(PureState(math.pi / 4), MeasurementDirection(theta, 0.0))
            assert abs(bias - 0.5) <= 1e-12

    def test_polar_example(self):
        bias = marginal_bias(PureState(math.pi / 6), MeasurementDirection(0.0, 0.0))
        assert abs(bias - 0.75) <= 1e-12


class TestCabelloConstraints:
    def test_symmetric_maximally_entangled(self):
        tx1, ty1 = solve_cabello_constraints(PureState(math.pi / 4), HALF_PI, HALF_PI)
        assert abs(tx1 - HALF_PI) <= 1e-12
        assert abs(ty1 - HALF_PI) <= 1e-12

    def test_pi_over_six_example(self):
        tx1, _ = solve_cabello_constraints(PureState(math.pi / 6), 1.0, HALF_PI)
        assert abs(tx1 - math.pi / 3) <= 1e-12

    def test_symmetric_inputs(self):
        tx1, ty1 = solve_cabello_constraints(PureState(0.6), 1.1, 1.1)
        assert abs(tx1 - ty1) <= 1e-15

    def test_zeros_enforced(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            beta = rng.uniform(0.05, HALF_PI - 0.05)
            tx0 = rng.uniform(0.05, math.pi - 0.05)
            ty0 = rng.uniform(0.05, math.pi - 0.05)
            box = quantum_box(canonical_scenario(beta, tx0, ty0))
            q = extract_q(box)
            assert abs(q.q2) <= 1e-10 and abs(q.q3) <= 1e-10

    def test_degenerate_boundary(self):
        with pytest.raises(DegenerateConstraintError):
            solve_cabello_constraints(PureState(0.5), 0.0, 1.0)
        with pytest.raises(DegenerateConstraintError):
            q4_minus_q1_closed_form(0.0, 1.0, 1.0)


class TestClosedForm:
    def test_symmetric_maximally_entangled_is_zero(self):
        assert abs(q4_minus_q1_closed_form(math.pi / 4, HALF_PI, HALF_PI)) <= 1e-15

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            beta = rng.uniform(0.05, HALF_PI - 0.05)
            tx0 = rng.uniform(0.05, math.pi - 0.05)
            ty0 = rng.uniform(0.05, math.pi - 0.05)
            direct = extract_q(quantum_box(canonical_scenario(beta, tx0, ty0))).success
            assert abs(q4_minus_q1_closed_form(beta, tx0, ty0) - direct) <= 1e-10

    def test_free_phase_mode_agrees_with_canonical(self):
        # letting the residual phase freedom vary must not beat the canonical
        # phase choice baked into the closed form
        def objective(z):
            # canonical_scenario(beta, tx0, ty0, phase_delta=delta), batched
            beta, tx0, ty0, delta = z
            tx1, ty1 = solve_cabello_constraints(PureState(beta), tx0, ty0)
            half_pi = np.full_like(delta, HALF_PI)
            p = quantum_tables(beta, 0.0, np.stack([tx0, tx1, ty0, ty1], -1),
                               np.stack([half_pi + delta, half_pi, half_pi, half_pi - delta], -1))
            return p[:, 3, 3] - p[:, 0, 0]  # q4 - q1

        free = maximize(
            objective,
            SearchDomain(bounds=(
                (0.01, HALF_PI - 0.01),
                (0.01, math.pi - 0.01),
                (0.01, math.pi - 0.01),
                (-math.pi, math.pi),
            )),
            SearchConfig(grid=17),  # 33**4 points need several hundred MB
        )
        canonical, _, _ = max_cabello_qm()
        assert abs(free.value - canonical.value) <= 1e-8


class TestCaseGeometry:
    def test_unconstrained(self):
        geom = case_geometry(None)
        assert geom.free_names == ("beta", "theta_x0", "theta_y0")

    def test_singleton_cases(self):
        assert case_geometry(12).theta_x0 == "half_pi"
        assert case_geometry(12).beta is None
        assert case_geometry(15).theta_x0 == "two_beta"

    def test_conflicts_force_maximal_entanglement(self):
        for cid in (1, 2, 3, 4, 5, 10, 11):
            assert case_geometry(cid).beta == math.pi / 4

    def test_pair_cases_leave_beta_free(self):
        for cid in (6, 7, 8, 9):
            assert case_geometry(cid).beta is None


class TestQuantumMaxima:
    def test_global_cabello_maximum(self):
        result, scen, _ = max_cabello_qm()
        assert abs(result.value - QM_MAX) <= 1e-12
        q = extract_q(quantum_box(scen))
        assert abs(q.success - result.value) <= 1e-9
        assert abs(q.q2) <= 1e-9 and abs(q.q3) <= 1e-9
        assert result.method == "grid+zoom" and result.converged
        assert result.grid == 33 and result.cell_width < 1e-12
        assert result.evaluations == 33 ** 3 + 37 * 9 ** 3

    def test_case_12_maximum(self):
        for cid in (12, 14):
            result, _, _ = max_cabello_qm(cid)
            assert abs(result.value - CASE_12_MAX) <= 1e-12

    def test_case_13_maximum(self):
        for cid in (13, 15):
            result, _, _ = max_cabello_qm(cid)
            assert abs(result.value - CASE_13_MAX) <= 1e-12

    def test_case_9_is_zero(self):
        result, _, _ = max_cabello_qm(9)
        assert abs(result.value) <= 1e-12

    def test_cases_1_to_11_are_zero(self):
        for cid in range(1, 12):
            result, scen, geom = max_cabello_qm(cid)
            assert abs(result.value) <= 1e-12, cid
            if not geom.free_names:
                assert result.evaluations == 1
            q = extract_q(quantum_box(scen))
            assert abs(q.q2) <= 1e-9 and abs(q.q3) <= 1e-9

    def test_result_independent_of_restarts_and_seed(self):
        base, _, _ = max_cabello_qm(12)
        for restarts, seed in ((1, 0), (64, 7)):
            other, _, _ = max_cabello_qm(12, restarts=restarts, seed=seed)
            assert other.value == base.value
            np.testing.assert_array_equal(other.point, base.point)
        hardy, _ = max_hardy_qm(restarts=3, seed=5)
        assert hardy.value == max_hardy_qm()[0].value

    def test_does_not_import_scipy_optimize(self):
        code = (
            "import contextlib, io, sys, nlbox, nlbox.cli\n"
            "nlbox.max_cabello_qm(); nlbox.max_hardy_qm()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert nlbox.cli.main(['table3']) == 0\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_hardy_maximum(self):
        result, scen = max_hardy_qm()
        assert abs(result.value - (5 * math.sqrt(5) - 11) / 2) <= 1e-12
        q = extract_q(quantum_box(scen))
        assert abs(q.q1) <= 1e-9 and abs(q.q2) <= 1e-9 and abs(q.q3) <= 1e-9
        assert abs(q.q4 - result.value) <= 1e-9

    def test_hardy_fails_for_maximal_entanglement(self):
        # on the q1 = 0 slice the success vanishes as beta -> pi/4
        def hardy_q4(beta, tx0):
            ty0 = 2 * math.atan(1 / (math.tan(beta) * math.tan(tx0 / 2)))
            return extract_q(quantum_box(canonical_scenario(beta, tx0, ty0))).q4

        for tx0 in (0.5, 1.0, 2.0):
            assert hardy_q4(math.pi / 4 - 1e-7, tx0) <= 1e-6
