"""Two-qubit pure-state model, constraint solving and quantum maxima."""
import dataclasses
import math
import warnings

import numpy as np
import pytest
import sympy as sp

from fresh_imports import solve_imports
import reference
import nlbox.quantum
from nlbox.boxes import MalformedBoxError, chsh_value, marginal, validate_box
from nlbox.ic import ic_ab_satisfied, ic_ba_satisfied
from nlbox.localrandom import LR_INPUTS, is_locally_random
from nlbox.quantum import (
    _STATIONARITY,
    ANGLE_MARGIN,
    HARDY_GEOMETRY,
    DegenerateConstraintError,
    MeasurementDirection,
    PureState,
    QuantumScenario,
    canonical_scenario,
    case_geometry,
    marginal_bias,
    max_cabello_qm,
    max_hardy_qm,
    q4_minus_q1_closed_form,
    quantum_box,
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
                assert abs(reference.joint_probability(scen, 0, 0, x, y) - 0.5) <= 1e-12
                assert abs(reference.joint_probability(scen, 1, 1, x, y) - 0.5) <= 1e-12
                assert abs(reference.joint_probability(scen, 0, 1, x, y)) <= 1e-12

    def test_both_measure_z(self):
        z = MeasurementDirection(0.0, 0.0)
        for beta in (0.3, 0.7, 1.2):
            scen = QuantumScenario(PureState(beta), z, z, z, z)
            assert abs(reference.joint_probability(scen, 0, 0, 0, 0) - math.cos(beta) ** 2) <= 1e-12

    def test_normalization(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            scen = random_scenario(rng)
            for x in (0, 1):
                for y in (0, 1):
                    total = sum(
                        reference.joint_probability(scen, a, b, x, y)
                        for a in (0, 1) for b in (0, 1)
                    )
                    assert abs(total - 1.0) <= 1e-12


class TestQuantumBox:
    def test_bloch_form_matches_kron_products(self):
        rng = np.random.default_rng(11)
        scens = [random_scenario(rng) for _ in range(50)]
        dirs = [(s.a0, s.a1, s.b0, s.b1) for s in scens]
        tables = reference.quantum_tables([s.state.beta for s in scens],
                                          [s.state.gamma for s in scens],
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
                            kron = reference.joint_probability(scen, a, b, x, y)
                            assert abs(table[2 * x + y, 2 * a + b] - kron) <= 1e-14

    def test_batch_of_shape_3_5_matches_quantum_box_and_kron(self):
        rng = np.random.default_rng(18)
        scens = [[random_scenario(rng) for _ in range(5)] for _ in range(3)]
        dirs = lambda s: (s.a0, s.a1, s.b0, s.b1)
        tables = reference.quantum_tables(
            [[s.state.beta for s in row] for row in scens],
            [[s.state.gamma for s in row] for row in scens],
            [[[d.theta for d in dirs(s)] for s in row] for row in scens],
            [[[d.phi for d in dirs(s)] for s in row] for row in scens])
        assert tables.shape == (3, 5, 4, 4)
        for row, row_tables in zip(scens, tables):
            for scen, table in zip(row, row_tables):
                np.testing.assert_array_equal(quantum_box(scen).p, table)
                kron = [[reference.joint_probability(scen, a, b, x, y)
                         for a in (0, 1) for b in (0, 1)] for x in (0, 1) for y in (0, 1)]
                assert np.abs(table - kron).max() <= 1e-14

    def test_edge_scenarios_match_reference_bit_for_bit(self):
        # polar angles at the poles and the equator, product and maximally
        # entangled states, a phase gamma != 0, and phases below 0 or above 2 pi
        for beta in (0.0, math.pi / 4, HALF_PI):
            for theta in (0.0, HALF_PI, math.pi):
                for gamma, phi in ((0.7, -1.9), (2.3, 2 * math.pi + 0.4), (-0.5, 9.1)):
                    thetas = [theta, math.pi - theta, 0.3, theta]
                    phis = [phi, 0.2, -phi, phi + 1.0]
                    scen = QuantumScenario(
                        PureState(beta, gamma),
                        *(MeasurementDirection(t, f) for t, f in zip(thetas, phis)))
                    table = reference.quantum_tables(beta, gamma, thetas, phis)
                    np.testing.assert_array_equal(quantum_box(scen).p, table)

    def test_scalar_path_makes_no_numpy_call(self, monkeypatch):
        rng = np.random.default_rng(20)
        scens = [tsirelson_scenario()] + [random_scenario(rng) for _ in range(50)]
        expected = [quantum_box(scen).p for scen in scens]

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"quantum_box read np.{name}")

        monkeypatch.setattr(nlbox.quantum, "np", NoNumpy())
        for scen, table in zip(scens, expected):
            np.testing.assert_array_equal(quantum_box(scen).p, table)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, None, "0.3"])
    @pytest.mark.parametrize("field", ["beta", "gamma", "theta", "phi"])
    def test_bad_angle_is_malformed_without_warning(self, field, value):
        scen = tsirelson_scenario()
        if field in ("beta", "gamma"):
            scen = dataclasses.replace(scen, state=dataclasses.replace(scen.state, **{field: value}))
        else:
            scen = dataclasses.replace(scen, b1=dataclasses.replace(scen.b1, **{field: value}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedBoxError,
                               match="^quantum angles must be finite real numbers: "):
                quantum_box(scen)

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
                    expected = marginal_bias(scen.state, reference.direction(scen, party, inp))
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

    def test_equals_the_batched_form_bit_for_bit_at_every_witness(self):
        for geom in GEOMETRIES:
            args = geom.params(algebraic_maximum(geom).point)
            assert q4_minus_q1_closed_form(*args) == reference.q4_minus_q1_closed_form(*args)
            np.testing.assert_array_equal(
                reference.q4_minus_q1_closed_form(*(np.full(2, a) for a in args)),
                q4_minus_q1_closed_form(*args))

    def test_agrees_with_the_batched_form_within_4_ulp(self):
        # numpy's vectorised tan and arctan may round differently from
        # math.tan and math.atan in the last bit; q4 and q1 are at most 1,
        # so the ulp is that of 1 (the ulp of q4 - q1 itself vanishes
        # where the two cancel)
        rng = np.random.default_rng(23)
        beta = rng.uniform(ANGLE_MARGIN, HALF_PI - ANGLE_MARGIN, 10_000)
        tx0, ty0 = rng.uniform(ANGLE_MARGIN, math.pi - ANGLE_MARGIN, (2, 10_000))
        batched = reference.q4_minus_q1_closed_form(beta, tx0, ty0)
        scalar = [q4_minus_q1_closed_form(b, x, y)
                  for b, x, y in zip(beta.tolist(), tx0.tolist(), ty0.tolist())]
        assert np.abs(batched - scalar).max() <= 4 * math.ulp(1.0)

    @pytest.mark.parametrize("args", [(0.0, 1.0, 1.0), (math.nan, 1.0, 1.0), (0.5, math.pi, 1.0),
                                      (0.5, 1.0, -math.inf), (HALF_PI, 1.0, 1.0),
                                      (0.5, 1.0, math.nan)])
    def test_degenerate_messages_match_the_batched_form(self, args):
        for scalar, batched in ((q4_minus_q1_closed_form, reference.q4_minus_q1_closed_form),
                                (lambda b, x, y: solve_cabello_constraints(PureState(b), x, y),
                                 lambda b, x, y: reference.solve_cabello_constraints(
                                     PureState(b), x, y))):
            with pytest.raises(DegenerateConstraintError) as expected:
                batched(*args)
            with pytest.raises(DegenerateConstraintError) as got:
                scalar(*args)
            assert str(got.value) == str(expected.value)

    def test_free_phase_mode_agrees_with_canonical(self):
        # letting the residual phase freedom vary must not beat the canonical
        # phase choice baked into the closed form
        def objective(z):
            # canonical_scenario(beta, tx0, ty0) with the a0 and b1 phases
            # turned by +delta and -delta, batched
            beta, tx0, ty0, delta = z
            tx1, ty1 = reference.solve_cabello_constraints(PureState(beta), tx0, ty0)
            half_pi = np.full_like(delta, HALF_PI)
            p = reference.quantum_tables(
                beta, 0.0, np.stack([tx0, tx1, ty0, ty1], -1),
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
        assert case_geometry(12).theta_x0 == "pi/2"
        assert case_geometry(12).beta is None
        assert case_geometry(15).theta_x0 == "2*beta"

    def test_conflicts_force_maximal_entanglement(self):
        for cid in (1, 2, 3, 4, 5, 10, 11):
            assert case_geometry(cid).beta == math.pi / 4

    def test_pair_cases_leave_beta_free(self):
        for cid in (6, 7, 8, 9):
            assert case_geometry(cid).beta is None

    def test_hardy_rule_zeroes_q1(self):
        assert HARDY_GEOMETRY.free_names == ("beta", "theta_x0")
        rng = np.random.default_rng(20)
        for _ in range(200):
            beta = rng.uniform(0.01, HALF_PI - 0.01)
            tx0 = rng.uniform(0.01, math.pi - 0.01)
            scen = canonical_scenario(*HARDY_GEOMETRY.params((beta, tx0)))
            assert abs(extract_q(quantum_box(scen)).q1) <= 1e-15


class TestQuantumMaxima:
    def test_global_cabello_maximum(self):
        result, scen, _ = max_cabello_qm()
        assert abs(result.value - QM_MAX) <= 1e-12
        q = extract_q(quantum_box(scen))
        assert abs(q.success - result.value) <= 1e-9
        assert abs(q.q2) <= 1e-9 and abs(q.q3) <= 1e-9
        assert result.method == "algebraic" and result.converged

    def test_witnesses_stay_on_their_side_of_maximal_entanglement(self):
        # each maximum has a mirror copy at beta -> pi/2 - beta; the solver
        # keeps b > 1 for the global and case 12/14 maxima, b < 1 for the rest
        betas = {"global": 1.0696552, 12: 1.0798042, 14: 1.0798042, 13: 0.5426340,
                 15: 0.5426340, "hardy": 0.4346923}
        for key, beta in betas.items():
            if key == "hardy":
                result, _ = max_hardy_qm()
            else:
                result, _, _ = max_cabello_qm(None if key == "global" else key)
            assert abs(result.point[0] - beta) <= 1e-6, key

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

    def test_cases_1_to_11_have_fixed_witnesses(self):
        # beta = pi/4 where it is free (cases 6-9), a free theta at pi/2
        # (cases 10, 11), and nothing to choose in cases 1-5
        for cid in range(1, 12):
            result, scen, geom = max_cabello_qm(cid)
            assert abs(result.value) <= 1e-15, cid
            assert result.method == "algebraic" and result.evaluations == 1
            expected = [math.pi / 4 if name == "beta" else HALF_PI for name in geom.free_names]
            assert result.point.tolist() == expected, cid
            assert scen.state.beta == math.pi / 4

    def test_result_independent_of_restarts_and_seed(self):
        base, _, _ = max_cabello_qm(12)
        for restarts, seed in ((1, 0), (64, 7)):
            other, _, _ = max_cabello_qm(12, restarts=restarts, seed=seed)
            assert other.value == base.value
            np.testing.assert_array_equal(other.point, base.point)
        hardy, _ = max_hardy_qm(restarts=3, seed=5)
        assert hardy.value == max_hardy_qm()[0].value

    def test_solve_makes_no_numpy_call_but_roots(self, monkeypatch):
        expected = solve_all()
        roots_calls = []

        class RootsOnly:
            # np.array builds each result's point once, after the solve
            allowed = {"roots": lambda c: roots_calls.append(c) or np.roots(c),
                       "array": np.array}

            def __getattr__(self, name):
                if name not in self.allowed:
                    raise AssertionError(f"the quantum solve read np.{name}")
                return self.allowed[name]

        monkeypatch.setattr(nlbox.quantum, "np", RootsOnly())
        # cold caches, so the stationary points are solved under the stub
        clear_solve_caches()
        for got, want in zip(solve_all(), expected):
            assert got[0].value == want[0].value
            assert got[0].evaluations == want[0].evaluations
            assert got[0].point.dtype == want[0].point.dtype == np.float64
            assert got[0].point.tobytes() == want[0].point.tobytes()
            assert got[1] == want[1]
        assert roots_calls

    def test_does_not_import_scipy_optimize(self):
        assert solve_imports()["qm"] == ([0, 0, 0], False, False)

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


def solve_all(order=(None, *range(1, 16), "hardy")):
    """(result, witness) of the 17 solves, in ``order``, listed by solve."""
    solved = {cid: (max_hardy_qm() if cid == "hardy" else max_cabello_qm(cid)[:2])
              for cid in order}
    return [solved[cid] for cid in (None, *range(1, 16), "hardy")]


def clear_solve_caches():
    nlbox.quantum._stationary_points.cache_clear()
    nlbox.quantum._case_geometry.cache_clear()


def solve_fingerprint(solves):
    return [(r.value, r.point.tobytes(), r.evaluations, r.method, scen) for r, scen in solves]


class TestSolveCaches:
    """Stationary points and case geometries are built once per process."""

    def test_order_and_warmth_do_not_change_any_solve(self):
        clear_solve_caches()
        forward = solve_fingerprint(solve_all())
        clear_solve_caches()
        backward = solve_fingerprint(solve_all(("hardy", *range(15, 0, -1), None)))
        warm = solve_fingerprint(solve_all())
        assert forward == backward == warm
        assert len(forward) == 17

    def test_each_polynomial_is_solved_once(self, monkeypatch):
        calls = []
        roots = nlbox.quantum._positive_real_roots
        monkeypatch.setattr(nlbox.quantum, "_positive_real_roots",
                            lambda coeffs: calls.append(coeffs) or roots(coeffs))
        clear_solve_caches()
        solve_all()
        assert calls
        calls.clear()
        solve_all()
        assert calls == []
        for first, mirror in ((12, 14), (13, 15)):
            clear_solve_caches()
            max_cabello_qm(first)
            assert calls
            calls.clear()
            max_cabello_qm(mirror)
            assert calls == []

    def test_candidate_lists_are_fresh(self):
        geom = case_geometry(12)
        want = max_cabello_qm(12)[0]
        candidates = nlbox.quantum._candidates(geom)
        assert candidates is not nlbox.quantum._candidates(geom)
        candidates[:] = [(1.0, 1.0)] * 3
        got = max_cabello_qm(12)[0]
        assert (got.value, got.point.tobytes(), got.evaluations) == (
            want.value, want.point.tobytes(), want.evaluations)

    @pytest.mark.parametrize("first", ["numpy", "int"])
    def test_geometries_are_keyed_by_the_checked_case_id(self, first):
        clear_solve_caches()
        ids = [np.int64(12), 12] if first == "numpy" else [12, np.int64(12)]
        a, b = (case_geometry(cid) for cid in ids)
        assert a is b
        assert type(a.case_id) is int and a.case_id == 12
        assert case_geometry(None) is case_geometry(None)

    @pytest.mark.parametrize("bad", [0, True, 1.0, [1]], ids=repr)
    def test_invalid_case_ids_raise_as_before(self, bad):
        with pytest.raises(ValueError) as err:
            case_geometry(bad)
        assert str(err.value) == f"case id must be 1..15, got {bad}"


def grid_maximum(geom):
    """Maximum of q4 - q1 over the free angles of ``geom`` by grid-then-zoom
    search on the ANGLE_MARGIN box: a derivation independent of the
    algebra in nlbox.quantum."""
    bounds = tuple(
        (ANGLE_MARGIN, (HALF_PI if name == "beta" else math.pi) - ANGLE_MARGIN)
        for name in geom.free_names
    )

    def objective(z):
        return np.broadcast_to(reference.q4_minus_q1_closed_form(*reference.case_params(geom, z)),
                               z.shape[1:])

    return maximize(objective, SearchDomain(bounds=bounds))


def algebraic_maximum(geom):
    if geom is HARDY_GEOMETRY:
        return max_hardy_qm()[0]
    return max_cabello_qm(geom.case_id)[0]


GEOMETRIES = [case_geometry(None), HARDY_GEOMETRY] + [case_geometry(c) for c in range(1, 16)]
GEOMETRY_IDS = ["global", "hardy"] + [f"case{c}" for c in range(1, 16)]


class TestGridAgreement:
    @pytest.mark.parametrize("geom", GEOMETRIES, ids=GEOMETRY_IDS)
    def test_grid_search_agrees_with_algebraic(self, geom):
        grid = grid_maximum(geom)
        algebraic = algebraic_maximum(geom)
        assert grid.method == "grid+zoom" and grid.converged
        assert algebraic.method == "algebraic" and algebraic.converged
        assert abs(grid.value - algebraic.value) <= 1e-12

    def test_global_grid_search(self):
        result = grid_maximum(case_geometry(None))
        assert abs(result.value - QM_MAX) <= 1e-12
        assert result.method == "grid+zoom" and result.converged
        assert result.grid == 33 and result.cell_width < 1e-12
        assert result.evaluations == 33 ** 3 + 37 * 9 ** 3

    def test_hardy_grid_search(self):
        result = grid_maximum(HARDY_GEOMETRY)
        assert abs(result.value - (5 * math.sqrt(5) - 11) / 2) <= 1e-3
        assert result.method == "grid+zoom" and result.converged


B, S = sp.symbols("b s", positive=True)
X, Y = sp.symbols("x y", positive=True)


def rational_success(b, x, y):
    """q4 - q1 in b = tan(beta), x = tan(theta_x0/2), y = tan(theta_y0/2)."""
    return (b ** 2 * (b - x * y) ** 2 / ((1 + b ** 2) * (x ** 2 + b ** 2) * (y ** 2 + b ** 2))
            - (1 - b * x * y) ** 2 / ((1 + b ** 2) * (1 + x ** 2) * (1 + y ** 2)))


# the tangent of half a fixed theta, from b and the other tangent
TANGENT = {"pi/2": lambda b, x: 1, "2*beta": lambda b, x: b, "q1=0": lambda b, x: 1 / (b * x)}


def reduced_success(geom):
    """q4 - q1 on ``geom`` with beta free, as a function of b and the free
    tangent s; with both thetas free, on the line x = y = s."""
    x = S if geom.theta_x0 is None else TANGENT[geom.theta_x0](B, None)
    y = S if geom.theta_y0 is None else TANGENT[geom.theta_y0](B, x)
    return rational_success(B, x, y)


def can_vanish(g):
    """Whether the polynomial g may be 0 with b and s positive: in b alone,
    whether it has a positive real root; else whether its coefficients
    differ in sign."""
    if not g.has(S):
        return any(r > 0 for r in sp.Poly(g, B).real_roots())
    return len({sp.sign(c) for c in sp.Poly(g, B, S).coeffs()}) > 1


def vanishing_factors(expr):
    """Irreducible factors, with multiplicity, of the numerator and the
    denominator of ``expr`` that may vanish with b and s positive."""
    out = []
    for part in sp.fraction(sp.cancel(sp.together(expr))):
        _, factors = sp.factor_list(part)
        out += [(g, k) for g, k in factors if can_vanish(g)]
    return out


STATIONARY_CASES = [case_geometry(None), HARDY_GEOMETRY] + [case_geometry(c) for c in (12, 13, 14, 15)]
STATIONARY_IDS = ["global", "hardy", "case12", "case13", "case14", "case15"]


class TestStationarityAlgebra:
    """Exact (sympy) derivation of the polynomials behind every quantum maximum."""

    def test_rational_form_matches_closed_form(self):
        f = sp.lambdify((B, X, Y), rational_success(B, X, Y))
        rng = np.random.default_rng(21)
        for _ in range(100):
            beta = rng.uniform(0.05, HALF_PI - 0.05)
            tx0, ty0 = rng.uniform(0.05, math.pi - 0.05, 2)
            exact = f(math.tan(beta), math.tan(tx0 / 2), math.tan(ty0 / 2))
            assert abs(q4_minus_q1_closed_form(beta, tx0, ty0) - exact) <= 1e-12

    def test_symmetries(self):
        f = rational_success(B, X, Y)
        # x <-> y maps case 12 to 14 and 13 to 15
        assert sp.simplify(rational_success(B, Y, X) - f) == 0
        # beta -> pi/2 - beta, theta -> pi - theta: why one side of b = 1 suffices
        assert sp.simplify(rational_success(1 / B, 1 / X, 1 / Y) - f) == 0

    @pytest.mark.parametrize("geom", STATIONARY_CASES, ids=STATIONARY_IDS)
    def test_polynomials_are_the_stationarity_resultant(self, geom):
        fixed = [r for r in (geom.theta_x0, geom.theta_y0) if r is not None]
        p, q, upper = _STATIONARITY[fixed[0] if fixed else None]
        poly_p = sp.Poly(p, B)
        poly_q = sum(sp.Poly(row, B).as_expr() * S ** (len(q) - 1 - k) for k, row in enumerate(q))
        f = reduced_success(geom)
        # the q4 - q1 = 0 line b = 1 (beta = pi/4) holds no maximum
        assert sp.simplify(f.subs(B, 1)) == 0
        df_ds = sp.numer(sp.together(sp.diff(f, S)))
        df_db = sp.numer(sp.together(sp.diff(f, B)))
        # q is the only factor of the condition in s with a zero at b, s > 0, b != 1
        cofactor = sp.cancel(df_ds / poly_q)
        assert sp.fraction(cofactor)[1].is_number
        assert all(g == B - 1 for g, _ in vanishing_factors(cofactor))
        # eliminating s leaves p, and nothing else that vanishes for b > 0, b != 1
        res = sp.Poly(sp.resultant(poly_q, sp.expand(df_db), S), B)
        quotient, remainder = sp.div(res, poly_p)
        assert remainder.is_zero
        assert all(g == B - 1 or sp.Poly(g, B) == poly_p
                   for g, _ in vanishing_factors(quotient.as_expr()))
        # both map to themselves, up to a monomial, under (b, s) -> (1/b, 1/s)
        for poly in (poly_p.as_expr(), poly_q):
            mirrored = sp.cancel(poly.subs({B: 1 / B, S: 1 / S}, simultaneous=True) / poly)
            assert all(sp.Poly(part, B, S).is_monomial for part in sp.fraction(mirrored))

    def test_hardy_maximum_is_exact(self):
        # at x^2 = 1/b the q1 = 0 surface gives q4 = b^2 (b^2 - 1)^2 / ((1 + b^2)(1 + b^3)^2)
        p = _STATIONARITY["q1=0"][0]
        q4 = reduced_success(HARDY_GEOMETRY).subs(S, 1 / sp.sqrt(B))
        target = (5 * sp.sqrt(5) - 11) / 2
        values = [q4.subs(B, r) for r in sp.Poly(p, B).real_roots()]
        assert all(abs(sp.N(v - target, 40)) <= 1e-35 for v in values)

    @pytest.mark.parametrize("cid", [6, 7, 8, 9])
    def test_pair_cases_peak_at_maximal_entanglement(self, cid):
        f = reduced_success(case_geometry(cid))
        assert not f.has(S)
        # q4 - q1 vanishes only at b = 1, to even order, and is negative elsewhere
        assert [(g, k % 2) for g, k in vanishing_factors(f)] == [(B - 1, 0)]
        assert f.subs(B, 2) < 0 and f.subs(B, sp.Rational(1, 2)) < 0

    def test_maximal_entanglement_gives_zero(self):
        # beta = pi/4 in cases 1-5, 10 and 11: q4 - q1 is 0 for every angle
        assert sp.simplify(rational_success(1, X, Y)) == 0
