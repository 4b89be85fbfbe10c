"""Hardy/Cabello box families, closed-form matrix and NS maximum."""
import math

import numpy as np
import pytest

from fresh_imports import solve_imports
import reference
from reference import coeffs
from nlbox import boxes
from nlbox.cabello import (
    CABELLO_VERTICES,
    HARDY_VERTICES,
    CoefficientError,
    cabello_box,
    check_cabello_conditions,
    coefficients_from_json,
    extract_q,
    hardy_box,
    ns_max_success,
    success_closed_form,
)
from nlbox.ic import ic_cabello_lhs


class TestHardyBox:
    def test_pure_nonlocal_corner(self):
        box = hardy_box([0, 0, 0, 0, 0, 1])
        assert box == boxes.nonlocal_vertex(0, 0, 1)
        assert extract_q(box).q4 == 0.5

    def test_pure_local_corner(self):
        box = hardy_box([1, 0, 0, 0, 0, 0])
        assert box == boxes.local_vertex(0, 0, 0, 1)
        assert extract_q(box).q4 == 0.0

    def test_interior_point(self):
        box = hardy_box([0.1, 0.1, 0.1, 0.1, 0.1, 0.5])
        assert abs(box.prob(1, 1, 1, 1) - 0.25) < 1e-15
        padded = np.concatenate([[0.1] * 5 + [0.5], np.zeros(5)])
        np.testing.assert_allclose(box.p, reference.cabello_table(padded), atol=1e-15)

    def test_hardy_zeros(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            box = hardy_box(rng.dirichlet(np.ones(6)))
            q = extract_q(box)
            assert q.q1 == 0.0 and q.q2 == 0.0 and q.q3 == 0.0

    def test_matches_padded_cabello(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c6 = rng.dirichlet(np.ones(6))
            c11 = np.concatenate([c6, np.zeros(5)])
            assert hardy_box(c6) == cabello_box(c11)


class TestCabelloBox:
    def test_pure_c11_corner(self):
        box = cabello_box(coeffs(c11=1))
        assert box == boxes.nonlocal_vertex(1, 1, 0)
        assert extract_q(box).success == -0.5

    def test_pure_c6_corner(self):
        box = cabello_box(coeffs(c6=1))
        assert box == hardy_box([0, 0, 0, 0, 0, 1])
        assert extract_q(box).success == 0.5

    def test_four_term_mixture(self):
        box = cabello_box(coeffs(c5=0.4, c6=0.1, c10=0.4, c11=0.1))
        assert abs(box.prob(1, 1, 1, 1) - 0.45) < 1e-15
        assert abs(box.prob(0, 0, 0, 0) - 0.45) < 1e-15

    def test_cabello_zeros_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            box = cabello_box(rng.dirichlet(np.ones(11)))
            q = extract_q(box)
            assert q.q2 == 0.0 and q.q3 == 0.0

    def test_coefficient_errors(self):
        with pytest.raises(CoefficientError):
            cabello_box(np.full(11, 0.2))
        with pytest.raises(CoefficientError):
            cabello_box(coeffs(c1=1.2, c2=-0.2))
        with pytest.raises(CoefficientError):
            cabello_box(np.ones(10) / 10)

    def test_coefficient_error_reports_the_exact_sum(self):
        # eleven weights 0.15 sum to 1.65; summed in order, or by numpy's
        # pairwise sum, the rounding gives 1.6499999999999997
        with pytest.raises(CoefficientError) as exc:
            cabello_box(np.full(11, 0.15))
        assert str(exc.value) == "coefficients sum to 1.65, not 1"

    def test_a_sum_that_overflows_is_a_coefficient_error(self):
        # math.fsum raises OverflowError on it; the weights are >= 0, so it is +inf
        with pytest.raises(CoefficientError) as exc:
            cabello_box(coeffs(c1=1e308, c2=1e308))
        assert str(exc.value) == "coefficients sum to inf, not 1"

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    def test_weights_off_by_half_the_tol_pass_and_by_twice_fail(self, tol):
        for shift in (0.5 * tol, -0.5 * tol, 2.0 * tol, -2.0 * tol):
            for c in (coeffs(c1=1.0 + shift), np.full(11, (1.0 + shift) / 11)):
                if abs(shift) < tol:
                    box = cabello_box(c, tol)
                    assert np.abs(box.p - reference.cabello_table(c)).max() <= 1e-15
                else:
                    with pytest.raises(CoefficientError, match="coefficients sum to"):
                        cabello_box(c, tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-12])
    def test_non_finite_or_negative_tol_is_rejected(self, tol):
        # check_coefficients serves all three; unchecked, tol = nan would let
        # the weights (2, -1.5, 0, ...) make a box with an entry of -1.5, and
        # tol = -1 would refuse the corner c1 = 1 as "negative coefficient 0.0"
        for c in (coeffs(c1=1), coeffs(c1=2.0, c2=-1.5)):
            for call in (lambda: cabello_box(c, tol), lambda: hardy_box(c[:6], tol),
                         lambda: ic_cabello_lhs(c, tol)):
                with pytest.raises(ValueError, match="tol must be a finite value >= 0") as exc:
                    call()
                assert not isinstance(exc.value, CoefficientError)


class TestVertexStack:
    @pytest.mark.parametrize("family, vertices, n", [
        (hardy_box, HARDY_VERTICES, 6), (cabello_box, CABELLO_VERTICES, 11)])
    def test_family_box_is_the_vertex_mixture(self, family, vertices, n):
        rng = np.random.default_rng(8)
        for _ in range(500):
            c = rng.dirichlet(np.full(n, 0.5))
            assert np.abs(family(c).p - boxes.mix(vertices, c).p).max() <= 2.2e-16


class TestClosedFormMatrix:
    """The hand-written table of tests/reference.py against the vertex stack."""

    def test_pure_c7_corner(self):
        box = boxes.Box(reference.cabello_table(coeffs(c7=1)))
        assert box == boxes.local_vertex(0, 0, 0, 0)
        np.testing.assert_array_equal(box.p[:, 0], 1.0)

    def test_pure_c6_corner(self):
        box = boxes.Box(reference.cabello_table(coeffs(c6=1)))
        assert box == boxes.nonlocal_vertex(0, 0, 1)

    def test_equals_vertex_mixture(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = rng.dirichlet(np.ones(11))
            np.testing.assert_allclose(
                reference.cabello_table(c), cabello_box(c).p, atol=1e-12
            )


class TestExtractQ:
    def test_success_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            c = rng.dirichlet(np.ones(11))
            q = extract_q(cabello_box(c))
            expected = reference.success(c)
            assert abs(q.success - expected) <= 1e-12
            assert abs(success_closed_form(c) - expected) <= 1e-15

    def test_pr_box(self):
        q = extract_q(boxes.pr_box())
        assert (q.q1, q.q2, q.q3, q.q4) == (0.5, 0.5, 0.5, 0.0)

    def test_uniform_box(self):
        q = extract_q(boxes.uniform_box())
        assert (q.q1, q.q2, q.q3, q.q4) == (0.25, 0.25, 0.25, 0.25)


class TestConditions:
    def test_nonlocal_001_runs(self):
        ok, q = check_cabello_conditions(boxes.nonlocal_vertex(0, 0, 1))
        assert ok and q.success == 0.5

    def test_pr_box_fails(self):
        ok, q = check_cabello_conditions(boxes.pr_box())
        assert not ok and q.q2 == 0.5

    def test_uniform_fails(self):
        ok, q = check_cabello_conditions(boxes.uniform_box())
        assert not ok and q.success == 0.0


class TestNsMax:
    def test_hardy(self):
        value, witness = ns_max_success("hardy")
        assert value == 0.5
        assert witness[5] == 1.0 and sum(witness) == 1.0

    def test_cabello(self):
        value, witness = ns_max_success("cabello")
        assert value == 0.5
        assert witness[5] == 1.0 and sum(witness) == 1.0

    def test_witness_is_a_tuple_of_floats(self):
        for argument, dim in (("hardy", 6), ("cabello", 11)):
            value, witness = ns_max_success(argument)
            assert type(value) is float and type(witness) is tuple and len(witness) == dim
            assert all(type(w) is float for w in witness)

    def test_local_only_restriction_is_zero(self):
        # forbid both nonlocal vertices: no local mixture beats q4 = q1
        rows = np.zeros((2, 11))
        rows[0, 5] = 1.0
        rows[1, 10] = 1.0
        result = reference.cutting_planes((rows, np.zeros(2)), constrained=False)
        assert abs(result.value) <= 1e-12
        assert result.converged and result.upper_bound - result.value <= 1e-9
        assert result.method == "cutting-plane"

    def test_linear_objective_vertex_max_matches_lp(self):
        # the vertex maximum and an LP over the same simplex agree
        for argument, dim in (("hardy", 6), ("cabello", 11)):
            rows = np.eye(11)[dim:]
            lp = reference.cutting_planes(
                (rows, np.zeros(len(rows))) if len(rows) else None, constrained=False
            )
            value, witness = ns_max_success(argument)
            assert value == 0.5
            np.testing.assert_array_equal(witness, np.eye(dim)[5])
            assert abs(lp.value - value) <= 1e-12
            assert abs(lp.upper_bound - value) <= 1e-12

    def test_unknown_argument(self):
        with pytest.raises(ValueError):
            ns_max_success("chsh")

    def test_does_not_import_scipy_optimize(self):
        assert solve_imports()["ns"] == ([], False, False)


class TestCoefficientJson:
    def test_hardy_padding(self):
        c = coefficients_from_json('{"c": [0, 0, 0, 0, 0, 1]}')
        assert c.shape == (11,)
        assert c[5] == 1.0 and c[6:].sum() == 0.0

    def test_full_vector(self):
        c = coefficients_from_json('{"c": [0,0,0,0,0,0.5,0,0,0,0,0.5]}')
        assert c[5] == 0.5 and c[10] == 0.5
