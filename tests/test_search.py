"""Deterministic grid-then-zoom box maximizer and constrained simplex sampling."""
import math

import numpy as np
import pytest

from nlbox.search import (
    DomainError,
    SearchConfig,
    SearchDomain,
    maximize,
    sample_affine_simplex,
)


def sin_ramp(x):
    return np.sin(5 * x[0]) + 0.2 * x[0]


def test_calibration_quadratic_on_interval():
    result = maximize(lambda x: -((x[0] - 0.3) ** 2), SearchDomain(bounds=((0.0, 1.0),)))
    assert abs(result.value) <= 1e-12
    assert abs(result.point[0] - 0.3) <= 1e-6
    assert result.method == "grid+zoom" and result.converged
    assert result.grid == 33 and result.cell_width < 1e-12


def test_global_maximum_of_multimodal_function():
    # sin(5x) + 0.2x on [0, 3] has three local maxima, where cos(5x) = -0.04;
    # the last one, 5x = arccos(-0.04) + 4 pi, is the global one
    argmax = (math.acos(-0.04) + 4 * math.pi) / 5
    result = maximize(sin_ramp, SearchDomain(bounds=((0.0, 3.0),)))
    assert abs(result.value - (math.sin(5 * argmax) + 0.2 * argmax)) <= 1e-12
    assert abs(result.point[0] - argmax) <= 1e-6


def test_determinism():
    domain = SearchDomain(bounds=((0.0, 3.0),))
    r1 = maximize(sin_ramp, domain)
    r2 = maximize(sin_ramp, domain, SearchConfig())
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.point, r2.point)
    assert r1.evaluations == r2.evaluations


def test_no_free_coordinate_is_evaluated_once():
    calls = []

    def objective(z):
        calls.append(z.shape)
        return np.full(z.shape[1], 0.25)

    result = maximize(objective, SearchDomain(bounds=()))
    assert calls == [(0, 1)]
    assert result.value == 0.25 and result.point.shape == (0,)
    assert result.evaluations == 1


def test_inequalities_are_rejected():
    domain = SearchDomain(bounds=((0.0, 1.0),), inequalities=(lambda x: x[0],))
    with pytest.raises(DomainError):
        maximize(lambda x: x[0], domain)


def test_nan_objective_raises():
    with pytest.raises(ValueError, match="NaN"):
        maximize(lambda x: np.full(x.shape[1], np.nan), SearchDomain(bounds=((0.0, 1.0),)))


class TestSampleAffineSimplex:
    def test_case1_style_system(self):
        # force several coordinates to zero and tie two together
        rows, rhs = [], []
        for idx in (1, 3, 6, 7, 8):
            e = np.zeros(11)
            e[idx] = 1.0
            rows.append(e)
            rhs.append(0.0)
        tie = np.zeros(11)
        tie[4], tie[9] = 1.0, -1.0
        rows.append(tie)
        rhs.append(0.0)
        c = sample_affine_simplex((np.array(rows), np.array(rhs)), 11, seed=1)
        assert c.min() >= -1e-10
        assert abs(c.sum() - 1.0) <= 1e-10
        for idx in (1, 3, 6, 7, 8):
            assert abs(c[idx]) <= 1e-10
        assert abs(c[4] - c[9]) <= 1e-10

    def test_empty_system(self):
        c = sample_affine_simplex(None, 3, seed=0)
        assert c.shape == (3,)
        assert c.min() >= 0.0
        assert abs(c.sum() - 1.0) <= 1e-10

    def test_deterministic_per_seed(self):
        c1 = sample_affine_simplex(None, 5, seed=9)
        c2 = sample_affine_simplex(None, 5, seed=9)
        np.testing.assert_array_equal(c1, c2)
        c3 = sample_affine_simplex(None, 5, seed=10)
        assert not np.array_equal(c1, c3)

    def test_inconsistent_system(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([1.0, 0.0])
        with pytest.raises(DomainError):
            sample_affine_simplex((a, b), 2, seed=0)

    def test_no_nonnegative_solution(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([2.0])  # forces the companion coordinate negative
        with pytest.raises(DomainError):
            sample_affine_simplex((a, b), 2, seed=0)
