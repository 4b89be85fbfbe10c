"""Deterministic multistart box-domain maximizer and constrained simplex sampling."""
import numpy as np
import pytest

from nlbox.search import (
    DomainError,
    SearchConfig,
    SearchDomain,
    maximize,
    sample_affine_simplex,
)


def test_calibration_quadratic_on_interval():
    result = maximize(
        lambda x: -((x[0] - 0.3) ** 2),
        SearchDomain(bounds=((0.0, 1.0),)),
        SearchConfig(restarts=4, seed=0),
    )
    assert abs(result.value) <= 1e-12
    assert abs(result.point[0] - 0.3) <= 1e-6


def test_determinism():
    domain = SearchDomain(bounds=((0.0, 3.0),))
    cfg = SearchConfig(restarts=6, seed=42)
    objective = lambda x: float(np.sin(5 * x[0]) + 0.2 * x[0])
    r1 = maximize(objective, domain, cfg)
    r2 = maximize(objective, domain, cfg)
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.point, r2.point)


def test_monotonic_in_restarts():
    domain = SearchDomain(bounds=((0.0, 3.0),))
    objective = lambda x: float(np.sin(5 * x[0]) + 0.2 * x[0])
    v_few = maximize(objective, domain, SearchConfig(restarts=2, seed=5)).value
    v_more = maximize(objective, domain, SearchConfig(restarts=4, seed=5)).value
    assert v_more >= v_few - 1e-12


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
