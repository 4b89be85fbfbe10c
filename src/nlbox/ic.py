"""Information Causality necessary conditions and the 2->1 RAC protocol.

A violation of either quadratic bias condition (one per signaling
direction) implies a violation of Information Causality.  For Cabello
mixtures the two conditions reduce to quadratics in the linear forms
r = c8-c2, s = c1+c3+c6-c7, u = c9-c4, v = c5+c6+c10.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .boxes import Box, DEFAULT_TOL, require_valid
from .cabello import check_coefficients, success_closed_form
# maximize is bound only so that perfbench/tracing.py can patch
# nlbox.ic.maximize
from .search import DomainError, SearchResult, maximize


@dataclass(frozen=True)
class ICQuantities:
    p_i_a: float
    p_ii_a: float
    p_i_b: float
    p_ii_b: float

    @property
    def e_i(self) -> float:
        return 2.0 * self.p_i_a - 1.0

    @property
    def e_ii(self) -> float:
        return 2.0 * self.p_ii_a - 1.0

    @property
    def f_i(self) -> float:
        return 2.0 * self.p_i_b - 1.0

    @property
    def f_ii(self) -> float:
        return 2.0 * self.p_ii_b - 1.0


@dataclass(frozen=True)
class ICCheck:
    lhs: float
    satisfied: bool

    @property
    def margin(self) -> float:
        return 1.0 - self.lhs


@dataclass(frozen=True)
class RACOutcome:
    p_bit0: float
    p_bit1: float
    mi_bit0: float
    mi_bit1: float

    @property
    def total(self) -> float:
        return self.mi_bit0 + self.mi_bit1


def _agree(box: Box, x: int, y: int) -> float:
    """P(a xor b = 0 | XY)."""
    return box.prob(0, 0, x, y) + box.prob(1, 1, x, y)


def ic_quantities(box: Box, tol: float = DEFAULT_TOL) -> ICQuantities:
    require_valid(box, tol)
    return ICQuantities(
        p_i_a=0.5 * (_agree(box, 0, 0) + _agree(box, 1, 0)),
        p_ii_a=0.5 * (_agree(box, 0, 1) + (1.0 - _agree(box, 1, 1))),
        p_i_b=0.5 * (_agree(box, 0, 0) + _agree(box, 0, 1)),
        p_ii_b=0.5 * (_agree(box, 1, 0) + (1.0 - _agree(box, 1, 1))),
    )


def ic_ab_satisfied(box: Box, tol: float = DEFAULT_TOL) -> ICCheck:
    """Alice-to-Bob condition: E_I^2 + E_II^2 <= 1."""
    q = ic_quantities(box, tol)
    lhs = q.e_i ** 2 + q.e_ii ** 2
    return ICCheck(lhs=lhs, satisfied=lhs <= 1.0 + tol)


def ic_ba_satisfied(box: Box, tol: float = DEFAULT_TOL) -> ICCheck:
    """Bob-to-Alice condition: F_I^2 + F_II^2 <= 1."""
    q = ic_quantities(box, tol)
    lhs = q.f_i ** 2 + q.f_ii ** 2
    return ICCheck(lhs=lhs, satisfied=lhs <= 1.0 + tol)


@dataclass(frozen=True)
class RSUV:
    r: float
    s: float
    u: float
    v: float


def rsuv(c: Sequence[float], tol: float = DEFAULT_TOL) -> RSUV:
    c = check_coefficients(c, 11, tol)
    return RSUV(
        r=float(c[7] - c[1]),
        s=float(c[0] + c[2] + c[5] - c[6]),
        u=float(c[8] - c[3]),
        v=float(c[4] + c[5] + c[9]),
    )


def ic_cabello_lhs(c: Sequence[float], tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Coefficient-level left-hand sides of the two IC conditions.

    The first equals E_I^2 + E_II^2 and the second F_I^2 + F_II^2 of the
    corresponding Cabello box.
    """
    q = rsuv(c, tol)
    return (q.r - q.s) ** 2 + (q.u - q.v) ** 2, (q.u - q.s) ** 2 + (q.r - q.v) ** 2


# q4 - q1 = _SUCCESS @ c, and the IC conditions are |M @ c| <= 1 for the maps
# M: c -> (r - s, u - v) and c -> (u - s, r - v), read off rsuv at the
# simplex vertices.  Both maps vanish at c11 = 1.
_SUCCESS = np.array([success_closed_form(e) for e in np.eye(11)])
_RSUV = np.array([[q.r, q.s, q.u, q.v] for q in map(rsuv, np.eye(11))]).T
_BIAS_FORMS = (_RSUV[[0, 2]] - _RSUV[[1, 3]], _RSUV[[2, 0]] - _RSUV[[1, 3]])
_C11 = np.eye(11)[10]
_GAP_TOL = 1e-9


def _pull_into_discs(y: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    """The point of the segment from c11 = 1 to y farthest from c11 = 1 that
    meets both IC conditions, with its two slacks."""
    t = 1.0 / max(1.0, *(np.linalg.norm(m @ y) for m in _BIAS_FORMS))
    while True:  # rounding can leave a slack at -1e-16
        x = _C11 + t * (y - _C11)
        slacks = tuple(1.0 - lhs for lhs in ic_cabello_lhs(x))
        if min(slacks) >= 0.0:
            return x, slacks
        t *= 1.0 - 1e-15


def max_success_under_ic(
    restarts: int = 64,
    seed: int = 0,
    equalities=None,
    constrained: bool = True,
) -> SearchResult:
    """Maximize q4 - q1 over the 11-simplex, under the optional affine
    ``equalities`` (A, b) and, if ``constrained``, both IC quadratics.

    Kelley cutting planes on HiGHS LPs: each LP gives ``upper_bound``; its
    point y, pulled toward c11 = 1 until both conditions hold, is a feasible
    point, and the best one is returned; each violated condition |M c| <= 1
    adds the cut (M y / |M y|) . M c <= 1.  ``converged`` means a gap
    ``upper_bound - value`` of at most 1e-9.  The optimum is (sqrt(2)-1)/2
    ~ 0.2071 on the boundary of both conditions, and 0.5 unconstrained.
    DomainError is raised when no nonnegative point satisfies the
    equalities, or when under IC they exclude c11 = 1 (no local-randomness
    system does).  ``restarts`` and ``seed`` have no effect; they are
    accepted so that existing callers keep working.
    """
    from scipy.optimize import linprog

    a_eq, b_eq = np.ones((1, 11)), np.ones(1)
    if equalities is not None:
        a_eq, b_eq = np.vstack([a_eq, equalities[0]]), np.append(b_eq, equalities[1])
    if constrained and np.abs(a_eq @ _C11 - b_eq).max() > 1e-12:
        raise DomainError("under the IC conditions the equalities must hold at c11 = 1")
    cuts: list[np.ndarray] = []
    best = None  # (value, point, slacks) of the best feasible point so far
    for lps in range(1, 101):  # every local-randomness system takes 2 LPs
        lp = linprog(-_SUCCESS, A_ub=np.array(cuts) if cuts else None,
                     b_ub=np.ones(len(cuts)) if cuts else None,
                     A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
        if lp.status == 2:
            raise DomainError("no nonnegative point satisfies the equalities")
        if lp.status != 0:
            raise RuntimeError(f"HiGHS failed: {lp.message}")
        y, upper = lp.x, -lp.fun
        x, slacks = _pull_into_discs(y) if constrained else (y, ())
        value = success_closed_form(x)
        if best is None or value > best[0]:
            best = (value, x, slacks)
        if upper - best[0] <= _GAP_TOL:
            break
        for m in _BIAS_FORMS:
            norm = np.linalg.norm(m @ y)
            if norm > 1.0:
                cuts.append(m @ y / norm @ m)
    value, x, slacks = best
    return SearchResult(value=value, point=x, starts_used=1,
                        converged=upper - value <= _GAP_TOL,
                        constraint_slacks=slacks, upper_bound=upper,
                        method="cutting-plane", evaluations=lps)


def _entropy2(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def mutual_information(joint: np.ndarray) -> float:
    """I(X;Y) in bits from a 2x2 joint table, with 0 log 0 = 0."""
    joint = np.asarray(joint, dtype=float)
    return (
        _entropy2(joint.sum(axis=1)) + _entropy2(joint.sum(axis=0)) - _entropy2(joint.ravel())
    )


def rac_simulate(box: Box, tol: float = DEFAULT_TOL) -> RACOutcome:
    """Exact 2->1 random-access-code run over the given box.

    Alice holds uniform bits (X0, X1), feeds X = X0 xor X1 to the box and
    sends m = X0 xor a; Bob feeds Y = i and guesses X_i as m xor b.  The
    joint law of (X_i, guess) is enumerated exactly.
    """
    require_valid(box, tol)
    joints = [np.zeros((2, 2)), np.zeros((2, 2))]
    for x0 in (0, 1):
        for x1 in (0, 1):
            x = x0 ^ x1
            data = (x0, x1)
            for i in (0, 1):
                for a in (0, 1):
                    for b in (0, 1):
                        guess = x0 ^ a ^ b
                        joints[i][data[i], guess] += 0.25 * box.prob(a, b, x, i)
    return RACOutcome(
        p_bit0=float(joints[0][0, 0] + joints[0][1, 1]),
        p_bit1=float(joints[1][0, 0] + joints[1][1, 1]),
        mi_bit0=mutual_information(joints[0]),
        mi_bit1=mutual_information(joints[1]),
    )
