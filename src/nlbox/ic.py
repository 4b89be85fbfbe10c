"""Information Causality necessary conditions and the 2->1 RAC protocol.

A violation of either quadratic bias condition (one per signaling
direction) implies a violation of Information Causality.  For Cabello
mixtures the biases E_I, E_II, F_I, F_II are linear in the weights c1..c11,
with the vertex boxes' biases as coefficients, so both are quadratics in c.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boxes import Box, DEFAULT_TOL, require_valid
from .cabello import CABELLO_VERTICES, _SUCCESS, check_coefficients, success_closed_form
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


def ic_quantities(box: Box, tol: float = DEFAULT_TOL) -> ICQuantities:
    """Success probabilities of the 2->1 RAC over the box (see rac_simulate),
    with Alice (``_a``) or Bob (``_b``) as the sender, from the agreements
    P(a=b|XY)."""
    require_valid(box, tol)
    g00, g01, g10, g11 = box.stats[:, 3].tolist()  # P(a=b|XY)
    return ICQuantities(
        p_i_a=0.5 * (g00 + g10),
        p_ii_a=0.5 * (g01 + (1.0 - g11)),
        p_i_b=0.5 * (g00 + g01),
        p_ii_b=0.5 * (g10 + (1.0 - g11)),
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


# Rows E_I, E_II, F_I, F_II of the biases at the eleven vertices: the biases
# of the Cabello box with weights c are _BIASES @ c, and the IC conditions
# are |M @ c| <= 1 for the maps M in _BIAS_FORMS.  Both vanish at c11 = 1.
_BIASES = np.array([[q.e_i, q.e_ii, q.f_i, q.f_ii]
                    for q in map(ic_quantities, CABELLO_VERTICES)]).T
_BIAS_FORMS = (_BIASES[:2], _BIASES[2:])


def ic_cabello_lhs(c: Sequence[float], tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Coefficient-level left-hand sides of the two IC conditions.

    The first equals E_I^2 + E_II^2 and the second F_I^2 + F_II^2 of the
    corresponding Cabello box.
    """
    e_i, e_ii, f_i, f_ii = (_BIASES @ check_coefficients(c, 11, tol)).tolist()
    return e_i ** 2 + e_ii ** 2, f_i ** 2 + f_ii ** 2


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


def _entropy(*probs: float) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0 (nonpositive terms drop)."""
    total = 0.0
    for p in probs:
        if p > 0.0:
            total += p * math.log2(p)
    return -total


def rac_simulate(box: Box, tol: float = DEFAULT_TOL) -> RACOutcome:
    """Exact 2->1 random-access-code run over the given box.

    Alice holds uniform bits (X0, X1), feeds X = X0 xor X1 to the box and
    sends m = X0 xor a; Bob feeds Y = i and guesses X_i as m xor b.  His
    guess is right when a xor b = X*i, which happens with probability
    p_i_a (i = 0) or p_ii_a (i = 1) of ``ic_quantities`` whatever the data
    bit, so the joint law of (X_i, guess) is [[P, 1-P], [1-P, P]] / 2, with
    uniform marginals and mutual information 1 - h(P), h the binary entropy.
    """
    q = ic_quantities(box, tol)
    return RACOutcome(q.p_i_a, q.p_ii_a,
                      *(1.0 - _entropy(p, 1.0 - p) for p in (q.p_i_a, q.p_ii_a)))
