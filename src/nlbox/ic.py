"""Information Causality necessary conditions and the 2->1 RAC protocol.

A violation of either quadratic bias condition (one per signaling
direction) implies a violation of Information Causality.  For Cabello
mixtures the biases E_I, E_II, F_I, F_II are linear in the weights c1..c11,
with the vertex boxes' biases as coefficients, so both are quadratics in c.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .boxes import Box, DEFAULT_TOL, _LazyNumpy, require_valid
from .cabello import CABELLO_VERTICES, check_coefficients, success_closed_form
# maximize is bound only so that perfbench/tracing.py can patch
# nlbox.ic.maximize
from .search import DomainError, SearchResult, maximize

np = _LazyNumpy(globals())


# The three records below are frozen dataclasses built as Box is: one
# __dict__ update instead of a setattr per field.
@dataclass(frozen=True, init=False)
class ICQuantities:
    p_i_a: float
    p_ii_a: float
    p_i_b: float
    p_ii_b: float

    def __init__(self, p_i_a: float, p_ii_a: float, p_i_b: float, p_ii_b: float):
        self.__dict__.update(p_i_a=p_i_a, p_ii_a=p_ii_a, p_i_b=p_i_b, p_ii_b=p_ii_b)

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


@dataclass(frozen=True, init=False)
class ICCheck:
    lhs: float
    satisfied: bool

    def __init__(self, lhs: float, satisfied: bool):
        self.__dict__.update(lhs=lhs, satisfied=satisfied)

    @property
    def margin(self) -> float:
        return 1.0 - self.lhs


@dataclass(frozen=True, init=False)
class RACOutcome:
    p_bit0: float
    p_bit1: float
    mi_bit0: float
    mi_bit1: float

    def __init__(self, p_bit0: float, p_bit1: float, mi_bit0: float, mi_bit1: float):
        self.__dict__.update(p_bit0=p_bit0, p_bit1=p_bit1, mi_bit0=mi_bit0, mi_bit1=mi_bit1)

    @property
    def total(self) -> float:
        return self.mi_bit0 + self.mi_bit1


def ic_quantities(box: Box, tol: float = DEFAULT_TOL) -> ICQuantities:
    """Success probabilities of the 2->1 RAC over the box (see rac_simulate),
    with Alice (``_a``) or Bob (``_b``) as the sender, from the agreements
    P(a=b|XY).  Each call applies its own ``tol``, and the record is built
    once per box, kept in its ``__dict__`` as ``functools.cached_property`` does."""
    require_valid(box, tol)
    q = box.__dict__.get("_ic_quantities")
    if q is None:
        g00, g01, g10, g11 = box._stats[3::4]  # P(a=b|XY)
        q = box.__dict__["_ic_quantities"] = ICQuantities(
            0.5 * (g00 + g10), 0.5 * (g01 + (1.0 - g11)),  # p_i_a, p_ii_a
            0.5 * (g00 + g01), 0.5 * (g10 + (1.0 - g11)))  # p_i_b, p_ii_b
    return q


def ic_ab_satisfied(box: Box, tol: float = DEFAULT_TOL) -> ICCheck:
    """Alice-to-Bob condition: E_I^2 + E_II^2 <= 1."""
    q = ic_quantities(box, tol)
    lhs = q.e_i ** 2 + q.e_ii ** 2
    return ICCheck(lhs, lhs <= 1.0 + tol)


def ic_ba_satisfied(box: Box, tol: float = DEFAULT_TOL) -> ICCheck:
    """Bob-to-Alice condition: F_I^2 + F_II^2 <= 1."""
    q = ic_quantities(box, tol)
    lhs = q.f_i ** 2 + q.f_ii ** 2
    return ICCheck(lhs, lhs <= 1.0 + tol)


@functools.cache
def _biases() -> np.ndarray:
    """Rows E_I, E_II, F_I, F_II of the biases at the eleven vertices, read-only
    and built on first use: the biases of the Cabello box with weights c are
    _biases() @ c, and the IC conditions are |M @ c| <= 1 for M the first and
    the last two rows."""
    biases = np.array([[q.e_i, q.e_ii, q.f_i, q.f_ii]
                       for q in map(ic_quantities, CABELLO_VERTICES)]).T
    biases.setflags(write=False)
    return biases


def ic_cabello_lhs(c: Sequence[float], tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Coefficient-level left-hand sides of the two IC conditions.

    The first equals E_I^2 + E_II^2 and the second F_I^2 + F_II^2 of the
    corresponding Cabello box.
    """
    e_i, e_ii, f_i, f_ii = (_biases() @ check_coefficients(c, 11, tol)).tolist()
    return e_i ** 2 + e_ii ** 2, f_i ** 2 + f_ii ** 2


@functools.cache
def _ic_witness() -> tuple[np.ndarray, float, tuple[float, float]]:
    """The maximizer c6 = 1/sqrt(2), c11 = 1 - 1/sqrt(2), read-only, with its
    success and its two IC slacks, built on first use; built between the
    vertices c6 = 1 and c11 = 1 this way both slacks round to +2.2e-16, not below 0."""
    c6, c11 = np.eye(11)[[5, 10]]
    point = c11 + (c6 - c11) / math.sqrt(2.0)
    point.setflags(write=False)
    return point, success_closed_form(point), tuple(1.0 - lhs for lhs in ic_cabello_lhs(point))


_IC_BOUND = (math.sqrt(2.0) - 1.0) / 2.0


def max_success_under_ic(restarts: int = 64, seed: int = 0, equalities=None) -> SearchResult:
    """Maximize q4 - q1 over the 11-simplex under both IC quadratics and
    the optional affine ``equalities`` (A, b).

    On the simplex q4 - q1 = -1/2 - (E_I + E_II + F_I + F_II)/4 exactly
    (``cabello._success() == -0.5 - 0.25 * _biases().sum(0)``), and IC's discs
    E_I^2 + E_II^2 <= 1 and F_I^2 + F_II^2 <= 1 give E_I + E_II >= -sqrt(2)
    and F_I + F_II >= -sqrt(2), so q4 - q1 <= (sqrt(2)-1)/2 = ``_IC_BOUND``.
    The dual certificate is mu = -1/2 on the simplex row, lambda = sqrt(2)/4
    on each disc and u = -(1, 1)/sqrt(2) in each; every dual slack is 0.
    The bound is attained at c6 = 1/sqrt(2), c11 = 1 - 1/sqrt(2), which
    satisfies every equality system that holds at c6 = 1 and at c11 = 1,
    as no system and each local-randomness system do.  That point is
    returned with ``method="closed-form"``, ``upper_bound=_IC_BOUND`` and
    no evaluations; any other ``equalities`` raise DomainError, as do an
    ``A`` that is not rows of 11 numbers and a ``b`` without one entry per
    row.  ``restarts`` and ``seed`` have no effect; they are accepted so
    that existing callers keep working.
    """
    if equalities is not None:
        a, b = (np.asarray(e, dtype=float) for e in equalities)
        if a.ndim != 2 or a.shape[1] != 11 or b.shape != a.shape[:1]:
            raise DomainError(f"equalities need A of shape (k, 11) and b of shape (k,), "
                              f"not {a.shape} and {b.shape}")
        # A @ c at c6 = 1 and at c11 = 1 is column 6 and column 11 of A, a[:, 5::5];
        # a non-finite A, whose products with those points are not finite, holds at neither
        if not (np.isfinite(a).all() and (np.abs(a[:, 5::5] - b[:, None]) <= 1e-12).all()):
            raise DomainError("the IC maximum is certified only for equalities "
                              "that hold at c6 = 1 and at c11 = 1")
    point, value, slacks = _ic_witness()
    return SearchResult(value=value, point=point.copy(), starts_used=1,
                        converged=True, constraint_slacks=slacks,
                        upper_bound=_IC_BOUND, method="closed-form", evaluations=0)


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
    p0, p1 = q.p_i_a, q.p_ii_a
    return RACOutcome(p0, p1, 1.0 - _entropy(p0, 1.0 - p0), 1.0 - _entropy(p1, 1.0 - p1))
