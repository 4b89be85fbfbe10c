"""Two-qubit pure-state model of the Cabello argument.

The state is cos(beta)|00> + e^{i gamma} sin(beta)|11>; each input
measures a spin direction (theta, phi).  The canonical configuration sets
gamma = 0 and every phi = pi/2, which makes the interference cosine -1 in
all four input pairs; the two zero conditions q2 = q3 = 0 then pin the
primed polar angles to the (beta, theta_x0, theta_y0) completions, and
q4 - q1 collapses to a closed form in those three parameters.

In b = tan(beta), x = tan(theta_x0/2) and y = tan(theta_y0/2) the form is
rational, q4 = b^2 (b - xy)^2 / ((1 + b^2)(x^2 + b^2)(y^2 + b^2)) and
q1 = (1 - bxy)^2 / ((1 + b^2)(1 + x^2)(1 + y^2)), and every maximum is the
best of a few points given by the real roots of integer stationarity
polynomials (``_STATIONARITY``); no grid search runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .boxes import Box, MalformedBoxError, _table_box, _correlator_cells
from .localrandom import case_inputs
# maximize is bound only so that perfbench/tracing.py can patch
# nlbox.quantum.maximize
from .search import SearchResult, maximize

HALF_PI = math.pi / 2

# free polar angles stay clear of the degenerate cotangent boundaries
ANGLE_MARGIN = 0.01


class DegenerateConstraintError(ValueError):
    """Boundary angles where the zero-condition completions blow up."""


@dataclass(frozen=True)
class PureState:
    beta: float
    gamma: float = 0.0


@dataclass(frozen=True)
class MeasurementDirection:
    theta: float
    phi: float


@dataclass(frozen=True)
class QuantumScenario:
    state: PureState
    a0: MeasurementDirection
    a1: MeasurementDirection
    b0: MeasurementDirection
    b1: MeasurementDirection


def quantum_box(scen: QuantumScenario) -> Box:
    """Table P(ab|XY) of the scenario, in the phase form

        C_A = cos(2 beta) cos(theta_X),  C_B = cos(2 beta) cos(theta_Y),
        C_AB = sin(2 beta) sin(theta_X) sin(theta_Y) cos(gamma - phi_X - phi_Y)
               + cos(theta_X) cos(theta_Y),

    with outcome 0 counted as +1, on plain floats from ``math.cos`` and
    ``math.sin``; ``boxes._correlator_cells`` turns them into the cells
    1/4 +- C_A/4 +- C_B/4 +- C_AB/4.  It is the Bloch form P(ab|XY) =
    (1 + a m.r + b n.r + a b m.T n) / 4 of cos(beta)|00> + e^{i gamma}
    sin(beta)|11>, whose Bloch vectors are r = cos(2 beta) z and whose
    correlation matrix T turns the equatorial parts of m and n into the
    phase cosine.  An angle that is not a finite real number raises
    MalformedBoxError.
    """
    state = scen.state
    # products and sums associate as in the batched numpy form, bit for bit
    try:
        two_beta = 2.0 * state.beta
        cos_2b, sin_2b = math.cos(two_beta), math.sin(two_beta)
        bob = [(math.cos(d.theta), math.sin(d.theta), d.phi) for d in (scen.b0, scen.b1)]
        c_b = [0.25 * (cos_2b * cos_y) for cos_y, _, _ in bob]
        quarters = []
        for d in (scen.a0, scen.a1):
            cos_x, sin_x = math.cos(d.theta), math.sin(d.theta)
            a = 0.25 * (cos_2b * cos_x)
            s = sin_2b * sin_x
            g = state.gamma - d.phi
            for (cos_y, sin_y, phi_y), b in zip(bob, c_b):
                quarters.append((a, b, 0.25 * (s * sin_y * math.cos(g - phi_y) + cos_x * cos_y)))
        return _table_box(_correlator_cells(quarters))
    except (TypeError, ValueError):  # MalformedBoxError for NaN cells included
        raise MalformedBoxError(
            f"quantum angles must be finite real numbers: {scen!r}") from None


def marginal_bias(state: PureState, direction: MeasurementDirection) -> float:
    """P(outcome 0) = (1 + cos(2 beta) cos(theta)) / 2; 1/2 iff theta = pi/2
    or the state is maximally entangled."""
    return 0.5 * (1.0 + math.cos(2 * state.beta) * math.cos(direction.theta))


def _check_open(beta, *thetas) -> None:
    """Raise unless beta lies in (0, pi/2) and every theta in (0, pi)."""
    for name, value, top, label in (("beta", beta, HALF_PI, "pi/2"),
                                    *(("theta", th, math.pi, "pi") for th in thetas)):
        if not 0.0 < value < top:  # NaN included
            raise DegenerateConstraintError(f"{name}={value} outside (0, {label})")


def solve_cabello_constraints(
    state: PureState, theta_x0: float, theta_y0: float
) -> tuple[float, float]:
    """Primed angles zeroing q2 and q3 under the canonical phases:
    tan(theta_x1/2) = tan(beta) cot(theta_y0/2) and symmetrically."""
    _check_open(state.beta, theta_x0, theta_y0)
    tb = math.tan(state.beta)
    theta_x1 = 2.0 * math.atan(tb / math.tan(theta_y0 / 2))
    return theta_x1, 2.0 * math.atan(tb / math.tan(theta_x0 / 2))


def canonical_scenario(beta: float, theta_x0: float, theta_y0: float) -> QuantumScenario:
    """Scenario with gamma = 0, all phi = pi/2 and the q2 = q3 = 0 completions."""
    state = PureState(beta=beta, gamma=0.0)
    tx1, ty1 = solve_cabello_constraints(state, theta_x0, theta_y0)
    return QuantumScenario(
        state=state,
        a0=MeasurementDirection(theta_x0, HALF_PI),
        a1=MeasurementDirection(tx1, HALF_PI),
        b0=MeasurementDirection(theta_y0, HALF_PI),
        b1=MeasurementDirection(ty1, HALF_PI),
    )


def q4_minus_q1_closed_form(beta: float, theta_x0: float, theta_y0: float) -> float:
    """Success probability of the completed canonical scenario."""
    _check_open(beta, theta_x0, theta_y0)
    # products associate as in the batched numpy form, bit for bit
    tb, tx, ty = math.tan(beta), math.tan(theta_x0 / 2), math.tan(theta_y0 / 2)
    sin_b, d = math.sin(beta), tb - tx * ty
    q4 = sin_b * sin_b * (d * d) / ((tx * tx + tb * tb) * (ty * ty + tb * tb))
    r = (math.cos(beta) * math.cos(theta_x0 / 2) * math.cos(theta_y0 / 2)
         - sin_b * math.sin(theta_x0 / 2) * math.sin(theta_y0 / 2))
    return q4 - r * r


def tsirelson_scenario() -> QuantumScenario:
    """Maximally entangled state and equatorial angles with CHSH = 2 sqrt(2)."""
    eq = lambda phi: MeasurementDirection(HALF_PI, phi)
    return QuantumScenario(
        state=PureState(beta=math.pi / 4, gamma=0.0),
        a0=eq(0.0), a1=eq(HALF_PI), b0=eq(-math.pi / 4), b1=eq(math.pi / 4),
    )


# how a fixed polar angle follows from beta and, for theta_y0, theta_x0
_ANGLE_RULES = {
    "pi/2": lambda beta, tx0: HALF_PI,
    "2*beta": lambda beta, tx0: 2.0 * beta,
    # tan(theta_x0/2) tan(theta_y0/2) = cot(beta) zeroes q1
    "q1=0": lambda beta, tx0: 2.0 * math.atan(1.0 / (math.tan(beta) * math.tan(tx0 / 2))),
}


@dataclass(frozen=True)
class CaseGeometry:
    """Disposition of (beta, theta_x0, theta_y0) for one local-randomness
    case, or for Hardy's argument (q1 = 0)."""

    case_id: Optional[int]
    beta: Optional[float]          # None when free
    theta_x0: Optional[str]        # None when free, else a rule: 'pi/2' or '2*beta'
    theta_y0: Optional[str]        # None when free, 'pi/2', '2*beta' or 'q1=0'

    @property
    def free_names(self) -> tuple[str, ...]:
        names = []
        if self.beta is None:
            names.append("beta")
        if self.theta_x0 is None:
            names.append("theta_x0")
        if self.theta_y0 is None:
            names.append("theta_y0")
        return tuple(names)

    def params(self, z: Sequence[float]) -> tuple[float, float, float]:
        """(beta, theta_x0, theta_y0) from the free values z, one per free
        name."""
        vals = dict(zip(self.free_names, z))
        beta = vals.get("beta", self.beta)
        for name, rule in (("theta_x0", self.theta_x0), ("theta_y0", self.theta_y0)):
            if rule is not None:
                vals[name] = _ANGLE_RULES[rule](beta, vals.get("theta_x0"))
        return beta, vals["theta_x0"], vals["theta_y0"]


HARDY_GEOMETRY = CaseGeometry(None, None, None, "q1=0")

# the angle a locally random input fixes, and its rule
_INPUT_RULE = {
    "0_A": ("theta_x0", "pi/2"),
    "0_B": ("theta_y0", "pi/2"),
    "1_A": ("theta_y0", "2*beta"),
    "1_B": ("theta_x0", "2*beta"),
}


def case_geometry(case_id: Optional[int]) -> CaseGeometry:
    """Translate a case's locally random inputs into angle constraints.

    theta = pi/2 is forced for each locally random input; for the primed
    inputs the zero-condition completions turn that into theta_y0 = 2 beta
    (input 1_A) or theta_x0 = 2 beta (input 1_B).  Conflicting assignments
    force the maximally entangled beta = pi/4.
    """
    if case_id is None:
        return CaseGeometry(None, None, None, None)
    marks: dict[str, set] = {"theta_x0": set(), "theta_y0": set()}
    for inp in case_inputs(case_id):
        angle, rule = _INPUT_RULE[inp]
        marks[angle].add(rule)
    beta: Optional[float] = None
    spec: dict[str, Optional[str]] = {}
    for name, mk in marks.items():
        if len(mk) == 2:
            beta = math.pi / 4  # pi/2 = 2 beta only there
            spec[name] = "pi/2"
        else:
            spec[name] = next(iter(mk), None)
    return CaseGeometry(case_id, beta, spec["theta_x0"], spec["theta_y0"])


_BETA_BOUNDS = (ANGLE_MARGIN, HALF_PI - ANGLE_MARGIN)
_THETA_BOUNDS = (ANGLE_MARGIN, math.pi - ANGLE_MARGIN)


# Stationarity of q4 - q1 on the geometries with a free beta and one free
# tangent s: the theta_y0 one when theta_x0 = pi/2 (cases 12, 14 mirrored),
# the theta_x0 one when theta_y0 = 2 beta (cases 13, 15 mirrored) or q1 = 0
# (Hardy), and x = y = s on the whole box (the global maximum; that it lies
# on x = y is checked against search.maximize in the tests, not proven),
# keyed by the rule of the fixed theta.  ``p`` is the polynomial in b that
# eliminating s from the two stationarity conditions leaves; row k of ``q``
# holds the coefficients, in b, of s^(len(q) - 1 - k) in the condition in
# s.  Both list the highest power first, as np.roots takes them.  Every
# geometry and the ANGLE_MARGIN box are invariant under (b, s) -> (1/b, 1/s),
# that is beta -> pi/2 - beta and theta -> pi - theta, so the maximum has a
# copy on each side of b = 1: only roots with b > 1 (``upper``) or b < 1
# are kept, the side of the witnesses that table3 and max have printed.
_STATIONARITY = {
    None: ((8, -33, 64, -82, 64, -33, 8),
           ((1, 0), (0,), (-1, 0, -1), (0,), (-3, -3, 0, 0), (0,), (-1, 0, -1, 0, 0, 0), (0,),
            (1, 0, 0, 0, 0)),
           True),
    "pi/2": ((37, 0, -154, 0, 165, 0, -312, 0, 165, 0, -154, 0, 37),
             ((1, 0), (-3, 0, -1), (1, 0, 1, 0), (-1, 0, -3, 0, 0), (1, 0, 0, 0)),
             True),
    "2*beta": ((1, 0, 22, 0, 316, 0, -1262, 0, 982, 0, -1262, 0, 316, 0, 22, 0, 1),
               ((1, 0, 0), (-1, 0, -2), (-2, 0, 0), (-2, 0, 0), (-2, 0, -1, 0, 0), (1, 0, 0)),
               False),
    # q1 = 0 leaves q4 = b^2 (b^2 - 1)^2 / ((1 + b^2)(1 + b^3)^2) at x^2 = 1/b
    "q1=0": ((1, -3, 3, -3, 1), ((1, 0), (0,), (-1,)), False),
}


def _positive_real_roots(coeffs) -> list[float]:
    """Positive real roots, in np.roots's order; |imag| <= 1e-9 |root| is real."""
    return [r.real for r in np.roots(coeffs).tolist()
            if abs(r.imag) <= 1e-9 * abs(r) and r.real > 0]


def _horner(row, b: float) -> float:
    """The polynomial ``row`` at b, summed from 0.0 as np.polyval does."""
    y = 0.0
    for c in row:
        y = y * b + c
    return y


def _candidates(geom: CaseGeometry) -> list[tuple[float, ...]]:
    """Points of the free angles of ``geom``, in the order of its
    ``free_names``, among which the maximum of q4 - q1 lies.

    With beta fixed at pi/4 (cases 1-5, 10, 11) q4 = q1 everywhere, and a
    free theta is set to pi/2; with both thetas fixed (cases 6-9) q4 - q1
    <= 0, with equality only at beta = pi/4.  Otherwise the points are the
    common roots of ``_STATIONARITY``.
    """
    fixed = [rule for rule in (geom.theta_x0, geom.theta_y0) if rule is not None]
    n_theta = 2 - len(fixed)
    if geom.beta is not None:
        return [(HALF_PI,) * n_theta]
    if not n_theta:
        return [(math.pi / 4,)]
    p, q, upper = _STATIONARITY[fixed[0] if fixed else None]
    return [(math.atan(b), *(2 * math.atan(s),) * n_theta)
            for b in _positive_real_roots(p) if (b > 1 if upper else b < 1)
            for s in _positive_real_roots([_horner(row, b) for row in q])]


def _solve(geom: CaseGeometry) -> tuple[SearchResult, QuantumScenario]:
    """Maximum of q4 - q1 over the free angles of ``geom``: the first best
    of its ``_candidates`` inside the ANGLE_MARGIN box."""
    bounds = [_BETA_BOUNDS if name == "beta" else _THETA_BOUNDS for name in geom.free_names]
    points = [z for z in _candidates(geom)
              if all(lo <= v <= hi for v, (lo, hi) in zip(z, bounds))]
    values = [q4_minus_q1_closed_form(*geom.params(z)) for z in points]
    k = values.index(max(values))
    result = SearchResult(
        value=values[k],
        point=np.array(points[k], dtype=float),
        starts_used=1,
        converged=True,
        constraint_slacks=(),
        method="algebraic",
        evaluations=len(values),
    )
    return result, canonical_scenario(*geom.params(points[k]))


def max_cabello_qm(
    case_id: Optional[int] = None, restarts: int = 64, seed: int = 0
) -> tuple[SearchResult, QuantumScenario, CaseGeometry]:
    """Maximum q4 - q1 over the free angles of the (possibly constrained) case.

    ``restarts`` and ``seed`` have no effect; they are accepted so that
    existing callers keep working.
    """
    geom = case_geometry(case_id)
    return (*_solve(geom), geom)


def max_hardy_qm(restarts: int = 64, seed: int = 0) -> tuple[SearchResult, QuantumScenario]:
    """Maximum q4 with q1 = q2 = q3 = 0: the q4 - q1 maximum over
    ``HARDY_GEOMETRY``, whose theta_y0 zeroes q1.  ``restarts`` and ``seed``
    have no effect.
    """
    return _solve(HARDY_GEOMETRY)
