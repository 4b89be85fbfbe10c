"""Two-qubit pure-state model of the Cabello argument.

The state is cos(beta)|00> + e^{i gamma} sin(beta)|11>; each input
measures a spin direction (theta, phi).  The canonical configuration sets
gamma = 0 and every phi = pi/2, which makes the interference cosine -1 in
all four input pairs; the two zero conditions q2 = q3 = 0 then pin the
primed polar angles to the (beta, theta_x0, theta_y0) completions, and
q4 - q1 collapses to a closed form in those three parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boxes import Box
from .localrandom import case_inputs
from .search import SearchDomain, SearchResult, maximize

HALF_PI = math.pi / 2

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

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

    @property
    def n(self) -> np.ndarray:
        return np.array([
            math.sin(self.theta) * math.cos(self.phi),
            math.sin(self.theta) * math.sin(self.phi),
            math.cos(self.theta),
        ])


@dataclass(frozen=True)
class QuantumScenario:
    state: PureState
    a0: MeasurementDirection
    a1: MeasurementDirection
    b0: MeasurementDirection
    b1: MeasurementDirection

    def direction(self, party: str, inp: int) -> MeasurementDirection:
        return {("A", 0): self.a0, ("A", 1): self.a1,
                ("B", 0): self.b0, ("B", 1): self.b1}[(party, inp)]


def density_matrix(state: PureState) -> np.ndarray:
    psi = np.zeros(4, dtype=complex)
    psi[0] = math.cos(state.beta)
    psi[3] = np.exp(1j * state.gamma) * math.sin(state.beta)
    return np.outer(psi, psi.conj())


def projector(direction: MeasurementDirection, outcome: int) -> np.ndarray:
    """Eigenprojector of n.sigma; outcome 0 is the + eigenstate."""
    sign = 1.0 if outcome == 0 else -1.0
    n = direction.n
    return 0.5 * (_I2 + sign * (n[0] * _SX + n[1] * _SY + n[2] * _SZ))


def joint_probability(scen: QuantumScenario, a: int, b: int, x: int, y: int) -> float:
    rho = density_matrix(scen.state)
    op = np.kron(projector(scen.direction("A", x), a),
                 projector(scen.direction("B", y), b))
    return float(np.real(np.trace(rho @ op)))


_SIGNS = np.array([1.0, -1.0])


def quantum_tables(beta, gamma, theta, phi) -> np.ndarray:
    """Tables P(ab|XY) of many scenarios at once, in the Bloch form

        P(ab|xy) = (1 + a m_x.r + b n_y.r + a b m_x.T n_y) / 4

    with outcome signs a, b = +-1.  For cos(beta)|00> + e^{i gamma}
    sin(beta)|11> both Bloch vectors are r = cos(2 beta) z, and T has rows
    (s cos gamma, s sin gamma, 0), (s sin gamma, -s cos gamma, 0), (0, 0, 1)
    with s = sin(2 beta).  ``beta`` and ``gamma`` have shape S, ``theta``
    and ``phi`` shape S + (4,) in the order a0, a1, b0, b1; the result has
    shape S + (4, 4), rows and columns ordered as in Box.
    """
    beta = np.asarray(beta, dtype=float)[..., None]
    gamma = np.asarray(gamma, dtype=float)[..., None]
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    nx = np.sin(theta) * np.cos(phi)
    ny = np.sin(theta) * np.sin(phi)
    nz = np.cos(theta)
    local = np.cos(2 * beta) * nz
    s_cos = np.sin(2 * beta) * np.cos(gamma)
    s_sin = np.sin(2 * beta) * np.sin(gamma)
    tx = s_cos * nx[..., 2:] + s_sin * ny[..., 2:]
    ty = s_sin * nx[..., 2:] - s_cos * ny[..., 2:]
    corr = (nx[..., :2, None] * tx[..., None, :] + ny[..., :2, None] * ty[..., None, :]
            + nz[..., :2, None] * nz[..., None, 2:])
    sa, sb = _SIGNS[:, None], _SIGNS[None, :]
    p = 0.25 * (1.0 + local[..., :2, None, None, None] * sa
                + local[..., None, 2:, None, None] * sb
                + corr[..., None, None] * (sa * sb))
    return p.reshape(p.shape[:-4] + (4, 4))


def quantum_box(scen: QuantumScenario) -> Box:
    dirs = (scen.a0, scen.a1, scen.b0, scen.b1)
    return Box(quantum_tables(scen.state.beta, scen.state.gamma,
                              [d.theta for d in dirs], [d.phi for d in dirs]))


def marginal_bias(state: PureState, direction: MeasurementDirection) -> float:
    """P(outcome 0) = (1 + cos(2 beta) cos(theta)) / 2; 1/2 iff theta = pi/2
    or the state is maximally entangled."""
    return 0.5 * (1.0 + math.cos(2 * state.beta) * math.cos(direction.theta))


def _check_open(beta, *thetas) -> None:
    """Raise unless every beta lies in (0, pi/2) and every theta in (0, pi)."""
    for name, value, top, label in (("beta", beta, HALF_PI, "pi/2"),
                                    *(("theta", th, math.pi, "pi") for th in thetas)):
        inside = (0.0 < value) & (value < top)
        if not np.all(inside):
            bad = np.asarray(value)[np.logical_not(inside)][0]
            raise DegenerateConstraintError(f"{name}={bad} outside (0, {label})")


def solve_cabello_constraints(
    state: PureState, theta_x0: float, theta_y0: float
) -> tuple[float, float]:
    """Primed angles zeroing q2 and q3 under the canonical phases:
    tan(theta_x1/2) = tan(beta) cot(theta_y0/2) and symmetrically.
    Elementwise when the state's beta and the angles are arrays."""
    _check_open(state.beta, theta_x0, theta_y0)
    tb = np.tan(state.beta)
    theta_x1 = 2.0 * np.arctan(tb / np.tan(theta_y0 / 2))
    theta_y1 = 2.0 * np.arctan(tb / np.tan(theta_x0 / 2))
    return theta_x1, theta_y1


def canonical_scenario(
    beta: float, theta_x0: float, theta_y0: float, phase_delta: float = 0.0
) -> QuantumScenario:
    """Scenario with gamma = 0, all phi = pi/2 and the q2 = q3 = 0 completions.

    phase_delta rotates the residual phase freedom left by the two zero
    conditions (0 is the canonical choice matching the closed form).
    """
    state = PureState(beta=beta, gamma=0.0)
    tx1, ty1 = solve_cabello_constraints(state, theta_x0, theta_y0)
    return QuantumScenario(
        state=state,
        a0=MeasurementDirection(theta_x0, HALF_PI + phase_delta),
        a1=MeasurementDirection(tx1, HALF_PI),
        b0=MeasurementDirection(theta_y0, HALF_PI),
        b1=MeasurementDirection(ty1, HALF_PI - phase_delta),
    )


def _q4(beta, theta_x0, theta_y0):
    """q4 of the completed canonical scenario, elementwise."""
    tb = np.tan(beta)
    tx = np.tan(theta_x0 / 2)
    ty = np.tan(theta_y0 / 2)
    return np.sin(beta) ** 2 * (tb - tx * ty) ** 2 / ((tx ** 2 + tb ** 2) * (ty ** 2 + tb ** 2))


def q4_minus_q1_closed_form(beta, theta_x0, theta_y0):
    """Success probability of the completed canonical scenario.

    Elementwise on arrays; a float when every argument is a scalar.
    """
    _check_open(beta, theta_x0, theta_y0)
    q1 = (
        np.cos(beta) * np.cos(theta_x0 / 2) * np.cos(theta_y0 / 2)
        - np.sin(beta) * np.sin(theta_x0 / 2) * np.sin(theta_y0 / 2)
    ) ** 2
    success = _q4(beta, theta_x0, theta_y0) - q1
    return float(success) if np.ndim(success) == 0 else success


def tsirelson_scenario() -> QuantumScenario:
    """Maximally entangled state and equatorial angles with CHSH = 2 sqrt(2)."""
    eq = lambda phi: MeasurementDirection(HALF_PI, phi)
    return QuantumScenario(
        state=PureState(beta=math.pi / 4, gamma=0.0),
        a0=eq(0.0), a1=eq(HALF_PI), b0=eq(-math.pi / 4), b1=eq(math.pi / 4),
    )


@dataclass(frozen=True)
class CaseGeometry:
    """Disposition of (beta, theta_x0, theta_y0) for one local-randomness case."""

    case_id: Optional[int]
    beta: Optional[float]          # None when free
    theta_x0: Optional[str]        # None free, 'half_pi' or 'two_beta'
    theta_y0: Optional[str]

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

    def params(self, z: np.ndarray) -> tuple:
        """(beta, theta_x0, theta_y0) from the free values z, one row per
        free name; rows may be arrays of points."""
        vals = dict(zip(self.free_names, z))
        beta = self.beta if self.beta is not None else vals["beta"]
        def angle(spec, name):
            if spec is None:
                return vals[name]
            return HALF_PI if spec == "half_pi" else 2.0 * beta
        return beta, angle(self.theta_x0, "theta_x0"), angle(self.theta_y0, "theta_y0")


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
        if inp == "0_A":
            marks["theta_x0"].add("half_pi")
        elif inp == "0_B":
            marks["theta_y0"].add("half_pi")
        elif inp == "1_A":
            marks["theta_y0"].add("two_beta")
        elif inp == "1_B":
            marks["theta_x0"].add("two_beta")
    beta: Optional[float] = None
    spec: dict[str, Optional[str]] = {}
    for name, mk in marks.items():
        if mk == {"half_pi", "two_beta"}:
            beta = math.pi / 4  # pi/2 = 2 beta only there
            spec[name] = "half_pi"
        elif mk:
            spec[name] = next(iter(mk))
        else:
            spec[name] = None
    return CaseGeometry(case_id, beta, spec["theta_x0"], spec["theta_y0"])


_BETA_BOUNDS = (ANGLE_MARGIN, HALF_PI - ANGLE_MARGIN)
_THETA_BOUNDS = (ANGLE_MARGIN, math.pi - ANGLE_MARGIN)


def max_cabello_qm(
    case_id: Optional[int] = None, restarts: int = 64, seed: int = 0
) -> tuple[SearchResult, QuantumScenario, CaseGeometry]:
    """Maximum q4 - q1 over the free angles of the (possibly constrained) case.

    Grid-then-zoom over at most 3 angles (``search.maximize``); a case with
    no free angle is evaluated once.  ``restarts`` and ``seed`` have no
    effect; they are accepted so that existing callers keep working.
    """
    geom = case_geometry(case_id)
    bounds = tuple(
        _BETA_BOUNDS if name == "beta" else _THETA_BOUNDS
        for name in geom.free_names
    )

    def objective(z: np.ndarray) -> np.ndarray:
        return np.broadcast_to(q4_minus_q1_closed_form(*geom.params(z)), z.shape[1:])

    result = maximize(objective, SearchDomain(bounds=bounds))
    beta, tx0, ty0 = geom.params(result.point)
    return result, canonical_scenario(beta, tx0, ty0), geom


def _hardy_theta_y0(beta, theta_x0):
    """theta_y0 zeroing q1: tan(theta_x0/2) tan(theta_y0/2) = cot(beta)."""
    return 2.0 * np.arctan(1.0 / (np.tan(beta) * np.tan(theta_x0 / 2)))


def max_hardy_qm(restarts: int = 64, seed: int = 0) -> tuple[SearchResult, QuantumScenario]:
    """Maximum q4 with q1 = q2 = q3 = 0.

    q1 vanishes when tan(theta_x0/2) tan(theta_y0/2) = cot(beta), which
    fixes theta_y0 from (beta, theta_x0); the remaining objective is the
    q4 term of the closed form, maximized by grid-then-zoom over
    (beta, theta_x0).  ``restarts`` and ``seed`` have no effect.
    """

    def objective(z: np.ndarray) -> np.ndarray:
        beta, tx0 = z
        return _q4(beta, tx0, _hardy_theta_y0(beta, tx0))

    result = maximize(objective, SearchDomain(bounds=(_BETA_BOUNDS, _THETA_BOUNDS)))
    beta, tx0 = result.point
    return result, canonical_scenario(beta, tx0, _hardy_theta_y0(beta, tx0))
