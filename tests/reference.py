"""Hand derivations that the tests compare nlbox against.

nlbox reads every linear form in the weights c1..c11 off its vertex stack
(a Cabello table is c @ _VERTEX_STACK).  The forms here were written out by
hand from the vertex tables instead, so the tests compare two independent
derivations of the same forms.  The rest are independent references too:
row_stats, the batched matmul by the table's linear map, for the float row
stats that Box sums at construction, from_correlator_rows, the matmul by
its inverse, for the float cells of from_correlators and quantum_box,
check_magnitudes for validate_box, mutual_information for the enumerated
RAC of tests/test_ic.py and so for rac_simulate, joint_probability, which
derives quantum probabilities from Kronecker products of Pauli projectors,
quantum_tables, the phase form batched in numpy, for nlbox.quantum's
scalar quantum_box, the batched q4_minus_q1_closed_form,
solve_cabello_constraints and case_params for their scalar forms in
nlbox.quantum, and cutting_planes, which solves the IC
maximum by linear programs instead of its closed form.  The seeded simplex
samplers, the reduced-row-echelon simplex map they draw through,
zero_variables, coeffs and the enumerations of the 16 local and 8 nonlocal
vertices are test helpers with no caller in nlbox.
"""
import functools
import math
import re

import numpy as np

from nlbox.boxes import Box, local_vertex, nonlocal_vertex
from nlbox.ic import _entropy
from nlbox.localrandom import _relation_row, lr_constraints
from nlbox.quantum import HALF_PI, DegenerateConstraintError
from nlbox.search import DomainError, SearchResult


def coeffs(**kv):
    """The weights c1..c11 with the named ones set, e.g. coeffs(c6=1.0)."""
    c = np.zeros(11)
    for name, val in kv.items():
        c[int(name[1:]) - 1] = val
    return c


def rsuv(c):
    """The linear forms r, s, u, v of the IC biases: E_I = r - s,
    E_II = u - v, F_I = u - s and F_II = r - v."""
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = c
    return c8 - c2, c1 + c3 + c6 - c7, c9 - c4, c5 + c6 + c10


def biases(c):
    """(E_I, E_II, F_I, F_II) of the Cabello box with weights c."""
    r, s, u, v = rsuv(c)
    return r - s, u - v, u - s, r - v


def ic_lhs(c):
    """E_I^2 + E_II^2 and F_I^2 + F_II^2 from r, s, u, v."""
    e_i, e_ii, f_i, f_ii = biases(c)
    return e_i ** 2 + e_ii ** 2, f_i ** 2 + f_ii ** 2


def success(c):
    """q4 - q1 = c6/2 + c10 - (c7 + c8 + c9 + c10 + c11/2)."""
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = c
    return 0.5 * c6 + c10 - (c7 + c8 + c9 + c10 + 0.5 * c11)


def cabello_table(c):
    """The 4x4 table P(ab|XY) of the Cabello mixture, rows XY, columns ab."""
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = c
    local_part = np.array([
        [c7 + c8 + c9 + c10, c1 + c2,        c3 + c4,        c5],
        [c2 + c7 + c9,       c1 + c8 + c10,  c3 + c4 + c5,   0.0],
        [c4 + c7 + c8,       c1 + c2 + c5,   c3 + c9 + c10,  0.0],
        [c2 + c4 + c5 + c7,  c1 + c8,        c3 + c9,        c10],
    ])
    nonlocal_part = 0.5 * np.array([
        [c11, c6,       c6,       c11],
        [0.0, c6 + c11, c6 + c11, 0.0],
        [0.0, c6 + c11, c6 + c11, 0.0],
        [c6,  c11,      c11,      c6],
    ])
    return local_part + nonlocal_part


# marginal-1/2 condition of a single input, one equation suffices per input,
# with eta = (1 - c6 - c11)/2
INPUT_RELATION = {
    "0_A": "c1 + c2 + c7 + c8 + c9 + c10 = eta",
    "1_A": "c3 + c9 + c10 = eta",
    "0_B": "c3 + c4 + c7 + c8 + c9 + c10 = eta",
    "1_B": "c1 + c8 + c10 = eta",
}


def input_row(inp):
    """The input's hand relation as one affine row (coefficients, rhs)."""
    return _relation_row(INPUT_RELATION[inp])


# The table's linear map as a matrix: for tables p of shape (..., 4, 4),
# p @ _ROW_MAP.T gives per input row XY the row total, P(a=0|XY), P(b=0|XY)
# and P(a=b|XY).  Outcome 0 counts as +1, so 2 _ROW_MAP - 1 gives the row
# total, C_A, C_B and C_AB of each row instead, and its inverse takes rows
# (1, C_A, C_B, C_AB) back to the table.  2 _ROW_MAP - 1 is a symmetric
# Hadamard matrix (its square is 4 I), so that inverse is it divided by 4.
# Both maps are symmetric, so row_stats and from_correlator_rows multiply
# by them directly.
_ROW_MAP = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]], dtype=float)
_FROM_CORRELATORS = (2.0 * _ROW_MAP - 1.0) / 4.0


def from_correlator_rows(rows) -> np.ndarray:
    """Tables (..., 4, 4) from their rows (1, C_A, C_B, C_AB) per input XY."""
    return np.asarray(rows, dtype=float) @ _FROM_CORRELATORS  # symmetric: equal to its .T


def row_stats(p) -> np.ndarray:
    """Per input row XY of tables p (..., 4, 4): the row total, P(a=0|XY),
    P(b=0|XY) and P(a=b|XY), in a last axis of length 4."""
    return np.asarray(p, dtype=float) @ _ROW_MAP  # symmetric: equal to _ROW_MAP.T


def all_local_vertices() -> list[Box]:
    return [
        local_vertex(a, b, g, d)
        for a in (0, 1) for b in (0, 1) for g in (0, 1) for d in (0, 1)
    ]


def all_nonlocal_vertices() -> list[Box]:
    return [
        nonlocal_vertex(a, b, g) for a in (0, 1) for b in (0, 1) for g in (0, 1)
    ]


def check_magnitudes(p):
    """The 24 magnitudes of validate_box's checks, in its report order, by
    concatenation: per input row the negated entries and then |total - 1|,
    then |P(outcome 0) difference over the remote input| of A0, B0, A1, B1."""
    stats = p @ np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]], float).T
    grid = stats.reshape(2, 2, 4)  # [X, Y, stat]
    m = np.array([grid[..., 1], grid[..., 2].T])  # [party, input, remote input]
    return np.concatenate([
        np.concatenate([-p, np.abs(stats[:, :1] - 1.0)], axis=1).ravel(),
        np.abs(m[..., 0] - m[..., 1]).T.ravel(),
    ])


def mutual_information(joint):
    """I(X;Y) in bits from a 2x2 joint table, with 0 log 0 = 0."""
    (a, b), (c, d) = np.asarray(joint, dtype=float).tolist()
    return _entropy(a + b, c + d) + _entropy(a + c, b + d) - _entropy(a, b, c, d)


_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def bloch_vector(direction):
    """Unit vector n of the measurement direction (theta, phi)."""
    return np.array([
        math.sin(direction.theta) * math.cos(direction.phi),
        math.sin(direction.theta) * math.sin(direction.phi),
        math.cos(direction.theta),
    ])


def direction(scen, party, inp):
    """The scenario's measurement direction of the party's input."""
    return {("A", 0): scen.a0, ("A", 1): scen.a1,
            ("B", 0): scen.b0, ("B", 1): scen.b1}[(party, inp)]


def density_matrix(state):
    psi = np.zeros(4, dtype=complex)
    psi[0] = math.cos(state.beta)
    psi[3] = np.exp(1j * state.gamma) * math.sin(state.beta)
    return np.outer(psi, psi.conj())


def projector(dirn, outcome):
    """Eigenprojector of n.sigma; outcome 0 is the + eigenstate."""
    sign = 1.0 if outcome == 0 else -1.0
    n = bloch_vector(dirn)
    return 0.5 * (_I2 + sign * (n[0] * _SX + n[1] * _SY + n[2] * _SZ))


def joint_probability(scen, a, b, x, y):
    """P(ab|xy) as the trace of the state's density matrix times the
    Kronecker product of the two projectors."""
    rho = density_matrix(scen.state)
    op = np.kron(projector(direction(scen, "A", x), a),
                 projector(direction(scen, "B", y), b))
    return float(np.real(np.trace(rho @ op)))


def quantum_tables(beta, gamma, theta, phi):
    """Tables P(ab|XY) of many scenarios at once, in the phase form of
    nlbox.quantum.quantum_box, turned into tables by one
    ``from_correlator_rows`` matmul.  ``beta`` and ``gamma`` have shape S,
    ``theta`` and ``phi`` shape S + (4,) in the order a0, a1, b0, b1; the
    result has shape S + (4, 4), rows and columns ordered as in Box.
    """
    two_beta = 2.0 * np.asarray(beta, dtype=float)[..., None]
    gamma = np.asarray(gamma, dtype=float)[..., None, None]
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    local = np.cos(two_beta) * cos_t  # C_A, C_A', C_B, C_B'
    corr = ((np.sin(two_beta) * sin_t)[..., :2, None] * sin_t[..., None, 2:]
            * np.cos(gamma - phi[..., :2, None] - phi[..., None, 2:])
            + cos_t[..., :2, None] * cos_t[..., None, 2:])
    rows = np.empty(corr.shape + (4,))  # [..., X, Y, (1, C_A, C_B, C_AB)]
    rows[..., 0] = 1.0
    rows[..., 1] = local[..., :2, None]
    rows[..., 2] = local[..., None, 2:]
    rows[..., 3] = corr
    return from_correlator_rows(rows.reshape(corr.shape[:-2] + (4, 4)))


def _check_open(beta, *thetas) -> None:
    """Raise unless every beta lies in (0, pi/2) and every theta in (0, pi)."""
    for name, value, top, label in (("beta", beta, HALF_PI, "pi/2"),
                                    *(("theta", th, math.pi, "pi") for th in thetas)):
        inside = (0.0 < value) & (value < top)
        if not np.all(inside):
            bad = np.asarray(value)[np.logical_not(inside)][0]
            raise DegenerateConstraintError(f"{name}={bad} outside (0, {label})")


def solve_cabello_constraints(state, theta_x0, theta_y0):
    """Primed angles zeroing q2 and q3 under the canonical phases:
    tan(theta_x1/2) = tan(beta) cot(theta_y0/2) and symmetrically.
    Elementwise when the state's beta and the angles are arrays."""
    _check_open(state.beta, theta_x0, theta_y0)
    tb = np.tan(state.beta)
    theta_x1 = 2.0 * np.arctan(tb / np.tan(theta_y0 / 2))
    theta_y1 = 2.0 * np.arctan(tb / np.tan(theta_x0 / 2))
    return theta_x1, theta_y1


def q4_minus_q1_closed_form(beta, theta_x0, theta_y0):
    """Success probability of the completed canonical scenario, the batched
    numpy form of nlbox.quantum.q4_minus_q1_closed_form.

    Elementwise on arrays; a float when every argument is a scalar.
    """
    _check_open(beta, theta_x0, theta_y0)
    tb = np.tan(beta)
    tx = np.tan(theta_x0 / 2)
    ty = np.tan(theta_y0 / 2)
    q4 = np.sin(beta) ** 2 * (tb - tx * ty) ** 2 / ((tx ** 2 + tb ** 2) * (ty ** 2 + tb ** 2))
    q1 = (
        np.cos(beta) * np.cos(theta_x0 / 2) * np.cos(theta_y0 / 2)
        - np.sin(beta) * np.sin(theta_x0 / 2) * np.sin(theta_y0 / 2)
    ) ** 2
    success = q4 - q1
    return float(success) if np.ndim(success) == 0 else success


# how a fixed polar angle follows from beta and, for theta_y0, theta_x0
_ANGLE_RULES = {
    "pi/2": lambda beta, tx0: HALF_PI,
    "2*beta": lambda beta, tx0: 2.0 * beta,
    # tan(theta_x0/2) tan(theta_y0/2) = cot(beta) zeroes q1
    "q1=0": lambda beta, tx0: 2.0 * np.arctan(1.0 / (np.tan(beta) * np.tan(tx0 / 2))),
}


def case_params(geom, z) -> tuple:
    """(beta, theta_x0, theta_y0) of the CaseGeometry ``geom`` from the free
    values z, one row per free name; rows may be arrays of points.  The
    batched form of ``CaseGeometry.params``."""
    vals = dict(zip(geom.free_names, z))
    beta = vals.get("beta", geom.beta)
    for name, rule in (("theta_x0", geom.theta_x0), ("theta_y0", geom.theta_y0)):
        if rule is not None:
            vals[name] = _ANGLE_RULES[rule](beta, vals.get("theta_x0"))
    return beta, vals["theta_x0"], vals["theta_y0"]


# the hand forms above as matrices over c1..c11: rows E_I, E_II, F_I, F_II
# of the biases, and the success q4 - q1
BIAS_ROWS = np.array([biases(e) for e in np.eye(11)]).T
SUCCESS_ROW = np.array([success(e) for e in np.eye(11)])
# the IC conditions are |M @ c| <= 1 for the two maps M, both 0 at c11 = 1
_BIAS_FORMS = (BIAS_ROWS[:2], BIAS_ROWS[2:])
_C11 = np.eye(11)[10]
_GAP_TOL = 1e-9


def pull_into_discs(y):
    """The point of the segment from c11 = 1 to y farthest from c11 = 1 that
    meets both IC conditions, with its two slacks."""
    t = 1.0 / max(1.0, *(np.linalg.norm(m @ y) for m in _BIAS_FORMS))
    while True:  # rounding can leave a slack at -1e-16
        x = _C11 + t * (y - _C11)
        slacks = tuple(1.0 - lhs for lhs in ic_lhs(x))
        if min(slacks) >= 0.0:
            return x, slacks
        t *= 1.0 - 1e-15


def cutting_planes(equalities=None, constrained=True):
    """The maximum of q4 - q1 over the 11-simplex under the affine
    ``equalities`` (A, b) and, if ``constrained``, both IC conditions, by
    Kelley cutting planes on HiGHS LPs.

    Each LP gives ``upper_bound``; its point y, pulled toward c11 = 1 until
    both conditions hold, is a feasible point, and the best one is returned;
    each violated condition |M c| <= 1 adds the cut (M y / |M y|) . M c <= 1.
    ``evaluations`` counts the LPs and ``converged`` means a gap
    ``upper_bound - value`` of at most 1e-9.
    """
    from scipy.optimize import linprog

    a_eq, b_eq = np.ones((1, 11)), np.ones(1)
    if equalities is not None:
        a_eq, b_eq = np.vstack([a_eq, equalities[0]]), np.append(b_eq, equalities[1])
        if constrained and np.abs(np.asarray(equalities[0]) @ _C11 - equalities[1]).max() > 1e-12:
            raise DomainError("under the IC conditions the equalities must hold at c11 = 1")
    cuts = []
    best = None  # (value, point, slacks) of the best feasible point so far
    for lps in range(1, 101):
        lp = linprog(-SUCCESS_ROW, A_ub=np.array(cuts) if cuts else None,
                     b_ub=np.ones(len(cuts)) if cuts else None,
                     A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
        if lp.status == 2:
            raise DomainError("no nonnegative point satisfies the equalities")
        if lp.status != 0:
            raise RuntimeError(f"HiGHS failed: {lp.message}")
        y, upper = lp.x, -lp.fun
        x, slacks = pull_into_discs(y) if constrained else (y, ())
        value = float(success(x))
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


_RREF_TOL = 1e-10
_FEAS_TOL = 1e-12


def _rref(a, b):
    """Reduced row echelon form; raises DomainError on an inconsistent system."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = int(np.argmax(np.abs(a[r:, c]))) + r
        if abs(a[piv, c]) < _RREF_TOL:
            continue
        a[[r, piv]] = a[[piv, r]]
        b[[r, piv]] = b[[piv, r]]
        b[r] /= a[r, c]
        a[r] /= a[r, c]
        for i in range(rows):
            if i != r and abs(a[i, c]) > 0:
                b[i] -= a[i, c] * b[r]
                a[i] -= a[i, c] * a[r]
        pivots.append(c)
        r += 1
    for i in range(r, rows):
        if abs(b[i]) > _RREF_TOL:
            raise DomainError("inconsistent affine equality system")
    return a[:r], b[:r], pivots


class _SimplexMap:
    """Maps free simplex coordinates to the full nonnegative vector."""

    def __init__(self, dim, equalities):
        rows = [np.ones(dim)]
        rhs = [1.0]
        if equalities is not None:
            a_eq, b_eq = equalities
            a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
            if a_eq.shape[1] != dim:
                raise DomainError(
                    f"equality system has {a_eq.shape[1]} columns, expected {dim}"
                )
            rows.extend(a_eq)
            rhs.extend(np.atleast_1d(np.asarray(b_eq, dtype=float)))
        self.dim = dim
        self.a, self.b, self.pivots = _rref(np.array(rows), np.array(rhs))
        self.free = [c for c in range(dim) if c not in self.pivots]
        # the pivot block as the fancy index returns it: a contiguous copy
        # takes another matmul path and changes the last bits of full()
        self._a_free = self.a[:, self.free]
        for arr in (self.a, self.b, self._a_free):
            arr.flags.writeable = False

    @property
    def n_free(self):
        return len(self.free)

    def full(self, free_vals):
        x = np.zeros(self.dim)
        x[self.free] = free_vals
        x[self.pivots] = self.b - self._a_free @ free_vals
        return x

    def draw(self, rng):
        """One solution from scaled exponential spacings on the free block,
        or None when it is negative beyond the feasibility tolerance."""
        t = rng.uniform()
        g = rng.exponential(size=self.n_free)
        x = self.full(t * g / g.sum())
        return x if x.min() >= -_FEAS_TOL else None


class SamplingError(RuntimeError):
    """Rejection sampling exhausted its budget."""


def sample_simplex_map(smap, rng):
    """A nonnegative point of the map's simplex section: the first of up to
    100,000 draws."""
    if smap.n_free == 0:
        x = smap.full(np.empty(0))
        if x.min() < -_FEAS_TOL:
            raise DomainError("equality system has no nonnegative solution")
        return x
    for _ in range(100000):
        x = smap.draw(rng)
        if x is not None:
            return x
    raise SamplingError("no feasible simplex point in 100000 draws")


def sample_affine_simplex(equalities, dim, seed):
    """One nonnegative simplex point satisfying the given affine equalities,
    from numpy's PCG64 stream seeded through SeedSequence."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return sample_simplex_map(_SimplexMap(dim, equalities), rng)


@functools.cache
def _case_map(case_id):
    """The simplex map of a case's system, built once per int case id."""
    system = lr_constraints(case_id)
    return _SimplexMap(11, (system.a, system.b))


def sample_case_point(case_id, rng):
    """One simplex point solving the case's affine system."""
    return sample_simplex_map(_case_map(lr_constraints(case_id).case_id), rng)


def zero_variables(system):
    """1-based indices of the weights that a 'ci = 0' relation of the
    system forces to zero."""
    return tuple(int(m.group(1)) for rel in system.relations
                 if (m := re.fullmatch(r"c(\d+)\s*=\s*0", rel.strip())))
