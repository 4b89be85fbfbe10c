"""Reference computations and output checks, written apart from nlbox.

Nothing here imports nlbox.  Boxes are 4x4 arrays P(ab|XY) with rows XY and
columns ab in the order 00, 01, 10, 11, as in the paper.  Each check returns
a list of failure messages; an empty list means the output is correct.
"""
from __future__ import annotations

import math
import re

import numpy as np

SQRT2 = math.sqrt(2.0)
IC_BOUND = (SQRT2 - 1.0) / 2.0
QM_CABELLO_PAPER = 0.10781
QM_HARDY = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
TSIRELSON = 2.0 * SQRT2
INPUTS = ("0_A", "1_A", "0_B", "1_B")
# cases that swap into each other under Alice <-> Bob
MIRROR_PAIRS = ((2, 4), (3, 5), (6, 7), (10, 11), (12, 14), (13, 15))

_XY = ((0, 0), (0, 1), (1, 0), (1, 1))


def local_vertex(alpha, beta, gamma, delta):
    """Deterministic box a = alpha*X xor beta, b = gamma*Y xor delta."""
    p = np.zeros((4, 4))
    for row, (x, y) in enumerate(_XY):
        a = (alpha & x) ^ beta
        b = (gamma & y) ^ delta
        p[row, 2 * a + b] = 1.0
    return p


def nonlocal_vertex(alpha, beta, gamma):
    """Popescu-Rohrlich-type box: a xor b = XY xor alpha*X xor beta*Y xor gamma, uniform."""
    p = np.zeros((4, 4))
    for row, (x, y) in enumerate(_XY):
        parity = (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma
        for col, (a, b) in enumerate(_XY):
            if a ^ b == parity:
                p[row, col] = 0.5
    return p


# weights c1..c11 of the Cabello family, in the paper's order
CABELLO_VERTICES = np.array([
    local_vertex(0, 0, 0, 1), local_vertex(0, 0, 1, 1), local_vertex(0, 1, 0, 0),
    local_vertex(1, 1, 0, 0), local_vertex(1, 1, 1, 1), nonlocal_vertex(0, 0, 1),
    local_vertex(0, 0, 0, 0), local_vertex(0, 0, 1, 0), local_vertex(1, 0, 0, 0),
    local_vertex(1, 0, 1, 0), nonlocal_vertex(1, 1, 0),
])


def cabello_table(c):
    """P(ab|XY) of the Cabello mixture; c has shape (11,) or (n, 11)."""
    c = np.asarray(c, dtype=float)
    k = 6 if c.shape[-1] == 6 else 11
    return np.einsum("...k,kij->...ij", c, CABELLO_VERTICES[:k])


def q_values(p):
    """(q1, q2, q3, q4) = P(00|00), P(11|01), P(11|10), P(11|11)."""
    p = np.asarray(p)
    return p[..., 0, 0], p[..., 1, 3], p[..., 2, 3], p[..., 3, 3]


def success(p):
    q1, _, _, q4 = q_values(p)
    return q4 - q1


def marginals(p):
    """P(outcome 0) per input, both remote choices: shape (..., 4 inputs, 2)."""
    p = np.asarray(p)
    a0 = p[..., :, 0] + p[..., :, 1]   # P(a=0|XY) per row
    b0 = p[..., :, 0] + p[..., :, 2]   # P(b=0|XY) per row
    return np.stack([
        np.stack([a0[..., 0], a0[..., 1]], -1),   # 0_A: XY = 00, 01
        np.stack([a0[..., 2], a0[..., 3]], -1),   # 1_A: XY = 10, 11
        np.stack([b0[..., 0], b0[..., 2]], -1),   # 0_B: XY = 00, 10
        np.stack([b0[..., 1], b0[..., 3]], -1),   # 1_B: XY = 01, 11
    ], -2)


def box_violation(p):
    """Largest breach of positivity, normalisation or no-signaling."""
    p = np.asarray(p)
    m = marginals(p)
    return np.maximum.reduce([
        np.maximum(-p.min(axis=(-2, -1)), 0.0),
        np.abs(p.sum(axis=-1) - 1.0).max(axis=-1),
        np.abs(m[..., 0] - m[..., 1]).max(axis=-1),
    ])


def locally_random(p, tol=1e-9):
    """Per input, whether its outcome is uniform for both remote inputs."""
    return np.all(np.abs(marginals(p) - 0.5) <= tol, axis=-1)


def random_on(p, inputs, tol=1e-9):
    """True iff every named input ('0_A', ...) of the box is locally random."""
    lr = locally_random(p, tol)
    return all(lr[INPUTS.index(i)] for i in inputs)


def _agree(p):
    """P(a = b | XY) per row."""
    return p[..., :, 0] + p[..., :, 3]


def ic_lhs(p):
    """(E_I^2 + E_II^2, F_I^2 + F_II^2) of the 2->1 RAC over the box."""
    g = _agree(np.asarray(p))
    e_i = g[..., 0] + g[..., 2] - 1.0
    e_ii = g[..., 1] - g[..., 3]
    f_i = g[..., 0] + g[..., 1] - 1.0
    f_ii = g[..., 2] - g[..., 3]
    return e_i ** 2 + e_ii ** 2, f_i ** 2 + f_ii ** 2


def rac_success(p):
    """Probabilities that Bob guesses bit 0 and bit 1 in the 2->1 RAC.

    Alice feeds X0 xor X1 and sends X0 xor a; Bob feeds i and answers
    m xor b.  Enumerates the four data strings directly.
    """
    p = np.asarray(p)
    out = []
    for i in (0, 1):
        total = 0.0
        for x0 in (0, 1):
            for x1 in (0, 1):
                x = x0 ^ x1
                row = 2 * x + i
                for a in (0, 1):
                    for b in (0, 1):
                        if x0 ^ a ^ b == (x0, x1)[i]:
                            total = total + 0.25 * p[..., row, 2 * a + b]
        out.append(total)
    return out[0], out[1]


def chsh_max(p):
    """Largest of the four CHSH expressions |sum C - 2 C_XY|."""
    p = np.asarray(p)
    corr = p[..., :, 0] + p[..., :, 3] - p[..., :, 1] - p[..., :, 2]
    total = corr.sum(axis=-1)
    return np.abs(total[..., None] - 2.0 * corr).max(axis=-1)


def quantum_table(beta, gamma, thetas, phis):
    """Born-rule table of cos b|00> + e^{ig} sin b|11> under spin directions.

    thetas and phis are (..., 4) in the order A0, A1, B0, B1.  Amplitudes
    come from the eigenspinors of n.sigma, not from density matrices.
    """
    beta, gamma = np.asarray(beta, float), np.asarray(gamma, float)
    th, ph = np.asarray(thetas, float), np.asarray(phis, float)
    c, s = np.cos(th / 2), np.sin(th / 2)
    e = np.exp(1j * ph)
    # spinor[..., input, outcome, component]; outcome 0 is the +1 eigenvector
    spinor = np.stack([
        np.stack([c + 0j, e * s], -1),
        np.stack([-np.conj(e) * s, c + 0j], -1),
    ], -2)
    psi00 = np.cos(beta)[..., None, None, None, None]
    psi11 = (np.exp(1j * gamma) * np.sin(beta))[..., None, None, None, None]
    alice = np.conj(spinor[..., :2, :, :])[..., :, None, :, None, :]
    bob = np.conj(spinor[..., 2:, :, :])[..., None, :, None, :, :]
    amp = alice[..., 0] * bob[..., 0] * psi00 + alice[..., 1] * bob[..., 1] * psi11
    prob = np.abs(amp) ** 2               # [..., x, y, a, b]
    return prob.reshape(prob.shape[:-4] + (4, 4))


def marginal_zero(beta, theta):
    """P(outcome 0) of either party: (1 + cos 2b cos theta) / 2."""
    return 0.5 * (1.0 + np.cos(2 * np.asarray(beta)) * np.cos(np.asarray(theta)))


def ns_lp_optimum(hardy=False):
    """max q4 - q1 over all 16 entries of a no-signaling box with q2 = q3 = 0.

    A linear program over P(ab|XY) itself (positivity, normalisation,
    no-signaling), not over the Cabello weights; for Hardy q1 = 0 as well.
    """
    from scipy.optimize import linprog

    def idx(x, y, a, b):
        return 4 * (2 * x + y) + 2 * a + b

    eq, rhs = [], []

    def row(terms, value):
        r = np.zeros(16)
        for sign, cell in terms:
            r[idx(*cell)] += sign
        eq.append(r)
        rhs.append(value)

    for x, y in _XY:
        row([(1, (x, y, a, b)) for a in (0, 1) for b in (0, 1)], 1.0)
    for x in (0, 1):   # Alice's marginal cannot depend on Y
        row([(1, (x, 0, 0, b)) for b in (0, 1)] + [(-1, (x, 1, 0, b)) for b in (0, 1)], 0.0)
    for y in (0, 1):   # Bob's marginal cannot depend on X
        row([(1, (0, y, a, 0)) for a in (0, 1)] + [(-1, (1, y, a, 0)) for a in (0, 1)], 0.0)
    row([(1, (0, 1, 1, 1))], 0.0)
    row([(1, (1, 0, 1, 1))], 0.0)
    if hardy:
        row([(1, (0, 0, 0, 0))], 0.0)
    cost = np.zeros(16)
    cost[idx(1, 1, 1, 1)] = -1.0
    cost[idx(0, 0, 0, 0)] = 1.0
    res = linprog(cost, A_eq=np.array(eq), b_eq=np.array(rhs),
                  bounds=[(0, None)] * 16, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -res.fun


_TOKEN = re.compile(r"\s*([+-]|c\d+|eta|\d+)")


def _side(text, c):
    """Value of one side of a relation such as 'eta - c5' at weights c."""
    eta = (1.0 - c[5] - c[10]) / 2.0
    total, sign, pos = 0.0, 1.0, 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read relation side {text!r}")
        tok = m.group(1)
        pos = m.end()
        if tok in "+-":
            sign = 1.0 if tok == "+" else -1.0
            continue
        if tok == "eta":
            total += sign * eta
        elif tok.startswith("c"):
            total += sign * c[int(tok[1:]) - 1]
        else:
            total += sign * float(tok)
        sign = 1.0
    return total


def relation_residual(relation, c):
    """lhs - rhs of a Table 1 relation at weights c."""
    lhs, rhs = relation.split("=")
    c = np.asarray(c, dtype=float)
    return _side(lhs, c) - _side(rhs, c)


def relation_rows(relations):
    """Affine rows (A, b) of the relations, read off by evaluating them."""
    zero = relation_residual_all(relations, np.zeros(11))
    a = np.stack([relation_residual_all(relations, e) - zero for e in np.eye(11)], axis=1)
    return a, -zero


def relation_residual_all(relations, c):
    return np.array([relation_residual(r, c) for r in relations])


def input_marginal_row(inp):
    """Row m with m @ c = P(outcome 0 of the input) for the Cabello mixture."""
    k = INPUTS.index(inp)
    return marginals(CABELLO_VERTICES)[:, k, 0]


def implies(a, b, row, value, tol=1e-9):
    """True iff {A c = b, sum c = 1} forces row @ c = value (rank test)."""
    aug = np.column_stack([np.vstack([a, np.ones(11)]), np.append(b, 1.0)])
    ext = np.vstack([aug, np.append(row, value)])
    return np.linalg.matrix_rank(aug, tol) == np.linalg.matrix_rank(ext, tol)


def simplex_failures(c, tol=1e-9, what="witness"):
    c = np.asarray(c, dtype=float)
    out = []
    if c.min() < -tol:
        out.append(f"{what} has negative weight {c.min()}")
    if abs(c.sum() - 1.0) > tol:
        out.append(f"{what} sums to {c.sum()}")
    return out


def close(name, got, want, tol):
    if not (abs(got - want) <= tol):
        return [f"{name}: {got!r} differs from {want!r} by more than {tol}"]
    return []


def qm_witness_table(w, gamma=0.0):
    """Born-rule table of a CLI angle witness with the canonical phases pi/2."""
    thetas = [w["theta_x0"], w["theta_x1"], w["theta_y0"], w["theta_y1"]]
    return quantum_table(w["beta"], w.get("gamma", gamma), thetas, [math.pi / 2] * 4)
