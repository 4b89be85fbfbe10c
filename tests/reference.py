"""Hand derivations that the tests compare nlbox against.

nlbox reads every linear form in the weights c1..c11 off its vertex stack
(a Cabello table is c @ _VERTEX_STACK).  The forms here were written out by
hand from the vertex tables instead, so the tests compare two independent
derivations of the same forms.  mutual_information serves the enumerated
RAC of tests/test_ic.py, the reference for rac_simulate.
"""
import numpy as np

from nlbox.ic import _entropy
from nlbox.localrandom import _relation_row


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


def mutual_information(joint):
    """I(X;Y) in bits from a 2x2 joint table, with 0 log 0 = 0."""
    (a, b), (c, d) = np.asarray(joint, dtype=float).tolist()
    return _entropy(a + b, c + d) + _entropy(a + c, b + d) - _entropy(a, b, c, d)
