"""Property tests over the box layer: correlator round trips, the closed-form
Cabello table and the coefficient-level IC conditions (both hand-written, in
tests/reference.py), and the floats a Box derives at construction."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from nlbox import boxes
from nlbox.cabello import cabello_box
from nlbox.ic import ic_cabello_lhs, ic_quantities

# fixed examples, no deadline: the Tier-1 suite stays deterministic
PROPERTY = settings(derandomize=True, deadline=None)

VERTICES = reference.all_local_vertices() + reference.all_nonlocal_vertices()


def simplex_points(n):
    """Points of the n-simplex: nonnegative floats scaled to sum 1."""
    return (st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
            .filter(lambda w: sum(w) > 1e-6)
            .map(lambda w: np.array(w) / sum(w)))


@PROPERTY
@given(simplex_points(len(VERTICES)))
def test_correlator_round_trip_on_mixtures(w):
    box = boxes.mix(VERTICES, w)
    rebuilt = boxes.from_correlators(boxes.to_correlators(box))
    assert np.abs(rebuilt.p - box.p).max() <= 1e-12


@PROPERTY
@given(simplex_points(11))
def test_cabello_box_matches_closed_form(c):
    assert np.abs(cabello_box(c).p - reference.cabello_table(c)).max() <= 1e-12


@PROPERTY
@given(simplex_points(11))
def test_coefficient_level_ic_matches_box_level(c):
    lhs1, lhs2 = ic_cabello_lhs(c)
    hand1, hand2 = reference.ic_lhs(c)
    q = ic_quantities(cabello_box(c))
    assert abs(lhs1 - hand1) <= 1e-12 and abs(lhs2 - hand2) <= 1e-12
    assert abs(hand1 - (q.e_i ** 2 + q.e_ii ** 2)) <= 1e-12
    assert abs(hand2 - (q.f_i ** 2 + q.f_ii ** 2)) <= 1e-12


# entries that break a table: negative, above 1, signed zeros and finite
# values up to 1e300, whose sums of four stay finite
ODD_ENTRIES = st.one_of(st.floats(-1.0, 2.0), st.sampled_from([0.0, -0.0, 1e300, -1e300]),
                        st.floats(-1e300, 1e300))
VERTEX_TABLES = np.array([v.p for v in VERTICES])


@st.composite
def tables(draw):
    """Vertex mixtures, valid or not: some with an input row permuted (rows
    still sum to 1, the marginals signal), some with entries replaced."""
    p = np.tensordot(draw(simplex_points(len(VERTICES))), VERTEX_TABLES, 1)
    if draw(st.booleans()):
        row = draw(st.integers(0, 3))
        p[row] = p[row][draw(st.permutations(range(4)))]
    for k, value in draw(st.lists(st.tuples(st.integers(0, 15), ODD_ENTRIES), max_size=6)):
        p[divmod(k, 4)] = value
    return p


@PROPERTY
@given(tables())
def test_box_floats_match_the_array_formulas(p):
    box = boxes.Box(p)
    magnitudes = reference.check_magnitudes(box.p)
    assert box.check_magnitudes.tobytes() == magnitudes.tobytes()
    assert box.worst_check == magnitudes.max()  # a zero max may differ in sign
    pairs = np.array(box._pairs).reshape(2, 2, 2).transpose(1, 0, 2)  # [party, input, remote]
    assert pairs.tobytes() == reference.marginals(reference.row_stats(p)).tobytes()
    cells = [[box.prob(a, b, x, y) for a in (0, 1) for b in (0, 1)] for x in (0, 1) for y in (0, 1)]
    assert np.array(cells).tobytes() == box.p.tobytes()
    agree = reference.row_stats(p)[:, 3]  # P(a=b|XY)
    want = 0.5 * np.array([agree[0] + agree[2], agree[1] + (1.0 - agree[3]),
                           agree[0] + agree[1], agree[2] + (1.0 - agree[3])])
    if box.worst_check <= boxes.DEFAULT_TOL:
        q = ic_quantities(box)
        assert np.array([q.p_i_a, q.p_ii_a, q.p_i_b, q.p_ii_b]).tobytes() == want.tobytes()
    else:
        with pytest.raises(boxes.InvalidBoxError):
            ic_quantities(box)


@PROPERTY
@given(tables(), st.integers(0, 15), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_a_non_finite_entry_is_malformed(p, k, value):
    p[divmod(k, 4)] = value
    with pytest.raises(boxes.MalformedBoxError, match="non-finite"):
        boxes.Box(p)
