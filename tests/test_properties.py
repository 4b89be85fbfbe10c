"""Property tests over the box layer: correlator round trips, the closed-form
Cabello table and the coefficient-level IC conditions (both hand-written, in
tests/reference.py)."""
import numpy as np
from hypothesis import given, settings, strategies as st

import reference
from nlbox import boxes
from nlbox.cabello import cabello_box
from nlbox.ic import ic_cabello_lhs, ic_quantities

# fixed examples, no deadline: the Tier-1 suite stays deterministic
PROPERTY = settings(derandomize=True, deadline=None)

VERTICES = boxes.all_local_vertices() + boxes.all_nonlocal_vertices()


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
