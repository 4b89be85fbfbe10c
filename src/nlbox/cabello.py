"""Hardy and Cabello box families over the no-signaling polytope.

The canonical form puts the four distinguished cells at
q1 = P(00|00), q2 = P(11|01), q3 = P(11|10), q4 = P(11|11); the argument
runs when q2 = q3 = 0 and q4 > q1.  Hardy boxes mix five local vertices
with the nonlocal vertex (0,0,1); Cabello boxes add four more local
vertices and the nonlocal vertex (1,1,0), with weights c1..c11 on the
simplex.  A mixture's table is c @ _vertex_stack(), so every linear form of
the table, q4 - q1 among them, is the form's value at each vertex dotted with c.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Sequence

from . import boxes
from .boxes import (
    Box, CoefficientError, DEFAULT_TOL, _LazyNumpy, _as_coefficients, check_coefficients)
# bound only so that perfbench/tracing.py can patch nlbox.cabello.maximize
from .search import maximize

np = _LazyNumpy(globals())

# vertex order matches the coefficient order c1..c11
HARDY_VERTICES = (
    boxes.local_vertex(0, 0, 0, 1),
    boxes.local_vertex(0, 0, 1, 1),
    boxes.local_vertex(0, 1, 0, 0),
    boxes.local_vertex(1, 1, 0, 0),
    boxes.local_vertex(1, 1, 1, 1),
    boxes.nonlocal_vertex(0, 0, 1),
)
CABELLO_VERTICES = HARDY_VERTICES + (
    boxes.local_vertex(0, 0, 0, 0),
    boxes.local_vertex(0, 0, 1, 0),
    boxes.local_vertex(1, 0, 0, 0),
    boxes.local_vertex(1, 0, 1, 0),
    boxes.nonlocal_vertex(1, 1, 0),
)
# q4 - q1 = P(11|11) - P(00|00) at each vertex, in the order c1..c11
_VERTEX_SUCCESS = tuple(v._cells[15] - v._cells[0] for v in CABELLO_VERTICES)


@functools.cache
def _vertex_stack() -> np.ndarray:
    """The raveled vertex tables, one per row, read-only and built on first
    use: the Hardy vertices are the first six, and a mixture is its weights
    times this stack, as in boxes.mix."""
    stack = np.array([v._cells for v in CABELLO_VERTICES])
    stack.setflags(write=False)
    return stack


@functools.cache
def _success() -> np.ndarray:
    """``_VERTEX_SUCCESS`` as a read-only array, built on first use."""
    success = np.array(_VERTEX_SUCCESS)
    success.setflags(write=False)
    return success


def cabello_coefficients(c: Sequence[float]) -> np.ndarray:
    """Unchecked c1..c11 from 6 Hardy weights (c7..c11 = 0) or 11 Cabello ones."""
    c = _as_coefficients(c)
    return np.concatenate([c, np.zeros(5)]) if c.shape == (6,) else c


def coefficients_from_json(text: str) -> np.ndarray:
    """Parse {"c": [...]} with 6 (Hardy) or 11 (Cabello) entries."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise CoefficientError("JSON nested too deeply") from None
    if not isinstance(data, dict) or "c" not in data:
        raise CoefficientError('expected a JSON object with key "c"')
    return cabello_coefficients(data["c"])


@dataclass(frozen=True, init=False)
class SuccessMetrics:
    q1: float
    q2: float
    q3: float
    q4: float

    def __init__(self, q1: float, q2: float, q3: float, q4: float):
        # frozen: one __dict__ update instead of a setattr per field, as in Box
        self.__dict__.update(q1=q1, q2=q2, q3=q3, q4=q4)

    @property
    def success(self) -> float:
        return self.q4 - self.q1


def hardy_box(c: Sequence[float], tol: float = DEFAULT_TOL) -> Box:
    """Mixture of the six Hardy vertices with weights c1..c6."""
    return boxes._table_box(np.dot(check_coefficients(c, 6, tol), _vertex_stack()[:6]))


def cabello_box(c: Sequence[float], tol: float = DEFAULT_TOL) -> Box:
    """Mixture of the eleven Cabello vertices with weights c1..c11."""
    return boxes._table_box(np.dot(check_coefficients(c, 11, tol), _vertex_stack()))


# perfbench/workloads.py still calls the Cabello table by this name
cabello_matrix_closed_form = cabello_box


def extract_q(box: Box) -> SuccessMetrics:
    """q1..q4: the cells P(00|00), P(11|01), P(11|10), P(11|11) of the raveled table."""
    cells = box._cells
    return SuccessMetrics(cells[0], cells[7], cells[11], cells[15])


def success_closed_form(c: Sequence[float]) -> float:
    """q4 - q1 of the Cabello mixture with weights c1..c11."""
    return float(_success() @ c)


def check_cabello_conditions(
    box: Box, tol: float = DEFAULT_TOL
) -> tuple[bool, SuccessMetrics]:
    """True iff q2, q3 vanish and q4 exceeds q1 beyond tol."""
    q = extract_q(box)
    ok = q.q2 <= tol and q.q3 <= tol and q.q4 - q.q1 > tol
    return ok, q


def ns_max_success(
    argument: str = "cabello", restarts: int = 8, seed: int = 0
) -> tuple[float, tuple[float, ...]]:
    """No-signaling maximum of the success probability with its witness.

    q4 - q1 = _success() @ c is linear on the coefficient simplex, so the
    maximum is the best of its 6 (Hardy) or 11 (Cabello) vertices: 0.5, at
    c6 = 1, for both arguments (the Hardy vertices are the first six).  The
    vertex values are the exact cell differences ``_VERTEX_SUCCESS``, so no
    array is built, and the witness is that vertex's weights as a tuple of
    6 or 11 floats.  ``restarts`` and ``seed`` have no effect; they are
    accepted so that existing callers keep working.
    """
    if argument not in ("hardy", "cabello"):
        raise ValueError(f"unknown argument {argument!r}")
    dim = 6 if argument == "hardy" else 11
    best = max(range(dim), key=_VERTEX_SUCCESS.__getitem__)  # the first best, as argmax
    return _VERTEX_SUCCESS[best], tuple(float(k == best) for k in range(dim))
