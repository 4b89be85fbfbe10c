"""Hardy and Cabello box families over the no-signaling polytope.

The canonical form puts the four distinguished cells at
q1 = P(00|00), q2 = P(11|01), q3 = P(11|10), q4 = P(11|11); the argument
runs when q2 = q3 = 0 and q4 > q1.  Hardy boxes mix five local vertices
with the nonlocal vertex (0,0,1); Cabello boxes add four more local
vertices and the nonlocal vertex (1,1,0), with weights c1..c11 on the
simplex.  A mixture's table is c @ _VERTEX_STACK, so every linear form of
the table, q4 - q1 among them, is the form's value at each vertex dotted with c.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import boxes
from .boxes import Box, CoefficientError, DEFAULT_TOL, _as_coefficients, check_coefficients
# bound only so that perfbench/tracing.py can patch nlbox.cabello.maximize
from .search import maximize


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
# the raveled vertex tables, one per row: the Hardy vertices are the first
# six, and a mixture is its weights times this stack, as in boxes.mix
_VERTEX_STACK = np.array([v.p.ravel() for v in CABELLO_VERTICES])
_SUCCESS = _VERTEX_STACK[:, 15] - _VERTEX_STACK[:, 0]  # q4 - q1 = P(11|11) - P(00|00)


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
    return boxes._table_box(np.dot(check_coefficients(c, 6, tol), _VERTEX_STACK[:6]))


def cabello_box(c: Sequence[float], tol: float = DEFAULT_TOL) -> Box:
    """Mixture of the eleven Cabello vertices with weights c1..c11."""
    return boxes._table_box(np.dot(check_coefficients(c, 11, tol), _VERTEX_STACK))


# perfbench/workloads.py still calls the Cabello table by this name
cabello_matrix_closed_form = cabello_box


def extract_q(box: Box) -> SuccessMetrics:
    """q1..q4: the cells P(00|00), P(11|01), P(11|10), P(11|11) of the raveled table."""
    cells = box._cells
    return SuccessMetrics(cells[0], cells[7], cells[11], cells[15])


def success_closed_form(c: Sequence[float]) -> float:
    """q4 - q1 of the Cabello mixture with weights c1..c11."""
    return float(_SUCCESS @ c)


def check_cabello_conditions(
    box: Box, tol: float = DEFAULT_TOL
) -> tuple[bool, SuccessMetrics]:
    """True iff q2, q3 vanish and q4 exceeds q1 beyond tol."""
    q = extract_q(box)
    ok = q.q2 <= tol and q.q3 <= tol and q.q4 - q.q1 > tol
    return ok, q


def ns_max_success(
    argument: str = "cabello", restarts: int = 8, seed: int = 0
) -> tuple[float, np.ndarray]:
    """No-signaling maximum of the success probability with its witness.

    q4 - q1 = _SUCCESS @ c is linear on the coefficient simplex, so the
    maximum is the best of its 6 (Hardy) or 11 (Cabello) vertices: 0.5, at
    c6 = 1, for both arguments (the Hardy vertices are the first six).
    ``restarts`` and ``seed`` have no effect; they are accepted so that
    existing callers keep working.
    """
    if argument not in ("hardy", "cabello"):
        raise ValueError(f"unknown argument {argument!r}")
    dim = 6 if argument == "hardy" else 11
    best = int(np.argmax(_SUCCESS[:dim]))
    witness = np.zeros(dim)
    witness[best] = 1.0
    return float(_SUCCESS[best]), witness
