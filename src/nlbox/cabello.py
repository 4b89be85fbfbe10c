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
from .boxes import Box, DEFAULT_TOL
# bound only so that perfbench/tracing.py can patch nlbox.cabello.maximize
from .search import maximize


class CoefficientError(ValueError):
    """Weights off the probability simplex."""


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


def _as_coefficients(c) -> np.ndarray:
    try:
        return np.asarray(c, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CoefficientError(f"coefficients must be numbers: {exc}") from None


def check_coefficients(c: Sequence[float], n: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    arr = _as_coefficients(c)
    if arr.shape != (n,):
        raise CoefficientError(f"expected {n} coefficients, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise CoefficientError("non-finite coefficient")
    if arr.min() < -tol:
        raise CoefficientError(f"negative coefficient {arr.min()}")
    if abs(arr.sum() - 1.0) > tol:
        raise CoefficientError(f"coefficients sum to {arr.sum()}, not 1")
    return arr


def cabello_coefficients(c: Sequence[float]) -> np.ndarray:
    """Checked c1..c11 from 6 Hardy weights (c7..c11 = 0) or 11 Cabello ones."""
    c = _as_coefficients(c)
    if c.shape == (6,):
        c = np.concatenate([c, np.zeros(5)])
    return check_coefficients(c, 11)


def coefficients_from_json(text: str) -> np.ndarray:
    """Parse {"c": [...]} with 6 (Hardy) or 11 (Cabello) entries."""
    data = json.loads(text)
    if not isinstance(data, dict) or "c" not in data:
        raise CoefficientError('expected a JSON object with key "c"')
    return cabello_coefficients(data["c"])


@dataclass(frozen=True)
class SuccessMetrics:
    q1: float
    q2: float
    q3: float
    q4: float

    @property
    def success(self) -> float:
        return self.q4 - self.q1


def hardy_box(c: Sequence[float], tol: float = DEFAULT_TOL) -> Box:
    """Mixture of the six Hardy vertices with weights c1..c6."""
    arr = check_coefficients(c, 6, tol)
    return Box((arr @ _VERTEX_STACK[:6]).reshape(4, 4))


def cabello_box(c: Sequence[float], tol: float = DEFAULT_TOL) -> Box:
    """Mixture of the eleven Cabello vertices with weights c1..c11."""
    arr = check_coefficients(c, 11, tol)
    return Box((arr @ _VERTEX_STACK).reshape(4, 4))


# perfbench/workloads.py still calls the Cabello table by this name
cabello_matrix_closed_form = cabello_box


def extract_q(box: Box) -> SuccessMetrics:
    return SuccessMetrics(
        q1=box.prob(0, 0, 0, 0),
        q2=box.prob(1, 1, 0, 1),
        q3=box.prob(1, 1, 1, 0),
        q4=box.prob(1, 1, 1, 1),
    )


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
