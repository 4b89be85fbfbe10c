"""Deterministic grid-then-zoom maximization over a box, and the map from
free coordinates to points of an affine section of a probability simplex.

``maximize`` evaluates a vectorised objective on one regular grid of the
box, then re-grids a window of two cells either side of the best point
found, halving the cell width each round, until every cell is narrower
than the tolerance.  It draws no random numbers and has no restarts, so a
fixed objective, domain and config give the same result bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_RREF_TOL = 1e-10
_FEAS_TOL = 1e-12
# points per axis of each zoom window, which spans 4 cells of the grid before
_ZOOM_POINTS = 9


class DomainError(ValueError):
    """Inconsistent or malformed search domain."""


@dataclass(frozen=True)
class SearchDomain:
    """Box-bounded coordinates."""

    bounds: tuple[tuple[float, float], ...] = ()
    # No nlbox code sets this.  It is kept only because perfbench/tracing.py
    # rewraps it through dataclasses.replace; maximize rejects a non-empty one.
    inequalities: tuple[Callable[[np.ndarray], float], ...] = ()


@dataclass(frozen=True)
class SearchConfig:
    # points per axis of the first grid, which must resolve every basin
    grid: int = 33
    # the zoom stops once every cell is narrower than this
    tol: float = 1e-12


@dataclass(frozen=True)
class SearchResult:
    value: float
    point: np.ndarray
    starts_used: int
    converged: bool
    constraint_slacks: tuple[float, ...]
    # certified upper bound on the maximum, from solvers that have one
    upper_bound: Optional[float] = None
    # how the optimum was found: the method, its objective evaluations
    # (candidate points for algebraic) and, for grid+zoom, the first grid's
    # points per axis and the final cell width
    method: str = ""
    evaluations: int = 0
    grid: Optional[int] = None
    cell_width: Optional[float] = None


def _rref(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Reduced row echelon form; raises DomainError on an inconsistent system."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    rows, cols = a.shape
    pivots: list[int] = []
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

    def __init__(self, dim: int, equalities):
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
    def n_free(self) -> int:
        return len(self.free)

    def full(self, free_vals: np.ndarray) -> np.ndarray:
        x = np.zeros(self.dim)
        x[self.free] = free_vals
        x[self.pivots] = self.b - self._a_free @ free_vals
        return x

    def draw(self, rng: np.random.Generator) -> Optional[np.ndarray]:
        """One solution from scaled exponential spacings on the free block,
        or None when it is negative beyond the feasibility tolerance."""
        t = rng.uniform()
        g = rng.exponential(size=self.n_free)
        x = self.full(t * g / g.sum())
        return x if x.min() >= -_FEAS_TOL else None


def _unit_grid(dim: int, n: int) -> np.ndarray:
    """The n-per-axis regular grid of the unit cube as a (dim, n**dim) array."""
    if dim == 0:
        return np.zeros((0, 1))
    return np.indices((n,) * dim, dtype=float).reshape(dim, -1) / (n - 1)


def maximize(
    objective: Callable[[np.ndarray], np.ndarray],
    domain: SearchDomain,
    config: SearchConfig | None = None,
) -> SearchResult:
    """Grid-then-zoom maximization of a vectorised objective over a box.

    ``objective`` maps a (d, N) array of points to N values.  It is
    evaluated on the regular grid of ``config.grid`` points per axis, then
    on 9 points per axis across two cells either side of the incumbent,
    which halves the cell width, until the widest cell is below
    ``config.tol``.  A maximum whose basin falls between first-grid points
    can be missed, so the grid must resolve the objective.  A domain with
    no coordinates is evaluated once, at the empty point.
    """
    cfg = config or SearchConfig()
    if domain.inequalities:
        raise DomainError("maximize takes box bounds only, not inequalities")
    lo = np.array([b[0] for b in domain.bounds], dtype=float)
    hi = np.array([b[1] for b in domain.bounds], dtype=float)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise DomainError("bounds must be finite")
    if np.any(lo > hi):
        raise DomainError("a lower bound exceeds its upper bound")
    if cfg.grid < 2 or not cfg.tol > 0:
        raise DomainError("the grid needs at least 2 points per axis and tol > 0")
    evaluations = 0

    def best_on(w_lo: np.ndarray, w_hi: np.ndarray, unit: np.ndarray):
        """Best point and value on the grid ``unit`` scaled to [w_lo, w_hi]."""
        nonlocal evaluations
        points = np.minimum(w_lo[:, None] + (w_hi - w_lo)[:, None] * unit, w_hi[:, None])
        values = np.asarray(objective(points), dtype=float)
        if values.shape != points.shape[1:]:
            raise ValueError(
                f"objective gave shape {values.shape} for {points.shape[1]} points"
            )
        if np.isnan(values).any():
            raise ValueError("objective returned NaN")
        evaluations += values.size
        k = int(np.argmax(values))
        return points[:, k].copy(), float(values[k])

    best_x, best_f = best_on(lo, hi, _unit_grid(len(lo), cfg.grid))
    width = (hi - lo) / (cfg.grid - 1)
    zoom = _unit_grid(len(lo), _ZOOM_POINTS)
    while width.max(initial=0.0) >= cfg.tol:
        w_lo = np.maximum(lo, best_x - 2 * width)
        w_hi = np.minimum(hi, best_x + 2 * width)
        x, f = best_on(w_lo, w_hi, zoom)
        if f > best_f:
            best_x, best_f = x, f
        width = (w_hi - w_lo) / (_ZOOM_POINTS - 1)
    return SearchResult(
        value=best_f,
        point=best_x,
        starts_used=1,
        converged=True,
        constraint_slacks=(),
        method="grid+zoom",
        evaluations=evaluations,
        grid=cfg.grid,
        cell_width=float(width.max(initial=0.0)),
    )
