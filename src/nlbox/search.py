"""Deterministic grid-then-zoom maximization over a box.

``maximize`` evaluates a vectorised objective on one regular grid of the
box, then re-grids a window of two cells either side of the best point
found, halving the cell width each round, until every cell is narrower
than the tolerance.  It draws no random numbers and has no restarts, so a
fixed objective, domain and config give the same result bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .boxes import _LazyNumpy

np = _LazyNumpy(globals())

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
