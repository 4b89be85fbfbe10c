"""Deterministic multistart derivative-free maximization over a box, and
nonnegative sampling of affine sections of a probability simplex.

Domains are box-constrained coordinates with optional scalar inequality
constraints g(x) <= 1.  Local refinement is a compass-style pattern search
augmented with seeded random poll directions and a bisection backtrack
along infeasible moves, so active constraint boundaries can be tracked.
Randomness comes from numpy's PCG64 stream seeded through SeedSequence, so
results are bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_RREF_TOL = 1e-10
_FEAS_TOL = 1e-12


class DomainError(ValueError):
    """Inconsistent or malformed search domain."""


class SamplingError(RuntimeError):
    """Rejection sampling exhausted its budget."""


@dataclass(frozen=True)
class SearchDomain:
    """Box-bounded coordinates."""

    bounds: tuple[tuple[float, float], ...] = ()
    # scalar constraints on the point, feasible iff g(x) <= 1
    inequalities: tuple[Callable[[np.ndarray], float], ...] = ()


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 64
    seed: int = 0
    tol: float = 1e-10
    max_evals: int = 200000
    initial_step: float = 0.1


@dataclass(frozen=True)
class SearchResult:
    value: float
    point: np.ndarray
    starts_used: int
    converged: bool
    constraint_slacks: tuple[float, ...]
    # certified upper bound on the maximum, from solvers that have one
    upper_bound: Optional[float] = None


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

    @property
    def n_free(self) -> int:
        return len(self.free)

    def full(self, free_vals: np.ndarray) -> np.ndarray:
        x = np.zeros(self.dim)
        x[self.free] = free_vals
        x[self.pivots] = self.b - self.a[:, self.free] @ free_vals
        return x

    def sample(self, rng: np.random.Generator, budget: int = 100000) -> np.ndarray:
        """Nonnegative solution: scaled exponential spacings on the free block."""
        if self.n_free == 0:
            x = self.full(np.empty(0))
            if x.min() < -_FEAS_TOL:
                raise DomainError("equality system has no nonnegative solution")
            return x
        for _ in range(budget):
            t = rng.uniform()
            g = rng.exponential(size=self.n_free)
            x = self.full(t * g / g.sum())
            if x.min() >= -_FEAS_TOL:
                return x
        raise SamplingError(f"no feasible simplex point in {budget} draws")


def sample_affine_simplex(
    equalities, dim: int, seed: int, budget: int = 100000
) -> np.ndarray:
    """One nonnegative simplex point satisfying the given affine equalities."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return _SimplexMap(dim, equalities).sample(rng, budget)


def _restart_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, k))))


def _slsqp_polish(objective, z0, lo, hi, inequalities, feasible):
    """Deterministic SLSQP refinement inside the box."""
    from scipy.optimize import minimize

    cons = [
        {"type": "ineq", "fun": lambda z, g=g: 1.0 - g(np.clip(z, lo, hi))}
        for g in inequalities
    ]
    try:
        res = minimize(
            lambda z: -objective(np.clip(z, lo, hi)),
            z0,
            method="SLSQP",
            bounds=list(zip(lo, hi)),
            constraints=cons,
            options={"maxiter": 200, "ftol": 1e-12},
        )
    except Exception:
        return None
    if not np.all(np.isfinite(res.x)) or feasible(res.x) is None:
        return None
    return res.x, float(objective(feasible(res.x)))


def maximize(
    objective: Callable[[np.ndarray], float],
    domain: SearchDomain,
    config: SearchConfig | None = None,
) -> SearchResult:
    """Multistart pattern-search maximization; deterministic for fixed config."""
    cfg = config or SearchConfig()
    lo = np.array([b[0] for b in domain.bounds])
    hi = np.array([b[1] for b in domain.bounds])
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise DomainError("bounds must be finite")
    dim = len(lo)
    ranges = hi - lo

    def feasible(z: np.ndarray) -> Optional[np.ndarray]:
        """Point inside the box meeting every inequality, or None."""
        if np.any(z < lo - _FEAS_TOL) or np.any(z > hi + _FEAS_TOL):
            return None
        x = np.clip(z, lo, hi)
        for g in domain.inequalities:
            if g(x) > 1.0 + 1e-9:
                return None
        return x

    def backtrack(z: np.ndarray, cand: np.ndarray):
        """Largest feasible fraction of the move z -> cand.

        Box bounds are linear along the move, so their cutoff is exact;
        only the inequality constraints need bisection.
        """
        m = cand - z
        t = 1.0
        up = m > 1e-15
        dn = m < -1e-15
        if up.any():
            t = min(t, float(np.min((hi[up] - z[up]) / m[up])))
        if dn.any():
            t = min(t, float(np.min((lo[dn] - z[dn]) / m[dn])))
        if t <= 1e-12:
            return None
        trial = z + t * m
        x = feasible(trial)
        if x is not None:
            return trial, x
        t_lo, t_hi = 0.0, t
        best = None
        for _ in range(14):
            tm = 0.5 * (t_lo + t_hi)
            trial = z + tm * m
            x = feasible(trial)
            if x is not None:
                best, t_lo = (trial, x), tm
            else:
                t_hi = tm
        return best

    fixed_dirs = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        fixed_dirs.extend((e, -e))

    def refine(z0, rng, budget, initial_step):
        """Pattern search from z0; returns (z, value, converged)."""
        z = z0
        fz = objective(feasible(z))
        evals = 1
        step = initial_step
        while step > cfg.tol and evals < budget and dim > 0:
            improved = False
            dirs = list(fixed_dirs)
            for _ in range(6):
                d = rng.standard_normal(dim)
                norm = np.linalg.norm(d)
                if norm > 0:
                    dirs.append(d / norm)
            for d in dirs:
                cand = z + step * ranges * d
                x = feasible(cand)
                if x is None:
                    bt = backtrack(z, cand)
                    if bt is None:
                        continue
                    cand, x = bt
                f = objective(x)
                evals += 1
                if f > fz + 1e-15:
                    z, fz = cand, f
                    improved = True
                if evals >= budget:
                    break
            if not improved:
                step *= 0.5
        return z, fz, step <= cfg.tol or dim == 0

    budget_per_start = max(1, cfg.max_evals // max(1, cfg.restarts))
    best_val = -np.inf
    best_z: Optional[np.ndarray] = None
    best_x: Optional[np.ndarray] = None
    all_converged = True
    starts = 0

    for k in range(max(1, cfg.restarts)):
        rng = _restart_rng(cfg.seed, k)
        # feasible start point
        z0 = None
        for _ in range(200):
            cand = lo + rng.uniform(size=dim) * ranges
            if feasible(cand) is not None:
                z0 = cand
                break
        if z0 is None:
            all_converged = False
            continue
        starts += 1

        z, fz, converged = refine(z0, rng, budget_per_start, cfg.initial_step)
        all_converged = all_converged and converged

        x = feasible(z)
        if fz > best_val or (
            fz == best_val and best_x is not None and tuple(x) < tuple(best_x)
        ):
            best_val, best_z, best_x = fz, z, x

    if best_x is None:
        raise SamplingError("no feasible start point found in any restart")

    if dim > 0:
        # polish the incumbent: SLSQP handles the curved constraint boundary
        # far better than pattern steps, then a fine-stepped search confirms
        polished = _slsqp_polish(
            objective, best_z, lo, hi, domain.inequalities, feasible
        )
        if polished is not None:
            z, fz = polished
            if fz > best_val:
                best_val, best_z, best_x = fz, z, feasible(z)
        rng = _restart_rng(cfg.seed, max(1, cfg.restarts))
        z, fz, converged = refine(best_z, rng, 4 * budget_per_start, 0.02)
        all_converged = all_converged and converged
        if fz > best_val:
            best_val, best_z, best_x = fz, z, feasible(z)
    slacks = tuple(1.0 - g(best_x) for g in domain.inequalities)
    return SearchResult(
        value=float(best_val),
        point=best_x,
        starts_used=starts,
        converged=all_converged,
        constraint_slacks=slacks,
    )
