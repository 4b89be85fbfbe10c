"""Bipartite binary no-signaling boxes.

A box is the 4x4 table of conditional probabilities P(ab|XY) for two
parties with binary inputs X, Y and binary outcomes a, b.  Rows are input
pairs XY in the order 00, 01, 10, 11; columns are outcome pairs ab in the
same order.  All operations here are pure functions over immutable values.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9

ROW_OF = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
_PAIRS = tuple(f"{x}{y}" for x, y in ROW_OF)  # labels of the rows XY and columns ab

# The one linear map of the table: for tables p of shape (..., 4, 4),
# p @ _ROW_MAP.T gives per input row XY the row total, P(a=0|XY), P(b=0|XY)
# and P(a=b|XY).  Outcome 0 counts as +1, so 2 _ROW_MAP - 1 gives the row
# total, C_A, C_B and C_AB of each row instead, and its inverse takes rows
# (1, C_A, C_B, C_AB) back to the table.  2 _ROW_MAP - 1 is a symmetric
# Hadamard matrix (its square is 4 I), so that inverse is it divided by 4.
_ROW_MAP = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]], dtype=float)
_FROM_CORRELATORS = (2.0 * _ROW_MAP - 1.0) / 4.0


class BoxError(ValueError):
    """Base class for box-level failures."""


class MalformedBoxError(BoxError):
    """Non-finite or wrongly shaped probability table."""


class InvalidBoxError(BoxError):
    """A box violated positivity, normalization or no-signaling."""


class SignalingError(BoxError):
    """A marginal depends on the remote input."""

    def __init__(self, party: str, inp: int, values: tuple[float, float]):
        self.party = party
        self.input = inp
        self.values = values
        super().__init__(
            f"marginal of party {party}, input {inp} is ambiguous: "
            f"{values[0]!r} vs {values[1]!r}"
        )


class InfeasibleCorrelatorError(BoxError):
    """Correlators that reconstruct to a negative probability."""


def _as_table(p) -> np.ndarray:
    try:
        arr = np.array(p, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedBoxError(f"probability table must be numbers: {exc}") from None
    if arr.shape != (4, 4):
        raise MalformedBoxError(f"expected a 4x4 table, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise MalformedBoxError("probability table contains non-finite entries")
    return arr


@dataclass(frozen=True)
class Box:
    """Immutable 4x4 joint-distribution table P(ab|XY)."""

    p: np.ndarray

    def __post_init__(self):
        arr = _as_table(self.p)
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    # What validation, marginals, correlators and the IC quantities read of
    # the table, computed on first use.  The table is a read-only copy, so
    # these never go stale, and none depends on a tolerance.
    @cached_property
    def stats(self) -> np.ndarray:
        """``row_stats`` of the table, read-only."""
        stats = row_stats(self.p)
        stats.setflags(write=False)
        return stats

    @cached_property
    def check_magnitudes(self) -> np.ndarray:
        """The 24 magnitudes of the checks of ``validate_box``, in report order."""
        derived = np.abs(_CHECK_MAP @ self.stats.ravel() - _CHECK_OFFSET)
        magnitudes = np.concatenate([-self.p.ravel(), derived])[_REPORT_ORDER]
        magnitudes.setflags(write=False)
        return magnitudes

    @cached_property
    def worst_check(self) -> float:
        """The largest check magnitude: the box is valid within tol iff it is <= tol."""
        return float(self.check_magnitudes.max())

    @cached_property
    def _marginal_pairs(self) -> list:
        """P(outcome 0) per [party A/B][input][remote input], as floats."""
        return _marginals(self.stats).tolist()

    def prob(self, a: int, b: int, x: int, y: int) -> float:
        return float(self.p[ROW_OF[(x, y)], ROW_OF[(a, b)]])

    def __eq__(self, other) -> bool:
        return isinstance(other, Box) and np.array_equal(self.p, other.p)

    def __hash__(self) -> int:
        return hash((self.p + 0.0).tobytes())  # + 0.0 turns -0.0 into 0.0, as == does

    def __reduce__(self):
        # copies and unpickled boxes go through __post_init__, so that their
        # table is read-only too and the derived data cannot go stale
        return Box, (self.p,)

    def to_json(self) -> str:
        return json.dumps({"p": self.p.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "Box":
        data = json.loads(text)
        if not isinstance(data, dict) or "p" not in data:
            raise MalformedBoxError('expected a JSON object with key "p"')
        return cls(data["p"])

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("XY,ab,prob\n")
        for (x, y), row in ROW_OF.items():
            for (a, b), col in ROW_OF.items():
                buf.write(f"{x}{y},{a}{b},{float(self.p[row, col])!r}\n")
        return buf.getvalue()


@dataclass(frozen=True)
class CorrelatorForm:
    """Correlator/marginal representation (C_X, C_Y, C_XY)."""

    c_x: tuple[float, float]
    c_y: tuple[float, float]
    c_xy: tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True)
class Violation:
    kind: str  # positivity | normalization | no-signaling
    location: str
    magnitude: float


def row_stats(p) -> np.ndarray:
    """Per input row XY of tables p (..., 4, 4): the row total, P(a=0|XY),
    P(b=0|XY) and P(a=b|XY), in a last axis of length 4."""
    return np.asarray(p, dtype=float) @ _ROW_MAP.T


def from_correlator_rows(rows) -> np.ndarray:
    """Tables (..., 4, 4) from their rows (1, C_A, C_B, C_AB) per input XY."""
    return np.asarray(rows, dtype=float) @ _FROM_CORRELATORS.T


def _marginals(stats: np.ndarray) -> np.ndarray:
    """P(outcome 0) from row stats, indexed [party A/B, input, remote input]."""
    grid = stats.reshape(2, 2, 4)  # [X, Y, stat], as row XY = 2X + Y
    return np.array([grid[..., 1], grid[..., 2].T])


# (kind, location) of the checks of validate_box in report order: each input
# row's four entries and then its total, row by row, then the no-signaling
# of the inputs A0, B0, A1, B1
_CHECKS = [
    check for xy in _PAIRS for check in
    [("positivity", f"P({ab}|{xy})") for ab in _PAIRS] + [("normalization", f"row XY={xy}")]
] + [("no-signaling", f"party {party}, input {inp}") for inp in (0, 1) for party in "AB"]


def _derived_checks(stats: np.ndarray) -> np.ndarray:
    """Row totals and the marginal differences of A0, B0, A1, B1."""
    m = _marginals(stats)
    return np.concatenate([stats[:, 0], (m[..., 0] - m[..., 1]).T.ravel()])


# _derived_checks as one (8, 16) map on the raveled row stats.  Each of its
# rows has one or two entries +-1, so it rounds like the formula it maps.
_CHECK_MAP = np.array([_derived_checks(unit.reshape(4, 4)) for unit in np.eye(16)]).T
_CHECK_OFFSET = np.array([1.0] * 4 + [0.0] * 4)
# from the order [-p raveled, |row total - 1|, |marginal difference|] to _CHECKS
_REPORT_ORDER = np.array(
    [k for row in range(4) for k in (*range(4 * row, 4 * row + 4), 16 + row)] + [20, 21, 22, 23])


def validate_box(box: Box, tol: float = DEFAULT_TOL) -> list[Violation]:
    """Check positivity, normalization and no-signaling; empty list if valid."""
    if box.worst_check <= tol:
        return []
    magnitudes = box.check_magnitudes
    return [Violation(*_CHECKS[k], float(magnitudes[k]))
            for k in np.flatnonzero(magnitudes > tol)]


def require_valid(box: Box, tol: float = DEFAULT_TOL) -> None:
    if box.worst_check > tol:
        raise InvalidBoxError("; ".join(
            f"{v.kind} at {v.location}" for v in validate_box(box, tol)))


def marginal(box: Box, party: str, inp: int, tol: float = DEFAULT_TOL) -> float:
    """Probability of outcome 0 for the given party/input of a no-signaling box."""
    if party not in ("A", "B") or inp not in (0, 1):
        raise ValueError(f"unknown party {party!r} or input {inp!r}")
    m0, m1 = box._marginal_pairs["AB".index(party)][inp]
    if abs(m0 - m1) > tol:
        raise SignalingError(party, inp, (m0, m1))
    return 0.5 * (m0 + m1)


def to_correlators(box: Box, tol: float = DEFAULT_TOL) -> CorrelatorForm:
    """C_X = P(a=0|X) - P(a=1|X), likewise C_Y; C_XY = P(a=b|XY) - P(a!=b|XY)."""
    require_valid(box, tol)
    c_x, c_y = (_marginals(box.stats).sum(axis=-1) - 1.0).tolist()
    c_xy = (2.0 * box.stats[:, 3] - box.stats[:, 0]).reshape(2, 2).tolist()
    return CorrelatorForm(tuple(c_x), tuple(c_y), tuple(map(tuple, c_xy)))


def from_correlators(corr: CorrelatorForm, tol: float = DEFAULT_TOL) -> Box:
    """Invert to the probability table; raise if any entry leaves [0, 1]."""
    rows = np.stack([np.ones(4), np.repeat(corr.c_x, 2), np.tile(corr.c_y, 2),
                     np.ravel(corr.c_xy)], -1)  # rows XY = 2X + Y
    p = from_correlator_rows(rows)
    if p.min() < -tol or p.max() > 1.0 + tol:
        raise InfeasibleCorrelatorError(
            f"reconstructed entries span [{p.min()}, {p.max()}]"
        )
    return Box(np.clip(p, 0.0, 1.0))


def local_vertex(alpha: int, beta: int, gamma: int, delta: int) -> Box:
    """Deterministic vertex: a = alpha*X xor beta, b = gamma*Y xor delta."""
    p = np.zeros((4, 4))
    for (x, y), row in ROW_OF.items():
        a = (alpha & x) ^ beta
        b = (gamma & y) ^ delta
        p[row, ROW_OF[(a, b)]] = 1.0
    return Box(p)


def nonlocal_vertex(alpha: int, beta: int, gamma: int) -> Box:
    """PR-type vertex: a xor b = X*Y xor alpha*X xor beta*Y xor gamma."""
    p = np.zeros((4, 4))
    for (x, y), row in ROW_OF.items():
        parity = (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma
        for (a, b), col in ROW_OF.items():
            if (a ^ b) == parity:
                p[row, col] = 0.5
    return Box(p)


def pr_box() -> Box:
    return nonlocal_vertex(0, 0, 0)


def uniform_box() -> Box:
    return Box(np.full((4, 4), 0.25))


def all_local_vertices() -> list[Box]:
    return [
        local_vertex(a, b, g, d)
        for a in (0, 1) for b in (0, 1) for g in (0, 1) for d in (0, 1)
    ]


def all_nonlocal_vertices() -> list[Box]:
    return [
        nonlocal_vertex(a, b, g) for a in (0, 1) for b in (0, 1) for g in (0, 1)
    ]


def mix(boxes: Sequence[Box], weights: Iterable[float], tol: float = DEFAULT_TOL) -> Box:
    """Entrywise convex combination of boxes."""
    w = np.array(list(weights), dtype=float)
    if len(boxes) != len(w):
        raise ValueError(f"{len(boxes)} boxes but {len(w)} weights")
    if w.min() < -tol:
        raise ValueError(f"negative weight {w.min()}")
    if abs(w.sum() - 1.0) > tol:
        raise ValueError(f"weights sum to {w.sum()}, not 1")
    tables = np.array([box.p for box in boxes]).reshape(len(w), 16)
    return Box((w @ tables).reshape(4, 4))


def chsh_value(box: Box, x: int, y: int, tol: float = DEFAULT_TOL) -> float:
    """B_XY = |sum of the four correlators - 2*C_XY|."""
    corr = to_correlators(box, tol)
    total = sum(corr.c_xy[xx][yy] for xx in (0, 1) for yy in (0, 1))
    return abs(total - 2.0 * corr.c_xy[x][y])
