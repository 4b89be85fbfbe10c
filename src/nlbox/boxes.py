"""Bipartite binary no-signaling boxes.

A box is the 4x4 table of conditional probabilities P(ab|XY) for two
parties with binary inputs X, Y and binary outcomes a, b.  Rows are input
pairs XY in the order 00, 01, 10, 11; columns are outcome pairs ab in the
same order.  All operations here are pure functions over immutable values.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9

ROW_OF = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
_PAIRS = tuple(f"{x}{y}" for x, y in ROW_OF)  # labels of the rows XY and columns ab


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


class CoefficientError(ValueError):
    """Weights off the probability simplex."""


@dataclass(frozen=True, init=False)
class Box:
    """Immutable 4x4 joint-distribution table P(ab|XY).

    Construction reads the table once and keeps as plain floats the 16
    cells, the 16 row stats of ``_row_stats``, the 8 marginal pairs of the
    no-signaling checks and ``worst_check``, the largest check magnitude.
    The readers below do scalar arithmetic on these only.  ``stats`` and the
    24 magnitudes, in ``validate_box``'s report order, are built from those
    floats when read or when ``validate_box`` has a violation to report.
    The table is a read-only copy, so none of this goes stale, and none of
    it depends on a tolerance.
    """

    p: np.ndarray

    def __init__(self, p):
        try:
            arr = np.array(p, dtype=float)  # a copy: the caller's p is never frozen
        except (TypeError, ValueError) as exc:
            raise MalformedBoxError(f"probability table must be numbers: {exc}") from None
        if arr.shape != (4, 4):
            raise MalformedBoxError(f"expected a 4x4 table, got shape {arr.shape}")
        self._read(arr)

    def _read(self, arr: np.ndarray) -> "Box":
        """Construction on a 4x4 float table that no caller holds; returns self."""
        arr.setflags(write=False)
        cells = arr.ravel().tolist()
        s = _row_stats(cells)
        # a non-finite cell makes the row totals' sum non-finite; finite cells
        # do so only by overflow, and their box is invalid, not malformed
        if not math.isfinite(s[0] + s[4] + s[8] + s[12]) and not all(map(math.isfinite, cells)):
            raise MalformedBoxError("probability table contains non-finite entries")
        m = _MARGINAL_PAIRS(s)
        # The max of the 24 magnitudes: the worst positivity and the 4 gaps
        # each of normalization and no-signaling.  max skips NaN magnitudes
        # after its finite first term; only sums that overflow make them,
        # and a table whose sums overflow fails another check by more than
        # 1e307.  The instance is frozen, so its attributes go into __dict__.
        worst = max(-min(cells), abs(s[0] - 1.0), abs(s[4] - 1.0), abs(s[8] - 1.0),
                    abs(s[12] - 1.0), abs(m[0] - m[1]), abs(m[2] - m[3]),
                    abs(m[4] - m[5]), abs(m[6] - m[7]))
        self.__dict__.update(p=arr, _cells=cells, _stats=s, _pairs=m, worst_check=worst)
        return self

    @property
    def stats(self) -> np.ndarray:
        """Read-only rows (total, P(a=0|XY), P(b=0|XY), P(a=b|XY)) per XY."""
        stats = np.array(self._stats).reshape(4, 4)
        stats.setflags(write=False)
        return stats

    def _magnitudes(self) -> list[float]:
        """The 24 check magnitudes, in the order of _CHECKS."""
        c, s, m = self._cells, self._stats, self._pairs
        return [-c[0], -c[1], -c[2], -c[3], abs(s[0] - 1.0),
                -c[4], -c[5], -c[6], -c[7], abs(s[4] - 1.0),
                -c[8], -c[9], -c[10], -c[11], abs(s[8] - 1.0),
                -c[12], -c[13], -c[14], -c[15], abs(s[12] - 1.0),
                abs(m[0] - m[1]), abs(m[2] - m[3]), abs(m[4] - m[5]), abs(m[6] - m[7])]

    @property
    def check_magnitudes(self) -> np.ndarray:
        """The 24 magnitudes of the checks of ``validate_box``, in report
        order, read-only; the box is valid within tol iff ``worst_check``,
        their max, is <= tol."""
        magnitudes = np.array(self._magnitudes())
        magnitudes.setflags(write=False)
        return magnitudes

    def prob(self, a: int, b: int, x: int, y: int) -> float:
        try:
            return self._cells[4 * ROW_OF[(x, y)] + ROW_OF[(a, b)]]
        except KeyError:
            raise ValueError(f"unknown outcomes {a!r}, {b!r} or inputs {x!r}, {y!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, Box) and np.array_equal(self.p, other.p)

    def __hash__(self) -> int:
        return hash((self.p + 0.0).tobytes())  # + 0.0 turns -0.0 into 0.0, as == does

    def __reduce__(self):
        # copies and unpickled boxes go through __init__, so that their
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


def _row_stats(c: list[float]) -> list[float]:
    """Box.stats of the raveled cells; each sum starts at +0.0, as a matmul's does."""
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, c15 = c
    return [0.0 + c0 + c1 + c2 + c3, 0.0 + c0 + c1, 0.0 + c0 + c2, 0.0 + c0 + c3,
            0.0 + c4 + c5 + c6 + c7, 0.0 + c4 + c5, 0.0 + c4 + c6, 0.0 + c4 + c7,
            0.0 + c8 + c9 + c10 + c11, 0.0 + c8 + c9, 0.0 + c8 + c10, 0.0 + c8 + c11,
            0.0 + c12 + c13 + c14 + c15, 0.0 + c12 + c13, 0.0 + c12 + c14, 0.0 + c12 + c15]


def _correlator_cells(quarters) -> list[float]:
    """The raveled cells 1/4 +- C_A/4 +- C_B/4 +- C_AB/4 of each row XY from its
    (C_A/4, C_B/4, C_AB/4), outcome 0 as +1, summed left to right as a matmul does."""
    cells = []
    for a, b, c in quarters:
        cells += 0.25 + a + b + c, 0.25 + a - b - c, 0.25 - a + b - c, 0.25 - a - b + c
    return cells


def _table_box(cells) -> Box:
    """The Box of 16 raveled float cells, a list or a fresh array that no
    caller holds, such as a mixture's weights (n,) times raveled tables (n, 16)."""
    p = np.asarray(cells, dtype=float)
    p.shape = (4, 4)  # in place: a reshaped view would keep a second array object
    return object.__new__(Box)._read(p)


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

# Gathers the marginal pairs from the 16 raveled row stats, in the order
# [input][party A/B][remote input] of the no-signaling checks: _marginals
# applied to the stats' own indices, so its formula exists only once.
_MARGINAL_PAIRS = itemgetter(
    *_marginals(np.arange(16).reshape(4, 4)).transpose(1, 0, 2).ravel().tolist())


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:  # nan fails both comparisons
        raise ValueError(f"tol must be a finite value >= 0, got {tol!r}")


def _as_coefficients(c) -> np.ndarray:
    try:
        return np.asarray(c, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CoefficientError(f"coefficients must be numbers: {exc}") from None


def check_coefficients(c: Sequence[float], n: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    _check_tol(tol)
    arr = _as_coefficients(c)
    if arr.shape != (n,):
        raise CoefficientError(f"expected {n} coefficients, got shape {arr.shape}")
    values = arr.tolist()
    try:
        total = math.fsum(values)  # correctly rounded, so the message reports the exact sum
    except (OverflowError, ValueError):  # inf - inf is reported as non-finite below,
        total = math.inf  # and weights >= -tol that overflow sum to +inf
    if min(values) >= -tol and abs(total - 1.0) <= tol:
        return arr  # valid weights; any other vector gets the checks below, in order
    if not all(map(math.isfinite, values)):
        raise CoefficientError("non-finite coefficient")
    if min(values) < -tol:
        raise CoefficientError(f"negative coefficient {min(values)}")
    raise CoefficientError(f"coefficients sum to {total}, not 1")


def validate_box(box: Box, tol: float = DEFAULT_TOL) -> list[Violation]:
    """Check positivity, normalization and no-signaling; empty list if valid."""
    _check_tol(tol)
    if box.worst_check <= tol:
        return []
    return [Violation(*check, magnitude)
            for check, magnitude in zip(_CHECKS, box._magnitudes()) if magnitude > tol]


def require_valid(box: Box, tol: float = DEFAULT_TOL) -> None:
    _check_tol(tol)
    if box.worst_check > tol:
        raise InvalidBoxError("; ".join(
            f"{v.kind} at {v.location}" for v in validate_box(box, tol)))


def marginal(box: Box, party: str, inp: int, tol: float = DEFAULT_TOL) -> float:
    """Probability of outcome 0 for the given party/input of a no-signaling box."""
    if party not in ("A", "B") or inp not in (0, 1):
        raise ValueError(f"unknown party {party!r} or input {inp!r}")
    _check_tol(tol)
    k = 4 * inp + 2 * "AB".index(party)
    m0, m1 = box._pairs[k], box._pairs[k + 1]
    if abs(m0 - m1) > tol:
        raise SignalingError(party, inp, (m0, m1))
    return 0.5 * (m0 + m1)


def to_correlators(box: Box, tol: float = DEFAULT_TOL) -> CorrelatorForm:
    """C_X = P(a=0|X) - P(a=1|X), likewise C_Y; C_XY = P(a=b|XY) - P(a!=b|XY)."""
    require_valid(box, tol)
    m, s = box._pairs, box._stats
    c_x, c_y = ((m[k] + m[k + 1] - 1.0, m[k + 4] + m[k + 5] - 1.0) for k in (0, 2))
    c_xy = [2.0 * s[row + 3] - s[row] for row in range(0, 16, 4)]  # rows XY = 2X + Y
    return CorrelatorForm(c_x, c_y, (tuple(c_xy[:2]), tuple(c_xy[2:])))


def from_correlators(corr: CorrelatorForm, tol: float = DEFAULT_TOL) -> Box:
    """Invert to the probability table; raise if any entry leaves [0, 1]."""
    _check_tol(tol)
    # rows XY = 2X + Y; the conversion turns a None into NaN, as Box's does
    values = np.array([corr.c_x, corr.c_y, *corr.c_xy], dtype=float).tolist()
    (a0, a1), (b0, b1), (c0, c1), (c2, c3) = ([0.25 * v for v in pair] for pair in values)
    cells = _correlator_cells([(a0, b0, c0), (a0, b1, c1), (a1, b0, c2), (a1, b1, c3)])
    lo, hi = min(cells), max(cells)
    if (lo < -tol or hi > 1.0 + tol) and not any(map(math.isnan, cells)):  # NaN: Box raises
        raise InfeasibleCorrelatorError(f"reconstructed entries span [{lo}, {hi}]")
    return _table_box([min(max(v, 0.0), 1.0) for v in cells])


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


def mix(boxes: Sequence[Box], weights: Iterable[float], tol: float = DEFAULT_TOL) -> Box:
    """Entrywise convex combination of boxes with check_coefficients' weights."""
    w = list(weights)
    if len(boxes) != len(w):
        raise ValueError(f"{len(boxes)} boxes but {len(w)} weights")
    w = check_coefficients(w, len(w), tol)
    return _table_box(np.dot(w, np.array([box.p for box in boxes]).reshape(len(w), 16)))


def chsh_value(box: Box, x: int, y: int, tol: float = DEFAULT_TOL) -> float:
    """B_XY = |sum of the four correlators - 2*C_XY|."""
    corr = to_correlators(box, tol)
    total = sum(corr.c_xy[xx][yy] for xx in (0, 1) for yy in (0, 1))
    return abs(total - 2.0 * corr.c_xy[x][y])
