"""Local randomness of box inputs and the 15 input-subset cases.

An input is locally random when its outcome marginal is exactly 1/2
regardless of the remote input.  For Cabello mixtures each choice of
locally random inputs translates into an affine system over the weights
c1..c11, written below with the shorthand eta = (1 - c6 - c11)/2.  The
15 cases enumerate the nonempty input subsets: all four, the four
triples, the six pairs, then the four singletons.

Each case's system, the stack of all 15 systems, each case's feasibility
witness and the Table 2 fixture rows are constants of the paper: each is
built on first use, once per process, and shared with read-only arrays
(a witness is handed out as a fresh copy).  ``verify_table2`` evaluates
the constraint residuals of all its rows in one batched product against
the stack.
"""
from __future__ import annotations

import csv
import functools
import io
import operator
import re
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

from .boxes import Box, DEFAULT_TOL, _LazyNumpy, _check_tol, marginal
# bound only so that perfbench/tracing.py can patch nlbox.localrandom.cabello_box
from .cabello import cabello_box
from .ic import ic_cabello_lhs, max_success_under_ic

np = _LazyNumpy(globals())

LR_INPUTS = ("0_A", "1_A", "0_B", "1_B")
_PARTY_INPUT = {inp: (inp[-1], int(inp[0])) for inp in LR_INPUTS}  # "1_B" -> ("B", 1)

# the 15 case rows: locally random inputs and their coefficient relations
_CASE_TABLE: dict[int, tuple[tuple[str, ...], list[str]]] = {
    1: (("0_A", "1_A", "0_B", "1_B"),
        ["c2 = 0", "c4 = 0", "c7 = 0", "c8 = 0", "c9 = 0",
         "c1 = eta - c5", "c3 = eta - c5", "c5 = c10"]),
    2: (("0_A", "1_A", "0_B"),
        ["c4 = 0", "c7 = 0", "c8 = 0",
         "c3 + c5 = eta", "c1 + c2 = c3", "c9 + c10 = c5"]),
    3: (("0_A", "1_A", "1_B"),
        ["c2 = 0", "c7 = 0", "c9 = 0",
         "c3 + c10 = eta", "c1 + c8 = c3", "c4 + c5 = c10"]),
    4: (("0_A", "0_B", "1_B"),
        ["c2 = 0", "c7 = 0", "c9 = 0",
         "c1 + c5 = eta", "c3 + c4 = c1", "c8 + c10 = c5"]),
    5: (("1_A", "0_B", "1_B"),
        ["c4 = 0", "c7 = 0", "c8 = 0",
         "c1 + c10 = eta", "c3 + c9 = c1", "c2 + c5 = c10"]),
    6: (("0_A", "1_A"),
        ["c3 + c4 + c5 = eta", "c3 = c1 + c2 + c7 + c8", "c4 + c5 = c9 + c10"]),
    7: (("0_B", "1_B"),
        ["c1 + c2 + c5 = eta", "c1 = c3 + c4 + c7 + c9", "c2 + c5 = c8 + c10"]),
    8: (("1_A", "1_B"),
        ["c1 + c8 = eta - c10", "c3 + c9 = eta - c10", "c10 = c2 + c4 + c5 + c7"]),
    9: (("0_A", "0_B"),
        ["c1 + c2 = eta - c5", "c3 + c4 = eta - c5", "c5 = c7 + c8 + c9 + c10"]),
    10: (("0_A", "1_B"),
         ["c2 = 0", "c7 = 0", "c9 = 0",
          "c3 + c4 + c5 = eta", "c1 + c8 + c10 = eta"]),
    11: (("1_A", "0_B"),
         ["c4 = 0", "c7 = 0", "c8 = 0",
          "c1 + c2 + c5 = eta", "c3 + c9 + c10 = eta"]),
    12: (("0_A",),
         ["c1 + c2 + c7 + c8 + c9 + c10 = eta", "c3 + c4 + c5 = eta"]),
    13: (("1_A",),
         ["c1 + c2 + c4 + c5 + c7 + c8 = eta", "c3 + c9 + c10 = eta"]),
    14: (("0_B",),
         ["c3 + c4 + c7 + c8 + c9 + c10 = eta", "c1 + c2 + c5 = eta"]),
    15: (("1_B",),
         ["c2 + c3 + c4 + c5 + c7 + c9 = eta", "c1 + c8 + c10 = eta"]),
}

_TERM = re.compile(r"([+-]?)\s*(c\d+|eta|0)")


def _relation_row(relation: str) -> tuple[np.ndarray, float]:
    """One 'lhs = rhs' relation as (coeffs over c1..c11, constant rhs).

    eta expands to (1 - c6 - c11)/2, so an eta term contributes 1/2 to the
    constant and -1/2 to the c6 and c11 coefficients.
    """
    lhs, rhs = relation.split("=")
    coeffs = np.zeros(11)
    const = 0.0
    for side, side_sign in ((lhs, 1.0), (rhs, -1.0)):
        for sign, name in _TERM.findall(side):
            k = side_sign * (-1.0 if sign == "-" else 1.0)
            if name == "0":
                continue
            if name == "eta":
                const += k * 0.5
                coeffs[5] -= k * 0.5
                coeffs[10] -= k * 0.5
            else:
                coeffs[int(name[1:]) - 1] += k
    return coeffs, -const


@dataclass(frozen=True)
class ConstraintSystem:
    """Affine system A @ c = b over the Cabello weights, with its source text."""

    case_id: int
    inputs: tuple[str, ...]
    relations: tuple[str, ...]
    a: np.ndarray
    b: np.ndarray

    def satisfied_by(self, c: Sequence[float], tol: float = DEFAULT_TOL) -> bool:
        _check_tol(tol)
        c = np.asarray(c, dtype=float)
        return bool(np.max(np.abs(self.a @ c - self.b)) <= tol)


def lr_cases() -> tuple[int, ...]:
    return tuple(sorted(_CASE_TABLE))


def case_inputs(case_id: int) -> tuple[str, ...]:
    return _CASE_TABLE[_check_case(case_id)][0]


def _check_case(case_id: int) -> int:
    """The case id as its int key; an int or numpy integer in 1..15."""
    try:
        key = operator.index(case_id)
    except TypeError:
        key = None
    if isinstance(case_id, bool) or key not in _CASE_TABLE:
        raise ValueError(f"case id must be 1..15, got {case_id}")
    return key


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.cache
def _system(case_id: int) -> ConstraintSystem:
    inputs, relations = _CASE_TABLE[case_id]
    rows = [_relation_row(rel) for rel in relations]
    return ConstraintSystem(
        case_id=case_id,
        inputs=inputs,
        relations=tuple(relations),
        a=_read_only(np.array([r[0] for r in rows])),
        b=_read_only(np.array([r[1] for r in rows])),
    )


def lr_constraints(case_id: int) -> ConstraintSystem:
    """Affine system of the given case, shared: its arrays are read-only."""
    return _system(_check_case(case_id))


@functools.cache
def _system_stack() -> tuple[np.ndarray, np.ndarray]:
    """The A and b of cases 1..15 stacked, read-only, each zero-padded to the
    longest system's 8 rows: a padding row holds at every point."""
    systems = [_system(cid) for cid in lr_cases()]
    k = max(len(s.b) for s in systems)
    a, b = np.zeros((len(systems), k, 11)), np.zeros((len(systems), k))
    for i, s in enumerate(systems):
        a[i, :len(s.b)], b[i, :len(s.b)] = s.a, s.b
    return _read_only(a), _read_only(b)


def is_locally_random(box: Box, inp: str, tol: float = DEFAULT_TOL) -> bool:
    """True iff the input's outcome marginal is 1/2 for either remote input."""
    try:
        party, x = _PARTY_INPUT[inp]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        raise ValueError(f"unknown input {inp!r}") from None
    return abs(marginal(box, party, x, tol) - 0.5) <= tol


def feasibility_witness(case_id: int) -> np.ndarray:
    """Simplex point satisfying the case's system and both IC quadratics.

    It is the certified IC maximizer c6 = 1/sqrt(2), c11 = 1 - 1/sqrt(2) of
    ``max_success_under_ic``, which solves every case's system exactly and
    leaves both IC slacks at +2.2e-16; it is certified once per case and
    process, and each call returns a fresh copy.
    """
    return _witness(_check_case(case_id)).copy()


@functools.cache
def _witness(case_id: int) -> np.ndarray:
    system = _system(case_id)
    return _read_only(max_success_under_ic(equalities=(system.a, system.b)).point)


@dataclass(frozen=True)
class Table2Row:
    case_id: int
    c: np.ndarray
    lhs1: float
    lhs2: float


@dataclass(frozen=True, init=False)
class Table2Check:
    row: Table2Row
    recomputed: tuple[float, float]
    lhs_match: bool
    constraints_ok: bool
    ic_ok: bool

    def __init__(self, row: Table2Row, recomputed: tuple[float, float], lhs_match: bool,
                 constraints_ok: bool, ic_ok: bool):
        self.__dict__.update(row=row, recomputed=recomputed, lhs_match=lhs_match,
                             constraints_ok=constraints_ok, ic_ok=ic_ok)


def load_table2_fixture() -> list[Table2Row]:
    """The shipped Table 2 rows, in a new list of shared rows whose c is read-only."""
    return list(_fixture_rows())


@functools.cache
def _fixture_rows() -> tuple[Table2Row, ...]:
    text = resources.files("nlbox.data").joinpath("table2.csv").read_text()
    return tuple(
        Table2Row(
            case_id=int(rec["case"]),
            c=_read_only(np.array([float(rec[f"c{i}"]) for i in range(1, 12)])),
            lhs1=float(rec["lhs1"]),
            lhs2=float(rec["lhs2"]),
        )
        for rec in csv.DictReader(io.StringIO(text))
    )


def verify_table2(
    rows: Optional[Sequence[Table2Row]] = None, tol: float = 5e-5
) -> list[Table2Check]:
    """Recompute every fixture row; mismatches are reported, not raised.

    The left-hand sides are ``ic_cabello_lhs`` of each row, and
    ``constraints_ok`` is the row case's ``satisfied_by`` at its default
    tolerance, with the residuals of all rows in one batched product.  A
    row off the simplex or with an unknown case raises, the first such row's
    error first.
    """
    _check_tol(tol)
    rows = _fixture_rows() if rows is None else tuple(rows)
    if not rows:
        return []
    lhs, cases = [], []
    for row in rows:
        lhs.append(ic_cabello_lhs(row.c))
        cases.append(_check_case(row.case_id) - 1)
    a, b = _system_stack()
    c = np.array([row.c for row in rows], dtype=float)
    residuals = np.matmul(a[cases], c[:, :, None])[:, :, 0] - b[cases]
    ok = (np.abs(residuals).max(axis=1) <= DEFAULT_TOL).tolist()
    return [Table2Check(row, (l1, l2), abs(l1 - row.lhs1) <= tol and abs(l2 - row.lhs2) <= tol,
                        row_ok, l1 <= 1.0 + tol and l2 <= 1.0 + tol)
            for row, (l1, l2), row_ok in zip(rows, lhs, ok)]
