"""Local randomness of box inputs and the 15 input-subset cases.

An input is locally random when its outcome marginal is exactly 1/2
regardless of the remote input.  For Cabello mixtures each choice of
locally random inputs translates into an affine system over the weights
c1..c11, written below with the shorthand eta = (1 - c6 - c11)/2.  The
15 cases enumerate the nonempty input subsets: all four, the four
triples, the six pairs, then the four singletons.
"""
from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .boxes import Box, DEFAULT_TOL, marginal
from .cabello import cabello_box
from .ic import ic_cabello_lhs
from .search import _SimplexMap

LR_INPUTS = ("0_A", "1_A", "0_B", "1_B")

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

    @property
    def zero_variables(self) -> tuple[int, ...]:
        """1-based indices of weights forced to zero by a 'ci = 0' relation."""
        out = []
        for rel in self.relations:
            m = re.fullmatch(r"c(\d+)\s*=\s*0", rel.strip())
            if m:
                out.append(int(m.group(1)))
        return tuple(out)

    def satisfied_by(self, c: Sequence[float], tol: float = DEFAULT_TOL) -> bool:
        c = np.asarray(c, dtype=float)
        return bool(np.max(np.abs(self.a @ c - self.b)) <= tol)


def lr_cases() -> tuple[int, ...]:
    return tuple(sorted(_CASE_TABLE))


def case_inputs(case_id: int) -> tuple[str, ...]:
    _check_case(case_id)
    return _CASE_TABLE[case_id][0]


def _check_case(case_id: int) -> None:
    if case_id not in _CASE_TABLE:
        raise ValueError(f"case id must be 1..15, got {case_id}")


def lr_constraints(case_id: int) -> ConstraintSystem:
    """Affine system of the given case."""
    _check_case(case_id)
    inputs, relations = _CASE_TABLE[case_id]
    rows = [_relation_row(rel) for rel in relations]
    return ConstraintSystem(
        case_id=case_id,
        inputs=inputs,
        relations=tuple(relations),
        a=np.array([r[0] for r in rows]),
        b=np.array([r[1] for r in rows]),
    )


def is_locally_random(box: Box, inp: str, tol: float = DEFAULT_TOL) -> bool:
    """True iff the input's outcome marginal is 1/2 for either remote input."""
    if inp not in LR_INPUTS:
        raise ValueError(f"unknown input {inp!r}")
    party = inp[-1]
    x = int(inp[0])
    return abs(marginal(box, party, x, tol) - 0.5) <= tol


def feasibility_witness(case_id: int, seed: int = 0) -> Optional[np.ndarray]:
    """Simplex point satisfying the case's system and both IC quadratics.

    Draws points of the affine solution set and keeps the first that is
    nonnegative and passes both inequalities; None only when 100,000 draws
    all fail (not expected, every case is feasible).
    """
    system = lr_constraints(case_id)
    smap = _SimplexMap(11, (system.a, system.b))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, case_id))))
    for _ in range(100000):
        c = smap.draw(rng)
        if c is not None and max(ic_cabello_lhs(c, tol=1e-9)) <= 1.0:
            return c
    return None


def sample_case_point(case_id: int, rng: np.random.Generator) -> np.ndarray:
    """One simplex point solving the case's affine system."""
    system = lr_constraints(case_id)
    return _SimplexMap(11, (system.a, system.b)).sample(rng)


@dataclass(frozen=True)
class Table2Row:
    case_id: int
    c: np.ndarray
    lhs1: float
    lhs2: float


@dataclass(frozen=True)
class Table2Check:
    row: Table2Row
    recomputed: tuple[float, float]
    lhs_match: bool
    constraints_ok: bool
    ic_ok: bool


def load_table2_fixture() -> list[Table2Row]:
    text = resources.files("nlbox.data").joinpath("table2.csv").read_text()
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        rows.append(
            Table2Row(
                case_id=int(rec["case"]),
                c=np.array([float(rec[f"c{i}"]) for i in range(1, 12)]),
                lhs1=float(rec["lhs1"]),
                lhs2=float(rec["lhs2"]),
            )
        )
    return rows


def verify_table2(
    rows: Optional[Sequence[Table2Row]] = None, tol: float = 5e-5
) -> list[Table2Check]:
    """Recompute every fixture row; mismatches are reported, not raised."""
    if rows is None:
        rows = load_table2_fixture()
    out = []
    for row in rows:
        lhs = ic_cabello_lhs(row.c)
        system = lr_constraints(row.case_id)
        out.append(
            Table2Check(
                row=row,
                recomputed=lhs,
                lhs_match=abs(lhs[0] - row.lhs1) <= tol and abs(lhs[1] - row.lhs2) <= tol,
                constraints_ok=system.satisfied_by(row.c),
                ic_ok=lhs[0] <= 1.0 + tol and lhs[1] <= 1.0 + tol,
            )
        )
    return out
