"""The four benchmark workloads: fixed operation lists and their checks.

Every workload is built from the benchmark seed alone.  The program sees
only the generated inputs and a ``--seed`` derived from the benchmark seed.
Operations look nlbox functions up at call time (``nlbox.ic.rac_simulate``,
``nlbox.cli.main``) so that the traced run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import nlbox
import nlbox.cli

import checks as ref

# restart counts that keep one pass within a few seconds (see README.md)
IC_RESTARTS = 2
IC_CASE_RESTARTS = 1
IC_CASES = (1, 9, 12, 15)
QM_RESTARTS = 16
# box-eval batch: Cabello vectors and quantum scenarios per pass
BOX_VECTORS = 2400
BOX_SCENARIOS = 640


def program_seed(workload: str, seed: int) -> int:
    """The ``--seed`` handed to nlbox, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:0".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def cli_call(argv):
    """Run the CLI in this process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = nlbox.cli.main(list(argv))
    return rc, buf.getvalue()


def _cli_payload(out, failures):
    rc, text = out
    if rc != 0:
        failures.append(f"exit code {rc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        failures.append(f"stdout is not JSON: {exc}")
        return None


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    span: Optional[str] = None    # benchmark-level span opened in the traced run
    arg: object = None            # handed to the operation's check


def load_fixture(root: Path):
    """Table 2 rows as (case, c) read straight from the data file."""
    with open(root / "src" / "nlbox" / "data" / "table2.csv") as fh:
        rows = list(csv.DictReader(fh))
    return [(int(r["case"]), np.array([float(r[f"c{i}"]) for i in range(1, 12)]),
             float(r["lhs1"]), float(r["lhs2"])) for r in rows]


class Workload:
    name = ""
    ops: list[Op]

    def check(self, outputs: list) -> list[list[str]]:
        """Failure messages per operation, in the order of ``ops``.

        An operation that raised has output None; the pass runner already
        counts it as failed.  ``state`` carries results between checks.
        """
        state: dict = {}
        return [[] if out is None else
                getattr(self, "check_" + op.name.replace("-", "_"))(out, state, op.arg)
                for op, out in zip(self.ops, outputs)]


class NsPolytope(Workload):
    """No-signaling bound and Tables 1 and 2."""

    name = "ns-polytope"

    def __init__(self, seed: int, root: Path):
        self.pseed = program_seed(self.name, seed)
        p = str(self.pseed)
        self.fixture = load_fixture(root)
        self.lp_cabello = ref.ns_lp_optimum(hardy=False)
        self.lp_hardy = ref.ns_lp_optimum(hardy=True)
        self.ops = [
            Op("max-ns", lambda: cli_call(["max", "--model", "ns", "--seed", p])),
            Op("ns-hardy", lambda: nlbox.ns_max_success("hardy", seed=self.pseed)),
            Op("table1", lambda: cli_call(["table1"])),
            Op("table2", lambda: cli_call(["table2", "--seed", p])),
        ]

    def check_max_ns(self, out, state, arg):
        f = []
        d = _cli_payload(out, f)
        if d is None:
            return f
        w = np.array(d["witness"], dtype=float)
        table = ref.cabello_table(w)
        q1, q2, q3, _ = ref.q_values(table)
        f += ref.close("NS value vs reference LP", d["value"], self.lp_cabello, 1e-9)
        f += ref.simplex_failures(w)
        f += ref.close("NS witness success", float(ref.success(table)), 0.5, 1e-9)
        f += ref.close("NS witness q2", float(q2), 0.0, 1e-9)
        f += ref.close("NS witness q3", float(q3), 0.0, 1e-9)
        return f

    def check_ns_hardy(self, out, state, arg):
        value, w = out
        w = np.asarray(w, dtype=float)
        if w.shape != (6,):
            return [f"Hardy witness has shape {w.shape}"]
        q1, q2, q3, q4 = ref.q_values(ref.cabello_table(w))
        f = ref.close("Hardy NS value vs reference LP", value, self.lp_hardy, 1e-9)
        f += ref.simplex_failures(w)
        for name, q in (("q1", q1), ("q2", q2), ("q3", q3)):
            f += ref.close(f"Hardy witness {name}", float(q), 0.0, 1e-9)
        f += ref.close("Hardy witness q4", float(q4), value, 1e-9)
        return f

    def check_table1(self, out, state, arg):
        f = []
        d = _cli_payload(out, f)
        if d is None:
            return f
        if [row["case"] for row in d] != list(range(1, 16)):
            return f + ["table1 does not list cases 1..15 in order"]
        subsets = {frozenset(row["inputs"]) for row in d}
        if len(subsets) != 15 or not all(s <= set(ref.INPUTS) and s for s in subsets):
            f.append("table1 inputs are not the 15 nonempty subsets")
        state["systems"] = {}
        for row in d:
            a, b = ref.relation_rows(row["relations"])
            state["systems"][row["case"]] = (row["inputs"], row["relations"])
            for inp in row["inputs"]:
                if not ref.implies(a, b, ref.input_marginal_row(inp), 0.5):
                    f.append(f"case {row['case']}: system does not imply {inp} uniform")
        return f

    def check_table2(self, out, state, arg):
        f = []
        d = _cli_payload(out, f)
        if d is None:
            return f
        rows = d["rows"]
        if len(rows) != len(self.fixture):
            return f + [f"table2 has {len(rows)} rows, fixture {len(self.fixture)}"]
        systems = state.get("systems")
        if systems is None:
            return f + ["table2 cannot be checked without table1"]
        for row, (case, c, lhs1, lhs2) in zip(rows, self.fixture):
            own = ref.ic_lhs(ref.cabello_table(c))
            resid = np.abs(ref.relation_residual_all(systems[case][1], c)).max()
            if row["case"] != case or not np.array_equal(row["c"], c):
                f.append(f"table2 row for case {case} does not echo the fixture")
            elif not (abs(row["lhs1"] - own[0]) <= 1e-12 and abs(row["lhs2"] - own[1]) <= 1e-12
                      and abs(lhs1 - own[0]) <= 5e-5 and abs(lhs2 - own[1]) <= 5e-5):
                f.append(f"case {case}: lhs {row['lhs1']}, {row['lhs2']} vs {own}")
            elif not (row["lhs_match"] and row["constraints_ok"] and resid <= 1e-9):
                f.append(f"case {case}: fixture row flagged or off its system")
        for key, w in d["fresh_witnesses"].items():
            case = int(key)
            if w is None:
                f.append(f"case {case}: no fresh witness")
                continue
            inputs, relations = systems[case]
            table = ref.cabello_table(w)
            lhs = ref.ic_lhs(table)
            f += ref.simplex_failures(w, what=f"case {case} witness")
            if np.abs(ref.relation_residual_all(relations, w)).max() > 1e-9:
                f.append(f"case {case}: witness off its system")
            if not ref.random_on(table, inputs):
                f.append(f"case {case}: witness box not locally random on {inputs}")
            if max(lhs) > 1.0 + 1e-9:
                f.append(f"case {case}: witness box breaks IC, lhs {lhs}")
        if len(d["fresh_witnesses"]) != 15:
            f.append("table2 lacks fresh witnesses for some cases")
        return f


class IcBound(Workload):
    """The Information Causality bound, globally and per local-randomness case."""

    name = "ic-bound"

    def __init__(self, seed: int, root: Path):
        fixture = load_fixture(root)
        self.systems = {cid: nlbox.localrandom.lr_constraints(cid) for cid in IC_CASES}
        # best success among the case's fixture rows: known feasible points
        self.floor = {cid: max(float(ref.success(ref.cabello_table(c)))
                               for case, c, _, _ in fixture if case == cid)
                      for cid in IC_CASES}
        p = program_seed(self.name, seed)
        self.ops = [Op("max-ic", lambda: cli_call(
            ["max", "--model", "ic", "--restarts", str(IC_RESTARTS), "--seed", str(p)]))]
        self.ops += [Op("case", lambda s=s: nlbox.ic.max_success_under_ic(
            restarts=IC_CASE_RESTARTS, seed=p, equalities=(s.a, s.b)),
            span="ic.case_max", arg=cid) for cid, s in self.systems.items()]

    def _witness_failures(self, w, value, what):
        table = ref.cabello_table(w)
        lhs = ref.ic_lhs(table)
        f = ref.simplex_failures(w, what=what)
        if max(lhs) > 1.0 + 1e-8:
            f.append(f"{what} breaks IC: lhs {lhs}")
        f += ref.close(f"{what} success", float(ref.success(table)), value, 1e-12)
        return f, table

    def check_max_ic(self, out, state, arg):
        f = []
        d = _cli_payload(out, f)
        if d is None:
            return f
        f += ref.close("IC value", d["value"], ref.IC_BOUND, 1e-8)
        f += self._witness_failures(np.array(d["witness"], dtype=float), d["value"],
                                    "IC witness")[0]
        return f

    def check_case(self, res, state, cid):
        system = self.systems[cid]
        w = np.asarray(res.point, dtype=float)
        f, table = self._witness_failures(w, res.value, f"case {cid} witness")
        if res.value > ref.IC_BOUND + 1e-8:
            f.append(f"case {cid}: {res.value} exceeds the IC bound")
        if res.value < self.floor[cid] - 1e-9:
            f.append(f"case {cid}: {res.value} below fixture point {self.floor[cid]}")
        if np.abs(system.a @ w - system.b).max() > 1e-9:
            f.append(f"case {cid}: witness off the case equalities")
        if not ref.random_on(table, system.inputs):
            f.append(f"case {cid}: witness box not locally random on {system.inputs}")
        return f


class QuantumTables(Workload):
    """Quantum Cabello and Hardy maxima and the per-case Table 3."""

    name = "quantum-tables"

    def __init__(self, seed: int, root: Path):
        p = str(program_seed(self.name, seed))
        r = str(QM_RESTARTS)
        self.ops = [
            Op("max-qm", lambda: cli_call(["max", "--model", "qm", "--restarts", r, "--seed", p])),
            Op("max-qm-hardy", lambda: cli_call(
                ["max", "--model", "qm-hardy", "--restarts", r, "--seed", p])),
            Op("table3", lambda: cli_call(["table3", "--restarts", r, "--seed", p])),
        ]

    def check_max_qm(self, out, state, arg):
        f = []
        d = _cli_payload(out, f)
        if d is None:
            return f
        q1, q2, q3, q4 = ref.q_values(ref.qm_witness_table(d["witness"]))
        f += ref.close("QM Cabello value vs paper", d["value"], ref.QM_CABELLO_PAPER, 1e-5)
        f += ref.close("QM witness q2", float(q2), 0.0, 1e-9)
        f += ref.close("QM witness q3", float(q3), 0.0, 1e-9)
        f += ref.close("QM witness success", float(q4 - q1), d["value"], 1e-9)
        state["qm"] = d["value"]
        return f

    def check_max_qm_hardy(self, out, state, arg):
        f = []
        d = _cli_payload(out, f)
        if d is None:
            return f
        q1, q2, q3, q4 = ref.q_values(ref.qm_witness_table(d["witness"]))
        f += ref.close("QM Hardy value", d["value"], ref.QM_HARDY, 1e-9)
        for name, q in (("q1", q1), ("q2", q2), ("q3", q3)):
            f += ref.close(f"Hardy witness {name}", float(q), 0.0, 1e-9)
        f += ref.close("Hardy witness q4", float(q4), d["value"], 1e-9)
        return f

    def check_table3(self, out, state, arg):
        f = []
        d = _cli_payload(out, f)
        if d is None:
            return f
        if [row["case"] for row in d] != list(range(1, 16)):
            return f + ["table3 does not list cases 1..15 in order"]
        top = state.get("qm", ref.QM_CABELLO_PAPER + 1e-5)
        value = {row["case"]: row["max"] for row in d}
        for row in d:
            cid, v = row["case"], row["max"]
            if not -1e-9 <= v <= top + 1e-9:
                f.append(f"case {cid}: {v} outside [0, {top}]")
            table = ref.qm_witness_table(row["witness"])
            q1, q2, q3, q4 = ref.q_values(table)
            if not ref.random_on(table, row["inputs"]):
                f.append(f"case {cid}: witness box not locally random on {row['inputs']}")
            f += ref.close(f"case {cid} witness q2", float(q2), 0.0, 1e-9)
            f += ref.close(f"case {cid} witness q3", float(q3), 0.0, 1e-9)
            f += ref.close(f"case {cid} witness success", float(q4 - q1), v, 1e-9)
        for a, b in ref.MIRROR_PAIRS:
            f += ref.close(f"mirror cases {a}/{b}", value[a], value[b], 1e-7)
        return f


class BoxEval(Workload):
    """Per-box primitives on a seeded batch; no search runs here."""

    name = "box-eval"

    def __init__(self, seed: int, root: Path):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            [program_seed(self.name, seed)])))
        fixture = load_fixture(root)
        self.vectors = np.array([self._vector(i, rng, fixture) for i in range(BOX_VECTORS)])
        self.scenarios, self.angles, self.canonical = [], [], []
        for j in range(BOX_SCENARIOS):
            scen = self._scenario(j % 2 == 0, rng)
            self.scenarios.append(scen)
            dirs = (scen.a0, scen.a1, scen.b0, scen.b1)
            self.angles.append((scen.state.beta, scen.state.gamma,
                                [d.theta for d in dirs], [d.phi for d in dirs]))
            self.canonical.append(j % 2 == 0)
        self.ops = [Op("vector", lambda c=c: self._vector_op(c)) for c in self.vectors]
        self.ops += [Op("scenario", lambda s=s: self._scenario_op(s)) for s in self.scenarios]
        self._references()

    @staticmethod
    def _vector(i, rng, fixture):
        kind = i % 8
        c = np.zeros(11)
        if kind == 5:     # a sparse mixture on a few vertices
            idx = rng.choice(11, size=int(rng.integers(2, 6)), replace=False)
            c[idx] = rng.dirichlet(np.ones(len(idx)))
        elif kind == 6:   # nonlocal vertices only: every input locally random
            t = rng.uniform()
            c[5], c[10] = t, 1.0 - t
        elif kind == 7:   # a Table 2 point, locally random on its case's inputs
            c = fixture[int(rng.integers(len(fixture)))][1].copy()
        else:
            c = rng.dirichlet(np.full(11, 0.5))
        return c

    @staticmethod
    def _scenario(canonical, rng):
        q = nlbox.quantum
        if canonical:
            return q.canonical_scenario(rng.uniform(0.05, math.pi / 2 - 0.05),
                                        rng.uniform(0.05, math.pi - 0.05),
                                        rng.uniform(0.05, math.pi - 0.05))
        d = lambda: q.MeasurementDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        return q.QuantumScenario(
            q.PureState(rng.uniform(0.05, math.pi / 2 - 0.05), rng.uniform(0, 2 * math.pi)),
            d(), d(), d(), d())

    @staticmethod
    def _vector_op(c):
        box = nlbox.cabello.cabello_box(c)
        violations = nlbox.boxes.validate_box(box)
        q = nlbox.cabello.extract_q(box)
        ab = nlbox.ic.ic_ab_satisfied(box).lhs
        ba = nlbox.ic.ic_ba_satisfied(box).lhs
        rac = nlbox.ic.rac_simulate(box)
        lr = [nlbox.localrandom.is_locally_random(box, inp) for inp in ref.INPUTS]
        return box.p, len(violations), (q.q1, q.q2, q.q3, q.q4), (ab, ba), \
            (rac.p_bit0, rac.p_bit1), lr

    @staticmethod
    def _scenario_op(scen):
        box = nlbox.quantum.quantum_box(scen)
        return box.p, len(nlbox.boxes.validate_box(box))

    def _references(self):
        """Expected values, computed once: own formulas and the program's twins."""
        own = ref.cabello_table(self.vectors)
        self.ref_vec = {
            "table": own,
            "closed_form": np.array([nlbox.cabello.cabello_matrix_closed_form(c).p
                                     for c in self.vectors]),
            "q": np.stack(ref.q_values(own), -1),
            "lhs": np.stack(ref.ic_lhs(own), -1),
            "lhs_coeff": np.array([nlbox.ic.ic_cabello_lhs(c) for c in self.vectors]),
            "rac": np.stack(ref.rac_success(own), -1),
            "rac_q": np.array([(q.p_i_a, q.p_ii_a) for q in (
                nlbox.ic.ic_quantities(nlbox.boxes.Box(p)) for p in own)]),
            "lr": ref.locally_random(own),
        }
        beta = np.array([a[0] for a in self.angles])
        thetas = np.array([a[2] for a in self.angles])
        table = ref.quantum_table(beta, [a[1] for a in self.angles], thetas,
                                  [a[3] for a in self.angles])
        bias = np.array([[nlbox.quantum.marginal_bias(s.state, d)
                          for d in (s.a0, s.a1, s.b0, s.b1)] for s in self.scenarios])
        closed = np.array([nlbox.quantum.q4_minus_q1_closed_form(
            s.state.beta, s.a0.theta, s.b0.theta) if can else np.nan
            for s, can in zip(self.scenarios, self.canonical)])
        self.ref_scen = {"table": table, "bias": bias, "own_bias": ref.marginal_zero(
            beta[:, None], thetas), "closed": closed, "canonical": np.array(self.canonical)}

    def check(self, outputs):
        n = len(self.vectors)
        return self._check_vectors(outputs[:n]) + self._check_scenarios(outputs[n:])

    def _check_vectors(self, outs):
        r = self.ref_vec
        bad = np.zeros(len(outs), dtype=bool)
        got = [o for o in outs if o is not None]
        if len(got) == len(outs):
            p = np.array([o[0] for o in outs])
            bad |= np.abs(p - r["table"]).max(axis=(1, 2)) > 1e-12
            bad |= np.abs(p - r["closed_form"]).max(axis=(1, 2)) > 1e-12
            bad |= np.array([o[1] != 0 for o in outs]) | (ref.box_violation(p) > 1e-9)
            bad |= np.abs(np.array([o[2] for o in outs]) - r["q"]).max(axis=1) > 1e-12
            lhs = np.array([o[3] for o in outs])
            bad |= np.abs(lhs - r["lhs"]).max(axis=1) > 1e-12
            bad |= np.abs(lhs - r["lhs_coeff"]).max(axis=1) > 1e-12
            rac = np.array([o[4] for o in outs])
            bad |= np.abs(rac - r["rac"]).max(axis=1) > 1e-12
            bad |= np.abs(rac - r["rac_q"]).max(axis=1) > 1e-12
            bad |= np.any(np.array([o[5] for o in outs]) != r["lr"], axis=1)
        else:
            bad |= np.array([o is None for o in outs])
        return [[f"Cabello vector {i}: output disagrees with reference"] if b else []
                for i, b in enumerate(bad)]

    def _check_scenarios(self, outs):
        r = self.ref_scen
        bad = np.zeros(len(outs), dtype=bool)
        if all(o is not None for o in outs):
            p = np.array([o[0] for o in outs])
            m = ref.marginals(p)
            q1, q2, q3, q4 = ref.q_values(p)
            bad |= np.abs(p - r["table"]).max(axis=(1, 2)) > 1e-12
            bad |= np.array([o[1] != 0 for o in outs]) | (ref.box_violation(p) > 1e-9)
            bad |= np.abs(m[..., 0] - r["bias"]).max(axis=1) > 1e-12
            bad |= np.abs(m[..., 0] - r["own_bias"]).max(axis=1) > 1e-12
            bad |= ref.chsh_max(p) > ref.TSIRELSON + 1e-9
            can = r["canonical"]
            bad |= can & ((np.abs(q2) > 1e-9) | (np.abs(q3) > 1e-9)
                          | ~(np.abs(q4 - q1 - np.nan_to_num(r["closed"])) <= 1e-9))
        else:
            bad |= np.array([o is None for o in outs])
        return [[f"quantum scenario {j}: output disagrees with reference"] if b else []
                for j, b in enumerate(bad)]


WORKLOADS = {w.name: w for w in (NsPolytope, IcBound, QuantumTables, BoxEval)}
