"""Command-line interface reproducing the reference tables and bounds.

Exit codes: 0 success, 1 check failure, 2 usage error.  Output goes to
stdout (JSON by default, CSV with --format csv on vertex and the tables);
diagnostics to stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import boxes, cabello, ic, localrandom as lr, quantum
from .boxes import Box

CHECK_FAILURE = 1


def tolerance(text: str) -> float:
    if not 0.0 <= float(text) < math.inf:  # nan fails both comparisons
        raise argparse.ArgumentTypeError(f"expected a finite value >= 0, got {text!r}")
    return float(text)


def seed_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _load_box(args) -> Box:
    if args.box == "-":
        return Box.from_json(sys.stdin.read())
    with open(args.box) as fh:
        return Box.from_json(fh.read())


def _load_coeffs(spec: str) -> np.ndarray:
    if os.path.exists(spec):
        with open(spec) as fh:
            return cabello.coefficients_from_json(fh.read())
    return cabello.cabello_coefficients([float(tok) for tok in spec.split(",")])


def cmd_validate(args) -> int:
    box = _load_box(args)
    report = boxes.validate_box(box, args.tol)
    _emit(args, json.dumps({
        "valid": not report,
        "violations": [
            {"kind": v.kind, "location": v.location, "magnitude": v.magnitude}
            for v in report
        ],
    }))
    return 0 if not report else CHECK_FAILURE


_VERTICES = {"local": (4, boxes.local_vertex), "nonlocal": (3, boxes.nonlocal_vertex)}


def cmd_vertex(args) -> int:
    n_bits, make = _VERTICES[args.kind]
    if any(b not in (0, 1) for b in args.bits):
        raise ValueError(f"label bits must be 0 or 1, got {args.bits}")
    if len(args.bits) != n_bits:
        raise ValueError(f"{args.kind} vertices take {n_bits} bits")
    box = make(*args.bits)
    _emit(args, box.to_csv() if args.format == "csv" else box.to_json())
    return 0


def cmd_cabello(args) -> int:
    box = cabello.cabello_box(_load_coeffs(args.coeffs), args.tol)
    q = cabello.extract_q(box)
    runs, _ = cabello.check_cabello_conditions(box, args.tol)
    _emit(args, json.dumps({
        "box": {"p": box.p.tolist()},
        "q": {"q1": q.q1, "q2": q.q2, "q3": q.q3, "q4": q.q4},
        "success": q.success,
        "argument_runs": runs,
    }))
    return 0


def cmd_ic(args) -> int:
    if args.coeffs is not None:
        lhs1, lhs2 = ic.ic_cabello_lhs(_load_coeffs(args.coeffs), args.tol)
    else:
        box = _load_box(args)
        lhs1 = ic.ic_ab_satisfied(box, args.tol).lhs
        lhs2 = ic.ic_ba_satisfied(box, args.tol).lhs
    satisfied = lhs1 <= 1.0 + args.tol and lhs2 <= 1.0 + args.tol
    _emit(args, json.dumps({
        "lhs1": lhs1,
        "lhs2": lhs2,
        "satisfied": satisfied,
        "margin": 1.0 - max(lhs1, lhs2),
    }))
    return 0


def cmd_rac(args) -> int:
    out = ic.rac_simulate(_load_box(args), args.tol)
    _emit(args, json.dumps({
        "p_bit0": out.p_bit0, "p_bit1": out.p_bit1,
        "mi_bit0": out.mi_bit0, "mi_bit1": out.mi_bit1,
        "total": out.total,
    }))
    return 0


def cmd_lr_case(args) -> int:
    system = lr.lr_constraints(args.case)
    witness = lr.feasibility_witness(args.case)
    _emit(args, json.dumps({
        "case": system.case_id,
        "inputs": list(system.inputs),
        "relations": list(system.relations),
        "witness": [round(v, 12) for v in witness],
        "witness_lhs": list(ic.ic_cabello_lhs(witness)),
    }))
    return 0


def cmd_table1(args) -> int:
    systems = [lr.lr_constraints(cid) for cid in lr.lr_cases()]
    if args.format == "csv":
        lines = ["case,inputs,relations"]
        lines += [f'{s.case_id},"{",".join(s.inputs)}","{"; ".join(s.relations)}"'
                  for s in systems]
        _emit(args, "\n".join(lines))
    else:
        _emit(args, json.dumps([
            {"case": s.case_id, "inputs": list(s.inputs), "relations": list(s.relations)}
            for s in systems
        ]))
    return 0


def cmd_table2(args) -> int:
    checks = lr.verify_table2()
    ok = True
    rows = []
    for chk in checks:
        ok = ok and chk.lhs_match and chk.ic_ok and chk.constraints_ok
        if not chk.lhs_match:
            print(
                f"case {chk.row.case_id}: fixture ({chk.row.lhs1}, {chk.row.lhs2}) "
                f"!= recomputed {chk.recomputed}", file=sys.stderr,
            )
        if not chk.constraints_ok:
            print(f"case {chk.row.case_id}: fixture row is off its system", file=sys.stderr)
        rows.append({
            "case": chk.row.case_id,
            "c": chk.row.c.tolist(),
            "lhs1": chk.recomputed[0],
            "lhs2": chk.recomputed[1],
            "lhs_match": chk.lhs_match,
            "constraints_ok": chk.constraints_ok,
        })
    if args.format == "csv":
        lines = ["case," + ",".join(f"c{i}" for i in range(1, 12))
                 + ",lhs1,lhs2,lhs_match,constraints_ok"]
        for r in rows:
            lines.append(
                f"{r['case']},"
                + ",".join(f"{v:.4f}" for v in r["c"])
                + f",{r['lhs1']:.4f},{r['lhs2']:.4f},{r['lhs_match']},{r['constraints_ok']}"
            )
        _emit(args, "\n".join(lines))
    else:
        _emit(args, json.dumps({
            "rows": rows,
            "fresh_witnesses": {
                str(cid): lr.feasibility_witness(cid).tolist() for cid in lr.lr_cases()
            },
        }))
    return 0 if ok else CHECK_FAILURE


def _witness(scen: quantum.QuantumScenario, with_gamma: bool = False) -> dict:
    """Angles of a quantum witness, as printed by max and table3."""
    w = {"beta": scen.state.beta}
    if with_gamma:
        w["gamma"] = scen.state.gamma
    w.update(theta_x0=scen.a0.theta, theta_x1=scen.a1.theta,
             theta_y0=scen.b0.theta, theta_y1=scen.b1.theta)
    return w


def cmd_table3(args) -> int:
    lines = ["case,inputs,theta_x0,theta_x1,theta_y0,theta_y1,beta,max_q4_minus_q1,"
             "witness_beta,witness_theta_x0,witness_theta_y0"]
    rows = []
    for cid in lr.lr_cases():
        result, scen, geom = quantum.max_cabello_qm(cid)
        beta_label = "pi/4" if geom.beta is not None else "free"
        rows.append({
            "case": cid,
            "inputs": list(lr.case_inputs(cid)),
            "theta_x0": geom.theta_x0 or "free",
            "theta_y0": geom.theta_y0 or "free",
            "beta": beta_label,
            "max": result.value,
            "method": result.method,
            "witness": _witness(scen),
        })
        w = rows[-1]["witness"]
        lines.append(
            f"{cid},\"{' '.join(rows[-1]['inputs'])}\",{rows[-1]['theta_x0']},"
            f"derived,{rows[-1]['theta_y0']},derived,{beta_label},"
            f"{result.value:.6g},{w['beta']:.6g},{w['theta_x0']:.6g},{w['theta_y0']:.6g}"
        )
    _emit(args, "\n".join(lines) if args.format == "csv" else json.dumps(rows))
    return 0


def cmd_max(args) -> int:
    if args.case is not None and args.model != "qm":
        raise ValueError("--case is only valid with --model qm")
    if args.model == "ns":
        value, witness = cabello.ns_max_success()
        payload = {"model": "ns", "method": "vertex", "value": value,
                   "witness": witness.tolist()}
    elif args.model == "ic":
        res = ic.max_success_under_ic()
        payload = {
            "model": "ic", "method": res.method, "value": res.value,
            "witness": res.point.tolist(),
            "constraint_slacks": list(res.constraint_slacks),
            "converged": res.converged,
            "upper_bound": res.upper_bound,
        }
    elif args.model == "qm":
        res, scen, _ = quantum.max_cabello_qm(args.case)
        payload = {
            "model": "qm", "method": res.method, "case": args.case, "value": res.value,
            "witness": _witness(scen, with_gamma=True),
            "converged": res.converged,
        }
    else:  # qm-hardy
        res, scen = quantum.max_hardy_qm()
        payload = {
            "model": "qm-hardy", "method": res.method, "value": res.value,
            "witness": _witness(scen),
            "converged": res.converged,
        }
    _emit(args, json.dumps(payload))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once and shared; parsing leaves it unchanged."""
    tol = ("--tol", {"type": tolerance, "default": 1e-9})
    fmt = ("--format", {"choices": ("json", "csv"), "default": "json"})
    # accepted and ignored, because perfbench/workloads.py passes them:
    # --seed to max, table2 and table3, --restarts to max and table3
    seed = ("--seed", {"type": seed_value, "help": "ignored"})
    restarts = ("--restarts", {"type": int, "help": "ignored"})
    box = {"help": "box JSON path or - for stdin"}
    # one declaration per command: its handler (cmd_lr_case is "lr-case"), its
    # help and the arguments it reads; a list among the arguments is a group
    # of which exactly one is required; every command takes --out
    commands = [
        (cmd_validate, "validate a box JSON file", [("box", box), tol]),
        (cmd_vertex, "emit a polytope vertex",
         [("kind", {"choices": tuple(_VERTICES)}), ("bits", {"type": int, "nargs": "+"}), fmt]),
        (cmd_cabello, "build a Cabello box from coefficients",
         [("--coeffs", {"required": True,
                        "help": "JSON file {\"c\": [...]} or inline comma list"}), tol]),
        (cmd_ic, "evaluate the IC conditions",
         [[("--coeffs", {"help": "coefficient vector (file or inline)"}), ("--box", box)], tol]),
        (cmd_rac, "run the exact 2->1 RAC protocol on a box",
         [("--box", {"required": True, **box}), tol]),
        (cmd_lr_case, "constraint system and witness for a case",
         [("case", {"type": int})]),
        (cmd_table1, "reproduce table1", [fmt]),
        (cmd_table2, "reproduce table2", [fmt, seed]),
        (cmd_table3, "reproduce table3", [fmt, restarts, seed]),
        (cmd_max, "maximize the success probability",
         [("--model", {"choices": ("ns", "ic", "qm", "qm-hardy"), "required": True}),
          ("--case", {"type": int}), restarts, seed]),
    ]
    parser = argparse.ArgumentParser(
        prog="nlbox",
        description="No-signaling boxes, Cabello nonlocality and its IC/QM bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for func, help_text, arguments in commands:
        p = sub.add_parser(func.__name__[4:].replace("_", "-"), help=help_text)
        p.set_defaults(func=func)
        for arg in [*arguments, ("--out", {})]:
            if isinstance(arg, list):
                group = p.add_mutually_exclusive_group(required=True)
                for name, kwargs in arg:
                    group.add_argument(name, **kwargs)
            else:
                p.add_argument(arg[0], **arg[1])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
