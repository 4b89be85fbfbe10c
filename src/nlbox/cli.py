"""Command-line interface reproducing the reference tables and bounds.

Exit codes: 0 success, 1 check failure, 2 usage error.  Output goes to
stdout (JSON by default, CSV for tables with --format csv); diagnostics
to stderr.
"""
from __future__ import annotations

import argparse
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


def _global_flags(parser: argparse.ArgumentParser) -> None:
    # argparse converts a string default with ``type``, so a malformed
    # NLBOX_SEED is a usage error (exit 2) like a malformed --seed
    parser.add_argument("--seed", type=int, default=os.environ.get("NLBOX_SEED", "0"))
    parser.add_argument("--tol", type=tolerance, default=1e-9)
    parser.add_argument("--restarts", type=int, default=64)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", type=str, default=None)


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


def cmd_vertex(args) -> int:
    bits = args.bits
    if any(b not in (0, 1) for b in bits):
        print(f"label bits must be 0 or 1, got {bits}", file=sys.stderr)
        return 2
    if args.kind == "local":
        if len(bits) != 4:
            print("local vertices take 4 bits", file=sys.stderr)
            return 2
        box = boxes.local_vertex(*bits)
    else:
        if len(bits) != 3:
            print("nonlocal vertices take 3 bits", file=sys.stderr)
            return 2
        box = boxes.nonlocal_vertex(*bits)
    _emit(args, box.to_csv() if args.format == "csv" else box.to_json())
    return 0


def cmd_cabello(args) -> int:
    c = _load_coeffs(args.coeffs)
    box = cabello.cabello_box(c, args.tol)
    q = cabello.extract_q(box)
    runs, _ = cabello.check_cabello_conditions(box, args.tol)
    _emit(args, json.dumps({
        "box": json.loads(box.to_json()),
        "q": {"q1": q.q1, "q2": q.q2, "q3": q.q3, "q4": q.q4},
        "success": q.success,
        "argument_runs": runs,
    }))
    return 0


def cmd_ic(args) -> int:
    if args.coeffs is not None:
        c = _load_coeffs(args.coeffs)
        lhs1, lhs2 = ic.ic_cabello_lhs(c, args.tol)
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
    witness = lr.feasibility_witness(args.case, seed=args.seed)
    payload = {
        "case": system.case_id,
        "inputs": list(system.inputs),
        "relations": list(system.relations),
        "witness": None if witness is None else [round(v, 12) for v in witness],
    }
    if witness is not None:
        lhs1, lhs2 = ic.ic_cabello_lhs(witness)
        payload["witness_lhs"] = [lhs1, lhs2]
    _emit(args, json.dumps(payload))
    return 0 if witness is not None else CHECK_FAILURE


def cmd_table1(args) -> int:
    rows = []
    for cid in lr.lr_cases():
        system = lr.lr_constraints(cid)
        rows.append((cid, ",".join(system.inputs), "; ".join(system.relations)))
    if args.format == "csv":
        lines = ["case,inputs,relations"]
        lines += [f'{cid},"{inp}","{rel}"' for cid, inp, rel in rows]
        _emit(args, "\n".join(lines))
    else:
        _emit(args, json.dumps([
            {"case": cid, "inputs": inp.split(","), "relations": rel.split("; ")}
            for cid, inp, rel in rows
        ]))
    return 0


def cmd_table2(args) -> int:
    checks = lr.verify_table2()
    ok = True
    rows = []
    for chk in checks:
        ok = ok and chk.lhs_match and chk.ic_ok
        if not chk.lhs_match:
            print(
                f"case {chk.row.case_id}: fixture ({chk.row.lhs1}, {chk.row.lhs2}) "
                f"!= recomputed {chk.recomputed}", file=sys.stderr,
            )
        rows.append({
            "case": chk.row.case_id,
            "c": chk.row.c.tolist(),
            "lhs1": chk.recomputed[0],
            "lhs2": chk.recomputed[1],
            "lhs_match": chk.lhs_match,
            "constraints_ok": chk.constraints_ok,
        })
    witnesses = {
        cid: lr.feasibility_witness(cid, seed=args.seed) for cid in lr.lr_cases()
    }
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
                str(cid): (None if w is None else w.tolist())
                for cid, w in witnesses.items()
            },
        }))
    return 0 if ok and all(w is not None for w in witnesses.values()) else CHECK_FAILURE


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
        result, scen, geom = quantum.max_cabello_qm(
            cid, restarts=args.restarts, seed=args.seed
        )
        beta_label = "pi/4" if geom.beta is not None else "free"
        rows.append({
            "case": cid,
            "inputs": list(lr.case_inputs(cid)),
            "theta_x0": geom.theta_x0 or "free",
            "theta_y0": geom.theta_y0 or "free",
            "beta": beta_label,
            "max": result.value,
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
        print("--case is only valid with --model qm", file=sys.stderr)
        return 2
    if args.model == "ns":
        value, witness = cabello.ns_max_success("cabello", seed=args.seed)
        payload = {"model": "ns", "value": value, "witness": witness.tolist()}
    elif args.model == "ic":
        res = ic.max_success_under_ic(restarts=args.restarts, seed=args.seed)
        payload = {
            "model": "ic", "value": res.value,
            "witness": res.point.tolist(),
            "constraint_slacks": list(res.constraint_slacks),
            "converged": res.converged,
            "upper_bound": res.upper_bound,
        }
    elif args.model == "qm":
        res, scen, _ = quantum.max_cabello_qm(
            args.case, restarts=args.restarts, seed=args.seed
        )
        payload = {
            "model": "qm", "case": args.case, "value": res.value,
            "witness": _witness(scen, with_gamma=True),
            "converged": res.converged,
        }
    else:  # qm-hardy
        res, scen = quantum.max_hardy_qm(restarts=args.restarts, seed=args.seed)
        payload = {
            "model": "qm-hardy", "value": res.value, "witness": _witness(scen),
            "converged": res.converged,
        }
    _emit(args, json.dumps(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlbox",
        description="No-signaling boxes, Cabello nonlocality and its IC/QM bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a box JSON file")
    p.add_argument("box", help="path to box JSON, or - for stdin")
    _global_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("vertex", help="emit a polytope vertex")
    p.add_argument("kind", choices=("local", "nonlocal"))
    p.add_argument("bits", type=int, nargs="+")
    _global_flags(p)
    p.set_defaults(func=cmd_vertex)

    p = sub.add_parser("cabello", help="build a Cabello box from coefficients")
    p.add_argument("--coeffs", required=True,
                   help="JSON file {\"c\": [...]} or inline comma list")
    _global_flags(p)
    p.set_defaults(func=cmd_cabello)

    p = sub.add_parser("ic", help="evaluate the IC conditions")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--coeffs", help="coefficient vector (file or inline)")
    source.add_argument("--box", help="box JSON path or - for stdin")
    _global_flags(p)
    p.set_defaults(func=cmd_ic)

    p = sub.add_parser("rac", help="run the exact 2->1 RAC protocol on a box")
    p.add_argument("--box", required=True)
    _global_flags(p)
    p.set_defaults(func=cmd_rac)

    p = sub.add_parser("lr-case", help="constraint system and witness for a case")
    p.add_argument("case", type=int)
    _global_flags(p)
    p.set_defaults(func=cmd_lr_case)

    for name, fn in (("table1", cmd_table1), ("table2", cmd_table2),
                     ("table3", cmd_table3)):
        p = sub.add_parser(name, help=f"reproduce {name}")
        _global_flags(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("max", help="maximize the success probability")
    p.add_argument("--model", choices=("ns", "ic", "qm", "qm-hardy"), required=True)
    p.add_argument("--case", type=int, default=None)
    _global_flags(p)
    p.set_defaults(func=cmd_max)

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
