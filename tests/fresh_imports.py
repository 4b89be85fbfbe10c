"""The NS, IC and QM solves in one fresh process, with scipy installed.

A process that already imported ``scipy.optimize`` or ``sympy`` cannot show
that a solve does not import them.  Imports only accumulate, so a stage that
reports neither shows that its own calls import neither.
"""
import functools
import json
import subprocess
import sys

_CODE = """
import contextlib, io, json, sys
import nlbox, nlbox.cli
def report(stage, *invocations):
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [nlbox.cli.main(argv) for argv in invocations]
    print(json.dumps([stage, codes, "scipy.optimize" in sys.modules, "sympy" in sys.modules]))
nlbox.ns_max_success("hardy"), nlbox.ns_max_success("cabello")
report("ns")
for cid in nlbox.lr_cases():
    system = nlbox.lr_constraints(cid)
    nlbox.max_success_under_ic(equalities=(system.a, system.b))
report("ic", ["max", "--model", "ic"])
nlbox.max_cabello_qm(), nlbox.max_hardy_qm()
report("qm", ["table3"], ["max", "--model", "qm"], ["max", "--model", "qm-hardy"])
"""


@functools.cache
def solve_imports():
    """Map "ns", "ic" and "qm" to (exit codes, scipy.optimize imported, sympy imported)."""
    proc = subprocess.run([sys.executable, "-c", _CODE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {stage: tuple(rest) for stage, *rest in map(json.loads, proc.stdout.splitlines())}
