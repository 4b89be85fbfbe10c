"""The CLI still parses every command line the benchmark passes it.

perfbench/workloads.py calls nlbox.cli.main in process with fixed flags; a
flag the CLI stopped accepting would only show up as failed benchmark
operations.
"""
import importlib
from pathlib import Path

import nlbox.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_workload_command_lines_parse(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    parsed = []

    def parse_only(argv):
        parsed.append(nlbox.cli.build_parser().parse_args(argv))
        return 0

    monkeypatch.setattr(nlbox.cli, "main", parse_only)
    for cls in (workloads.NsPolytope, workloads.IcBound, workloads.QuantumTables):
        for op in cls(1, PERFBENCH.parent).ops:
            op.run()
    assert [(a.command, getattr(a, "model", None)) for a in parsed] == [
        ("max", "ns"), ("table1", None), ("table2", None),
        ("max", "ic"), ("max", "qm"), ("max", "qm-hardy"), ("table3", None),
    ]
