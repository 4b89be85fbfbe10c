"""Spans and counters installed around nlbox's public functions.

Wrappers replace a function at every place it is looked up: in its own
module, in modules that bound it with ``from .x import y``, and in the
package namespace.  Solves and CLI commands become spans (name, start, end,
parent); leaf evaluations, which run up to 10^5 times per solve, become
counters with accumulated time.  Everything is kept in memory.
"""
from __future__ import annotations

import dataclasses
import importlib
import time
from contextlib import contextmanager

_clock = time.perf_counter

# span name -> lookup sites "module:attribute"
SPANS = {
    "cabello.ns_max_success": ("nlbox.cabello:ns_max_success", "nlbox:ns_max_success"),
    "ic.max_success_under_ic": ("nlbox.ic:max_success_under_ic", "nlbox:max_success_under_ic"),
    "quantum.max_cabello_qm": ("nlbox.quantum:max_cabello_qm", "nlbox:max_cabello_qm"),
    "quantum.max_hardy_qm": ("nlbox.quantum:max_hardy_qm", "nlbox:max_hardy_qm"),
    "localrandom.verify_table2": ("nlbox.localrandom:verify_table2", "nlbox:verify_table2"),
    "localrandom.feasibility_witness": (
        "nlbox.localrandom:feasibility_witness", "nlbox:feasibility_witness"),
}
MAXIMIZE_SITES = ("nlbox.search:maximize", "nlbox.cabello:maximize", "nlbox.ic:maximize",
                  "nlbox.quantum:maximize", "nlbox:maximize")
CLI_SITE = "nlbox.cli:main"
# counter name -> lookup sites
COUNTERS = {
    "cabello.success_closed_form": (
        "nlbox.cabello:success_closed_form", "nlbox.ic:success_closed_form",
        "nlbox:success_closed_form"),
    "cabello.cabello_box": ("nlbox.cabello:cabello_box", "nlbox.localrandom:cabello_box",
                            "nlbox:cabello_box"),
    "cabello.extract_q": ("nlbox.cabello:extract_q", "nlbox:extract_q"),
    "quantum.q4_minus_q1_closed_form": (
        "nlbox.quantum:q4_minus_q1_closed_form", "nlbox:q4_minus_q1_closed_form"),
    "quantum.quantum_box": ("nlbox.quantum:quantum_box", "nlbox:quantum_box"),
    "ic.ic_quantities": ("nlbox.ic:ic_quantities", "nlbox:ic_quantities"),
    "ic.ic_ab_satisfied": ("nlbox.ic:ic_ab_satisfied", "nlbox:ic_ab_satisfied"),
    "ic.ic_ba_satisfied": ("nlbox.ic:ic_ba_satisfied", "nlbox:ic_ba_satisfied"),
    "ic.rac_simulate": ("nlbox.ic:rac_simulate", "nlbox:rac_simulate"),
    "ic.ic_cabello_lhs": ("nlbox.ic:ic_cabello_lhs", "nlbox.localrandom:ic_cabello_lhs",
                          "nlbox:ic_cabello_lhs"),
    "localrandom.is_locally_random": (
        "nlbox.localrandom:is_locally_random", "nlbox:is_locally_random"),
    "localrandom.lr_cases": ("nlbox.localrandom:lr_cases", "nlbox:lr_cases"),
    "localrandom.lr_constraints": ("nlbox.localrandom:lr_constraints", "nlbox:lr_constraints"),
    "localrandom.case_inputs": ("nlbox.localrandom:case_inputs", "nlbox.quantum:case_inputs"),
    "boxes.validate_box": ("nlbox.boxes:validate_box", "nlbox:validate_box"),
    "boxes.mix": ("nlbox.boxes:mix", "nlbox:mix"),
}
OBJECTIVE = "search.objective"
CONSTRAINT = "search.constraint"


def cli_command(argv) -> str:
    """Span name of a CLI call: the subcommand, with the model for ``max``."""
    argv = list(argv)
    if argv and argv[0] == "max" and "--model" in argv:
        return f"max-{argv[argv.index('--model') + 1]}"
    return argv[0] if argv else "?"


class Tracer:
    """In-memory spans and leaf counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent, result_ok]
        self._stack: list[int] = []
        self._leaf_depth = 0
        # (counter, innermost span name) -> [calls, seconds]
        self.counters: dict[tuple[str, str | None], list] = {}
        # span index -> seconds of outermost counter calls made directly in it
        self.leaf_time: dict[int, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, _clock(), None, parent, None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = _clock()
            self._stack.pop()

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                rec[4] = out is not None
                return out
        return wrapper

    def _counter_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            self._leaf_depth += 1
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - start
                self._leaf_depth -= 1
                top = self._stack[-1] if self._stack else None
                key = (name, self.spans[top][0] if top is not None else None)
                rec = self.counters.get(key)
                if rec is None:
                    self.counters[key] = [1, dt]
                else:
                    rec[0] += 1
                    rec[1] += dt
                if self._leaf_depth == 0 and top is not None:
                    self.leaf_time[top] = self.leaf_time.get(top, 0.0) + dt
        return wrapper

    def _maximize_wrapper(self, fn):
        def wrapper(objective, domain, config=None):
            domain = dataclasses.replace(domain, inequalities=tuple(
                self._counter_wrapper(CONSTRAINT, g) for g in domain.inequalities))
            with self.span("search.maximize"):
                return fn(self._counter_wrapper(OBJECTIVE, objective), domain, config)
        return wrapper

    def _cli_wrapper(self, fn):
        def wrapper(argv=None):
            with self.span("cli." + cli_command(argv or [])):
                return fn(argv)
        return wrapper

    def _patch(self, sites, make):
        wrapped = {}
        for site in sites:
            mod_name, attr = site.split(":")
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            if id(original) not in wrapped:
                wrapped[id(original)] = make(original)
            self._patched.append((module, attr, original))
            setattr(module, attr, wrapped[id(original)])

    def install(self):
        for name, sites in SPANS.items():
            self._patch(sites, lambda fn, name=name: self._span_wrapper(name, fn))
        for name, sites in COUNTERS.items():
            self._patch(sites, lambda fn, name=name: self._counter_wrapper(name, fn))
        self._patch(MAXIMIZE_SITES, self._maximize_wrapper)
        self._patch((CLI_SITE,), self._cli_wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ---- reading the record -------------------------------------------------

    def calls(self, name, within=None):
        return sum(c for (n, s), (c, _) in self.counters.items()
                   if n == name and (within is None or s == within))

    def seconds(self, name):
        return sum(t for (n, _), (_, t) in self.counters.items() if n == name)

    def _ancestors(self, idx):
        parent = self.spans[idx][3]
        while parent is not None:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def span_seconds(self, pred):
        return sum(rec[2] - rec[1] for i, rec in enumerate(self.spans) if pred(i, rec[0]))

    def self_seconds(self, pred):
        """Span time outside child spans and outside counted leaf calls."""
        child = {}
        for rec in self.spans:
            if rec[3] is not None:
                child[rec[3]] = child.get(rec[3], 0.0) + rec[2] - rec[1]
        return sum(rec[2] - rec[1] - child.get(i, 0.0) - self.leaf_time.get(i, 0.0)
                   for i, rec in enumerate(self.spans) if pred(i, rec[0]))

    def dump(self):
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p, _ in self.spans],
            "counters": [{"name": n, "span": s, "calls": c, "seconds": t}
                         for (n, s), (c, t) in sorted(self.counters.items(),
                                                      key=lambda kv: (kv[0][0], kv[0][1] or ""))],
        }


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    def per_call_us(name):
        n = tr.calls(name)
        return tr.seconds(name) / n * 1e6 if n else 0.0

    def named(want):
        return lambda i, n: n == want

    obj = tr.calls(OBJECTIVE)
    cons = tr.calls(CONSTRAINT)
    search_self = tr.self_seconds(named("search.maximize"))
    draws = tr.calls("ic.ic_cabello_lhs", within="localrandom.feasibility_witness")
    found = sum(1 for rec in tr.spans
                if rec[0] == "localrandom.feasibility_witness" and rec[4])
    m = {
        "search.maximize.calls": (sum(1 for r in tr.spans if r[0] == "search.maximize"), "count"),
        "search.objective_evals": (obj, "count"),
        "search.constraint_evals": (cons, "count"),
        "search.constraint_evals_per_objective_eval": (cons / obj if obj else 0.0, "ratio"),
        "search.self_s": (search_self, "s"),
        "search.self_us_per_eval": (search_self / obj * 1e6 if obj else 0.0, "us"),
        "cabello.ns_max_success.s": (tr.span_seconds(named("cabello.ns_max_success")), "s"),
        "cabello.success_closed_form.evals": (tr.calls("cabello.success_closed_form"), "count"),
        "ic.max_success_under_ic.s": (tr.span_seconds(
            lambda i, n: n == "ic.max_success_under_ic"
            and "ic.case_max" not in tr._ancestors(i)), "s"),
        "ic.case_max.s": (tr.span_seconds(named("ic.case_max")), "s"),
        "quantum.max_cabello_qm.s": (tr.span_seconds(named("quantum.max_cabello_qm")), "s"),
        "quantum.max_hardy_qm.s": (tr.span_seconds(named("quantum.max_hardy_qm")), "s"),
        "quantum.q4_minus_q1_closed_form.evals": (
            tr.calls("quantum.q4_minus_q1_closed_form"), "count"),
        "quantum.q4_minus_q1_closed_form.self_s": (
            tr.seconds("quantum.q4_minus_q1_closed_form"), "s"),
        "localrandom.verify_table2.s": (tr.span_seconds(named("localrandom.verify_table2")), "s"),
        "localrandom.feasibility_witness.s": (
            tr.span_seconds(named("localrandom.feasibility_witness")), "s"),
        "localrandom.witness_draws": (draws, "count"),
        "localrandom.witness_accept_ratio": (found / draws if draws else 0.0, "ratio"),
    }
    for name in ("cabello.cabello_box", "ic.ic_quantities", "ic.ic_ab_satisfied",
                 "ic.rac_simulate", "quantum.quantum_box", "localrandom.is_locally_random",
                 "boxes.validate_box", "boxes.mix"):
        m[f"{name}.us"] = (per_call_us(name), "us")
        m[f"{name}.calls"] = (tr.calls(name), "count")
    is_cli = lambda i, n: n.startswith("cli.")
    m["cli.main.s"] = (tr.span_seconds(is_cli), "s")
    for cmd in ("max-ns", "max-ic", "max-qm", "max-qm-hardy", "table1", "table2", "table3"):
        m[f"cli.{cmd}.s"] = (tr.span_seconds(named(f"cli.{cmd}")), "s")
    m["cli.self_s"] = (tr.self_seconds(is_cli), "s")
    return m
