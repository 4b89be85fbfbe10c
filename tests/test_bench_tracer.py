"""The benchmark's tracer still finds every function it patches.

perfbench/tracing.py wraps nlbox functions at named lookup sites; a site
that no longer resolves would only show up in a traced benchmark run.
"""
import importlib
import sys
from pathlib import Path

import nlbox
from nlbox.search import SearchDomain

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_sites_resolve_and_record(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    sites = [s for group in (tracing.SPANS, tracing.COUNTERS) for ss in group.values()
             for s in ss]
    sites += [*tracing.MAXIMIZE_SITES, tracing.CLI_SITE]
    originals = {}
    for site in sites:
        mod, attr = site.split(":")
        originals[site] = getattr(importlib.import_module(mod), attr)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        nlbox.max_success_under_ic()
        nlbox.max_cabello_qm(restarts=1, seed=0)
        # the quantum maxima are algebraic; call the search binding directly
        nlbox.quantum.maximize(lambda z: -(z ** 2).sum(axis=0),
                               SearchDomain(bounds=((-1.0, 1.0),)))
    finally:
        tracer.uninstall()
    for site, original in originals.items():
        mod, attr = site.split(":")
        assert getattr(sys.modules[mod], attr) is original, site
    names = {rec[0] for rec in tracer.spans}
    assert {"ic.max_success_under_ic", "quantum.max_cabello_qm", "search.maximize"} <= names
    assert tracer.calls(tracing.OBJECTIVE) > 0
    assert tracer.calls("quantum.q4_minus_q1_closed_form") > 0
    assert tracing.layer_metrics(tracer)["ic.max_success_under_ic.s"][0] > 0
