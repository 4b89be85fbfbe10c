"""The lazy package namespace and the lazily built Box.p."""
import copy
import json
import pickle
import subprocess
import sys
import textwrap
import types
from importlib import import_module

import numpy as np
import pytest

import nlbox
import reference
from nlbox import boxes
from nlbox.boxes import Box

# the public names of the package, by the submodule that defines them
PUBLIC = {
    "boxes": ["Box", "CorrelatorForm", "Violation", "chsh_value", "from_correlators",
              "local_vertex", "marginal", "mix", "nonlocal_vertex", "pr_box",
              "to_correlators", "uniform_box", "validate_box"],
    "cabello": ["SuccessMetrics", "cabello_box", "check_cabello_conditions", "extract_q",
                "hardy_box", "ns_max_success", "success_closed_form"],
    "ic": ["ICQuantities", "RACOutcome", "ic_ab_satisfied", "ic_ba_satisfied",
           "ic_cabello_lhs", "ic_quantities", "max_success_under_ic", "rac_simulate"],
    "localrandom": ["feasibility_witness", "is_locally_random", "lr_cases",
                    "lr_constraints", "verify_table2"],
    "quantum": ["MeasurementDirection", "PureState", "QuantumScenario", "canonical_scenario",
                "marginal_bias", "max_cabello_qm", "max_hardy_qm", "q4_minus_q1_closed_form",
                "quantum_box", "solve_cabello_constraints", "tsirelson_scenario"],
    "search": ["SearchConfig", "SearchDomain", "SearchResult", "maximize"],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


class TestLazyNamespace:
    @pytest.mark.parametrize("module, name", NAMES)
    def test_each_name_is_its_modules_object(self, module, name):
        assert getattr(nlbox, name) is getattr(import_module(f"nlbox.{module}"), name)

    @pytest.mark.parametrize("module", PUBLIC)
    def test_each_submodule_resolves(self, module):
        assert getattr(nlbox, module) is import_module(f"nlbox.{module}")

    def test_all_and_dir_list_every_name_and_submodule(self):
        everything = {*PUBLIC, *(name for _, name in NAMES)}
        assert set(nlbox.__all__) == everything
        assert everything | {"__version__"} <= set(dir(nlbox))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            nlbox.no_such_name
        assert not hasattr(nlbox, "cli_main")

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from nlbox import *", namespace)
        assert all(namespace[name] is getattr(nlbox, name) for name in nlbox.__all__)

    def test_package_is_a_plain_module_once_every_submodule_is_loaded(self):
        # attribute reads on it are then specialized like any module's
        assert type(nlbox) is types.ModuleType

    def test_first_reads_in_a_fresh_process(self):
        # what a bare import leaves: nothing loaded, yet dir, the error for an
        # unknown name and every name resolve; a submodule binds its names when
        # it is imported, as the objects it defined, so a later change to the
        # submodule's attribute leaves the package's, as eager imports did
        code = textwrap.dedent(f"""
            import json, sys, types
            from importlib import import_module
            import nlbox
            report = {{"loaded": sorted(m for m in sys.modules if m.startswith("nlbox.")),
                       "dir": sorted(dir(nlbox)), "lazy": type(nlbox) is not types.ModuleType}}
            try:
                nlbox.no_such_name
            except AttributeError as exc:
                report["error"] = str(exc)
            import nlbox.search
            original = nlbox.search.maximize
            nlbox.search.maximize = None
            report["bound_at_import"] = nlbox.maximize is original
            nlbox.search.maximize = original
            public = {PUBLIC!r}
            report["mismatched"] = [
                f"{{module}}.{{name}}" for module, names in reversed(public.items())
                for name in [module, *names]
                if getattr(nlbox, name) is not (import_module(f"nlbox.{{name}}") if name == module
                                                else getattr(sys.modules[f"nlbox.{{module}}"], name))]
            report["plain"] = type(nlbox) is types.ModuleType
            print(json.dumps(report))
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["loaded"] == [] and report["lazy"]
        assert {*PUBLIC, *(name for _, name in NAMES)} <= set(report["dir"])
        assert report["error"] == "module 'nlbox' has no attribute 'no_such_name'"
        assert report["bound_at_import"]
        assert report["mismatched"] == [] and report["plain"]


def _table(box: Box) -> list[list[float]]:
    """The table of a box read through its scalar accessor, without p."""
    return [[box.prob(a, b, x, y) for a in (0, 1) for b in (0, 1)]
            for x in (0, 1) for y in (0, 1)]


# constructors whose box builds p only when it is read
LAZY = {
    "local_vertex": lambda: nlbox.local_vertex(1, 0, 1, 1),
    "nonlocal_vertex": lambda: nlbox.nonlocal_vertex(0, 1, 1),
    "pr_box": nlbox.pr_box,
    "uniform_box": nlbox.uniform_box,
    "from_correlators": lambda: nlbox.from_correlators(nlbox.to_correlators(
        nlbox.mix([nlbox.pr_box(), nlbox.uniform_box()], [0.3, 0.7]))),
    "quantum_box": lambda: nlbox.quantum_box(nlbox.canonical_scenario(0.6, 1.1, 1.3)),
}


@pytest.mark.parametrize("make", LAZY.values(), ids=LAZY)
class TestLazyTable:
    def test_p_is_built_on_first_read_only(self, make):
        box = make()
        assert "p" not in box.__dict__
        p = box.p
        assert box.p is p  # the same object on every read
        assert not p.flags.writeable and p.shape == (4, 4) and p.dtype == float
        eager = Box(_table(box))
        assert p.tobytes() == eager.p.tobytes()

    def test_eq_and_hash_without_p(self, make):
        box, eager = make(), Box(_table(make()))
        assert box == eager and eager == box and hash(box) == hash(eager)
        assert box != Box(np.full((4, 4), 0.3)) and box != "box"
        assert "p" not in box.__dict__

    def test_repr_is_the_eager_boxs(self, make):
        assert repr(make()) == repr(Box(_table(make())))

    @pytest.mark.parametrize("again", [lambda b: pickle.loads(pickle.dumps(b)),
                                       copy.copy, copy.deepcopy])
    def test_copies_equal_the_box(self, make, again):
        box = make()
        twin = again(box)
        assert "p" not in box.__dict__
        assert twin == box and hash(twin) == hash(box) and twin.worst_check == box.worst_check
        assert twin.p.tobytes() == box.p.tobytes() and not twin.p.flags.writeable

    def test_serialisations_equal_the_eager_boxs(self, make):
        box, eager = make(), Box(_table(make()))
        assert (box.to_json(), box.to_csv()) == (eager.to_json(), eager.to_csv())
        assert "p" not in box.__dict__


def test_marginal_pairs_gather_the_array_formulas_indices():
    want = reference.marginals(np.arange(16).reshape(4, 4)).transpose(1, 0, 2).ravel()
    assert list(boxes._MARGINAL_PAIRS(range(16))) == want.tolist()
