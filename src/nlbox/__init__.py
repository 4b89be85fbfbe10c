"""Toolbox for bipartite binary no-signaling boxes and the Cabello
nonlocality argument under no-signaling, Information Causality and
quantum mechanics.

The package namespace is lazy: ``import nlbox`` loads no submodule.  A
name below, or a submodule, is imported on its first read, and once a
submodule is imported, by that read or by any other import, its names are
bound here.  So a no-signaling solve loads only ``boxes``, ``cabello`` and
``search``, and no numpy.
"""
import sys
from importlib import import_module
from types import ModuleType

# the public names of each submodule
_EXPORTS = {
    "boxes": ("Box", "CorrelatorForm", "Violation", "chsh_value", "from_correlators",
              "local_vertex", "marginal", "mix", "nonlocal_vertex", "pr_box",
              "to_correlators", "uniform_box", "validate_box"),
    "cabello": ("SuccessMetrics", "cabello_box", "check_cabello_conditions", "extract_q",
                "hardy_box", "ns_max_success", "success_closed_form"),
    "ic": ("ICQuantities", "RACOutcome", "ic_ab_satisfied", "ic_ba_satisfied",
           "ic_cabello_lhs", "ic_quantities", "max_success_under_ic", "rac_simulate"),
    "localrandom": ("feasibility_witness", "is_locally_random", "lr_cases", "lr_constraints",
                    "verify_table2"),
    "quantum": ("MeasurementDirection", "PureState", "QuantumScenario", "canonical_scenario",
                "marginal_bias", "max_cabello_qm", "max_hardy_qm", "q4_minus_q1_closed_form",
                "quantum_box", "solve_cabello_constraints", "tsirelson_scenario"),
    "search": ("SearchConfig", "SearchDomain", "SearchResult", "maximize"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]
__version__ = "0.1.0"


class _LazyPackage(ModuleType):
    """The package while some submodule is not loaded yet.

    CPython 3.11 does not specialize attribute reads on a module with a
    ``__getattr__``, which makes every read such as ``nlbox.boxes`` slower,
    so once every submodule is loaded the package turns back into a plain
    module, with every name bound.
    """

    def __getattr__(self, name: str):
        module = _MODULE_OF.get(name, name)
        if module not in _EXPORTS:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = import_module(f"{__name__}.{module}")  # which binds its names here
        return value if module == name else getattr(value, name)

    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        if name in _EXPORTS:
            # the import system binds a submodule here once it is loaded:
            # bind its names too, as the objects it defined
            for export in _EXPORTS[name]:
                self.__dict__[export] = getattr(value, export)
            if all(module in self.__dict__ for module in _EXPORTS):
                self.__class__ = ModuleType

    def __dir__(self) -> list[str]:
        return sorted({*self.__dict__, *__all__})


sys.modules[__name__].__class__ = _LazyPackage
