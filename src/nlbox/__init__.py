"""Toolbox for bipartite binary no-signaling boxes and the Cabello
nonlocality argument under no-signaling, Information Causality and
quantum mechanics."""

from .boxes import (
    Box,
    CorrelatorForm,
    Violation,
    chsh_value,
    from_correlators,
    local_vertex,
    marginal,
    mix,
    nonlocal_vertex,
    pr_box,
    to_correlators,
    uniform_box,
    validate_box,
)
from .cabello import (
    SuccessMetrics,
    cabello_box,
    check_cabello_conditions,
    extract_q,
    hardy_box,
    ns_max_success,
    success_closed_form,
)
from .ic import (
    ICQuantities,
    RACOutcome,
    ic_ab_satisfied,
    ic_ba_satisfied,
    ic_cabello_lhs,
    ic_quantities,
    max_success_under_ic,
    rac_simulate,
)
from .localrandom import (
    feasibility_witness,
    is_locally_random,
    lr_cases,
    lr_constraints,
    verify_table2,
)
from .quantum import (
    MeasurementDirection,
    PureState,
    QuantumScenario,
    canonical_scenario,
    joint_probability,
    marginal_bias,
    max_cabello_qm,
    max_hardy_qm,
    q4_minus_q1_closed_form,
    quantum_box,
    solve_cabello_constraints,
    tsirelson_scenario,
)
from .search import SearchConfig, SearchDomain, SearchResult, maximize, sample_affine_simplex

__version__ = "0.1.0"
