"""sact: compile binary diagnosis models into situation-action tables and trees.

Given a prior, conditionally independent binary evidence with likelihoods, a
2x2 utility table, and cost constants, this package computes the net value of
run-time probabilistic inference versus precompiled situation-action
knowledge, selects what to compile, and emits the compiled artifacts.
"""

from .errors import (
    CapExceededError,
    DigestMismatchError,
    DomainError,
    FormatError,
    MethodError,
    ObservationError,
    SactError,
    UnknownEvidenceError,
)
from .model import (
    Action,
    CostModel,
    DiagnosisModel,
    EvidenceVariable,
    Observation,
    Threshold,
    UtilityTable,
    Violation,
    model_digest,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    optimal_action,
    posterior_odds,
    threshold,
    validate_model,
)
from .niv import (
    ComputePolicy,
    NivReport,
    PolicyChoice,
    TablePolicy,
    TreePolicy,
    compare_policies,
    niv,
)
from .profiles import (
    LossCurve,
    LossRow,
    PRESETS,
    WeightProfile,
    export_analysis,
    export_moments,
    loss_curve,
    realize_profile,
)
from .table import (
    CompiledTable,
    ExactEvaluation,
    GaussianEvaluation,
    SelectionStep,
    SelectionTrace,
    compile_table,
    exact_ev_compute,
    exact_ev_subset,
    exhaustive_subset_search,
    gaussian_ev_subset,
    greedy_select,
    read_table,
    table_lookup,
    write_table,
)
from .tree import (
    BuildTrace,
    ExpansionStep,
    Internal,
    Leaf,
    SituationActionTree,
    build_tree,
    export_tree,
    tree_ev,
    tree_from_json,
    tree_lookup,
    tree_niv,
)

__version__ = "0.1.0"
