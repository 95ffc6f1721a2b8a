"""Dynamic stacked generalization for node classification on networks.

A library for combining local (node-attribute) and relational
(neighborhood) classifiers with a level-1 generalizer whose per-classifier
weights are smooth spline functions of a node topology covariate, plus
the static stacking baselines and seeded experiment drivers used to
compare them.
"""

from .graph import (
    Graph,
    GraphParseError,
    NodeCovariate,
    SplitSpec,
    attach_labels,
    closeness_centrality,
    degree,
    largest_connected_component,
    parse_edge_list,
    split_nodes,
)
from .metrics import accuracy, binned_accuracy, paired_comparison
from .naive_bayes import NaiveBayesModel, fit_nb, parse_feature_file, predict_nb
from .relational import IcaConfig, IcaResult, ica_run
from .simulation import METHODS, auc, generate_case, run_simulation
from .splines import (
    BSplineBasis,
    assemble_block_penalty,
    basis_matrix,
    curvature_penalty,
    make_basis,
)
from .stacking import (
    ConvergenceError,
    FitConfig,
    Level1Data,
    StackModel,
    build_level1,
    coefficient_curves,
    default_basis,
    fit_dynamic,
    fit_static,
    load_model,
    predict,
    read_level1,
    save_model,
    select_lambda,
    select_strength,
    write_level1,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphParseError",
    "NodeCovariate",
    "SplitSpec",
    "attach_labels",
    "closeness_centrality",
    "degree",
    "largest_connected_component",
    "parse_edge_list",
    "split_nodes",
    "accuracy",
    "binned_accuracy",
    "paired_comparison",
    "NaiveBayesModel",
    "fit_nb",
    "parse_feature_file",
    "predict_nb",
    "IcaConfig",
    "IcaResult",
    "ica_run",
    "METHODS",
    "auc",
    "generate_case",
    "run_simulation",
    "BSplineBasis",
    "assemble_block_penalty",
    "basis_matrix",
    "curvature_penalty",
    "make_basis",
    "ConvergenceError",
    "FitConfig",
    "Level1Data",
    "StackModel",
    "build_level1",
    "coefficient_curves",
    "default_basis",
    "fit_dynamic",
    "fit_static",
    "load_model",
    "predict",
    "read_level1",
    "save_model",
    "select_lambda",
    "select_strength",
    "write_level1",
    "__version__",
]
