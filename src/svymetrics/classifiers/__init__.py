"""Baseline binary classifiers: logistic regression, Gini trees, forests.

Every fitter takes raw feature columns (one 1-d array per feature: float64,
or object arrays of strings for categories) and 0/1 outcomes, and every
fitted model scores columns with ``predict_proba(columns)``.
"""

from .encoding import FeatureEncoder, extract_columns
from .forest import PAPER_PARITY_TREE_COUNT, ForestConfig, ForestModel, fit_forest
from .imbalance import upsample_minority
from .logistic import LogisticConfig, LogisticModel, fit_logistic
from .serialize import load_model, model_from_json_dict, model_to_json_dict, save_model
from .tree import TreeConfig, TreeModel, fit_tree

__all__ = [
    "FeatureEncoder",
    "ForestConfig",
    "ForestModel",
    "LogisticConfig",
    "LogisticModel",
    "PAPER_PARITY_TREE_COUNT",
    "TreeConfig",
    "TreeModel",
    "extract_columns",
    "fit_forest",
    "fit_logistic",
    "fit_tree",
    "load_model",
    "model_from_json_dict",
    "model_to_json_dict",
    "save_model",
    "upsample_minority",
]
