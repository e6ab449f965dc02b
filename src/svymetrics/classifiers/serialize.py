"""Model round trips to self-describing JSON documents.

Each document carries a schema version, the fitted encoder, and the model
parameters, so the CLI's train/predict pipeline can run statelessly.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import numpy as np

from ..errors import SchemaError
from ..io import read_json, to_json, write_json
from .encoding import FeatureEncoder
from .forest import ForestConfig, ForestModel
from .logistic import LogisticModel
from .tree import FlatTree, TreeConfig, TreeModel

MODEL_SCHEMA_VERSION = "1"


def model_to_json_dict(model) -> dict:
    if isinstance(model, LogisticModel):
        body = {
            "model": "logistic",
            "coefficients": model.coefficients.tolist(),
            "coefficient_standard_errors": model.coefficient_standard_errors.tolist(),
            "iterations": model.iterations,
            "final_deviance_change": model.final_deviance_change,
            "deviance_path": list(model.deviance_path),
        }
    elif isinstance(model, TreeModel):
        body = {"model": "tree", "tree": model.tree.to_json_dict(), "config": to_json(model.config)}
    elif isinstance(model, ForestModel):
        body = {
            "model": "forest",
            "trees": [t.to_json_dict() for t in model.trees],
            "tree_seeds": list(model.tree_seeds),
            "config": to_json(model.config),
        }
    else:
        raise SchemaError(f"cannot serialize model of type {type(model).__name__}")
    return {
        "schema_version": MODEL_SCHEMA_VERSION, "encoder": model.encoder.to_json_dict(), **body
    }


def model_from_json_dict(payload: dict):
    """Parse a model document; a malformed one raises SchemaError only."""
    if not isinstance(payload, dict):
        raise SchemaError("model document must be a JSON object")
    version = payload.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise SchemaError(f"unsupported model schema version {version!r}")
    kind = payload.get("model")
    if kind not in ("logistic", "tree", "forest"):
        raise SchemaError(f"unknown model kind {kind!r}")
    try:
        return _parse_model(kind, payload)
    except KeyError as exc:
        raise SchemaError(f"model document is missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise SchemaError(f"malformed model document: {exc}") from exc


def _parse_model(kind: str, payload: dict):
    encoder = FeatureEncoder.from_json_dict(payload["encoder"])
    if kind == "logistic":
        coefficients = np.asarray(payload["coefficients"], dtype=np.float64)
        ses = np.asarray(payload["coefficient_standard_errors"], dtype=np.float64)
        if coefficients.shape != (encoder.width + 1,) or ses.shape != coefficients.shape:
            raise SchemaError("logistic coefficients do not match the encoder width")
        if not np.all(np.isfinite(coefficients)):
            raise SchemaError("logistic coefficients must be finite")
        return LogisticModel(
            encoder=encoder,
            coefficients=coefficients,
            iterations=int(payload["iterations"]),
            final_deviance_change=float(payload["final_deviance_change"]),
            deviance_path=tuple(float(d) for d in payload["deviance_path"]),
            coefficient_standard_errors=ses,
        )
    cfg = payload["config"]
    if kind == "tree":
        return TreeModel(
            encoder=encoder,
            tree=FlatTree.from_json_dict(payload["tree"], encoder.width),
            config=_config(TreeConfig, cfg),
        )
    trees = tuple(FlatTree.from_json_dict(t, encoder.width) for t in payload["trees"])
    if not trees:
        raise SchemaError("forest has no trees")
    return ForestModel(
        encoder=encoder,
        trees=trees,
        tree_seeds=tuple(int(s) for s in payload["tree_seeds"]),
        config=_config(ForestConfig, cfg),
    )


def _config(cls, cfg: dict):
    """A fitting config from its document object; every field is required."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls)})


def save_model(model, path: str | Path) -> None:
    write_json(path, model_to_json_dict(model))


def load_model(path: str | Path):
    return model_from_json_dict(read_json(path, "model file"))
