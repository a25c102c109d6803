"""Model serialization: fitted models as durable, re-servable artifacts.

The paper's empirical models are cheap to evaluate but expensive to
obtain (every training point is a compile+simulate run), so a fitted
model is worth persisting.  A serialized model is a *pair* of files:

``manifest.json``
    Schema version, model family, constructor parameters, variable
    names, the design-space spec the model was trained over, training
    corpus fingerprint, fit metrics, and per-array checksums.
``arrays.npz``
    Every numeric piece of fitted state as float64/int64 numpy arrays.
    Floats never pass through decimal text, so a loaded model carries
    the exact bits of the original and predicts bit-identically.

:func:`save_model` / :func:`load_model` round-trip all three paper
families (:class:`LinearModel`, :class:`MarsModel`, :class:`RbfModel`).
The content digest over (manifest minus volatile fields + array bytes)
is the model's identity in the :class:`repro.serve.registry.ModelRegistry`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.doe.model_matrix import ModelMatrixBuilder
from repro.models.base import RegressionModel
from repro.models.linear import LinearModel
from repro.models.mars import Hinge, MarsBasis, MarsModel
from repro.models.rbf import RbfModel, _Network
from repro.space import ParameterSpace, Variable, VariableKind
from repro.store import md5_hex

#: Bump on any incompatible change to the manifest or array layout.
SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"

#: Manifest fields that may change between byte-identical models and so
#: are excluded from the content digest.
_VOLATILE_FIELDS = ("id", "created_unix", "fit_metrics")


class SerializationError(ValueError):
    """A model payload is malformed, corrupt, or unsupported."""


class SchemaVersionError(SerializationError):
    """The payload was written by an incompatible schema version."""


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def space_spec(space: ParameterSpace) -> list:
    """A JSON-able spec of a parameter space (one entry per variable)."""
    # Bounds normalize to float so a spec round-trips to the same
    # fingerprint whether the original variable used ints or floats.
    return [
        {
            "name": v.name,
            "kind": v.kind.value,
            "low": float(v.low),
            "high": float(v.high),
            "levels": int(v.levels),
        }
        for v in space.variables
    ]


def space_from_spec(spec: list) -> ParameterSpace:
    """Rebuild a :class:`ParameterSpace` from :func:`space_spec` output."""
    return ParameterSpace(
        [
            Variable(
                name=v["name"],
                kind=VariableKind(v["kind"]),
                low=float(v["low"]),
                high=float(v["high"]),
                levels=int(v["levels"]),
            )
            for v in spec
        ]
    )


def space_fingerprint(space: ParameterSpace) -> str:
    """Short content hash of a space's variable spec (names, kinds,
    ranges, level counts) -- two spaces with the same fingerprint accept
    the same coded design matrices."""
    blob = json.dumps(space_spec(space), sort_keys=True).encode()
    return md5_hex(blob)[:12]


def corpus_fingerprint(x: np.ndarray, y: np.ndarray) -> str:
    """Short content hash of a training corpus (exact array bytes)."""
    x = np.ascontiguousarray(np.asarray(x, dtype=float))
    y = np.ascontiguousarray(np.asarray(y, dtype=float))
    h = hashlib.sha256()
    h.update(str(x.shape).encode())
    h.update(x.tobytes())
    h.update(str(y.shape).encode())
    h.update(y.tobytes())
    return h.hexdigest()[:12]


# ----------------------------------------------------------------------
# Family serializers: model -> (params, arrays) and back
# ----------------------------------------------------------------------
def _require_fitted(model: RegressionModel) -> None:
    if not model.is_fitted:
        raise SerializationError("cannot serialize an unfitted model")


def _linear_to_payload(model: LinearModel) -> Tuple[dict, Dict[str, np.ndarray]]:
    params = {
        "interactions": model.interactions,
        "quadratic": model.quadratic,
        "selection": model.selection,
        "ridge": model.ridge,
    }
    arrays = {
        "active": np.asarray(model._active, dtype=np.int64),
        "beta": np.asarray(model._beta, dtype=np.float64),
        "sse": np.asarray(model._sse, dtype=np.float64),
    }
    return params, arrays


def _linear_from_payload(
    manifest: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
) -> LinearModel:
    params = manifest["params"]
    model = LinearModel(
        variable_names=manifest["variable_names"],
        interactions=bool(params["interactions"]),
        quadratic=bool(params["quadratic"]),
        selection=str(params["selection"]),
        ridge=float(params["ridge"]),
    )
    n_features = int(manifest["n_features"])
    model._builder = ModelMatrixBuilder(
        n_features,
        interactions=model.interactions,
        quadratic=model.quadratic,
    )
    model._active = np.asarray(arrays["active"], dtype=np.int64)
    model._beta = np.asarray(arrays["beta"], dtype=np.float64)
    model._sse = float(arrays["sse"])
    model._n_features = n_features
    model._fitted = True
    return model


def _mars_to_payload(model: MarsModel) -> Tuple[dict, Dict[str, np.ndarray]]:
    params = {
        "max_terms": model.max_terms,
        "max_degree": model.max_degree,
        "max_knots": model.max_knots,
        "penalty": model.penalty,
    }
    # Flatten the basis (a list of hinge products) into parallel arrays
    # plus CSR-style offsets; knots stay binary float64 the whole way.
    offsets = [0]
    hinge_var, hinge_knot, hinge_sign = [], [], []
    for bf in model.basis:
        for h in bf.hinges:
            hinge_var.append(h.var)
            hinge_knot.append(h.knot)
            hinge_sign.append(h.sign)
        offsets.append(len(hinge_var))
    arrays = {
        "coef": np.asarray(model.coef, dtype=np.float64),
        "basis_offsets": np.asarray(offsets, dtype=np.int64),
        "hinge_var": np.asarray(hinge_var, dtype=np.int64),
        "hinge_knot": np.asarray(hinge_knot, dtype=np.float64),
        "hinge_sign": np.asarray(hinge_sign, dtype=np.int64),
        "gcv_score": np.asarray(
            np.nan if model.gcv_score is None else model.gcv_score,
            dtype=np.float64,
        ),
    }
    return params, arrays


def _mars_from_payload(
    manifest: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
) -> MarsModel:
    params = manifest["params"]
    model = MarsModel(
        variable_names=manifest["variable_names"],
        max_terms=int(params["max_terms"]),
        max_degree=int(params["max_degree"]),
        max_knots=int(params["max_knots"]),
        penalty=float(params["penalty"]),
    )
    offsets = np.asarray(arrays["basis_offsets"], dtype=np.int64)
    var = np.asarray(arrays["hinge_var"], dtype=np.int64)
    knot = np.asarray(arrays["hinge_knot"], dtype=np.float64)
    sign = np.asarray(arrays["hinge_sign"], dtype=np.int64)
    basis = []
    for b in range(offsets.shape[0] - 1):
        hinges = tuple(
            Hinge(int(var[i]), float(knot[i]), int(sign[i]))
            for i in range(int(offsets[b]), int(offsets[b + 1]))
        )
        basis.append(MarsBasis(hinges))
    model.basis = basis
    model.coef = np.asarray(arrays["coef"], dtype=np.float64)
    gcv_score = float(arrays["gcv_score"])
    model.gcv_score = None if np.isnan(gcv_score) else gcv_score
    model._n_features = int(manifest["n_features"])
    model._fitted = True
    return model


def _rbf_to_payload(model: RbfModel) -> Tuple[dict, Dict[str, np.ndarray]]:
    params = {
        "kernel": model.kernel,
        "center_mode": model.center_mode,
        "radius_scales": list(model.radius_scales),
        "min_samples_leaf": model.min_samples_leaf,
        "ridge": model.ridge,
        "linear_tail": model.linear_tail,
        "selected_size": model.selected_size,
        "selected_scale": model.selected_scale,
    }
    arrays = {
        "centers": np.asarray(model._net.centers, dtype=np.float64),
        "radii": np.asarray(model._net.radii, dtype=np.float64),
        "weights": np.asarray(model._net.weights, dtype=np.float64),
        "bic_score": np.asarray(
            np.nan if model.bic_score is None else model.bic_score,
            dtype=np.float64,
        ),
    }
    return params, arrays


def _rbf_from_payload(
    manifest: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
) -> RbfModel:
    params = manifest["params"]
    model = RbfModel(
        variable_names=manifest["variable_names"],
        kernel=str(params["kernel"]),
        center_mode=str(params["center_mode"]),
        radius_scales=[float(s) for s in params["radius_scales"]],
        min_samples_leaf=int(params["min_samples_leaf"]),
        ridge=float(params["ridge"]),
        linear_tail=bool(params["linear_tail"]),
    )
    model._net = _Network(
        centers=np.asarray(arrays["centers"], dtype=np.float64),
        radii=np.asarray(arrays["radii"], dtype=np.float64),
        weights=np.asarray(arrays["weights"], dtype=np.float64),
    )
    model.selected_size = params["selected_size"]
    model.selected_scale = params["selected_scale"]
    bic_score = float(arrays["bic_score"])
    model.bic_score = None if np.isnan(bic_score) else bic_score
    model._n_features = int(manifest["n_features"])
    model._fitted = True
    return model


_FAMILIES = {
    "linear": (LinearModel, _linear_to_payload, _linear_from_payload),
    "mars": (MarsModel, _mars_to_payload, _mars_from_payload),
    "rbf": (RbfModel, _rbf_to_payload, _rbf_from_payload),
}


def family_of(model: RegressionModel) -> str:
    """The registry family name for a model instance."""
    for name, (cls, _, _) in _FAMILIES.items():
        if type(model) is cls:
            return name
    raise SerializationError(
        f"unsupported model type {type(model).__name__}; "
        f"serializable families: {sorted(_FAMILIES)}"
    )


# ----------------------------------------------------------------------
# Payload assembly
# ----------------------------------------------------------------------
def model_to_payload(
    model: RegressionModel,
    space: Optional[ParameterSpace] = None,
    corpus: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    fit_metrics: Optional[Mapping[str, float]] = None,
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Serialize a fitted model into ``(manifest, arrays)``.

    ``space`` embeds the design-space spec (and its fingerprint) so a
    served model can validate inputs; ``corpus`` records the training
    data's fingerprint; ``fit_metrics`` is free-form (test error, sample
    counts, ...) and excluded from the content digest.
    """
    _require_fitted(model)
    family = family_of(model)
    params, arrays = _FAMILIES[family][1](model)
    manifest: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "family": family,
        "n_features": int(model._n_features),
        "variable_names": list(model.variable_names)
        if model.variable_names
        else None,
        "params": params,
        "space": None,
        "space_fingerprint": None,
        "corpus_fingerprint": None,
        "fit_metrics": dict(fit_metrics) if fit_metrics else {},
        "arrays": {
            name: {
                "dtype": str(a.dtype),
                "shape": list(a.shape),
                "md5": md5_hex(np.ascontiguousarray(a).tobytes()),
            }
            for name, a in sorted(arrays.items())
        },
    }
    if space is not None:
        if space.dim != model._n_features:
            raise SerializationError(
                f"space has {space.dim} variables but the model was "
                f"fitted on {model._n_features} features"
            )
        manifest["space"] = space_spec(space)
        manifest["space_fingerprint"] = space_fingerprint(space)
    if corpus is not None:
        manifest["corpus_fingerprint"] = corpus_fingerprint(*corpus)
    return manifest, arrays


def payload_digest(
    manifest: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
) -> str:
    """Content address of a payload: hash of the digest-stable manifest
    fields plus the exact bytes of every array."""
    stable = {
        k: v for k, v in sorted(manifest.items()) if k not in _VOLATILE_FIELDS
    }
    h = hashlib.sha256(json.dumps(stable, sort_keys=True).encode())
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def model_from_payload(
    manifest: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
) -> RegressionModel:
    """Reconstruct a model from ``(manifest, arrays)``; the inverse of
    :func:`model_to_payload`, verifying schema version and array
    checksums first."""
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"payload has schema version {version!r}; this build reads "
            f"version {SCHEMA_VERSION}"
        )
    family = manifest.get("family")
    if family not in _FAMILIES:
        raise SerializationError(f"unknown model family {family!r}")
    declared = manifest.get("arrays", {})
    if set(declared) != set(arrays):
        raise SerializationError(
            f"array set mismatch: manifest declares {sorted(declared)}, "
            f"payload has {sorted(arrays)}"
        )
    for name, meta in declared.items():
        actual = md5_hex(np.ascontiguousarray(arrays[name]).tobytes())
        if actual != meta["md5"]:
            raise SerializationError(
                f"array {name!r} is corrupt: checksum {actual} != "
                f"manifest {meta['md5']}"
            )
    return _FAMILIES[family][2](manifest, arrays)


# ----------------------------------------------------------------------
# File round-trip
# ----------------------------------------------------------------------
def save_model(
    model: RegressionModel,
    directory: Union[str, Path],
    space: Optional[ParameterSpace] = None,
    corpus: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    fit_metrics: Optional[Mapping[str, float]] = None,
    extra_manifest: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Write ``manifest.json`` + ``arrays.npz`` under ``directory``.

    Returns the manifest (with the content ``id`` filled in).  Use a
    :class:`repro.serve.registry.ModelRegistry` for named, versioned
    storage; this function is the raw one-directory form.
    """
    import time

    manifest, arrays = model_to_payload(
        model, space=space, corpus=corpus, fit_metrics=fit_metrics
    )
    if extra_manifest:
        overlap = set(extra_manifest) & set(manifest)
        if overlap:
            raise SerializationError(
                f"extra_manifest would shadow reserved fields: {sorted(overlap)}"
            )
        manifest.update(extra_manifest)
    manifest["id"] = payload_digest(manifest, arrays)
    manifest["created_unix"] = time.time()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / ARRAYS_NAME, "wb") as f:
        np.savez(f, **arrays)
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    )
    return manifest


def load_model(
    directory: Union[str, Path],
) -> Tuple[RegressionModel, Dict[str, Any]]:
    """Read a model saved by :func:`save_model`; returns (model, manifest).

    The loaded model predicts bit-identically to the one that was saved:
    all numeric state travels as binary float64/int64 npz arrays and is
    checksum-verified on the way in.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    arrays_path = directory / ARRAYS_NAME
    if not manifest_path.exists() or not arrays_path.exists():
        raise SerializationError(f"no serialized model under {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise SerializationError(f"corrupt manifest {manifest_path}: {e}")
    if not isinstance(manifest, dict):
        raise SerializationError(f"corrupt manifest {manifest_path}")
    with np.load(arrays_path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    model = model_from_payload(manifest, arrays)
    return model, manifest


def manifest_space(manifest: Mapping[str, Any]) -> Optional[ParameterSpace]:
    """The design space embedded in a manifest, if any."""
    spec = manifest.get("space")
    if not spec:
        return None
    return space_from_spec(spec)
