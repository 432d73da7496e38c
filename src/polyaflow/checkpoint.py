"""Versioned JSON checkpoints: full model state, exact float64 round-trip.

Floats are serialized through json's repr path, which emits the shortest
decimal string that parses back to the identical double, so a saved and
reloaded model evaluates bit-for-bit the same.  Loading reads every field
through `_field`, which checks that it is there and of the right JSON type,
checks every array's shape against the model structure and every float for
finiteness, and rejects a bad value with a ValueError whose message starts
with its field path (json itself accepts NaN).
"""

import dataclasses
import json

import numpy as np

from .baselines import FixedPrior, LearnableHistogram
from .flow import (ACTIVATIONS, CouplingLayer, DensityEstimator, FlowModel, ScalingLayer,
                   SigmoidLayer)
from .polya_tree import PARTITION_MODES, PolyaTreeModel
from .train import TrainConfig

SCHEMA_VERSION = 1


@dataclasses.dataclass
class Checkpoint:
    """A reloaded checkpoint: the estimator plus its training context."""

    estimator: DensityEstimator
    config: TrainConfig = None
    seed: int = None
    standardization: tuple = None      # (mean, std) arrays or None
    summary: dict = None


def _flow_payload(flow):
    layers = []
    for layer in flow.layers:
        if isinstance(layer, CouplingLayer):
            layers.append({
                "type": "coupling",
                "mask": [bool(m) for m in layer.mask],
                "activation": layer.activation,
                "weights": [w.tolist() for w in layer.weights],
            })
        elif isinstance(layer, ScalingLayer):
            layers.append({"type": "scaling", "log_scale": layer.log_scale.tolist()})
        elif isinstance(layer, SigmoidLayer):
            layers.append({"type": "sigmoid"})
        else:
            raise TypeError(f"cannot serialize layer {type(layer).__name__}")
    return {"dims": flow.dims, "layers": layers}


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _typed(value, path, kind):
    """`value` checked to be a `kind` (a JSON boolean is no integer); ValueError names `path`."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        got = "null" if value is None else type(value).__name__
        raise ValueError(f"{path}: expected {_KINDS[kind]}, got {got}")
    return value


def _field(obj, key, path, kind=object):
    """`obj[key]`, the field at `path`, checked to be present and a `kind`."""
    if key not in obj:
        raise ValueError(f"{path}: missing")
    return _typed(obj[key], path, kind)


def _floats(value, path, shape=None):
    """`value` as a finite float64 array, of `shape` when given.

    A wrong shape or a non-finite entry raises ValueError naming `path`.
    """
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: expected an array of numbers") from None
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{path}: expected shape {shape}, got {arr.shape}")
    bad = ~np.isfinite(arr)
    if bad.any():
        index = np.argwhere(bad)[0]
        where = "".join(f"[{i}]" for i in index)
        raise ValueError(f"{path}{where}: non-finite value {float(arr[tuple(index)])!r}")
    return arr


def _coupling_weights(weights, path, n_in, n_out):
    """[W0, b0, W1, b1, ...] checked to chain n_in inputs through to n_out shifts.

    Hidden widths are read off the biases, so each W_j must be
    (width of the previous layer, len(b_j)).
    """
    if not weights or len(weights) % 2:
        raise ValueError(f"{path}: expected [W0, b0, ...] pairs, got {len(weights)} arrays")
    arrays, width = [], n_in
    for j in range(0, len(weights), 2):
        last = j == len(weights) - 2
        bias = _floats(weights[j + 1], f"{path}[{j + 1}]", (n_out,) if last else None)
        if bias.ndim != 1:
            raise ValueError(f"{path}[{j + 1}]: expected a 1-D array, got shape {bias.shape}")
        arrays += [_floats(weights[j], f"{path}[{j}]", (width, bias.shape[0])), bias]
        width = bias.shape[0]
    return arrays


def _flow_restore(payload):
    dims = _field(payload, "dims", "flow.dims", int)
    layers = []
    for i, spec in enumerate(_field(payload, "layers", "flow.layers", list)):
        path = f"flow.layers[{i}]"
        spec = _typed(spec, path, dict)
        kind = _field(spec, "type", f"{path}.type")
        if kind == "coupling":
            mask = np.asarray(_field(spec, "mask", f"{path}.mask", list), dtype=bool)
            if mask.shape != (dims,):
                raise ValueError(f"{path}.mask: expected shape {(dims,)}, got {mask.shape}")
            if mask.all() or not mask.any():
                raise ValueError(f"{path}.mask: must pass some and shift some coordinates")
            activation = _field(spec, "activation", f"{path}.activation")
            if activation not in ACTIVATIONS:
                raise ValueError(f"{path}.activation: expected one of {ACTIVATIONS}, "
                                 f"got {activation!r}")
            n_in = int(mask.sum())
            weights = _field(spec, "weights", f"{path}.weights", list)
            layers.append(CouplingLayer(
                mask, _coupling_weights(weights, f"{path}.weights", n_in, dims - n_in),
                activation))
        elif kind == "scaling":
            log_scale = _field(spec, "log_scale", f"{path}.log_scale")
            layers.append(ScalingLayer(_floats(log_scale, f"{path}.log_scale", (dims,))))
        elif kind == "sigmoid":
            layers.append(SigmoidLayer())
        else:
            raise ValueError(f"unknown flow layer type {kind!r} in checkpoint")
    return FlowModel(dims, layers)


def _base_payload(base):
    if isinstance(base, PolyaTreeModel):
        return {
            "kind": "vpt",
            "levels": base.levels,
            "dims": base.dims,
            "partition_mode": base.partition_mode,
            "raw_left": base.raw_left.tolist(),
            "raw_right": base.raw_right.tolist(),
            "split_raw": None if base.split_raw is None else base.split_raw.tolist(),
        }
    if isinstance(base, LearnableHistogram):
        return {
            "kind": "histogram",
            "bins": base.bins,
            "dims": base.dims,
            "raw_widths": base.raw_widths.tolist(),
            "raw_logits": base.raw_logits.tolist(),
        }
    if isinstance(base, FixedPrior):
        return {"kind": base.kind, "dims": base.dims}
    raise TypeError(f"cannot serialize base {type(base).__name__}")


def _base_restore(payload, dims):
    """The base density, checked against the flow's `dims`."""
    kind = _field(payload, "kind", "prior.kind")
    if _field(payload, "dims", "prior.dims", int) != dims:
        raise ValueError(f"prior.dims: expected {dims} (flow.dims), got {payload['dims']}")

    def floats(key, shape):
        return _floats(_field(payload, key, f"prior.{key}"), f"prior.{key}", shape)

    if kind == "vpt":
        levels = _field(payload, "levels", "prior.levels", int)
        mode = _field(payload, "partition_mode", "prior.partition_mode")
        if levels < 1:
            raise ValueError(f"prior.levels: expected >= 1, got {levels}")
        if mode not in PARTITION_MODES:
            raise ValueError(f"prior.partition_mode: expected one of {PARTITION_MODES}, "
                             f"got {mode!r}")
        nodes = (dims, (1 << levels) - 1)
        split = None
        if _field(payload, "split_raw", "prior.split_raw") is not None:
            split = floats("split_raw", (dims, levels) if mode == "per-level" else nodes)
        return PolyaTreeModel(levels, dims, floats("raw_left", nodes),
                              floats("raw_right", nodes), mode, split)
    if kind == "histogram":
        bins = _field(payload, "bins", "prior.bins", int)
        cells = (bins, dims)
        return LearnableHistogram(bins, dims, floats("raw_widths", cells),
                                  floats("raw_logits", cells))
    if kind in ("gaussian", "logistic"):
        return FixedPrior(kind, dims)
    raise ValueError(f"unknown prior kind {kind!r} in checkpoint")


def _config_restore(config):
    """The TrainConfig a checkpoint records; a malformed field raises ValueError naming it."""
    for key in _typed(config, "config", dict):
        if key not in TrainConfig.__dataclass_fields__:
            raise ValueError(f"config.{key}: unknown field")
    hidden = config.get("hidden", [])
    if not (isinstance(hidden, list) and all(isinstance(h, (int, float)) for h in hidden)):
        raise ValueError(f"config.hidden: expected a list of widths, got {hidden!r}")
    return TrainConfig(**config)


def save_checkpoint(path, estimator, config=None, seed=None, standardization=None,
                    summary=None):
    """Write the full estimator state (and training context) as JSON."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "flow": _flow_payload(estimator.flow),
        "prior": _base_payload(estimator.base),
        "smooth_base": bool(estimator.smooth_base),
        "config": None if config is None else dataclasses.asdict(config),
        "seed": None if seed is None else int(seed),
        "standardization": None if standardization is None else {
            "mean": np.asarray(standardization[0], dtype=np.float64).tolist(),
            "std": np.asarray(standardization[1], dtype=np.float64).tolist(),
        },
        "summary": summary,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path):
    """Reload a checkpoint; rejects unknown schema versions and malformed fields.

    Array shapes are checked against the layer masks, the flow dims and the
    tree depth, every float array for finiteness, the standardization
    record for length and std > 0, `seed` for a non-negative integer or
    null and `smooth_base` for a boolean; a ValueError names the field path.
    """
    with open(path) as fh:
        doc = _typed(json.load(fh), "checkpoint", dict)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported checkpoint schema version {version!r} "
            f"(this build reads {SCHEMA_VERSION})"
        )
    seed, smooth = doc.get("seed"), doc.get("smooth_base", False)
    if seed is not None and (type(seed) is not int or seed < 0):
        raise ValueError(f"seed: expected a non-negative integer or null, got {seed!r}")
    if not isinstance(smooth, bool):
        raise ValueError(f"smooth_base: expected true or false, got {smooth!r}")
    flow = _flow_restore(_field(doc, "flow", "flow", dict))
    estimator = DensityEstimator(flow, _base_restore(_field(doc, "prior", "prior", dict),
                                                     flow.dims), smooth_base=smooth)
    config = doc.get("config")
    if config is not None:
        config = _config_restore(config)
    standardization = doc.get("standardization")
    if standardization is not None:
        record = _typed(standardization, "standardization", dict)
        shape = (flow.dims,)
        mean = _floats(_field(record, "mean", "standardization.mean"), "standardization.mean",
                       shape)
        std = _floats(_field(record, "std", "standardization.std"), "standardization.std", shape)
        if not np.all(std > 0.0):
            j = int(np.flatnonzero(std <= 0.0)[0])
            raise ValueError(f"standardization.std[{j}]: expected > 0, got {float(std[j])!r}")
        standardization = (mean, std)
    return Checkpoint(
        estimator=estimator,
        config=config,
        seed=seed,
        standardization=standardization,
        summary=doc.get("summary"),
    )
