"""Binary checkpoint serialization.

Layout, in the container of ``files``: magic ``SRAGCKPT`` | version u32 |
metadata JSON string (vocab table, backbone seed, dims and checksum,
feature and train config, best val loss, epoch) | tensor count u32 | per
tensor: name string | rank u32 | dims u64 each | f32 data.

Only trainable tensors are stored; the frozen backbone is regenerated
bit-exactly from its seed and dims, and a load rejects one whose checksum
differs from the saved model's. A checkpoint saved and reloaded is
bit-stable.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from . import files
from .config import _as_declared, _type_hints
from .dsp import FeatureConfig
from .encoder import RetrieverModel, Vocab, backbone_checksum, make_backbone
from .training import Checkpoint, TrainConfig, params_from_tensors, trainable_tensors

MAGIC = b"SRAGCKPT"


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    model = checkpoint.model
    meta = {
        "vocab": list(model.vocab.tokens),
        "backbone": {
            "seed": model.backbone.seed,
            "hidden_dim": model.backbone.hidden_dim,
            "n_layers": len(model.backbone.layers),
            "checksum": backbone_checksum(model.backbone),
        },
        "encoder_layers": len(model.speech.layers),
        "downsample_factor": model.adapter.downsample_factor,
        "feature": asdict(model.feature_config),
        "train_config": asdict(checkpoint.train_config),
        "best_val_loss": checkpoint.best_val_loss,
        "epoch": checkpoint.epoch,
    }
    tensors = trainable_tensors(model.speech, model.adapter)

    def fields():
        yield files.string(json.dumps(meta, sort_keys=True, separators=(",", ":")))
        yield files.u32(len(tensors))
        for name, arr in sorted(tensors.items()):
            yield from [files.string(name), files.u32(arr.ndim), *map(files.u64, arr.shape),
                        files.f32(arr)]

    files.write(path, MAGIC, fields())


def _declared(value, hint, name: str):
    """`value` as a value of the type `hint`, by the config's rules; raises
    ValueError naming the metadata key `name` when it does not fit."""
    try:
        return _as_declared(value, hint)
    except (TypeError, OverflowError):
        raise ValueError(f"{name} must be {hint.__name__}, got {value!r}") from None


def _dataclass(cls, data, name: str):
    """`cls` from the metadata object `name`, which holds exactly cls's
    fields, each of its declared type."""
    names = sorted(f.name for f in fields(cls))
    if not isinstance(data, dict) or sorted(data) != names:
        raise ValueError(f"{name} must be an object of exactly the keys {names}, got {data!r}")
    hints = _type_hints(cls)
    return cls(**{key: _declared(data[key], hints[key], f"{name}.{key}") for key in names})


def load_checkpoint(path) -> Checkpoint:
    with files.read(path, MAGIC) as src:
        (meta_json,) = src.strings(1, "metadata")
        tensors = {}
        for _ in range(src.u32("tensor count")):
            (name,) = src.strings(1, "tensor name")
            dims = [src.u64("tensor dims") for _ in range(src.u32("tensor rank"))]
            tensors[name] = src.f32(dims, f"tensor data for {name}")

    # Metadata of the wrong shape (a missing or extra key, a wrong type)
    # fails while its parts are built, and tensors that do not fit them (a
    # missing or extra name, a wrong shape) while the model is; every such
    # failure names the file.
    fault = "metadata"
    try:
        meta = json.loads(meta_json)
        vocab = Vocab(tokens=tuple(meta["vocab"]))
        bb = meta["backbone"]
        backbone = make_backbone(
            vocab.size, bb["hidden_dim"], bb["n_layers"], bb["seed"], np.float32
        )
        if backbone_checksum(backbone) != bb["checksum"]:
            raise ValueError(f"backbone checksum mismatch: seed {bb['seed']} regenerates "
                             "another backbone than the saved model's")
        feature_config = _dataclass(FeatureConfig, meta["feature"], "feature")
        train_config = _dataclass(TrainConfig, meta["train_config"], "train_config")
        best_val_loss = _declared(meta["best_val_loss"], float, "best_val_loss")
        epoch = _declared(meta["epoch"], int, "epoch")
        n_encoder_layers, downsample_factor = meta["encoder_layers"], meta["downsample_factor"]
        fault = "tensors"
        speech, adapter = params_from_tensors(tensors, n_encoder_layers, downsample_factor)
        model = RetrieverModel(vocab, backbone, speech, adapter, feature_config)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"corrupt checkpoint ({fault}: {detail}): {path}") from exc
    return Checkpoint(model, train_config, best_val_loss, epoch)
