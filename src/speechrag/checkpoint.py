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
from dataclasses import asdict, dataclass

import numpy as np

from . import files
from .config import read_section
from .dsp import FeatureConfig
from .encoder import RetrieverModel, Vocab, backbone_checksum, make_backbone
from .training import Checkpoint, TrainConfig, params_from_tensors, trainable_tensors

MAGIC = b"SRAGCKPT"


@dataclass(frozen=True)
class _Backbone:
    seed: int
    hidden_dim: int
    n_layers: int
    checksum: str


@dataclass(frozen=True)
class _Meta:
    """The metadata record: a load requires every field, of its type."""

    vocab: tuple[str, ...]
    backbone: _Backbone
    encoder_layers: int
    downsample_factor: int
    feature: FeatureConfig
    train_config: TrainConfig
    best_val_loss: float
    epoch: int


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    model, backbone = checkpoint.model, checkpoint.model.backbone
    meta = _Meta(
        model.vocab.tokens,
        _Backbone(backbone.seed, backbone.hidden_dim, len(backbone.layers),
                  backbone_checksum(backbone)),
        len(model.speech.layers), model.adapter.downsample_factor, model.feature_config,
        checkpoint.train_config, checkpoint.best_val_loss, checkpoint.epoch,
    )
    tensors = trainable_tensors(model.speech, model.adapter)

    def fields():
        yield files.string(json.dumps(asdict(meta), sort_keys=True, separators=(",", ":")))
        yield files.u32(len(tensors))
        for name, arr in sorted(tensors.items()):
            yield from [files.string(name), files.u32(arr.ndim), *map(files.u64, arr.shape),
                        files.f32(arr)]

    files.write(path, MAGIC, fields())


def load_checkpoint(path) -> Checkpoint:
    with files.read(path, MAGIC) as src:
        (meta_json,) = src.strings(1, "metadata")
        tensors = {}
        for _ in range(src.u32("tensor count")):
            (name,) = src.strings(1, "tensor name")
            dims = [src.u64("tensor dims") for _ in range(src.u32("tensor rank"))]
            tensors[name] = src.f32(dims, f"tensor data for {name}")

    # Metadata of the wrong shape (a missing or extra key, a wrong type)
    # fails while the record is read, and tensors that do not fit it (a
    # missing or extra name, a wrong shape) while the model is built; every
    # such failure names the file.
    fault = "metadata"
    try:
        meta = read_section(_Meta, json.loads(meta_json), "meta", exact=True)
        vocab, bb = Vocab(tokens=meta.vocab), meta.backbone
        backbone = make_backbone(vocab.size, bb.hidden_dim, bb.n_layers, bb.seed, np.float32)
        if backbone_checksum(backbone) != bb.checksum:
            raise ValueError(f"backbone checksum mismatch: seed {bb.seed} regenerates "
                             "another backbone than the saved model's")
        fault = "tensors"
        speech, adapter = params_from_tensors(tensors, meta.encoder_layers, meta.downsample_factor)
        model = RetrieverModel(vocab, backbone, speech, adapter, meta.feature)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"corrupt checkpoint ({fault}: {detail}): {path}") from exc
    return Checkpoint(model, meta.train_config, meta.best_val_loss, meta.epoch)
