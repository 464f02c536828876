"""Binary checkpoint serialization.

Layout: magic ``SRAGCKPT`` | version u32 | metadata length u32 | metadata
JSON (UTF-8; vocab table, backbone seed and dims, feature and train config,
best val loss, epoch) | tensor count u32 | per tensor: name length u32 |
name UTF-8 | rank u32 | dims u64 each | f32 little-endian data. Nothing
follows the last tensor; a load rejects trailing bytes.

Only trainable tensors are stored; the frozen backbone is regenerated
bit-exactly from its seed and dims. All integers are little-endian. A
checkpoint saved and reloaded is bit-stable.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dsp import FeatureConfig
from .encoder import RetrieverModel, Vocab, make_backbone
from .training import Checkpoint, TrainConfig, params_from_tensors, trainable_tensors

MAGIC = b"SRAGCKPT"
VERSION = 1


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<I", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"corrupt checkpoint: truncated while reading {what}")
    return data


def _read_tensor(fh) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "tensor name length"))
    name = _read_exact(fh, name_len, "tensor name").decode("utf-8")
    (rank,) = struct.unpack("<I", _read_exact(fh, 4, "tensor rank"))
    dims = [
        struct.unpack("<Q", _read_exact(fh, 8, "tensor dims"))[0] for _ in range(rank)
    ]
    count = int(np.prod(dims)) if dims else 1
    raw = _read_exact(fh, 4 * count, f"tensor data for {name}")
    arr = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float32)
    return name, arr


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    model = checkpoint.model
    meta = {
        "vocab": list(model.vocab.tokens),
        "backbone": {
            "seed": model.backbone.seed,
            "hidden_dim": model.backbone.hidden_dim,
            "n_layers": len(model.backbone.layers),
        },
        "encoder_layers": len(model.speech.layers),
        "downsample_factor": model.adapter.downsample_factor,
        "feature": asdict(model.feature_config),
        "train_config": asdict(checkpoint.train_config),
        "best_val_loss": checkpoint.best_val_loss,
        "epoch": checkpoint.epoch,
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tensors = trainable_tensors(model.speech, model.adapter)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            _write_tensor(fh, name, tensors[name])


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    with path.open("rb") as fh:
        magic = _read_exact(fh, len(MAGIC), "magic")
        if magic != MAGIC:
            raise ValueError(f"not a checkpoint file (bad magic {magic!r}): {path}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack("<I", _read_exact(fh, 4, "metadata length"))
        meta = json.loads(_read_exact(fh, meta_len, "metadata").decode("utf-8"))
        (n_tensors,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        tensors = dict(_read_tensor(fh) for _ in range(n_tensors))
        if fh.read(1):
            raise ValueError(f"corrupt checkpoint (trailing bytes): {path}")

    vocab = Vocab(tokens=tuple(meta["vocab"]))
    bb = meta["backbone"]
    backbone = make_backbone(
        vocab.size, bb["hidden_dim"], bb["n_layers"], bb["seed"], np.float32
    )
    speech, adapter = params_from_tensors(
        tensors, meta["encoder_layers"], meta["downsample_factor"]
    )
    model = RetrieverModel(
        vocab=vocab,
        backbone=backbone,
        speech=speech,
        adapter=adapter,
        feature_config=FeatureConfig(**meta["feature"]),
    )
    return Checkpoint(
        model=model,
        train_config=TrainConfig(**meta["train_config"]),
        best_val_loss=meta["best_val_loss"],
        epoch=meta["epoch"],
    )
