"""The shared binary container, through the three formats built on it:
checkpoints, indexes and embeddings."""

from __future__ import annotations

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from speechrag import files
from speechrag.checkpoint import load_checkpoint, save_checkpoint
from speechrag.dsp import FeatureConfig
from speechrag.encoder import Vocab, backbone_checksum
from speechrag.index import build, load, load_embeddings, save, save_embeddings
from speechrag.training import Checkpoint, TrainConfig, build_model, trainable_tensors


def small_checkpoint() -> Checkpoint:
    model = build_model(
        Vocab.from_words(["ka", "mo"]), hidden_dim=2, encoder_dim=2, encoder_layers=1,
        backbone_layers=1, downsample_factor=2, feature_config=FeatureConfig(n_mels=3), seed=5,
    )
    return Checkpoint(model=model, train_config=TrainConfig(seed=5), best_val_loss=0.5, epoch=3)


def small_index():
    return build(["b", "a"], [[3.0, 4.0], [1.0, 0.0]])


EMB_IDS = ["b", "a"]
EMB_ROWS = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)

FORMATS = {
    "checkpoint": (lambda path: save_checkpoint(small_checkpoint(), path), load_checkpoint),
    "index": (lambda path: save(small_index(), path), load),
    "embeddings": (lambda path: save_embeddings(path, EMB_IDS, EMB_ROWS), load_embeddings),
}


def saved(tmp_path, kind: str):
    path = tmp_path / f"file.{kind}"
    FORMATS[kind][0](path)
    return path, path.read_bytes()


def rejects(kind: str, path, message: str) -> None:
    with pytest.raises(ValueError, match=message) as info:
        FORMATS[kind][1](path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_every_proper_prefix_is_rejected_as_truncated(tmp_path, kind):
    path, data = saved(tmp_path, kind)
    for n in range(len(data)):
        path.write_bytes(data[:n])
        rejects(kind, path, "truncated")


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_one_extra_byte_is_rejected_as_trailing(tmp_path, kind):
    path, data = saved(tmp_path, kind)
    path.write_bytes(data + b"\0")
    rejects(kind, path, "trailing bytes")


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_flipped_magic_is_rejected(tmp_path, kind):
    path, data = saved(tmp_path, kind)
    path.write_bytes(bytes([data[0] ^ 0xFF]) + data[1:])
    rejects(kind, path, "bad magic")


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_version_two_is_rejected(tmp_path, kind):
    path, data = saved(tmp_path, kind)
    path.write_bytes(data[:8] + struct.pack("<I", 2) + data[12:])
    rejects(kind, path, "unsupported version 2")


# ---------------------------------------------------------------------------
# Layout pins: the bytes of each format, built field by field as the README
# lays them out.
# ---------------------------------------------------------------------------


def string(text: str) -> bytes:
    encoded = text.encode("utf-8")
    return struct.pack("<I", len(encoded)) + encoded


def test_index_layout(tmp_path):
    save(small_index(), tmp_path / "i.sidx")
    expected = (
        b"SRAGIDX1" + struct.pack("<IIQ", 1, 2, 2) + string("a") + string("b")
        + struct.pack("<4f", 1.0, 0.0, 0.6, 0.8)
    )
    assert (tmp_path / "i.sidx").read_bytes() == expected


def test_embeddings_layout(tmp_path):
    save_embeddings(tmp_path / "e.semb", EMB_IDS, EMB_ROWS)
    expected = (
        b"SRAGEMB1" + struct.pack("<IIQ", 1, 2, 2) + string("a") + string("b")
        + struct.pack("<4f", 3.0, 4.0, 1.0, 2.0)
    )
    assert (tmp_path / "e.semb").read_bytes() == expected


def test_checkpoint_layout(tmp_path):
    checkpoint = small_checkpoint()
    save_checkpoint(checkpoint, tmp_path / "m.ckpt")
    meta = {
        "vocab": ["ka", "mo", "<unk>"],
        "backbone": {"seed": 5, "hidden_dim": 2, "n_layers": 1,
                     "checksum": backbone_checksum(checkpoint.model.backbone)},
        "encoder_layers": 1,
        "downsample_factor": 2,
        "feature": {"frame_len": 0.025, "hop": 0.02, "n_mels": 3, "fft_size": 512,
                    "log_floor": 1e-10},
        "train_config": {"lr": 5e-5, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                         "batch_size": 4, "grad_accum_steps": 16, "max_epochs": 20,
                         "patience": 3, "seed": 5},
        "best_val_loss": 0.5,
        "epoch": 3,
    }
    tensors = trainable_tensors(checkpoint.model.speech, checkpoint.model.adapter)
    expected = b"SRAGCKPT" + struct.pack("<I", 1)
    expected += string(json.dumps(meta, sort_keys=True, separators=(",", ":")))
    expected += struct.pack("<I", 4)
    for name in ("adapter/b_proj", "adapter/w_proj", "encoder/0/b", "encoder/0/w"):
        arr = tensors[name]
        expected += string(name) + struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape)
        expected += struct.pack(f"<{arr.size}f", *arr.ravel())
    assert (tmp_path / "m.ckpt").read_bytes() == expected


def test_f32_blocks_load_as_read_only_views(tmp_path):
    path, _ = saved(tmp_path, "embeddings")
    _, rows = load_embeddings(path)
    assert np.array_equal(rows, EMB_ROWS[[1, 0]])
    assert not rows.flags.writeable and not rows.flags.owndata


# ---------------------------------------------------------------------------
# Atomic replace
# ---------------------------------------------------------------------------


def test_save_failing_mid_encode_leaves_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    checkpoint = small_checkpoint()
    save_checkpoint(checkpoint, path)
    before = path.read_bytes()
    # encoder/0/w is the last of the four tensors written, so the failure
    # comes after the metadata and three tensors have gone to the temp file.
    encode, calls = files.f32, []

    def f32_failing_last(arr):
        calls.append(arr)
        if len(calls) == 4:
            raise OSError("no space left on device")
        return encode(arr)

    monkeypatch.setattr(files, "f32", f32_failing_last)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(replace(checkpoint, epoch=9), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

