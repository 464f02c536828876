from __future__ import annotations

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from speechrag import checkpoint as checkpoint_module
from speechrag import files
from speechrag.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from speechrag.config import read_section
from speechrag.corpus import SynthParams, corpus_words, split, synth_corpus
from speechrag.dsp import FeatureConfig
from speechrag.encoder import RetrieverModel, SpeechEncoderParams, Vocab, backbone_checksum
from speechrag.training import (
    Checkpoint,
    TrainConfig,
    build_model,
    params_from_tensors,
    trainable_tensors,
    train,
)


def small_splits():
    corpus = synth_corpus(SynthParams(n_passages=6, vocabulary_size=10, words_per_passage=(4, 8), seed=2))
    return corpus, *split(corpus, 0.5, 0.25, seed=2)[:2]


@pytest.fixture(scope="module")
def checkpoint():
    corpus, tr, va = small_splits()
    vocab = Vocab.from_words(corpus_words(corpus))
    model = build_model(vocab, hidden_dim=16, encoder_dim=16, seed=2)
    return train(tr, va, TrainConfig(max_epochs=2, seed=2), model)


def test_roundtrip_bit_stable(checkpoint, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, path)
    loaded = load_checkpoint(path)
    original = trainable_tensors(checkpoint.model.speech, checkpoint.model.adapter)
    recovered = trainable_tensors(loaded.model.speech, loaded.model.adapter)
    for name in original:
        assert np.array_equal(original[name], recovered[name]), name
    assert loaded.model.vocab.tokens == checkpoint.model.vocab.tokens
    assert loaded.train_config == checkpoint.train_config
    assert loaded.best_val_loss == checkpoint.best_val_loss
    assert loaded.epoch == checkpoint.epoch
    assert backbone_checksum(loaded.model.backbone) == backbone_checksum(checkpoint.model.backbone)
    assert loaded.model.feature_config == checkpoint.model.feature_config
    assert loaded.model.dtype == np.float32


def test_loaded_tensors_are_read_only_and_still_train(checkpoint, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, path)
    model = load_checkpoint(path).model
    tensors = trainable_tensors(model.speech, model.adapter)
    assert not any(arr.flags.writeable for arr in tensors.values())
    _, tr, va = small_splits()
    trained = train(tr, va, TrainConfig(max_epochs=1, seed=3), model).model
    after = trainable_tensors(trained.speech, trained.adapter)
    assert any(not np.array_equal(after[name], tensors[name]) for name in tensors)


def test_double_save_byte_identical(checkpoint, tmp_path):
    save_checkpoint(checkpoint, tmp_path / "a.ckpt")
    save_checkpoint(load_checkpoint(tmp_path / "a.ckpt"), tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def written_before_the_record_was_declared(checkpoint: Checkpoint) -> bytes:
    """The bytes the save wrote when it spelled its metadata as a dict literal."""
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
    out = [MAGIC, files.u32(files.VERSION),
           files.string(json.dumps(meta, sort_keys=True, separators=(",", ":"))),
           files.u32(len(tensors))]
    for name, arr in sorted(tensors.items()):
        out += [files.string(name), files.u32(arr.ndim), *map(files.u64, arr.shape), files.f32(arr)]
    return b"".join(out)


def test_saved_bytes_equal_the_dict_literal_layout(checkpoint, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, path)
    assert path.read_bytes() == written_before_the_record_was_declared(checkpoint)


def test_metadata_record_round_trips(checkpoint, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, path)
    data = path.read_bytes()
    stored = json.loads(data[16 : 16 + int.from_bytes(data[12:16], "little")])
    meta = read_section(checkpoint_module._Meta, stored, "meta", exact=True)
    assert json.loads(json.dumps(asdict(meta))) == stored
    assert meta.vocab == checkpoint.model.vocab.tokens
    assert meta.backbone.checksum == backbone_checksum(checkpoint.model.backbone)
    assert (meta.feature, meta.train_config) == (
        checkpoint.model.feature_config, checkpoint.train_config)
    assert (meta.best_val_loss, meta.epoch) == (checkpoint.best_val_loss, checkpoint.epoch)


def test_bad_magic_rejected(checkpoint, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, path)
    data = bytearray(path.read_bytes())
    data[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_truncated_file_rejected(checkpoint, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(checkpoint, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_checkpoint(path)


def test_magic_constant():
    assert MAGIC == b"SRAGCKPT"


def test_backbone_its_seed_does_not_regenerate_is_rejected(checkpoint, tmp_path):
    model = checkpoint.model
    reseeded = replace(model.backbone, seed=model.backbone.seed + 1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(replace(checkpoint, model=replace(model, backbone=reseeded)), path)
    with pytest.raises(ValueError, match="backbone checksum mismatch") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# The model's shape contract, checked once where a model is built or loaded
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_model():
    """40 mels into two 64-wide encoder layers, projected to a 64-wide backbone."""
    return build_model(Vocab.from_words(["ka", "mo"]), seed=1)


def _f32(*shape):
    return np.zeros(shape, np.float32)


# Each case replaces or adds trainable tensors of the default model, and
# names what the error says.
BROKEN = {
    "b_proj_length_1": ({"adapter/b_proj": _f32(1)}, r"bias \(1,\)"),
    "encoder_0_b_length_1": ({"encoder/0/b": _f32(1)}, r"encoder layer 0: .* bias \(1,\)"),
    "w_proj_32_columns": ({"adapter/w_proj": _f32(64, 32)}, r"projection \(64, 32\)"),
    "encoder_output_32_wide": ({"encoder/1/w": _f32(64, 32), "encoder/1/b": _f32(32)},
                               "encoder width 32"),
    "extra_tensor": ({"encoder/2/b": _f32(64)}, r"unexpected tensors \['encoder/2/b'\]"),
    "mixed_dtypes": ({"adapter/b_proj": np.zeros(64)}, "mix dtypes"),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_model_rejects_a_broken_shape_contract(default_model, case):
    edit, message = BROKEN[case]
    tensors = {**trainable_tensors(default_model.speech, default_model.adapter), **edit}
    with pytest.raises(ValueError, match=message):
        speech, adapter = params_from_tensors(tensors, 2, 4)
        RetrieverModel(default_model.vocab, default_model.backbone, speech, adapter,
                       default_model.feature_config)


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_load_rejects_a_broken_shape_contract_naming_the_file(
    default_model, tmp_path, monkeypatch, case
):
    edit, message = BROKEN[case]
    tensors = {**trainable_tensors(default_model.speech, default_model.adapter), **edit}
    monkeypatch.setattr(checkpoint_module, "trainable_tensors", lambda speech, adapter: tensors)
    path = tmp_path / "model.ckpt"
    save_checkpoint(Checkpoint(default_model, TrainConfig(), best_val_loss=0.5, epoch=1), path)
    monkeypatch.undo()
    if case == "mixed_dtypes":
        # A file stores every tensor as f32, so the case is a reader that
        # decodes the one block in another precision.
        read = files.Reader.f32
        monkeypatch.setattr(files.Reader, "f32", lambda self, shape, what: (
            read(self, shape, what).astype(edit["adapter/b_proj"].dtype)
            if what.endswith("adapter/b_proj") else read(self, shape, what)))
    with pytest.raises(ValueError, match=message) as info:
        load_checkpoint(path)
    assert "corrupt checkpoint (tensors: " in str(info.value) and str(path) in str(info.value)


@pytest.mark.parametrize("edit, message", [
    (lambda m: replace(m, adapter=replace(m.adapter, downsample_factor=0)), "downsample_factor"),
    (lambda m: replace(m, speech=SpeechEncoderParams(layers=())), "at least one layer"),
    (lambda m: replace(m, feature_config=FeatureConfig(n_mels=32)), "input width 32"),
    (lambda m: replace(m, vocab=Vocab.from_words(["ka"])), "3 rows for a vocab of 2"),
], ids=["downsample_factor_0", "no_encoder_layer", "n_mels_not_encoder_rows", "vocab_size"])
def test_model_rejects_parts_that_do_not_fit(default_model, edit, message):
    with pytest.raises(ValueError, match=message):
        edit(default_model)
