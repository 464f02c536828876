from __future__ import annotations

import numpy as np
import pytest

from speechrag.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from speechrag.corpus import SynthParams, corpus_words, split, synth_corpus
from speechrag.encoder import Vocab, backbone_checksum
from speechrag.training import TrainConfig, build_model, trainable_tensors, train


def small_splits():
    corpus = synth_corpus(SynthParams(n_passages=6, vocabulary_size=10, words_per_passage=(4, 8), seed=2))
    return corpus, *split(corpus, 0.5, 0.25, seed=2)[:2]


@pytest.fixture(scope="module")
def checkpoint():
    corpus, tr, va = small_splits()
    vocab = Vocab.from_words(corpus_words(corpus))
    model = build_model(vocab, hidden_dim=16, encoder_dim=16, seed=2)
    result = train(tr, va, TrainConfig(max_epochs=2, seed=2), model)
    return result.checkpoint


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


def test_loaded_tensors_are_read_only_and_still_train(checkpoint, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, path)
    model = load_checkpoint(path).model
    tensors = trainable_tensors(model.speech, model.adapter)
    assert not any(arr.flags.writeable for arr in tensors.values())
    _, tr, va = small_splits()
    result = train(tr, va, TrainConfig(max_epochs=1, seed=3), model)
    trained = trainable_tensors(result.checkpoint.model.speech, result.checkpoint.model.adapter)
    assert any(not np.array_equal(trained[name], tensors[name]) for name in tensors)


def test_double_save_byte_identical(checkpoint, tmp_path):
    save_checkpoint(checkpoint, tmp_path / "a.ckpt")
    save_checkpoint(load_checkpoint(tmp_path / "a.ckpt"), tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


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
