from __future__ import annotations

import time

import pytest

from speechrag.corpus import SynthParams, corpus_words, split, synth_corpus
from speechrag.encoder import Vocab
from speechrag.training import TrainConfig, build_model, train


@pytest.fixture(scope="session")
def seed7_corpus():
    return synth_corpus(SynthParams(seed=7))


@pytest.fixture(scope="session")
def seed7_splits(seed7_corpus):
    return split(seed7_corpus, 0.8, 0.1, seed=7)


@pytest.fixture(scope="session")
def seed7_vocab(seed7_corpus):
    return Vocab.from_words(corpus_words(seed7_corpus))


@pytest.fixture(scope="session")
def untrained_model(seed7_vocab):
    return build_model(seed7_vocab, seed=7)


@pytest.fixture(scope="session")
def convergence_run(seed7_splits, seed7_vocab):
    """The acceptance training run: spec recipe scaled to 200 epochs on the
    seed-7 corpus. Shared across criteria; wall time is recorded."""
    train_corpus, val_corpus, _ = seed7_splits
    config = TrainConfig(max_epochs=200, seed=7)
    started = time.monotonic()
    result = train(train_corpus, val_corpus, config, build_model(seed7_vocab, seed=7))
    elapsed = time.monotonic() - started
    return result, elapsed


@pytest.fixture(scope="session")
def trained_model(convergence_run):
    result, _ = convergence_run
    return result.checkpoint.model
