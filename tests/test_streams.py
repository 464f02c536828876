"""Pins of the random streams every artifact comes from.

NumPy keeps `Generator` streams free to change between versions (NEP 19),
and a run compared only with another run in the same environment cannot
see such a change. These tests pin a sha256 of the draws at each draw site
for fixed seeds, and of outputs made only of draws and strings. They pin
no value that passes through libm or BLAS (WAV samples, log-mel, GEMM
output), since those may differ between CPUs. A failure names the site and
the numpy version the pins were taken with.
"""

from __future__ import annotations

import hashlib
from functools import partial

import numpy as np
import pytest

from speechrag.corpus import SynthParams, corpus_words, split, synth_corpus
from speechrag.dsp import AudioSignal, add_noise_snr
from speechrag.encoder import Vocab
from speechrag.ragpipe import CorruptionConfig, corrupt_transcript
from speechrag.training import TrainConfig, _corpus_items, build_model, grad_check, train

PINNED_WITH_NUMPY = "2.4.6"


def record_draws(monkeypatch, run) -> dict[str, list]:
    """Call `run()` and return the draws taken from each generator it
    makes, by its seed: (method name, value) pairs in draw order."""
    make = np.random.default_rng
    draws: dict[str, list] = {}

    class Recorded:
        def __init__(self, seed):
            self._rng = make(seed)
            self._draws = draws.setdefault(repr(seed), [])

        def __getattr__(self, name):
            draw = getattr(self._rng, name)

            def recorded(*args, **kwargs):
                value = draw(*args, **kwargs)
                self._draws.append((name, value))
                return value

            return recorded

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", Recorded)
        run()
    return draws


def sha256_draws(draws: list) -> str:
    digest = hashlib.sha256()
    for name, value in draws:
        digest.update(name.encode() + np.asarray(value).tobytes())
    return digest.hexdigest()


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def assert_pinned(site: str, got, pinned) -> None:
    assert got == pinned, (
        f"{site}: the draws differ from the pins taken with numpy {PINNED_WITH_NUMPY} "
        f"(this is numpy {np.__version__}): {got}")


def _tiny_corpus():
    return synth_corpus(SynthParams(n_passages=6, words_per_passage=(3, 5),
                                    vocabulary_size=6, seed=7))


def _tiny_model(corpus, **overrides):
    vocab = Vocab.from_words(corpus_words(corpus))
    return build_model(vocab, hidden_dim=8, encoder_dim=8, seed=7, **overrides)


def _train():
    corpus = _tiny_corpus()
    train_corpus, val_corpus, _ = split(corpus, 0.5, 0.25, seed=7)
    # max_epochs <= patience: the number of epochs, so of draws, depends on no loss.
    config = TrainConfig(max_epochs=3, patience=3, seed=7)
    return partial(train, train_corpus, val_corpus, config, _tiny_model(corpus))


def _grad_check():
    corpus = _tiny_corpus()
    model = _tiny_model(corpus, dtype=np.float64, proj_std=0.1)
    return partial(grad_check, model, _corpus_items(corpus, model)[:1], probe_count=2, seed=7)


# Each draw site: a setup that returns a call reaching the site (the setup's
# own draws are not recorded), and the sha256 of the site's draws by seed.
SITES = {
    "synth_corpus": (lambda: _tiny_corpus, {
        "[7, 0]": "0ac124903684286e152fdd5614f47ed16b63b9d14bb242f008fdfb2d5b3a8ac5",
        "[7, 1]": "4daaa1a0323380360857f0cfaeea02d0fe9c6ca50e629786076dc390d7855b0d",
        "[7, 2]": "019565802da157d0a7371040bdc3c60b4edbc37366d4c92323bb3d77c8330b6a",
        "[7, 3]": "2582ed3acdb7db8d72d0fb0a64de2e5e7be92c577add04e4572278f170f09c60",
    }),
    "split": (lambda: partial(split, _tiny_corpus(), 0.5, 0.25, seed=7), {
        "7": "2298b3d12ac020c1723f56c28ba734147c6a17eea53d6c2632b6af25b56d1cd4",
    }),
    "build_model": (lambda: partial(_tiny_model, _tiny_corpus()), {
        "[7, 10]": "68e1cb1e9b63cb9bb0fa8a42cd394e9e6450f3b370631fef93030d3bb57eb1fa",
        "[7, 11]": "7260098009de0edab2b7ab3ee6cb8091e5d92abb4657e29015b22d6dcee4b4b6",
        "[7, 12]": "43a5256021b42db7a32d3b578c0f1e6ba693e690d4b7f5438d5453cbd616f1fd",
    }),
    "train": (_train, {
        "[7, 20]": "f447a9497ed5f19309337120715de3fa11de9c9b956bab9b00b874ab5b4988d4",
    }),
    "_text_rng": (lambda: partial(
        corrupt_transcript, "one two three four five six",
        CorruptionConfig(0.5, ("one", "two", "seven"), seed=7)), {
        "[7, 17592421732608489402]":
            "ab0948ef52276502dfbaa25d2fd5c5b95c678983d25900974d2373e2c4c5bbda",
    }),
    "add_noise_snr": (lambda: partial(
        add_noise_snr, AudioSignal(np.ones(64), 16000), 10.0, 7), {
        "7": "c6f2ee0426029b89dadf22ff2c107774bb1627a6cd8e66ce73c825843651836e",
    }),
    "grad_check": (_grad_check, {
        "7": "cd0e7a69282c6d9b0aeadd227e22c275632f915f32c96afd8091d46dda516a1b",
    }),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_draws_at_each_site_are_pinned(monkeypatch, site):
    setup, pinned = SITES[site]
    draws = record_draws(monkeypatch, setup())
    assert_pinned(site, {seed: sha256_draws(d) for seed, d in draws.items()}, pinned)


def test_seed7_transcripts_and_queries_are_pinned(seed7_corpus):
    transcripts = sha256_lines(p.transcript for p in seed7_corpus.passages)
    queries = sha256_lines(f"{q.text}\t{q.gold_answer}\t{q.relevant_passage_id}"
                           for q in seed7_corpus.queries)
    assert_pinned("synth_corpus seed 7", (transcripts, queries), (
        "c59fecf2beffec7ee81ccc7244c75845de4a8bed8eafd0327ab17f1448370cff",
        "5433ac044469cccd5b6ab2f37b607466c31f849835b7db9d68444506f742d622"))


def test_seed7_split_ids_are_pinned(seed7_splits):
    got = tuple(sha256_lines(p.id for p in part.passages) for part in seed7_splits)
    assert_pinned("split seed 7", got, (
        "27a81d8bf162479cc02e3be8fd83212562ce1d7e7c86bdda429a314b58c1d41b",
        "70c258a1c2e18fb82b67e5492081c41c82109ddf0b93a811b29950f8c1a3a8b1",
        "0714214abe13f15c93fe2854f25375560a6d8d0029c37a4a27e90c6bdeffcc70"))


def test_corrupted_seed7_transcripts_are_pinned(seed7_corpus):
    config = CorruptionConfig(0.35, tuple(corpus_words(seed7_corpus)), seed=7)
    got = sha256_lines(corrupt_transcript(p.transcript, config) for p in seed7_corpus.passages)
    assert_pinned("corrupt_transcript at WER 0.35", got,
                  "227d07c893dd73f3b4c4ca7c17ed94998f04a65d274755e29a4e3e9c98025443")


def test_seed7_training_order_is_pinned(monkeypatch, seed7_splits, seed7_vocab):
    train_corpus, val_corpus, _ = seed7_splits
    # Three epochs: max_epochs <= patience, so no loss decides how many.
    config = TrainConfig(max_epochs=3, patience=3, seed=7)
    model = build_model(seed7_vocab, seed=7)
    draws = record_draws(monkeypatch, partial(train, train_corpus, val_corpus, config, model))
    perms = [perm for _, perm in draws.get("[7, 20]", [])]
    orders = [" ".join(train_corpus.passages[i].id for i in perm) for perm in perms]
    assert_pinned("train order, epochs 1-3", sha256_lines(orders),
                  "0b26600e8f5e23f99e6a7ddf58c90d0125bf70bfbf91694a18309bf0121fc7d5")
