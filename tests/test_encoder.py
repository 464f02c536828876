from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speechrag import encoder
from speechrag.adapter import make_adapter
from speechrag.checkpoint import load_checkpoint
from speechrag.corpus import SynthParams, synth_corpus
from speechrag.dsp import AudioSignal, FeatureConfig, logmel
from speechrag.encoder import (
    UNK,
    BackboneParams,
    MixerLayer,
    SpeechEncoderParams,
    Vocab,
    backbone_checksum,
    backbone_forward,
    backbone_layers,
    embed_speech,
    embed_text,
    make_backbone,
    make_speech_encoder,
    mix_tokens,
    pool,
    speech_encode,
    tokenize,
    words,
)

from oracles import cosine_loss, encode_then_downsample

SR = 16000


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------


def test_words_lowercase_split():
    assert words("The cat.") == ["the", "cat"]
    assert words("a-b_c 12x") == ["a", "b", "c", "12x"]
    assert words("") == []


def test_tokenize_known_words():
    vocab = Vocab(tokens=("the", "cat", UNK))
    assert tokenize("The cat.", vocab) == [0, 1]


def test_tokenize_oov_maps_to_unk():
    vocab = Vocab(tokens=("the", "cat", UNK))
    assert tokenize("zebra", vocab) == [2]


def test_tokenize_empty():
    vocab = Vocab(tokens=("the", UNK))
    assert tokenize("", vocab) == []


def test_vocab_invariants():
    vocab = Vocab.from_words(["b", "a", "b", "c"])
    assert vocab.tokens == ("a", "b", "c", UNK)
    assert vocab.size == 4
    assert sorted(vocab.index.values()) == list(range(4))
    with pytest.raises(ValueError):
        Vocab(tokens=("a", "b"))  # no <unk>
    with pytest.raises(ValueError):
        Vocab(tokens=("a", "a", UNK))


# ---------------------------------------------------------------------------
# Backbone forward
# ---------------------------------------------------------------------------


def _manual_backbone(H=6, L=1, seed=0):
    return make_backbone(vocab_size=5, hidden_dim=H, n_layers=L, seed=seed, dtype=np.float64)


def test_zero_layers_is_identity():
    backbone = BackboneParams(
        token_embedding=np.zeros((3, 4)), layers=(), seed=0
    )
    x = np.arange(8.0).reshape(2, 4)
    assert np.array_equal(backbone_forward(x, backbone), x)


def test_single_row_is_pure_residual_map():
    backbone = _manual_backbone(H=6, L=2)
    x = np.random.default_rng(1).normal(size=(1, 6))
    got = backbone_forward(x, backbone)
    expected = x.copy()
    for layer in backbone.layers:
        expected = expected + np.tanh(expected @ layer.w_in + layer.b_in) @ layer.w_out + layer.b_out
    assert np.allclose(got, expected, atol=1e-12)


def test_backbone_forward_deterministic():
    backbone = _manual_backbone(H=8, L=2, seed=42)
    x = np.random.default_rng(2).normal(size=(5, 8))
    a = backbone_forward(x, backbone)
    b = backbone_forward(x.copy(), backbone)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stacked_sequences_pass_the_backbone_as_alone(dtype):
    # Only the token mixing spans rows, and it stays within each sequence.
    backbone = make_backbone(vocab_size=5, hidden_dim=8, n_layers=2, seed=3, dtype=dtype)
    rng = np.random.default_rng(4)
    lengths = [5, 2, 9, 3]
    seqs = [rng.normal(size=(n, 8)).astype(dtype) for n in lengths]
    states, _ = backbone_layers(np.concatenate(seqs), backbone, lengths)
    assert states[-1].dtype == dtype
    alone = np.concatenate([backbone_forward(x, backbone) for x in seqs])
    assert np.allclose(states[-1], alone, rtol=1e-5 if dtype == np.float32 else 1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_and_mixing_match_ndarray_mean_bit_for_bit(dtype):
    # pool and mix_tokens divide a sum by the row count, which costs less per
    # call than ndarray.mean; the bits must be the same.
    rng = np.random.default_rng(5)
    for n in range(1, 70):
        x = (rng.normal(size=(n, 16)) * rng.choice([1e-4, 1.0, 1e4])).astype(dtype)
        assert np.array_equal(pool(x), x.mean(axis=0))
        mixed = x.copy()
        mix_tokens(mixed, [n])
        assert mixed.dtype == dtype
        assert np.array_equal(mixed, x + (x - x.mean(axis=0, keepdims=True)))


def test_backbone_regenerable_bit_exactly():
    a = make_backbone(vocab_size=11, hidden_dim=16, n_layers=2, seed=99)
    b = make_backbone(vocab_size=11, hidden_dim=16, n_layers=2, seed=99)
    assert backbone_checksum(a) == backbone_checksum(b)
    c = make_backbone(vocab_size=11, hidden_dim=16, n_layers=2, seed=100)
    assert backbone_checksum(a) != backbone_checksum(c)


def _arrays(backbone: BackboneParams) -> list[np.ndarray]:
    return [backbone.token_embedding] + [arr for layer in backbone.layers
                                         for arr in vars(layer).values()]


@pytest.mark.parametrize("key", [(11, 16, 2, 99, np.float32), (11, 16, 2, 99, np.float64),
                                 (5, 8, 0, 3, np.float32), (40, 64, 2, 7, np.float32),
                                 (3, 8, 3, 0, np.float64)])
def test_shared_backbone_equals_a_fresh_generation_and_refuses_writes(key):
    """make_backbone generates each key once per process; what every call
    then shares is bit for bit what an uncached generation draws, and no
    caller can write to it."""
    shared = make_backbone(*key)
    assert make_backbone(*key) is shared
    assert make_backbone(*key[:4], dtype=np.dtype(key[4])) is shared
    fresh = encoder._backbone.__wrapped__(*key[:4], np.dtype(key[4]))
    assert shared.seed == fresh.seed
    assert len(shared.layers) == len(fresh.layers) == key[2]
    for got, want in zip(_arrays(shared), _arrays(fresh), strict=True):
        assert got.dtype == want.dtype == key[4]
        assert got.tobytes() == want.tobytes()
    for arr in _arrays(shared):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def test_pool_mean():
    assert np.array_equal(pool(np.array([[1.0, 3.0], [3.0, 5.0]])), np.array([2.0, 4.0]))


def test_pool_single_row_identity():
    row = np.array([[2.0, -1.0, 0.5]])
    assert np.array_equal(pool(row), row[0])


def test_pool_permutation_invariant_and_linear():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 4))
    perm = rng.permutation(6)
    assert np.allclose(pool(x), pool(x[perm]))
    y = rng.normal(size=(6, 4))
    assert np.allclose(pool(2.0 * x + 3.0 * y), 2.0 * pool(x) + 3.0 * pool(y))


# ---------------------------------------------------------------------------
# Text embedding
# ---------------------------------------------------------------------------


def test_embed_text_deterministic(seed7_vocab, untrained_model):
    a = embed_text("hello there cat", seed7_vocab, untrained_model.backbone)
    b = embed_text("hello there cat", seed7_vocab, untrained_model.backbone)
    assert np.array_equal(a, b)


def test_embed_text_normalization_invariance(seed7_vocab, untrained_model):
    a = embed_text("Hello, THERE cat!", seed7_vocab, untrained_model.backbone)
    b = embed_text("hello there cat", seed7_vocab, untrained_model.backbone)
    assert np.array_equal(a, b)


def test_embed_text_empty_rejected(seed7_vocab, untrained_model):
    with pytest.raises(ValueError, match="empty"):
        embed_text("!!!", seed7_vocab, untrained_model.backbone)


def test_distinct_transcripts_not_collinear(seed7_corpus, untrained_model):
    p0, p1 = seed7_corpus.passages[0], seed7_corpus.passages[1]
    a = untrained_model.embed_text(p0.transcript)
    b = untrained_model.embed_text(p1.transcript)
    cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    assert cos < 1.0 - 1e-6


# ---------------------------------------------------------------------------
# Speech encoding
# ---------------------------------------------------------------------------


def test_speech_encode_zero_params_zero_output():
    params = SpeechEncoderParams(
        layers=((np.zeros((4, 3)), np.zeros(3)), (np.zeros((3, 3)), np.zeros(3)))
    )
    out = speech_encode(np.random.default_rng(0).normal(size=(5, 4)), params, 2)
    assert np.array_equal(out, np.zeros((3, 3)))


def test_speech_encode_single_linear_identity():
    params = SpeechEncoderParams(layers=((np.eye(4), np.zeros(4)),))
    x = np.random.default_rng(1).normal(size=(6, 4))
    assert np.allclose(speech_encode(x, params, 1), x)


def test_speech_encode_preserves_frame_count():
    params = make_speech_encoder(n_mels=40, encoder_dim=16, n_layers=2, seed=0)
    x = np.random.default_rng(2).normal(size=(23, 40))
    # At factor 1 every frame is a row of its own; otherwise each window is.
    assert speech_encode(x, params, 1).shape == (23, 16)
    assert speech_encode(x, params, 4).shape == (6, 16)


# ---------------------------------------------------------------------------
# Full speech branch
# ---------------------------------------------------------------------------


def test_embed_speech_deterministic(seed7_corpus, untrained_model):
    signal = seed7_corpus.load_audio(seed7_corpus.passages[0])
    a = untrained_model.embed_speech(signal)
    b = untrained_model.embed_speech(signal)
    assert np.array_equal(a, b)


def test_untrained_mean_cosine_near_zero(seed7_corpus, untrained_model):
    cosines = [
        1.0 - cosine_loss(
            untrained_model.embed_speech(seed7_corpus.load_audio(p)),
            untrained_model.embed_text(p.transcript),
        )
        for p in seed7_corpus.passages
    ]
    assert abs(float(np.mean(cosines))) < 0.2


def test_shape_contract_feature_and_adapter_rows(untrained_model):
    for seconds in (0.5, 1.0, 2.35):
        n = int(seconds * SR)
        signal = AudioSignal(0.2 * np.sin(2 * np.pi * 440 * np.arange(n) / SR), SR)
        feats = logmel(signal, untrained_model.feature_config)
        expected_t = math.floor((seconds - 0.025) / 0.020) + 1
        assert feats.shape[0] == expected_t
        encoded = speech_encode(feats, untrained_model.speech,
                                untrained_model.adapter.downsample_factor)
        assert encoded.shape[0] == math.ceil(expected_t / 4)


# Pooling before the encoder's last layer is exact in real arithmetic; in
# floats the embedding may move by rounding only.
POOL_ORDER_TOL = {np.float32: 1e-5, np.float64: 1e-12}


def assert_close_to_encode_then_downsample(got, signal, model_parts, cfg, dtype):
    speech, adapter, backbone = model_parts
    ref = encode_then_downsample(logmel(signal, cfg).astype(dtype), speech, adapter, backbone)
    assert got.dtype == ref.dtype == dtype
    assert np.max(np.abs(got - ref)) <= POOL_ORDER_TOL[dtype] * np.max(np.abs(ref))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=40, deadline=None)
@given(
    frames=st.integers(min_value=1, max_value=31),
    factor=st.integers(min_value=1, max_value=5),
    depth=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(frames=3, factor=4, depth=2, seed=0)  # a single, partial window
@example(frames=20, factor=4, depth=2, seed=0)  # whole windows only
@example(frames=21, factor=5, depth=1, seed=0)  # the pool runs on log-mel rows
def test_embed_speech_matches_encode_then_downsample(dtype, frames, factor, depth, seed):
    cfg = FeatureConfig()
    speech = make_speech_encoder(cfg.n_mels, 8, depth, seed, dtype)
    adapter = make_adapter(8, 8, factor, seed, dtype, proj_std=0.1)
    backbone = make_backbone(3, 8, 2, seed, dtype)
    rng = np.random.default_rng(seed)
    n = cfg.frame_samples(SR) + (frames - 1) * cfg.hop_samples(SR)
    signal = AudioSignal(0.1 * rng.normal(size=n), SR)
    got = embed_speech(signal, cfg, speech, adapter, backbone)
    assert_close_to_encode_then_downsample(got, signal, (speech, adapter, backbone), cfg, dtype)


def test_checkpoint_trained_before_the_pool_moved_embeds_as_it_did():
    """A checkpoint saved when the encoder output was downsampled after the
    last layer (trained 3 epochs on the seed-2, 8-passage corpus below) loads
    and embeds within rounding of that order."""
    model = load_checkpoint(Path(__file__).parent / "data/encode_then_downsample.ckpt").model
    corpus = synth_corpus(SynthParams(n_passages=8, vocabulary_size=10,
                                      words_per_passage=(4, 8), seed=2))
    parts = (model.speech, model.adapter, model.backbone)
    for p in corpus.passages:
        signal = corpus.load_audio(p)
        assert_close_to_encode_then_downsample(model.embed_speech(signal), signal, parts,
                                               model.feature_config, np.float32)


def test_embed_speech_too_short_rejected(untrained_model):
    with pytest.raises(ValueError, match="shorter"):
        untrained_model.embed_speech(AudioSignal(np.zeros(100), SR))
