from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechrag.corpus import SynthParams, corpus_words, split, synth_corpus
from speechrag.dsp import AudioSignal, logmel
from speechrag import training
from speechrag.encoder import Vocab, backbone_checksum, embed_text
from speechrag.training import (
    AdamState,
    EarlyStopper,
    TrainConfig,
    adam_step,
    build_model,
    evaluate_loss,
    grad_check,
    loss_and_grads,
    params_from_tensors,
    train,
    trainable_tensors,
    _cosine_loss_grad,
    _forward,
)

from oracles import cosine_loss, forward_item, item_loss_and_grads, mean_cosine, reference_train


@pytest.fixture(scope="module")
def small_corpus():
    return synth_corpus(SynthParams(n_passages=6, vocabulary_size=12, words_per_passage=(5, 10), seed=11))


@pytest.fixture(scope="module")
def small_model(small_corpus):
    vocab = Vocab.from_words(corpus_words(small_corpus))
    return build_model(vocab, hidden_dim=16, encoder_dim=16, seed=3, dtype=np.float64, proj_std=0.1)


def make_items(corpus, model, count=2):
    items = []
    for p in corpus.passages[:count]:
        feats = logmel(corpus.load_audio(p), model.feature_config)
        target = embed_text(p.transcript, model.vocab, model.backbone)
        items.append((feats.astype(np.float64), np.asarray(target, dtype=np.float64)))
    return items


# Frame counts of unequal items for the stacked pass. With the default
# downsample factor of 4 they give 6, 3, 4 and 2 downsampled rows, whose last
# windows hold 1, 2, 3 and 4 frames.
UNEQUAL_FRAMES = (21, 10, 15, 8)


def truncated(signal: AudioSignal, cfg, frames: int) -> AudioSignal:
    """The start of `signal` that gives exactly `frames` log-mel frames."""
    sr = signal.sample_rate
    n = cfg.frame_samples(sr) + (frames - 1) * cfg.hop_samples(sr)
    return AudioSignal(signal.samples[:n], sr)


def unequal_items(corpus, model):
    items = []
    for p, frames in zip(corpus.passages, UNEQUAL_FRAMES):
        signal = truncated(corpus.load_audio(p), model.feature_config, frames)
        items.append((logmel(signal, model.feature_config).astype(model.dtype),
                      model.embed_text(p.transcript)))
    assert [len(f) for f, _ in items] == list(UNEQUAL_FRAMES)
    return items


# ---------------------------------------------------------------------------
# Cosine loss
# ---------------------------------------------------------------------------


def test_cosine_loss_identical_vectors():
    v = np.array([1.0, 2.0, 3.0])
    assert cosine_loss(v, v) == pytest.approx(0.0, abs=1e-9)


def test_cosine_loss_orthogonal():
    assert cosine_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_cosine_loss_antipodal():
    assert cosine_loss(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == pytest.approx(2.0)


@settings(max_examples=30, deadline=None)
@given(
    a=st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3),
    b=st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3),
)
def test_cosine_loss_bounded(a, b):
    loss = cosine_loss(np.array(a), np.array(b))
    assert -1e-9 <= loss <= 2.0 + 1e-9


def test_cosine_loss_zero_norm_guarded():
    # The 1e-12 norm guard keeps silence-only embeddings NaN-free.
    loss = cosine_loss(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]))
    assert math.isfinite(loss)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cosine_loss_grad_loss_is_bit_equal_to_oracle(dtype):
    # evaluate_loss takes the loss from _cosine_loss_grad on float64 copies.
    rng = np.random.default_rng(0)
    for n in range(2000):
        e_s, e_t = (rng.normal(size=(2, 8)) * rng.choice([1e-8, 1.0, 1e4], (2, 1))).astype(dtype)
        if n % 10 == 0:
            e_s[:] = 0.0
        if n % 15 == 0:
            e_t[:] = 0.0
        got = _cosine_loss_grad(e_s.astype(np.float64), e_t.astype(np.float64))[0]
        assert got == cosine_loss(e_s, e_t)


def test_evaluate_loss_is_the_mean_oracle_loss(small_corpus, small_model):
    items = make_items(small_corpus, small_model, count=3)
    parts = (small_model.speech, small_model.adapter, small_model.backbone)
    expected = sum(cosine_loss(forward_item(f, *parts)[0], t) for f, t in items) / len(items)
    assert evaluate_loss(items, *parts) == expected


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def test_zero_loss_batch_has_zero_gradients(small_corpus, small_model):
    feats = logmel(small_corpus.load_audio(small_corpus.passages[0]),
                   small_model.feature_config)
    e_s, _ = forward_item(feats, small_model.speech, small_model.adapter, small_model.backbone)
    # Target proportional to the model's own output: zero loss up to the
    # 1e-12 norm guard inside the cosine.
    loss, grads = loss_and_grads(
        [(feats, 2.5 * e_s)], small_model.speech, small_model.adapter, small_model.backbone
    )
    assert loss == pytest.approx(0.0, abs=1e-10)
    for name, g in grads.items():
        assert float(np.max(np.abs(g))) <= 1e-9, name


def test_gradcheck_random_small_model(small_corpus, small_model):
    items = make_items(small_corpus, small_model)
    err = grad_check(small_model, items, probe_count=6, eps=1e-4, seed=0)
    assert err <= 1e-4


def test_gradcheck_linear_only_model(small_corpus):
    vocab = Vocab.from_words(corpus_words(small_corpus))
    model = build_model(
        vocab,
        hidden_dim=16,
        encoder_dim=16,
        encoder_layers=1,  # single linear layer: no tanh anywhere
        backbone_layers=0,
        seed=5,
        dtype=np.float64,
        proj_std=0.1,
    )
    items = make_items(small_corpus, model)
    # Small eps: with every layer linear the analytic gradients are exact, so
    # the residual error is finite-difference truncation from the cosine.
    err = grad_check(model, items, probe_count=8, eps=2e-5, seed=1)
    assert err <= 1e-7


def test_gradcheck_rejects_single_precision_model(small_corpus):
    vocab = Vocab.from_words(corpus_words(small_corpus))
    model = build_model(vocab, hidden_dim=16, encoder_dim=16, seed=3, dtype=np.float32)
    items = make_items(small_corpus, model)
    with pytest.raises(ValueError, match="float64"):
        grad_check(model, items)


@pytest.mark.parametrize(
    "probe_count, eps, message",
    [(0, 1e-4, "probe_count must be at least 1"), (-1, 1e-4, "probe_count must be at least 1"),
     (5, 0.0, "eps must be nonzero and finite"), (5, math.nan, "eps must be nonzero and finite"),
     (5, math.inf, "eps must be nonzero and finite"),
     (5, -math.inf, "eps must be nonzero and finite")],
)
def test_gradcheck_rejects_a_probe_count_or_step_that_checks_nothing(
    small_corpus, small_model, probe_count, eps, message
):
    items = make_items(small_corpus, small_model)
    with pytest.raises(ValueError, match=message):
        grad_check(small_model, items, probe_count=probe_count, eps=eps)


def test_gradcheck_takes_a_negative_step(small_corpus, small_model):
    items = make_items(small_corpus, small_model)
    assert grad_check(small_model, items, probe_count=2, eps=-1e-4, seed=0) <= 1e-4


def test_gradcheck_nan_error_is_the_result(small_corpus, small_model, monkeypatch):
    """One probe whose loss is NaN makes the result NaN, which no threshold
    passes; a running max(worst, err) would have dropped it."""
    items = make_items(small_corpus, small_model)
    real = training.loss_and_grads
    calls = []

    def one_nan_loss(*args):
        calls.append(None)
        loss, grads = real(*args)
        return (math.nan if len(calls) == 4 else loss), grads

    monkeypatch.setattr(training, "loss_and_grads", one_nan_loss)
    assert math.isnan(grad_check(small_model, items, probe_count=3, eps=1e-4, seed=0))


def test_gradcheck_leaves_callers_tensors_untouched(small_corpus):
    vocab = Vocab.from_words(corpus_words(small_corpus))
    model = build_model(vocab, hidden_dim=16, encoder_dim=16, seed=3, dtype=np.float64, proj_std=0.1)
    items = make_items(small_corpus, model)
    live = trainable_tensors(model.speech, model.adapter)
    before = {name: arr.copy() for name, arr in live.items()}
    # Each probe restores its scalar exactly, so only read-only arrays show
    # whether a probe wrote to the caller's model at all.
    for arr in live.values():
        arr.flags.writeable = False
    grad_check(model, items, probe_count=3, eps=1e-4, seed=4)
    for name, arr in live.items():
        assert np.array_equal(arr, before[name]), name


def test_gradcheck_stable_when_eps_halved(small_corpus, small_model):
    items = make_items(small_corpus, small_model)
    at_full = grad_check(small_model, items, probe_count=5, eps=1e-4, seed=2)
    at_half = grad_check(small_model, items, probe_count=5, eps=5e-5, seed=2)
    assert at_half <= 10.0 * max(at_full, 1e-12)


def test_duplicated_batch_same_gradients(small_corpus, small_model):
    items = make_items(small_corpus, small_model)
    loss_once, grads_once = loss_and_grads(
        items, small_model.speech, small_model.adapter, small_model.backbone
    )
    loss_twice, grads_twice = loss_and_grads(
        items + items, small_model.speech, small_model.adapter, small_model.backbone
    )
    assert loss_twice == pytest.approx(loss_once, abs=1e-12)
    for name in grads_once:
        assert np.allclose(grads_once[name], grads_twice[name], atol=1e-12)


def _poisoned(model, stage):
    """A copy of `model` whose first non-finite activation is at `stage`."""
    if stage == "adapter projection":
        adapter = replace(model.adapter, w_proj=np.full_like(model.adapter.w_proj, np.inf))
        return replace(model, adapter=adapter)
    i = int(stage.removeprefix("backbone layer "))
    layers = list(model.backbone.layers)
    layers[i] = replace(layers[i], w_out=np.full_like(layers[i].w_out, np.inf))
    return replace(model, backbone=replace(model.backbone, layers=tuple(layers)))


def test_non_finite_activation_reports_layer(small_corpus, small_model):
    items = make_items(small_corpus, small_model, count=3)
    parts = (small_model.speech, small_model.adapter, small_model.backbone)
    # The stacked pass names the stage, also when one item in the middle of
    # the batch is the only one with non-finite values.
    poisoned = [items[0], (np.full((10, 40), np.inf), items[1][1]), items[2]]
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError, match="encoder layer 0"):
            loss_and_grads(poisoned, *parts)
    # Finite features whose first non-finite value appears later: the error
    # names that stage, not one the non-finite values reach after it.
    assert len(small_model.backbone.layers) == 2
    for stage in ("adapter projection", "backbone layer 0", "backbone layer 1"):
        model = _poisoned(small_model, stage)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=f"after {stage}$"):
                loss_and_grads(items, model.speech, model.adapter, model.backbone)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_training_forward_equals_inference_embedding(small_corpus, dtype):
    # Training and retrieval run one speech forward pass, so the embedding the
    # loss sees is the embedding the index holds, bit for bit, also for items
    # of unequal length stacked in one batch. Every item here has at least
    # two rows at every stage. An item with a single row at some stage is left
    # out on purpose: alone it is a one-row matrix product, for which BLAS may
    # take another path than for the stacked rows, and its low bits may differ.
    vocab = Vocab.from_words(corpus_words(small_corpus))
    model = build_model(vocab, hidden_dim=16, encoder_dim=16, seed=4, dtype=dtype, proj_std=0.1)
    cfg = model.feature_config
    signals = [small_corpus.load_audio(p) for p in small_corpus.passages[:3]]
    signals += [truncated(s, cfg, n) for s, n in zip(signals, UNEQUAL_FRAMES)]
    feats = [logmel(s, cfg).astype(dtype) for s in signals]
    embeddings, _ = _forward(feats, model.speech, model.adapter, model.backbone)
    assert len(embeddings) == len(signals)
    for e_s, signal in zip(embeddings, signals):
        expected = model.embed_speech(signal)
        assert e_s.dtype == expected.dtype == dtype
        assert np.array_equal(e_s, expected)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("batch", [slice(0, 4), slice(1, 3), slice(2, 3)],
                         ids=["four-items", "two-items", "one-item"])
def test_stacked_pass_matches_per_item_oracle(small_corpus, dtype, tol, batch):
    # The stacked pass sums gradients over all rows at once, so only the
    # float summation order differs from the per-item reference.
    vocab = Vocab.from_words(corpus_words(small_corpus))
    model = build_model(vocab, hidden_dim=16, encoder_dim=16, seed=4, dtype=dtype, proj_std=0.1)
    items = unequal_items(small_corpus, model)[batch]
    parts = (model.speech, model.adapter, model.backbone)
    loss, grads = loss_and_grads(items, *parts)
    ref_loss, ref_grads = item_loss_and_grads(items, *parts)
    assert abs(loss - ref_loss) <= tol * abs(ref_loss)
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert grads[name].dtype == dtype, name
        assert np.max(np.abs(grads[name] - ref)) <= tol * np.max(np.abs(ref)), name


def test_stacked_pass_keeps_the_model_dtype(small_corpus):
    # Segment bounds are ints: dividing float32 by a NumPy int64 would
    # promote to float64, which every later stage would then carry.
    vocab = Vocab.from_words(corpus_words(small_corpus))
    model = build_model(vocab, hidden_dim=16, encoder_dim=16, seed=4, proj_std=0.1)
    assert model.dtype == np.float32
    items = unequal_items(small_corpus, model)
    parts = (model.speech, model.adapter, model.backbone)
    embeddings, cache = _forward([f for f, _ in items], *parts)
    arrays = [*embeddings, *cache["enc"], *cache["bb_tanh"]]
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
    _, grads = loss_and_grads(items, *parts)
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_first_step_closed_form():
    config = TrainConfig()
    tensors = {"theta": np.array([0.0])}
    grads = {"theta": np.array([1.0])}
    state = AdamState.init(tensors)
    updated, state = adam_step(tensors, grads, state, config)
    expected = -5e-5 * (1.0 / (1.0 + 1e-8))
    assert updated["theta"][0] == pytest.approx(expected, rel=1e-12)
    assert state.t == 1


def test_adam_zero_gradient_leaves_parameters():
    config = TrainConfig()
    tensors = {"w": np.array([1.0, -2.0])}
    state = AdamState.init(tensors)
    updated, _ = adam_step(tensors, {"w": np.zeros(2)}, state, config)
    assert np.array_equal(updated["w"], tensors["w"])


def test_adam_tensors_update_independently():
    config = TrainConfig()
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=3), rng.normal(size=(2, 2))
    ga, gb = rng.normal(size=3), rng.normal(size=(2, 2))

    joint, _ = adam_step({"a": a, "b": b}, {"a": ga, "b": gb},
                         AdamState.init({"a": a, "b": b}), config)
    alone_a, _ = adam_step({"a": a}, {"a": ga}, AdamState.init({"a": a}), config)
    alone_b, _ = adam_step({"b": b}, {"b": gb}, AdamState.init({"b": b}), config)
    assert np.array_equal(joint["a"], alone_a["a"])
    assert np.array_equal(joint["b"], alone_b["b"])


def test_adam_shape_mismatch_rejected():
    config = TrainConfig()
    tensors = {"w": np.zeros(3)}
    with pytest.raises(ValueError, match="shape"):
        adam_step(tensors, {"w": np.zeros(4)}, AdamState.init(tensors), config)


def test_gradient_accumulation_equivalence(small_corpus, small_model):
    """One Adam step from the mean of per-micro-batch mean gradients equals
    one step on the concatenated batch (equal micro-batch sizes)."""
    items = make_items(small_corpus, small_model, count=4)
    micro_a, micro_b = items[:2], items[2:]
    speech, adapter = small_model.speech, small_model.adapter
    _, grads_a = loss_and_grads(micro_a, speech, adapter, small_model.backbone)
    _, grads_b = loss_and_grads(micro_b, speech, adapter, small_model.backbone)
    accumulated = {k: (grads_a[k] + grads_b[k]) / 2.0 for k in grads_a}
    _, grads_cat = loss_and_grads(items, speech, adapter, small_model.backbone)

    config = TrainConfig()
    tensors = dict(trainable_tensors(speech, adapter))
    step_acc, _ = adam_step(tensors, accumulated, AdamState.init(tensors), config)
    step_cat, _ = adam_step(tensors, grads_cat, AdamState.init(tensors), config)
    for name in tensors:
        assert np.allclose(step_acc[name], step_cat[name], atol=1e-12)


# ---------------------------------------------------------------------------
# Early stopping and the training loop
# ---------------------------------------------------------------------------


def test_early_stopper_example_sequence():
    stopper = EarlyStopper(patience=3)
    stops = [stopper.update(epoch, loss)
             for epoch, loss in enumerate([0.9, 0.8, 0.81, 0.82, 0.83], start=1)]
    assert stops == [False, False, False, False, True]
    assert stopper.best_epoch == 2
    assert stopper.best == pytest.approx(0.8)


def test_train_rejects_empty_corpora(small_corpus, small_model):
    config = TrainConfig(max_epochs=1)
    empty = synth_corpus(SynthParams(n_passages=1, vocabulary_size=4, seed=0))
    empty = type(empty)(passages=(), queries=(), sample_rate=empty.sample_rate)
    with pytest.raises(ValueError, match="non-empty"):
        train(empty, small_corpus, config, small_model)


def test_train_deterministic_checkpoints(small_corpus):
    tr, va, _ = split(small_corpus, 0.5, 0.25, seed=1)
    config = TrainConfig(max_epochs=3, seed=5)
    vocab = Vocab.from_words(corpus_words(small_corpus))
    first_rows, second_rows = [], []
    first = train(tr, va, config, build_model(vocab, hidden_dim=16, encoder_dim=16, seed=5),
                  sink=first_rows.append)
    second = train(tr, va, config, build_model(vocab, hidden_dim=16, encoder_dim=16, seed=5),
                   sink=second_rows.append)
    a = trainable_tensors(first.model.speech, first.model.adapter)
    b = trainable_tensors(second.model.speech, second.model.adapter)
    for name in a:
        assert np.array_equal(a[name], b[name]), name
    assert first.best_val_loss == second.best_val_loss
    assert [r["val_loss"] for r in first_rows] == [r["val_loss"] for r in second_rows]


def test_train_says_why_it_stopped(small_corpus, monkeypatch):
    tr, va, _ = split(small_corpus, 0.5, 0.25, seed=1)
    vocab = Vocab.from_words(corpus_words(small_corpus))
    model = build_model(vocab, hidden_dim=16, encoder_dim=16, seed=5)
    rows = []
    train(tr, va, TrainConfig(max_epochs=2, patience=5), model, sink=rows.append)
    assert [row.get("stop_reason") for row in rows] == [None, "max_epochs"]
    assert [row["epoch"] for row in rows] == [1, 2]
    # A val loss that never improves after epoch 1 runs out a patience of 2
    # at epoch 3, before max_epochs.
    monkeypatch.setattr(training, "evaluate_loss", lambda *args: 0.5)
    rows = []
    checkpoint = train(tr, va, TrainConfig(max_epochs=10, patience=2), model, sink=rows.append)
    assert [row.get("stop_reason") for row in rows] == [None, None, "patience"]
    assert (checkpoint.epoch, checkpoint.best_val_loss) == (1, 0.5)


def test_backbone_frozen_through_training(small_corpus):
    tr, va, _ = split(small_corpus, 0.5, 0.25, seed=1)
    vocab = Vocab.from_words(corpus_words(small_corpus))
    model = build_model(vocab, hidden_dim=16, encoder_dim=16, seed=2)
    before = backbone_checksum(model.backbone)
    checkpoint = train(tr, va, TrainConfig(max_epochs=2, seed=2), model=model)
    assert backbone_checksum(model.backbone) == before
    assert backbone_checksum(checkpoint.model.backbone) == before


@pytest.fixture(scope="module")
def loop_splits():
    """14 training and 3 validation passages, and their vocabulary."""
    corpus = synth_corpus(
        SynthParams(n_passages=20, vocabulary_size=12, words_per_passage=(4, 8), seed=13)
    )
    tr, va, _ = split(corpus, 0.7, 0.15, seed=1)
    return tr, va, Vocab.from_words(corpus_words(corpus))


# (batch_size, grad_accum_steps, lr, max_epochs, stop_reason) over 14
# training items, with the micro-batch sizes of each optimizer window.
LOOP_SHAPES = [
    pytest.param(4, 3, 5e-5, 3, "max_epochs", id="short-last-window"),  # [4 4 4] [2]
    pytest.param(3, 2, 5e-5, 3, "max_epochs", id="partial-micro-batch"),  # [3 3] [3 3] [2]
    pytest.param(2, 7, 5e-5, 2, "max_epochs", id="one-full-window"),  # [2 2 2 2 2 2 2]
    pytest.param(5, 1, 5e-5, 2, "max_epochs", id="no-accumulation"),  # [5] [5] [4]
    # At this rate the val loss stops improving, so a patience of 2 ends the
    # run before max_epochs, after its best epoch.
    pytest.param(3, 2, 3e-2, 30, "patience", id="patience"),
]


@pytest.mark.parametrize("batch_size, accum, lr, max_epochs, stop_reason", LOOP_SHAPES)
def test_train_equals_reference_loop(
    loop_splits, monkeypatch, batch_size, accum, lr, max_epochs, stop_reason
):
    tr, va, vocab = loop_splits
    model = build_model(vocab, hidden_dim=16, encoder_dim=16, seed=5)
    config = TrainConfig(lr=lr, batch_size=batch_size, grad_accum_steps=accum,
                         max_epochs=max_epochs, patience=2, seed=3)
    expected, history = reference_train(tr, va, config, model)

    adam_step = training.adam_step
    steps, rows, steps_at_row = [], [], []

    def counted_adam_step(*args):
        steps.append(None)
        return adam_step(*args)

    def sink(row):
        rows.append(row)
        steps_at_row.append(len(steps))

    monkeypatch.setattr(training, "adam_step", counted_adam_step)
    checkpoint = train(tr, va, config, model, sink=sink)

    assert [{k: v for k, v in row.items() if k != "elapsed_s"} for row in rows] == history
    assert (checkpoint.epoch, checkpoint.best_val_loss) == (expected.epoch, expected.best_val_loss)
    got = trainable_tensors(checkpoint.model.speech, checkpoint.model.adapter)
    want = trainable_tensors(expected.model.speech, expected.model.adapter)
    for name in want:
        assert got[name].dtype == want[name].dtype == np.float32, name
        assert got[name].tobytes() == want[name].tobytes(), name
    per_epoch = math.ceil(math.ceil(len(tr.passages) / batch_size) / accum)
    assert np.diff(steps_at_row, prepend=0).tolist() == [per_epoch] * len(rows)
    assert rows[-1]["stop_reason"] == stop_reason


def test_train_leaves_the_model_unchanged(loop_splits):
    tr, va, vocab = loop_splits
    model = build_model(vocab, hidden_dim=16, encoder_dim=16, seed=5)
    before = {k: arr.copy() for k, arr in trainable_tensors(model.speech, model.adapter).items()}
    config = TrainConfig(max_epochs=2, batch_size=3, grad_accum_steps=2, seed=3)
    checkpoint = train(tr, va, config, model)
    after = trainable_tensors(model.speech, model.adapter)
    trained = trainable_tensors(checkpoint.model.speech, checkpoint.model.adapter)
    for name, arr in before.items():
        assert after[name].tobytes() == arr.tobytes(), name
        assert not np.array_equal(trained[name], arr), name


def test_train_loss_nonincreasing_after_epoch_3_in_most_runs(seed7_splits, seed7_vocab):
    """Statistical property over 10 seeds: the (full-batch) training loss
    sequence is non-increasing from epoch 3 onward in at least 90% of runs."""
    tr, va, _ = seed7_splits
    ok = 0
    for seed in range(10):
        rows = []
        train(tr, va, TrainConfig(max_epochs=12, patience=12, seed=seed),
              build_model(seed7_vocab, seed=seed), sink=rows.append)
        losses = [row["train_loss"] for row in rows]
        tail = losses[2:]
        if all(b <= a + 1e-9 for a, b in zip(tail, tail[1:])):
            ok += 1
    assert ok >= 9


def test_mean_cosine_improves_with_training(small_corpus):
    tr, va, _ = split(small_corpus, 0.5, 0.25, seed=3)
    vocab = Vocab.from_words(corpus_words(small_corpus))
    model = build_model(vocab, hidden_dim=16, encoder_dim=16, seed=4)
    before = mean_cosine(tr, model)
    checkpoint = train(tr, va, TrainConfig(max_epochs=10, patience=10, seed=4), model=model)
    after = mean_cosine(tr, checkpoint.model)
    assert after > before


def test_params_tensor_roundtrip(small_model):
    tensors = trainable_tensors(small_model.speech, small_model.adapter)
    speech, adapter = params_from_tensors(
        tensors, len(small_model.speech.layers), small_model.adapter.downsample_factor
    )
    for (w1, b1), (w2, b2) in zip(speech.layers, small_model.speech.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    assert np.array_equal(adapter.w_proj, small_model.adapter.w_proj)
