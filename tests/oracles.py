"""Reference implementations that the tests check the package against.

They are written for plainness, not speed, and the package does not use
them.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np

from speechrag.corpus import (
    SYNTH_SAMPLE_RATE,
    WORD_SECONDS,
    Corpus,
    SynthParams,
    _make_vocabulary,
    _word_waveform,
)
from speechrag.dsp import PCM_SCALE, AudioSignal, hz_to_mel, mel_to_hz
from speechrag.encoder import RetrieverModel, backbone_forward, backbone_layers, encoder_layers
from speechrag.index import build, search
from speechrag.ragpipe import (
    DEFAULT_INSTRUCTION,
    GenerationRequest,
    MockJudge,
    exact_match,
    passage_embeddings,
)
from speechrag import training
from speechrag.training import NORM_GUARD, _cosine_loss_grad


def recall_at_k(results: dict[str, list[str]], qrels: dict[str, str], k: int) -> float:
    """Fraction of queries whose single relevant passage appears in the
    top-k of its ranked id list."""
    if not results:
        raise ValueError("no query results")
    hits = 0
    for query_key, ranked in results.items():
        if query_key not in qrels:
            raise KeyError(f"query {query_key!r} missing from qrels")
        hits += qrels[query_key] in ranked[:k]
    return hits / len(results)


def corpus_equal(a: Corpus, b: Corpus, audio_atol: float = 1.0 / 32768.0) -> bool:
    """Structural equality with an audio tolerance covering PCM quantization."""
    if a.sample_rate != b.sample_rate or len(a.passages) != len(b.passages):
        return False
    if [(q.text, q.gold_answer, q.relevant_passage_id) for q in a.queries] != [
        (q.text, q.gold_answer, q.relevant_passage_id) for q in b.queries
    ]:
        return False
    for pa, pb in zip(a.passages, b.passages):
        if pa.id != pb.id or pa.transcript != pb.transcript:
            return False
        sa, sb = a.load_audio(pa), b.load_audio(pb)
        if sa.samples.size != sb.samples.size:
            return False
        if sa.samples.size and float(np.max(np.abs(sa.samples - sb.samples))) > audio_atol:
            return False
    return True


def eager_synth_audio(params: SynthParams) -> dict[str, np.ndarray]:
    """Each passage's waveform as synth_corpus draws it, concatenated
    eagerly: the same streams, draws and draw order, with every passage's
    samples built at once and kept."""
    rng_vocab = np.random.default_rng([params.seed, 0])
    rng_code = np.random.default_rng([params.seed, 1])
    rng_text = np.random.default_rng([params.seed, 2])
    vocabulary = _make_vocabulary(params.vocabulary_size, rng_vocab)
    word_samples = int(round(WORD_SECONDS * SYNTH_SAMPLE_RATE))
    codebook = {
        word: _word_waveform(rng_code, word_samples, SYNTH_SAMPLE_RATE) for word in vocabulary
    }
    lo, hi = params.words_per_passage
    audio = {}
    for i in range(params.n_passages):
        n_words = int(rng_text.integers(lo, hi + 1))
        word_ids = rng_text.integers(0, params.vocabulary_size, size=n_words)
        audio[f"p{i:04d}"] = np.concatenate([codebook[vocabulary[w]] for w in word_ids])
    return audio


def write_wav_with_wave_module(path, samples: np.ndarray, sample_rate: int) -> None:
    """PCM16 mono through the standard library's writer."""
    import wave

    ints = np.clip(np.rint(samples * PCM_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(ints.tobytes())


def measure_snr(clean: AudioSignal, noisy: AudioSignal) -> float:
    """10*log10(P_clean / P_noise) with noise = noisy - clean; the oracle of
    `dsp.add_noise_snr`. Returns +inf when the residual is exactly zero."""
    if clean.samples.size != noisy.samples.size:
        raise ValueError(
            f"length mismatch: clean has {clean.samples.size} samples, "
            f"noisy has {noisy.samples.size}"
        )
    noise = noisy.samples - clean.samples
    p_noise = float(np.mean(noise**2))
    if p_noise == 0.0:
        return math.inf
    p_clean = float(np.mean(clean.samples**2))
    return 10.0 * math.log10(p_clean / p_noise)


def mel_center_frequencies(n_mels: int, sample_rate: int) -> np.ndarray:
    """Center frequency (Hz) of each triangular mel filter, 0 Hz to Nyquist."""
    edges = np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2)
    return mel_to_hz(edges[1:-1])


def cosine_loss(e_s: np.ndarray, e_t: np.ndarray) -> float:
    """1 - cos(e_s, e_t) in float64, with both norms guarded by NORM_GUARD;
    the oracle of `training._cosine_loss_grad`'s loss."""
    e_s = np.asarray(e_s, dtype=np.float64)
    e_t = np.asarray(e_t, dtype=np.float64)
    ns = math.sqrt(float(e_s @ e_s)) + NORM_GUARD
    nt = math.sqrt(float(e_t @ e_t)) + NORM_GUARD
    return 1.0 - float(e_s @ e_t) / (ns * nt)


def mean_cosine(corpus: Corpus, model: RetrieverModel) -> float:
    """Mean cos(e_s, e_t) over a corpus; the training-progress measure."""
    total = 0.0
    for p in corpus.passages:
        e_s = model.embed_speech(corpus.load_audio(p))
        e_t = model.embed_text(p.transcript)
        total += 1.0 - cosine_loss(e_s, e_t)
    return total / len(corpus.passages)


def encode_then_downsample(features: np.ndarray, speech, adapter, backbone) -> np.ndarray:
    """A speech embedding with every encoder layer run on the frames and the
    encoder output then averaged per window with `np.mean`: the order before
    the window mean moved in front of the encoder's last (linear) layer. The
    two orders are equal in real arithmetic; this is the reference of
    `encoder.embed_speech`."""
    x = features
    for k, (w, b) in enumerate(speech.layers):
        x = x @ w + b
        if k < len(speech.layers) - 1:
            x = np.tanh(x)
    factor = adapter.downsample_factor
    down = np.stack([x[i : i + factor].mean(axis=0) for i in range(0, len(x), factor)])
    proj = down @ adapter.w_proj + adapter.b_proj
    return backbone_forward(proj, backbone).mean(axis=0)


def forward_item(features: np.ndarray, speech, adapter, backbone) -> tuple[np.ndarray, dict]:
    """One item's speech forward pass, unchecked, keeping every intermediate
    `backward_item` reads; the per-item reference of `training._forward`."""
    enc = encoder_layers(features, speech, (len(features),), adapter.downsample_factor)
    proj = enc[-1] @ adapter.w_proj + adapter.b_proj
    states, hidden = backbone_layers(proj, backbone, (len(proj),))
    return states[-1].mean(axis=0), {"enc": enc, "bb_tanh": hidden}


def backward_item(
    grad_e: np.ndarray, cache: dict, speech, adapter, backbone
) -> dict[str, np.ndarray]:
    """One item's trainable-tensor gradients given dL/de_s; the per-item
    reference of `training._backward`."""
    *enc, pooled, out = cache["enc"]
    n_rows = out.shape[0]
    g = np.broadcast_to(grad_e / n_rows, (n_rows, grad_e.size)).copy()
    for i in reversed(range(len(backbone.layers))):
        layer = backbone.layers[i]
        g = g + (g - g.mean(axis=0, keepdims=True))
        t = cache["bb_tanh"][i]
        g_t = g @ layer.w_out.T
        g_u = g_t * (1.0 - t * t)
        g = g + g_u @ layer.w_in.T

    grads: dict[str, np.ndarray] = {
        "adapter/w_proj": out.T @ g,
        "adapter/b_proj": g.sum(axis=0),
    }
    g = g @ adapter.w_proj.T

    # The last layer is linear and sees the pooled rows.
    n_layers = len(speech.layers)
    w, _ = speech.layers[-1]
    grads[f"encoder/{n_layers - 1}/w"] = pooled.T @ g
    grads[f"encoder/{n_layers - 1}/b"] = g.sum(axis=0)
    g = g @ w.T

    # The window mean hands each frame its window's gradient over the
    # window's length.
    factor = adapter.downsample_factor
    frames = enc[-1].shape[0]
    starts = np.arange(0, frames, factor)
    counts = np.minimum(starts + factor, frames) - starts
    g = np.repeat(g / counts[:, None].astype(g.dtype), counts, axis=0)

    for k in reversed(range(n_layers - 1)):
        w, _ = speech.layers[k]
        act = enc[k + 1]
        g_z = g * (1.0 - act * act)
        grads[f"encoder/{k}/w"] = enc[k].T @ g_z
        grads[f"encoder/{k}/b"] = g_z.sum(axis=0)
        g = g_z @ w.T
    return grads


def item_loss_and_grads(items, speech, adapter, backbone) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cosine loss and its gradients, one item at a time; the reference
    of `training.loss_and_grads`."""
    total_loss = 0.0
    acc: dict[str, np.ndarray] = {}
    for features, target in items:
        e_s, cache = forward_item(features, speech, adapter, backbone)
        loss, grad_e = _cosine_loss_grad(e_s, target)
        total_loss += loss
        for name, g in backward_item(grad_e, cache, speech, adapter, backbone).items():
            acc[name] = acc[name] + g if name in acc else g
    scale = 1.0 / len(items)
    return total_loss * scale, {name: g * scale for name, g in acc.items()}


def reference_train(train_corpus, val_corpus, config, model):
    """The counter-based training loop; the reference of `training.train`.
    Micro-batch gradients are accumulated in place, and an Adam step is
    taken after every grad_accum_steps micro-batches and after the epoch's
    last micro-batch, on the mean over the micro-batches since the previous
    step. It calls the same `loss_and_grads`, `adam_step` and
    `evaluate_loss`. Returns the best epoch's checkpoint and the epoch rows
    without `elapsed_s`."""
    train_items = training._corpus_items(train_corpus, model)
    val_items = training._corpus_items(val_corpus, model)
    tensors = dict(training.trainable_tensors(model.speech, model.adapter))
    n_enc, factor = len(model.speech.layers), model.adapter.downsample_factor
    state = training.AdamState.init(tensors)
    stopper = training.EarlyStopper(patience=config.patience)
    best_tensors = {k: v.copy() for k, v in tensors.items()}
    rng = np.random.default_rng([config.seed, 20])
    history = []
    speech, adapter = training.params_from_tensors(tensors, n_enc, factor)
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_items))
        acc_grads = None
        acc_count = 0
        adam_steps = 0
        epoch_loss = 0.0
        n_seen = 0
        for start in range(0, len(order), config.batch_size):
            batch = [train_items[i] for i in order[start : start + config.batch_size]]
            loss, grads = training.loss_and_grads(batch, speech, adapter, model.backbone)
            epoch_loss += loss * len(batch)
            n_seen += len(batch)
            if acc_grads is None:
                acc_grads = grads
            else:
                for name, g in grads.items():
                    acc_grads[name] += g
            acc_count += 1
            is_last = start + config.batch_size >= len(order)
            if acc_count == config.grad_accum_steps or is_last:
                mean_grads = {name: g / acc_count for name, g in acc_grads.items()}
                tensors, state = training.adam_step(tensors, mean_grads, state, config)
                adam_steps += 1
                speech, adapter = training.params_from_tensors(tensors, n_enc, factor)
                acc_grads = None
                acc_count = 0
        val_loss = training.evaluate_loss(val_items, speech, adapter, model.backbone)
        row = {"epoch": epoch, "train_loss": epoch_loss / n_seen, "val_loss": val_loss,
               "adam_steps": adam_steps}
        should_stop = stopper.update(epoch, val_loss)
        if stopper.best_epoch == epoch:
            best_tensors = {k: v.copy() for k, v in tensors.items()}
        if should_stop or epoch == config.max_epochs:
            row["stop_reason"] = "patience" if should_stop else "max_epochs"
        history.append(row)
        if should_stop:
            break
    best_speech, best_adapter = training.params_from_tensors(best_tensors, n_enc, factor)
    checkpoint = training.Checkpoint(
        model=replace(model, speech=best_speech, adapter=best_adapter),
        train_config=config,
        best_val_loss=stopper.best,
        epoch=stopper.best_epoch,
    )
    return checkpoint, history


# ---------------------------------------------------------------------------
# Per-query reports built as whole lists
# ---------------------------------------------------------------------------


def _listed_hits(corpus, mode, model, k, corruption, snr_db=None, noise_seed=0):
    ids, matrix, contexts = passage_embeddings(
        corpus, mode, model, corruption=corruption, snr_db=snr_db, noise_seed=noise_seed
    )
    index = build(ids, matrix)
    hits = [
        (f"q{qi:04d}", q, search(index, model.embed_text(q.text), k))
        for qi, q in enumerate(corpus.queries)
    ]
    return contexts, hits


def listed_retrieval_rows(corpus, mode, model, k, corruption=None, snr_db=None, noise_seed=0):
    """Every row of retrieval_<mode>.jsonl at depth k, built as one list
    after every query is searched."""
    _, hits = _listed_hits(corpus, mode, model, k, corruption, snr_db, noise_seed)
    return [
        {
            "query_key": key,
            "query": q.text,
            "relevant_id": q.relevant_passage_id,
            "ranked_ids": ranked,
            "scores": [round(score, 6) for score in scores],
            "relevant_rank": next((pos for pos, pid in enumerate(ranked, start=1)
                                   if pid == q.relevant_passage_id), None),
        }
        for key, q, (ranked, scores) in hits
    ]


def listed_traces(corpus, mode, model, k, generator, corruption=None,
                  instruction=DEFAULT_INSTRUCTION):
    """Every row of traces_<mode>.jsonl, one generator call per query in
    query order, built as one list."""
    contexts, hits = _listed_hits(corpus, mode, model, k, corruption)
    traces = []
    for key, q, (ranked, _) in hits:
        ctx = [contexts[pid] for pid in ranked]
        try:
            answer = generator(
                GenerationRequest(query=q.text, contexts=tuple(ctx), instruction=instruction)
            )
            error = None
        except Exception as exc:
            answer, error = "", f"{type(exc).__name__}: {exc}"
        traces.append({
            "query_key": key, "query": q.text, "gold_answer": q.gold_answer,
            "relevant_id": q.relevant_passage_id, "retrieved_ids": ranked,
            "contexts": ctx, "answer": answer, "error": error,
        })
    return traces


def listed_generation_rows(traces, judge=None):
    """Every row of generation_<mode>_rows.jsonl for a list of traces."""
    judge = judge or MockJudge()
    rows = []
    for trace in traces:
        em = correct = judge_error = None
        if trace["error"] is None:
            em = exact_match(trace["answer"], trace["gold_answer"])
            try:
                correct = judge(trace["query"], trace["answer"], trace["gold_answer"])
            except Exception as exc:
                judge_error = f"{type(exc).__name__}: {exc}"
        rows.append({
            "query_key": trace["query_key"], "query": trace["query"],
            "gold_answer": trace["gold_answer"], "answer": trace["answer"],
            "exact_match": em, "correct": correct, "retrieved_ids": trace["retrieved_ids"],
            "relevant_id": trace["relevant_id"], "generator_error": trace["error"],
            "judge_error": judge_error,
        })
    return rows


def jsonl_bytes(rows) -> bytes:
    """A JSONL report's bytes: one sorted-key JSON object per line."""
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode("utf-8")
