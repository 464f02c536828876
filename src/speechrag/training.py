"""Distillation training of the speech branch against frozen text targets.

The objective is the cosine embedding loss 1 - cos(e_s, e_t), averaged over a
batch of (audio passage, ground-truth transcript) pairs. Gradients are exact
reverse-mode derivatives through pool -> backbone -> project -> the speech
encoder's last (linear) layer -> downsample -> its tanh layers, the inference
order, hand-written against the fixed computation graph (feature extraction
has no parameters and is not differentiated). So the last layer and the
projection see only the pooled rows, a quarter of the frames at the default
factor, in the forward and the backward pass. The backbone and token
embeddings receive no gradient and are never mutated.

Training runs in the precision of the model it is given (single precision
from the CLI); gradient checking takes a double-precision model and compares
against central differences.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .adapter import AdapterParams, make_adapter
from .corpus import Corpus
from .dsp import FeatureConfig, logmel
from .encoder import (
    BackboneParams,
    RetrieverModel,
    SpeechEncoderParams,
    Vocab,
    backbone_layers,
    embed_text,
    encoder_layers,
    make_backbone,
    make_speech_encoder,
    mix_tokens,
    pool,
    segments,
)

NORM_GUARD = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 4
    grad_accum_steps: int = 16
    max_epochs: int = 20
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("lr", "eps"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails
                raise ValueError(f"{name} must be positive and finite")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        for name in ("batch_size", "grad_accum_steps", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


# ---------------------------------------------------------------------------
# Trainable-tensor plumbing: gradients, Adam state, and checkpoints all key
# tensors by name ("encoder/<k>/w", "encoder/<k>/b", "adapter/w_proj",
# "adapter/b_proj").
# ---------------------------------------------------------------------------


def trainable_tensors(
    speech: SpeechEncoderParams, adapter: AdapterParams
) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {}
    for k, (w, b) in enumerate(speech.layers):
        tensors[f"encoder/{k}/w"] = w
        tensors[f"encoder/{k}/b"] = b
    tensors["adapter/w_proj"] = adapter.w_proj
    tensors["adapter/b_proj"] = adapter.b_proj
    return tensors


def params_from_tensors(
    tensors: dict[str, np.ndarray], n_encoder_layers: int, downsample_factor: int
) -> tuple[SpeechEncoderParams, AdapterParams]:
    layers = tuple(
        (tensors[f"encoder/{k}/w"], tensors[f"encoder/{k}/b"])
        for k in range(n_encoder_layers)
    )
    speech = SpeechEncoderParams(layers=layers)
    adapter = AdapterParams(
        w_proj=tensors["adapter/w_proj"],
        b_proj=tensors["adapter/b_proj"],
        downsample_factor=downsample_factor,
    )
    if extra := tensors.keys() - trainable_tensors(speech, adapter).keys():
        raise ValueError(f"unexpected tensors {sorted(extra)}")
    return speech, adapter


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, tensors: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(arr) for k, arr in tensors.items()},
            v={k: np.zeros_like(arr) for k, arr in tensors.items()},
        )


def adam_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """Standard Adam with bias correction; tensors are updated elementwise
    and independently of one another."""
    state.t += 1
    t = state.t
    updated: dict[str, np.ndarray] = {}
    for name, theta in tensors.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ValueError(f"{name}: gradient shape {g.shape} != parameter shape {theta.shape}")
        state.m[name] = config.beta1 * state.m[name] + (1 - config.beta1) * g
        state.v[name] = config.beta2 * state.v[name] + (1 - config.beta2) * g * g
        m_hat = state.m[name] / (1 - config.beta1**t)
        v_hat = state.v[name] / (1 - config.beta2**t)
        updated[name] = theta - config.lr * m_hat / (np.sqrt(v_hat) + config.eps)
    return updated, state


# ---------------------------------------------------------------------------
# Loss and exact gradients
# ---------------------------------------------------------------------------


def _cosine_loss_grad(e_s: np.ndarray, e_t: np.ndarray) -> tuple[float, np.ndarray]:
    """The loss 1 - cos(e_s, e_t) and dL/de_s, differentiating the guarded
    expression exactly. Norms are guarded with 1e-12 so silence-only
    embeddings cannot produce NaN; the loss lies in [0, 2]."""
    r = math.sqrt(float(e_s @ e_s))
    rt = math.sqrt(float(e_t @ e_t))
    ns, nt = r + NORM_GUARD, rt + NORM_GUARD
    cos = float(e_s @ e_t) / (ns * nt)
    if r > 0.0:
        grad = -(e_t / (ns * nt) - (cos / ns) * (e_s / r))
    else:
        grad = -e_t / (ns * nt)
    return 1.0 - cos, grad


def _first_non_finite(arrays: list[np.ndarray]) -> int | None:
    """The index of the first array that holds a non-finite value, if any."""
    return next((i for i, x in enumerate(arrays) if not np.all(np.isfinite(x))), None)


def _forward(
    features: list[np.ndarray], speech, adapter, backbone
) -> tuple[list[np.ndarray], dict]:
    """The speech branch's forward pass over a batch's items, their feature
    rows stacked. It runs inference's encoder and backbone layer loops, which
    downsample each item on its own, so each item's embedding is the one
    inference computes. It checks the activations stage by stage and names
    the first stage that holds a non-finite value. Returns each item's pooled
    embedding and every intermediate the backward pass reads."""
    factor = adapter.downsample_factor
    n_frames = [len(f) for f in features]
    enc = encoder_layers(np.concatenate(features), speech, n_frames, factor)
    # The layer outputs: the tanh layers', then the last layer's; the entry
    # between them is the last layer's pooled input.
    if (k := _first_non_finite([*enc[1:-2], enc[-1]])) is not None:
        raise FloatingPointError(f"non-finite activations after encoder layer {k}")
    proj = enc[-1] @ adapter.w_proj + adapter.b_proj
    if not np.all(np.isfinite(proj)):
        raise FloatingPointError("non-finite activations after adapter projection")
    lengths = [-(-n // factor) for n in n_frames]
    states, hidden = backbone_layers(proj, backbone, lengths)
    if (i := _first_non_finite(states[1:])) is not None:
        raise FloatingPointError(f"non-finite activations after backbone layer {i}")
    embeddings = [pool(seq) for seq in segments(states[-1], lengths)]
    # Frames per pooled row: `factor`, except in an item's last window, which
    # holds what is left of the item.
    windows = []
    for n in n_frames:
        full, tail = divmod(n, factor)
        windows += [factor] * full + [tail] * (tail > 0)
    cache = {"enc": enc, "bb_tanh": hidden, "lengths": lengths, "windows": np.array(windows)}
    return embeddings, cache


def _backward(
    grad_rows: np.ndarray, cache: dict, speech, adapter, backbone
) -> dict[str, np.ndarray]:
    """Gradients of the trainable tensors given each item's gradient at its
    downsampled rows (`grad_rows`, one row per item). Every weight and bias
    gradient is one product or sum over all stacked rows; the encoder's last
    layer and the projection see the pooled rows only."""
    g = np.repeat(grad_rows, cache["lengths"], axis=0)
    for i in reversed(range(len(backbone.layers))):
        layer = backbone.layers[i]
        mix_tokens(g, cache["lengths"])
        t = cache["bb_tanh"][i]
        g_t = g @ layer.w_out.T
        g_u = g_t * (1.0 - t * t)
        g = g + g_u @ layer.w_in.T

    *enc, pooled, out = cache["enc"]
    grads: dict[str, np.ndarray] = {
        "adapter/w_proj": out.T @ g,
        "adapter/b_proj": g.sum(axis=0),
    }
    g = g @ adapter.w_proj.T
    last = len(speech.layers) - 1
    w, _ = speech.layers[last]
    grads[f"encoder/{last}/w"] = pooled.T @ g
    grads[f"encoder/{last}/b"] = g.sum(axis=0)
    if last == 0:  # nothing reads the gradient of the features
        return grads
    g = g @ w.T
    windows = cache["windows"]
    g = np.repeat(g / windows[:, None].astype(g.dtype), windows, axis=0)
    for k in reversed(range(last)):
        w, _ = speech.layers[k]
        g = g * (1.0 - enc[k + 1] * enc[k + 1])
        grads[f"encoder/{k}/w"] = enc[k].T @ g
        grads[f"encoder/{k}/b"] = g.sum(axis=0)
        if k > 0:
            g = g @ w.T
    return grads


def loss_and_grads(
    items: list[tuple[np.ndarray, np.ndarray]],
    speech: SpeechEncoderParams,
    adapter: AdapterParams,
    backbone: BackboneParams,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cosine loss and its exact gradients over (features, target)
    items, taken in one stacked forward and backward pass."""
    if not items:
        raise ValueError("empty batch")
    embeddings, cache = _forward([f for f, _ in items], speech, adapter, backbone)
    total_loss = 0.0
    grad_rows = []
    # Each item weighs 1/len(items) in the mean, and mean pooling spreads its
    # embedding's gradient evenly over its n downsampled rows.
    for e_s, (_, target), n in zip(embeddings, items, cache["lengths"]):
        loss, grad_e = _cosine_loss_grad(e_s, target)
        total_loss += loss
        grad_rows.append(grad_e / (n * len(items)))
    grads = _backward(np.stack(grad_rows), cache, speech, adapter, backbone)
    return total_loss / len(items), grads


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class EarlyStopper:
    """Stop when the tracked loss fails to improve for `patience` consecutive
    updates; remembers which update was best."""

    patience: int
    best: float = math.inf
    best_epoch: int = 0
    streak: int = 0

    def update(self, epoch: int, loss: float) -> bool:
        if loss < self.best:
            self.best = loss
            self.best_epoch = epoch
            self.streak = 0
        else:
            self.streak += 1
        return self.streak >= self.patience


@dataclass(frozen=True)
class Checkpoint:
    model: RetrieverModel
    train_config: TrainConfig
    best_val_loss: float
    epoch: int


def _corpus_items(corpus: Corpus, model: RetrieverModel) -> list[tuple[np.ndarray, np.ndarray]]:
    """(features, text target) per passage, in the model's dtype."""
    items = []
    for p in corpus.passages:
        signal = corpus.load_audio(p)
        feats = logmel(signal, model.feature_config).astype(model.dtype)
        target = embed_text(p.transcript, model.vocab, model.backbone).astype(model.dtype)
        items.append((feats, target))
    return items


def build_model(
    vocab: Vocab,
    hidden_dim: int = 64,
    encoder_dim: int = 64,
    encoder_layers: int = 2,
    backbone_layers: int = 2,
    downsample_factor: int = 4,
    feature_config: FeatureConfig | None = None,
    seed: int = 0,
    dtype=np.float32,
    proj_std: float | None = None,
) -> RetrieverModel:
    """Assemble a fresh model. `proj_std` overrides the near-zero training
    default; gradient checking uses a healthy scale there so finite
    differences probe a locally smooth loss."""
    cfg = feature_config or FeatureConfig()
    return RetrieverModel(
        vocab=vocab,
        backbone=make_backbone(vocab.size, hidden_dim, backbone_layers, seed, dtype),
        speech=make_speech_encoder(cfg.n_mels, encoder_dim, encoder_layers, seed, dtype),
        adapter=make_adapter(encoder_dim, hidden_dim, downsample_factor, seed, dtype, proj_std),
        feature_config=cfg,
    )


def train(
    train_corpus: Corpus,
    val_corpus: Corpus,
    config: TrainConfig,
    model: RetrieverModel,
    sink=None,
) -> Checkpoint:
    """Train `model`'s speech branch with the distillation recipe and return
    the best epoch's checkpoint. Each epoch walks a seeded shuffle of the
    training items in windows of batch_size x grad_accum_steps items; each
    window's micro-batch gradients are summed in order and one Adam step
    takes their mean over the window's micro-batches (a shorter last window
    is averaged over the micro-batches it holds). Validation loss is taken
    after every epoch, and training stops once it has not improved for
    `patience` epochs. One row per epoch goes to `sink`, with the epoch's
    number of Adam steps (`adam_steps`); the last row's `stop_reason` says
    why training stopped, "patience" or "max_epochs".
    The model's arrays are never written: every Adam step makes new ones.
    """
    if not train_corpus.passages or not val_corpus.passages:
        raise ValueError("train and val corpora must be non-empty")

    train_items = _corpus_items(train_corpus, model)
    val_items = _corpus_items(val_corpus, model)

    speech, adapter = model.speech, model.adapter
    tensors = trainable_tensors(speech, adapter)
    n_enc, factor = len(speech.layers), adapter.downsample_factor
    state = AdamState.init(tensors)
    stopper = EarlyStopper(patience=config.patience)
    best = model
    rng = np.random.default_rng([config.seed, 20])
    window = config.batch_size * config.grad_accum_steps
    started = time.monotonic()
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_items))
        epoch_loss = 0.0
        windows = range(0, len(order), window)  # one Adam step each
        for first in windows:
            starts = range(first, min(first + window, len(order)), config.batch_size)
            total = None
            for start in starts:
                batch = [train_items[i] for i in order[start : start + config.batch_size]]
                try:
                    loss, grads = loss_and_grads(batch, speech, adapter, model.backbone)
                except FloatingPointError as exc:
                    raise FloatingPointError(
                        f"epoch {epoch}, micro-batch at item {start}: {exc}"
                    ) from exc
                if not math.isfinite(loss):
                    raise FloatingPointError(
                        f"non-finite loss at epoch {epoch}, micro-batch at item {start}"
                    )
                epoch_loss += loss * len(batch)
                total = grads if total is None else {k: total[k] + g for k, g in grads.items()}
            mean = {k: g / len(starts) for k, g in total.items()}
            tensors, state = adam_step(tensors, mean, state, config)
            speech, adapter = params_from_tensors(tensors, n_enc, factor)

        val_loss = evaluate_loss(val_items, speech, adapter, model.backbone)
        row = {
            "epoch": epoch,
            "train_loss": epoch_loss / len(order),
            "val_loss": val_loss,
            "adam_steps": len(windows),
            "elapsed_s": time.monotonic() - started,
        }
        should_stop = stopper.update(epoch, val_loss)
        if stopper.best_epoch == epoch:
            best = replace(model, speech=speech, adapter=adapter)
        if should_stop or epoch == config.max_epochs:
            row["stop_reason"] = "patience" if should_stop else "max_epochs"
        if sink is not None:
            sink(row)
        if should_stop:
            break

    return Checkpoint(
        model=best, train_config=config, best_val_loss=stopper.best, epoch=stopper.best_epoch
    )


def evaluate_loss(items, speech, adapter, backbone) -> float:
    """Mean cosine loss over (features, target) items, taken in float64."""
    embeddings, _ = _forward([f for f, _ in items], speech, adapter, backbone)
    total = 0.0
    for e_s, (_, target) in zip(embeddings, items):
        total += _cosine_loss_grad(e_s.astype(np.float64), target.astype(np.float64))[0]
    return total / len(items)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


def grad_check(
    model: RetrieverModel,
    items: list[tuple[np.ndarray, np.ndarray]],
    probe_count: int = 5,
    eps: float = 1e-4,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central finite differences on
    `probe_count` randomly chosen scalar parameters per trainable tensor.
    Returns the maximum relative error, NaN if any probe's is NaN. The model
    must be double precision; probes perturb copies of its trainable tensors,
    never the model's own."""
    if model.dtype != np.float64:
        raise ValueError(f"grad_check needs a float64 model, got {model.dtype}")
    if probe_count < 1:
        raise ValueError(f"probe_count must be at least 1, got {probe_count}")
    if eps == 0 or not math.isfinite(eps):
        raise ValueError(f"eps must be nonzero and finite, got {eps}")
    tensors = {k: v.copy() for k, v in trainable_tensors(model.speech, model.adapter).items()}
    speech, adapter = params_from_tensors(
        tensors, len(model.speech.layers), model.adapter.downsample_factor
    )
    _, analytic = loss_and_grads(items, speech, adapter, model.backbone)

    rng = np.random.default_rng(seed)
    errors = []
    for name, theta in tensors.items():
        # `speech` and `adapter` hold these arrays, so edits through `flat`
        # reach the forward pass directly.
        flat = theta.reshape(-1)
        n_probe = min(probe_count, flat.size)
        for idx in rng.choice(flat.size, size=n_probe, replace=False):
            original = flat[idx]
            flat[idx] = original + eps
            loss_plus, _ = loss_and_grads(items, speech, adapter, model.backbone)
            flat[idx] = original - eps
            loss_minus, _ = loss_and_grads(items, speech, adapter, model.backbone)
            flat[idx] = original
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            a = float(analytic[name].reshape(-1)[idx])
            denom = max(abs(a), abs(numeric))
            errors.append(abs(a - numeric) if denom < 1e-8 else abs(a - numeric) / denom)
    # np.max, not max: max(0.0, nan) is 0.0, so a NaN error would pass.
    return float(np.max(errors))
