"""The two embedding branches sharing one frozen backbone.

Text branch: tokens -> token embeddings -> backbone -> mean pool -> e_t.
Speech branch: log-mel features -> the speech encoder's tanh layers ->
per-sequence window mean (the adapter's downsample) -> the encoder's last,
linear layer -> the adapter's projection -> backbone -> mean pool -> e_s.
Pooling before the last layer rather than after it is exact in real
arithmetic, because a mean commutes with an affine map; it runs that layer
on a quarter of the rows at the default factor of 4.

The backbone is a small fixed-seed residual mixer. It is frozen: training
never writes to it, and it is regenerated bit-exactly from its seed, once
per process for each shape, seed and dtype, as read-only arrays.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .adapter import AdapterParams, downsample, project
from .dsp import AudioSignal, FeatureConfig, logmel

UNK = "<unk>"

# Initialization scales. The first speech-encoder layer sees raw log-mel
# values (magnitudes up to ~5 across 40 dims), so it must be small enough to
# keep tanh units out of saturation. Token embeddings carry a shared
# component several times the per-token spread: embedding spaces of large
# text retrievers are strongly anisotropic, and the shared direction is what
# a small speech branch can acquire quickly.
TOKEN_EMBED_STD = 1.0
TOKEN_EMBED_COMMON = 6.0
MIXER_STD = 0.0625
ENCODER_INPUT_STD = 0.3

_WORD_RE = re.compile(r"[a-z0-9]+")


def words(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs."""
    return _WORD_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]

    def __post_init__(self):
        if UNK not in self.tokens:
            raise ValueError(f"vocab must contain {UNK!r}")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocab tokens must be unique")

    @property
    def size(self) -> int:
        return len(self.tokens)

    @cached_property
    def index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.tokens)}

    @property
    def unk_id(self) -> int:
        return self.index[UNK]

    @classmethod
    def from_words(cls, word_iter) -> "Vocab":
        uniq = sorted({w for w in word_iter if w != UNK})
        return cls(tokens=tuple(uniq) + (UNK,))


def tokenize(text: str, vocab: Vocab) -> list[int]:
    index = vocab.index
    unk = vocab.unk_id
    return [index.get(w, unk) for w in words(text)]


@dataclass(frozen=True)
class MixerLayer:
    w_in: np.ndarray
    b_in: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray


@dataclass(frozen=True)
class BackboneParams:
    token_embedding: np.ndarray
    layers: tuple[MixerLayer, ...]
    seed: int

    @property
    def hidden_dim(self) -> int:
        return self.token_embedding.shape[1]


@dataclass(frozen=True)
class SpeechEncoderParams:
    """Affine+tanh stack; the final layer is linear so the adapter input does
    not saturate."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]  # (weight, bias) pairs


def make_backbone(
    vocab_size: int,
    hidden_dim: int = 64,
    n_layers: int = 2,
    seed: int = 0,
    dtype=np.float32,
) -> BackboneParams:
    """Generate the frozen backbone bit-exactly from its seed.

    The draw order (token embedding, then per-layer w_in and w_out) is part
    of the checkpoint contract: checkpoints store only the seed and dims.
    The last eight (vocab size, width, layers, seed, dtype) keys are kept,
    so a process generates each once, and every call with it shares the
    same read-only arrays.
    """
    return _backbone(vocab_size, hidden_dim, n_layers, seed, np.dtype(dtype))


@lru_cache(maxsize=8)
def _backbone(vocab_size: int, hidden_dim: int, n_layers: int, seed: int,
              dtype: np.dtype) -> BackboneParams:
    rng = np.random.default_rng([seed, 10])
    common = rng.normal(0.0, 1.0, hidden_dim)
    common *= TOKEN_EMBED_COMMON / np.linalg.norm(common)
    token_embedding = common + rng.normal(0.0, TOKEN_EMBED_STD, (vocab_size, hidden_dim))
    layers = []
    for _ in range(n_layers):
        w_in = rng.normal(0.0, MIXER_STD, (hidden_dim, hidden_dim))
        w_out = rng.normal(0.0, MIXER_STD, (hidden_dim, hidden_dim))
        layers.append(
            MixerLayer(
                w_in=w_in.astype(dtype),
                b_in=np.zeros(hidden_dim, dtype=dtype),
                w_out=w_out.astype(dtype),
                b_out=np.zeros(hidden_dim, dtype=dtype),
            )
        )
    params = BackboneParams(
        token_embedding=token_embedding.astype(dtype), layers=tuple(layers), seed=seed
    )
    params.token_embedding.flags.writeable = False
    for layer in params.layers:
        for arr in vars(layer).values():
            arr.flags.writeable = False
    return params


def make_speech_encoder(
    n_mels: int = 40,
    encoder_dim: int = 64,
    n_layers: int = 2,
    seed: int = 0,
    dtype=np.float32,
) -> SpeechEncoderParams:
    rng = np.random.default_rng([seed, 11])
    dims = [n_mels] + [encoder_dim] * n_layers
    layers = []
    for k in range(n_layers):
        fan_in, fan_out = dims[k], dims[k + 1]
        std = ENCODER_INPUT_STD if k == 0 else 1.0 / np.sqrt(fan_in)
        w = rng.normal(0.0, std, (fan_in, fan_out))
        layers.append((w.astype(dtype), np.zeros(fan_out, dtype=dtype)))
    return SpeechEncoderParams(layers=tuple(layers))


def backbone_checksum(params: BackboneParams) -> str:
    digest = hashlib.sha256()
    digest.update(str(params.seed).encode())
    digest.update(np.ascontiguousarray(params.token_embedding).tobytes())
    for layer in params.layers:
        for arr in (layer.w_in, layer.b_in, layer.w_out, layer.b_out):
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def segments(x: np.ndarray, lengths: Sequence[int]) -> Iterator[np.ndarray]:
    """Views of the consecutive row blocks of `x` with the given row counts."""
    start = 0
    for n in lengths:
        yield x[start : start + n]
        start += n


def mix_tokens(x: np.ndarray, lengths: Sequence[int]) -> None:
    """Token mixing, in place, of the sequences stacked row-wise in `x` with
    the given row counts: each row gains its difference from its own
    sequence's mean row. The map is self-adjoint, so the training backward
    pass applies it to gradients too. The mean is taken as a sum divided by
    the Python int count: the same bits as `ndarray.mean` in the array's
    dtype, at less per-call cost."""
    for seq in segments(x, lengths):
        seq += seq - seq.sum(axis=0, keepdims=True) / len(seq)


def backbone_layers(
    x: np.ndarray, params: BackboneParams, lengths: Sequence[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The frozen mixer's layer loop, unchecked, on sequences stacked
    row-wise in `x` with the given row counts; a single sequence passes
    `(len(x),)`. Every step but the token mixing is rowwise, so a stacked
    sequence's rows come out as they would alone.

    Returns the residual stream before and after each layer (its last entry
    is the output) and each layer's tanh activations: everything the
    training backward pass reads.
    """
    states = [x]
    hidden = []
    for layer in params.layers:
        h = np.tanh(x @ layer.w_in + layer.b_in)
        hidden.append(h)
        x = x + h @ layer.w_out + layer.b_out
        mix_tokens(x, lengths)
        states.append(x)
    return states, hidden


def backbone_forward(seq: np.ndarray, params: BackboneParams) -> np.ndarray:
    """Apply the frozen residual mixer to a T x H sequence.

    Per layer: rowwise residual update x <- x + tanh(x W_in + b_in) W_out
    + b_out, then token mixing: the mean across the T rows is subtracted from
    each row as a residual update (x <- x + (x - rowmean)). The mixing
    contribution vanishes for a single row, so a T=1 sequence passes through
    the pure rowwise residual map, and the mixing commutes with mean pooling
    (it sharpens rows against their context without destroying the pooled
    content).
    """
    return backbone_layers(seq, params, (len(seq),))[0][-1]


def pool(seq: np.ndarray) -> np.ndarray:
    """The mean row, taken as `mix_tokens` takes it."""
    return seq.sum(axis=0) / len(seq)


def embed_text(text: str, vocab: Vocab, backbone: BackboneParams) -> np.ndarray:
    ids = tokenize(text, vocab)
    if not ids:
        raise ValueError(f"text {text!r} is empty after tokenization")
    seq = backbone.token_embedding[ids]
    return pool(backbone_forward(seq, backbone))


def encoder_layers(
    x: np.ndarray, params: SpeechEncoderParams, lengths: Sequence[int], factor: int
) -> list[np.ndarray]:
    """The speech encoder's layer loop, unchecked, on log-mel frames of
    sequences stacked row-wise in `x` with the given row counts; a single
    sequence passes `(len(x),)`. The tanh layers run on the frames, then each
    sequence is downsampled on its own and the last (linear) layer runs on
    the pooled rows, which is exact in real arithmetic (see the module
    docstring).

    Returns the input, each tanh layer's output, the pooled input of the last
    layer and the output (the last entry): the inputs and activations the
    training backward pass reads.
    """
    states = [x]
    *hidden, (w, b) = params.layers
    for w_k, b_k in hidden:
        # In place: one new array per layer, the same bits as x @ w + b.
        x = x @ w_k
        x += b_k
        np.tanh(x, out=x)
        states.append(x)
    pooled = np.concatenate([downsample(seq, factor) for seq in segments(x, lengths)])
    out = pooled @ w
    out += b
    states += [pooled, out]
    return states


def speech_encode(features: np.ndarray, params: SpeechEncoderParams, factor: int) -> np.ndarray:
    """One sequence's encoder output at the downsampled rate: ceil(T/factor)
    rows."""
    x = features.astype(params.layers[0][0].dtype, copy=False)
    return encoder_layers(x, params, (len(x),), factor)[-1]


def embed_speech(
    signal: AudioSignal,
    cfg: FeatureConfig,
    speech_params: SpeechEncoderParams,
    adapter_params: AdapterParams,
    backbone: BackboneParams,
) -> np.ndarray:
    feats = logmel(signal, cfg)
    encoded = speech_encode(feats, speech_params, adapter_params.downsample_factor)
    projected = project(encoded, adapter_params)
    return pool(backbone_forward(projected, backbone))


@dataclass(frozen=True)
class RetrieverModel:
    """Bundle of everything needed to embed either modality. Building one
    checks once the shapes its layer functions rely on: n_mels through each
    encoder layer and the projection to the backbone width, a token row per
    vocab entry, and one dtype for every tensor."""

    vocab: Vocab
    backbone: BackboneParams
    speech: SpeechEncoderParams
    adapter: AdapterParams
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)

    def __post_init__(self):
        if not self.speech.layers:
            raise ValueError("the speech encoder needs at least one layer")
        if self.adapter.downsample_factor < 1:
            raise ValueError("downsample_factor must be >= 1")
        if (rows := len(self.backbone.token_embedding)) != self.vocab.size:
            raise ValueError(f"token embedding has {rows} rows for a vocab of {self.vocab.size}")
        width = self.feature_config.n_mels
        for k, (w, b) in enumerate(self.speech.layers):
            if w.ndim != 2 or w.shape[0] != width or b.shape != w.shape[1:]:
                raise ValueError(f"encoder layer {k}: weight {w.shape} and bias {b.shape} "
                                 f"do not take input width {width}")
            width = w.shape[1]
        w_proj, b_proj, hidden = self.adapter.w_proj, self.adapter.b_proj, self.backbone.hidden_dim
        if w_proj.shape != (width, hidden) or b_proj.shape != (hidden,):
            raise ValueError(f"projection {w_proj.shape} and bias {b_proj.shape} do not map "
                             f"encoder width {width} to backbone width {hidden}")
        tensors = [self.backbone.token_embedding, w_proj, b_proj]
        tensors += [arr for layer in self.speech.layers for arr in layer]
        tensors += [arr for layer in self.backbone.layers for arr in vars(layer).values()]
        if len(dtypes := {arr.dtype for arr in tensors}) != 1:
            raise ValueError(f"model tensors mix dtypes {sorted(map(str, dtypes))}")

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every tensor of the model."""
        return self.adapter.w_proj.dtype

    def embed_text(self, text: str) -> np.ndarray:
        return embed_text(text, self.vocab, self.backbone)

    def embed_speech(self, signal: AudioSignal) -> np.ndarray:
        return embed_speech(signal, self.feature_config, self.speech, self.adapter, self.backbone)
