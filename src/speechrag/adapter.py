"""Speech adapter: temporal average-pool downsampler plus a projection into
the backbone embedding dimension.
The encoder's layer loop calls the downsampler before its last (linear)
layer; the projection maps the encoder output into the backbone."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The projection starts near zero so that low-learning-rate training
# dominates the initial direction of e_s.
PROJ_STD = 1e-3


@dataclass(frozen=True)
class AdapterParams:
    w_proj: np.ndarray  # D_enc x H
    b_proj: np.ndarray  # H
    downsample_factor: int = 4


def make_adapter(
    encoder_dim: int = 64,
    hidden_dim: int = 64,
    downsample_factor: int = 4,
    seed: int = 0,
    dtype=np.float32,
    proj_std: float | None = None,
) -> AdapterParams:
    rng = np.random.default_rng([seed, 12])
    w = rng.normal(0.0, proj_std if proj_std is not None else PROJ_STD, (encoder_dim, hidden_dim))
    return AdapterParams(
        w_proj=w.astype(dtype),
        b_proj=np.zeros(hidden_dim, dtype=dtype),
        downsample_factor=downsample_factor,
    )


def downsample(seq: np.ndarray, factor: int) -> np.ndarray:
    """Average consecutive non-overlapping windows of `factor` rows; a final
    partial window is averaged over its actual length. Output has exactly
    ceil(T / factor) rows, in the dtype of `seq`."""
    n_full, tail = divmod(len(seq), factor)
    out = np.empty((n_full + (tail > 0), *seq.shape[1:]), seq.dtype)
    seq[: n_full * factor].reshape(n_full, factor, *seq.shape[1:]).sum(axis=1, out=out[:n_full])
    out[:n_full] /= factor
    if tail:
        seq[n_full * factor :].sum(axis=0, out=out[n_full])
        out[n_full] /= tail
    return out


def project(seq: np.ndarray, params: AdapterParams) -> np.ndarray:
    return seq @ params.w_proj + params.b_proj
