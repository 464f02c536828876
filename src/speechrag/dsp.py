"""Audio I/O, log-mel feature extraction, and SNR-calibrated noise injection.

All operations are pure functions of their inputs (and seed, where one is
taken), so batches may be processed in parallel without coordination.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PCM_SCALE = 32768.0


@dataclass(frozen=True)
class AudioSignal:
    """Mono waveform. Samples are real-valued; PCM-sourced audio lies in
    [-1, 1] but noise-injected signals may exceed that range (clamping
    would change the effective SNR, so only write_wav clamps)."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if samples.ndim != 1:
            raise ValueError(f"expected mono 1-D samples, got shape {samples.shape}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("samples contain non-finite values")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class FeatureConfig:
    frame_len: float = 0.025
    hop: float = 0.020
    n_mels: int = 40
    fft_size: int = 512
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.hop > self.frame_len:
            raise ValueError("hop must not exceed frame_len")
        if self.hop <= 0 or self.frame_len <= 0:
            raise ValueError("frame_len and hop must be positive")
        if self.n_mels < 1:
            raise ValueError("n_mels must be >= 1")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")

    def frame_samples(self, sample_rate: int) -> int:
        return int(round(self.frame_len * sample_rate))

    def hop_samples(self, sample_rate: int) -> int:
        return int(round(self.hop * sample_rate))


@dataclass(frozen=True)
class FeatureMatrix:
    """T x n_mels log-mel energies plus the hop that produced them."""

    data: np.ndarray
    frame_hop: float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 2:
            raise ValueError(f"expected 2-D feature matrix, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("feature matrix contains non-finite values")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]


def read_wav(path) -> AudioSignal:
    """Read a PCM16 mono WAV file. int16 -> float by division by 32768."""
    try:
        with wave.open(str(path), "rb") as fh:
            n_channels = fh.getnchannels()
            sampwidth = fh.getsampwidth()
            sample_rate = fh.getframerate()
            n_frames = fh.getnframes()
            raw = fh.readframes(n_frames)
    except (wave.Error, EOFError) as exc:
        # A file cut inside its header ends wave's chunk reader with a bare EOFError.
        reason = str(exc) or "truncated header"
        raise ValueError(f"corrupt or unsupported WAV file {path}: {reason}") from exc
    if n_channels != 1:
        raise ValueError(f"unsupported channel count {n_channels} in {path}: mono required")
    if sampwidth != 2:
        raise ValueError(f"unsupported sample width {sampwidth} in {path}: PCM16 required")
    ints = np.frombuffer(raw, dtype="<i2")
    return AudioSignal(ints.astype(np.float64) / PCM_SCALE, sample_rate)


def write_wav(path, signal: AudioSignal) -> None:
    """Write PCM16 mono. float -> int16 by multiplication by 32768 with
    clamping; round-trip error is at most 1/32768 per sample."""
    scaled = np.rint(signal.samples * PCM_SCALE)
    clamped = np.clip(scaled, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(signal.sample_rate)
        fh.writeframes(clamped.tobytes())


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_center_frequencies(n_mels: int, sample_rate: int) -> np.ndarray:
    """Center frequency (Hz) of each triangular mel filter, 0 Hz to Nyquist."""
    edges = np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2)
    return mel_to_hz(edges[1:-1])


def mel_filterbank(n_mels: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """Triangular filters (n_mels x fft_size//2+1) with unit peaks, spaced
    uniformly on the mel scale between 0 Hz and Nyquist."""
    n_bins = fft_size // 2 + 1
    fft_freqs = np.arange(n_bins) * sample_rate / fft_size
    edges_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2))
    bank = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, center, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (fft_freqs - lo) / (center - lo)
        falling = (hi - fft_freqs) / (hi - center)
        bank[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


@lru_cache(maxsize=8)
def _frontend(frame: int, n_mels: int, fft_size: int, sample_rate: int):
    """The Hann window and mel filterbank of one feature shape, built once
    and shared read-only by every logmel call with that shape."""
    window = np.hanning(frame)
    bank = mel_filterbank(n_mels, fft_size, sample_rate)
    window.flags.writeable = False
    bank.flags.writeable = False
    return window, bank


def logmel(signal: AudioSignal, cfg: FeatureConfig | None = None) -> FeatureMatrix:
    """Per frame: Hann window -> power spectrum -> triangular mel filterbank
    -> natural log of (energy + log_floor).

    Frame count is floor((len - frame_len) / hop) + 1. Filtering the power
    spectrum makes the output covariant under amplitude scaling: multiplying
    the signal by c adds 2*ln(c) to every entry whose energy dominates the
    log floor.
    """
    cfg = cfg or FeatureConfig()
    sr = signal.sample_rate
    frame = cfg.frame_samples(sr)
    hop = cfg.hop_samples(sr)
    if signal.samples.size < frame:
        raise ValueError(
            f"signal of {signal.samples.size} samples is shorter than one "
            f"{frame}-sample frame"
        )
    if cfg.fft_size < frame:
        raise ValueError(f"fft_size {cfg.fft_size} smaller than frame of {frame} samples")
    # Every hop-th window: floor((len - frame) / hop) + 1 frames.
    frames = np.lib.stride_tricks.sliding_window_view(signal.samples, frame)[::hop]
    window, bank = _frontend(frame, cfg.n_mels, cfg.fft_size, sr)
    spectrum = np.fft.rfft(frames * window, n=cfg.fft_size, axis=1)
    power = np.abs(spectrum) ** 2
    energies = power @ bank.T
    return FeatureMatrix(np.log(energies + cfg.log_floor), cfg.hop)


def add_noise_snr(signal: AudioSignal, snr_db: float, seed: int) -> AudioSignal:
    """Add zero-mean Gaussian noise with variance P_signal / 10^(snr/10).

    The drawn noise is rescaled so its realized power hits the target
    variance exactly, which keeps the measured SNR within the +-0.1 dB
    calibration contract for every seed rather than only in expectation.
    snr_db = +inf is the no-noise sentinel. The output is intentionally not
    clamped to [-1, 1].
    """
    if math.isinf(snr_db) and snr_db > 0:
        return AudioSignal(signal.samples.copy(), signal.sample_rate)
    p_signal = float(np.mean(signal.samples**2))
    if p_signal == 0.0:
        raise ValueError("cannot set an SNR against a zero-power signal")
    variance = p_signal / (10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 1.0, signal.samples.size)
    noise *= math.sqrt(variance / float(np.mean(noise**2)))
    return AudioSignal(signal.samples + noise, signal.sample_rate)


def measure_snr(clean: AudioSignal, noisy: AudioSignal) -> float:
    """10*log10(P_clean / P_noise) with noise = noisy - clean.

    Returns +inf when the residual is exactly zero.
    """
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
