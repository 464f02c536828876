"""Audio I/O, log-mel feature extraction, and SNR-calibrated noise injection.

All operations are pure functions of their inputs (and seed, where one is
taken), so batches may be processed in parallel without coordination.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PCM_SCALE = 32768.0
_WAV_HEAD_BYTES = 256  # one read covers write_wav's header and a few small chunks
_WAVE_FORMAT_PCM = 0x0001
# write_wav's 44-byte header: RIFF, size, WAVE, a 16-byte fmt chunk (tag,
# channels, rate, byte rate, block align, bits), then the data chunk's id and size.
_PCM_HEADER = struct.Struct("<4sI4s4sIHHIIHH4sI")


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


@dataclass(frozen=True)
class FeatureConfig:
    frame_len: float = 0.025
    hop: float = 0.020
    n_mels: int = 40
    fft_size: int = 512
    log_floor: float = 1e-10

    def __post_init__(self):
        for name in ("frame_len", "hop", "log_floor"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails
                raise ValueError(f"{name} must be positive and finite")
        if self.hop > self.frame_len:
            raise ValueError("hop must not exceed frame_len")
        if self.n_mels < 1:
            raise ValueError("n_mels must be >= 1")

    def frame_samples(self, sample_rate: int) -> int:
        return int(round(self.frame_len * sample_rate))

    def hop_samples(self, sample_rate: int) -> int:
        return int(round(self.hop * sample_rate))


def _wav_header(fd: int, path) -> tuple[int, int, int, int, int]:
    """(sample rate, frame count, channels, sample width, data offset) of the
    WAV file open as descriptor `fd`. One read covers the header; a file in
    write_wav's 44-byte layout is recognised with one unpack, and any other
    goes through the RIFF chunk walk. Raises ValueError on a bad header and
    an OSError naming `path` when the first read fails (a directory opens,
    then fails to read)."""
    try:
        head = os.pread(fd, _WAV_HEAD_BYTES, 0)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    if len(head) >= _PCM_HEADER.size:
        riff, riff_size, wave, fmt, fmt_size, tag, channels, rate, _, _, bits, data, size = (
            _PCM_HEADER.unpack_from(head)
        )
        # The walk would check the same fields and reach `data` at byte 36.
        if ((riff, wave, fmt, fmt_size, data) == (b"RIFF", b"WAVE", b"fmt ", 16, b"data")
                and riff_size >= 36 and tag == _WAVE_FORMAT_PCM and channels and bits):
            sample_width = (bits + 7) // 8
            return rate, size // (channels * sample_width), channels, sample_width, _PCM_HEADER.size
    return _walk_riff(fd, head)


def _walk_riff(fd: int, head: bytes) -> tuple[int, int, int, int, int]:
    """_wav_header for any layout, given the file's first bytes. Walks the
    RIFF chunks with the checks wave.open makes: RIFF/WAVE magic, a PCM fmt
    chunk with nonzero sample width and channels before the data chunk,
    other chunks skipped with their odd-size pad byte, all bounded by the
    RIFF size."""

    def read_at(offset: int, n: int) -> bytes:
        if offset + n <= len(head):
            return head[offset : offset + n]
        return os.pread(fd, n, offset)

    if len(head) < 12:
        raise ValueError(f"truncated header ({len(head)} bytes)")
    if head[:4] != b"RIFF":
        raise ValueError("file does not start with RIFF id")
    (riff_size,) = struct.unpack_from("<I", head, 4)
    riff_end = 8 + riff_size
    if riff_size < 4 or head[8:12] != b"WAVE":
        raise ValueError("not a WAVE file")
    sample_width, pos = None, 12
    while pos + 8 <= riff_end:
        chunk = read_at(pos, 8)
        if len(chunk) < 8:
            break
        name, (size,) = chunk[:4], struct.unpack_from("<I", chunk, 4)
        body = pos + 8
        if name == b"fmt ":
            fmt = read_at(body, min(16, size, riff_end - body))
            if len(fmt) < 14:
                raise ValueError("truncated fmt chunk")
            tag, channels, rate = struct.unpack_from("<HHI", fmt)
            if tag != _WAVE_FORMAT_PCM:
                raise ValueError(f"unknown format: {tag!r}")
            if len(fmt) < 16:
                raise ValueError("truncated fmt chunk")
            sample_width = (struct.unpack_from("<H", fmt, 14)[0] + 7) // 8
            if not sample_width:
                raise ValueError("bad sample width")
            if not channels:
                raise ValueError("bad # of channels")
        elif name == b"data":
            if sample_width is None:
                raise ValueError("data chunk before fmt chunk")
            return rate, size // (channels * sample_width), channels, sample_width, body
        pos = body + size + (size & 1)
    raise ValueError("fmt chunk and/or data chunk missing")


def read_wav(path) -> AudioSignal:
    """Read a PCM16 mono WAV file. int16 -> float by division by 32768."""
    fd = os.open(path, os.O_RDONLY)
    try:
        try:
            sample_rate, n_frames, n_channels, sampwidth, offset = _wav_header(fd, path)
        except ValueError as exc:
            raise ValueError(f"corrupt or unsupported WAV file {path}: {exc}") from exc
        if n_channels != 1:
            raise ValueError(f"unsupported channel count {n_channels} in {path}: mono required")
        if sampwidth != 2:
            raise ValueError(f"unsupported sample width {sampwidth} in {path}: PCM16 required")
        raw = os.pread(fd, 2 * n_frames, offset)
    finally:
        os.close(fd)
    if len(raw) < 2 * n_frames:
        raise ValueError(f"short data chunk in {path}: {len(raw) // 2} of {n_frames} samples")
    ints = np.frombuffer(raw, dtype="<i2")
    return AudioSignal(ints.astype(np.float64) / PCM_SCALE, sample_rate)


def write_wav(path, signal: AudioSignal) -> None:
    """Write PCM16 mono, with the 44-byte header wave writes. float -> int16
    by multiplication by 32768 with clamping; round-trip error is at most
    1/32768 per sample."""
    # In place: each fresh temporary the size of the signal costs page
    # faults, and synth writes one file per passage.
    scaled = signal.samples * PCM_SCALE
    np.rint(scaled, out=scaled)
    np.clip(scaled, -32768, 32767, out=scaled)
    data = scaled.astype("<i2")
    rate = signal.sample_rate
    with open(path, "wb") as fh:
        fh.write(_PCM_HEADER.pack(b"RIFF", 36 + data.nbytes, b"WAVE", b"fmt ", 16, _WAVE_FORMAT_PCM,
                                  1, rate, 2 * rate, 2, 16, b"data", data.nbytes))
        fh.write(data)


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


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


def logmel(signal: AudioSignal, cfg: FeatureConfig | None = None) -> np.ndarray:
    """The T x n_mels float64 log-mel energies of `signal`. Per frame: Hann
    window -> power spectrum -> triangular mel filterbank -> natural log of
    (energy + log_floor).

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
    features = np.log(energies + cfg.log_floor)
    # Finite samples can still overflow the power spectrum.
    if not np.all(np.isfinite(features)):
        raise ValueError("feature matrix contains non-finite values")
    return features


def add_noise_snr(signal: AudioSignal, snr_db: float, seed: int) -> AudioSignal:
    """Add zero-mean Gaussian noise with variance P_signal / 10^(snr/10).

    The drawn noise is rescaled so its realized power hits the target
    variance exactly, which keeps the measured SNR within the +-0.1 dB
    calibration contract for every seed rather than only in expectation.
    snr_db = +inf is the no-noise sentinel. The output is intentionally not
    clamped to [-1, 1].
    """
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be a number or inf, got {snr_db}")
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
