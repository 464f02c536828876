from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechrag.dsp import (
    AudioSignal,
    FeatureConfig,
    _frontend,
    add_noise_snr,
    hz_to_mel,
    logmel,
    mel_filterbank,
    read_wav,
    write_wav,
)

from oracles import measure_snr, mel_center_frequencies

SR = 16000


def sine(freq: float, seconds: float, amp: float = 0.5, sr: int = SR) -> AudioSignal:
    t = np.arange(int(seconds * sr)) / sr
    return AudioSignal(amp * np.sin(2 * np.pi * freq * t), sr)


# ---------------------------------------------------------------------------
# WAV I/O
# ---------------------------------------------------------------------------


def test_read_all_zero_second(tmp_path):
    path = tmp_path / "zero.wav"
    write_wav(path, AudioSignal(np.zeros(SR), SR))
    signal = read_wav(path)
    assert signal.sample_rate == SR
    assert signal.samples.shape == (SR,)
    assert np.all(signal.samples == 0.0)


def test_write_read_roundtrip_quantization_bound(tmp_path):
    rng = np.random.default_rng(3)
    original = AudioSignal(rng.uniform(-1.0, 1.0, 5000), SR)
    path = tmp_path / "rt.wav"
    write_wav(path, original)
    recovered = read_wav(path)
    assert float(np.max(np.abs(recovered.samples - original.samples))) <= 1.0 / 32768.0


def test_roundtrip_idempotent_after_quantization(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "a.wav"
    write_wav(path, AudioSignal(rng.uniform(-1, 1, 1000), SR))
    first = read_wav(path)
    write_wav(tmp_path / "b.wav", first)
    second = read_wav(tmp_path / "b.wav")
    assert np.array_equal(first.samples, second.samples)


def test_stereo_rejected(tmp_path):
    import wave

    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(SR)
        fh.writeframes(b"\x00\x00" * 64)
    with pytest.raises(ValueError, match="channel"):
        read_wav(path)


def test_corrupt_header_rejected(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFFgarbage-not-a-wav-file")
    with pytest.raises(ValueError):
        read_wav(path)


@pytest.mark.parametrize("sr", [8000, 16000, 22050, 44100])
@pytest.mark.parametrize("n", [0, 1, 7, 1001])
def test_write_wav_bytes_equal_wave_module(tmp_path, sr, n):
    import wave

    samples = np.random.default_rng(n).uniform(-1.2, 1.2, n)  # past full scale: clamped
    write_wav(tmp_path / "ours.wav", AudioSignal(samples, sr))
    ints = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(tmp_path / "wave.wav"), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sr)
        fh.writeframes(ints.tobytes())
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "wave.wav").read_bytes()


@pytest.mark.parametrize("size", [0, 4, 12, 30])
def test_header_truncated_wav_rejected_with_value_error(tmp_path, size):
    full = tmp_path / "full.wav"
    write_wav(full, AudioSignal(np.zeros(100), SR))
    path = tmp_path / "cut.wav"
    path.write_bytes(full.read_bytes()[:size])
    with pytest.raises(ValueError, match="cut.wav"):
        read_wav(path)


def test_short_data_chunk_rejected_with_value_error(tmp_path):
    full = tmp_path / "full.wav"
    write_wav(full, AudioSignal(np.zeros(SR), SR))
    path = tmp_path / "cut.wav"
    path.write_bytes(full.read_bytes()[: 44 + 2000])
    with pytest.raises(ValueError, match="short data chunk in .*cut.wav: 1000 of 16000 samples"):
        read_wav(path)


# ---------------------------------------------------------------------------
# Log-mel features
# ---------------------------------------------------------------------------


def test_silence_hits_log_floor():
    cfg = FeatureConfig()
    feats = logmel(AudioSignal(np.zeros(SR), SR), cfg)
    assert np.allclose(feats, math.log(cfg.log_floor))


def test_frame_count_one_second():
    feats = logmel(sine(300, 1.0))
    assert feats.shape[0] == 49  # floor((16000 - 400) / 320) + 1


def test_frame_count_formula_various_lengths():
    cfg = FeatureConfig()
    for n in (400, 401, 720, 1000, 16000, 33333):
        signal = AudioSignal(np.ones(n) * 0.1, SR)
        expected = (n - 400) // 320 + 1
        assert logmel(signal, cfg).shape[0] == expected


def test_logmel_is_a_float64_array_and_rejects_an_overflowing_spectrum():
    feats = logmel(sine(300, 1.0))
    assert isinstance(feats, np.ndarray) and feats.dtype == np.float64
    # Finite samples this large square to inf in the power spectrum.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            logmel(AudioSignal(np.full(SR, 1e200), SR))


def test_too_short_signal_rejected():
    with pytest.raises(ValueError, match="shorter"):
        logmel(AudioSignal(np.zeros(399), SR))


def test_440hz_peak_matches_analytic_center():
    # Oracle: centers computed from the mel-spacing formula directly.
    cfg = FeatureConfig()
    centers = mel_center_frequencies(cfg.n_mels, SR)
    expected_bin = int(np.argmin(np.abs(centers - 440.0)))
    feats = logmel(sine(440.0, 1.0), cfg)
    argmax_per_frame = np.argmax(feats, axis=1)
    assert np.all(argmax_per_frame == expected_bin)


def test_mel_centers_monotone():
    centers = mel_center_frequencies(40, SR)
    assert np.all(np.diff(centers) > 0)
    assert centers[0] > 0.0
    assert centers[-1] < SR / 2
    assert np.all(np.diff(hz_to_mel(centers)) > 0)


def test_scale_covariance_adds_two_log_c():
    cfg = FeatureConfig()
    base = sine(700.0, 0.5, amp=0.4)
    c = 3.0
    scaled = AudioSignal(base.samples * c, SR)
    lo = logmel(base, cfg)
    hi = logmel(scaled, cfg)
    # Only meaningful where energies dominate the log floor (the floor term
    # perturbs the log by ~floor/E, so demand E >= e^16 * floor).
    mask = lo > math.log(cfg.log_floor) + 16.0
    assert mask.any()
    diffs = (hi - lo)[mask]
    assert np.max(np.abs(diffs - 2.0 * math.log(c))) < 1e-6


def reference_logmel(signal: AudioSignal, cfg: FeatureConfig) -> np.ndarray:
    """logmel with nothing cached: frames gathered by index, window and
    filterbank built for this call."""
    sr = signal.sample_rate
    frame, hop = cfg.frame_samples(sr), cfg.hop_samples(sr)
    n_frames = (signal.samples.size - frame) // hop + 1
    offsets = np.arange(n_frames) * hop
    frames = signal.samples[offsets[:, None] + np.arange(frame)[None, :]]
    spectrum = np.fft.rfft(frames * np.hanning(frame), n=cfg.fft_size, axis=1)
    power = np.abs(spectrum) ** 2
    energies = power @ mel_filterbank(cfg.n_mels, cfg.fft_size, sr).T
    return np.log(energies + cfg.log_floor)


def test_logmel_equals_uncached_reference_bit_for_bit():
    configs = (FeatureConfig(), FeatureConfig(frame_len=0.032, hop=0.010, n_mels=24, fft_size=1024))
    rng = np.random.default_rng(0)
    # Alternate shapes so each call finds another shape's arrays in the cache.
    for _ in range(2):
        for sr in (16000, 8000):
            for cfg in configs:
                signal = AudioSignal(0.3 * rng.normal(size=int(0.77 * sr)), sr)
                assert np.array_equal(logmel(signal, cfg), reference_logmel(signal, cfg))


def test_logmel_frames_a_strided_signal_like_a_contiguous_one():
    samples = np.random.default_rng(1).normal(size=2 * SR) * 0.2
    strided = AudioSignal(samples[::2], SR)
    contiguous = AudioSignal(samples[::2].copy(), SR)
    assert np.array_equal(logmel(strided), logmel(contiguous))


def test_cached_window_and_filterbank_are_read_only():
    cfg = FeatureConfig()
    window, bank = _frontend(cfg.frame_samples(SR), cfg.n_mels, cfg.fft_size, SR)
    assert np.array_equal(window, np.hanning(cfg.frame_samples(SR)))
    assert np.array_equal(bank, mel_filterbank(cfg.n_mels, cfg.fft_size, SR))
    for arr in (window, bank):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert _frontend(cfg.frame_samples(SR), cfg.n_mels, cfg.fft_size, SR)[1] is bank


# ---------------------------------------------------------------------------
# Noise injection and SNR measurement
# ---------------------------------------------------------------------------


def test_zero_snr_means_noise_power_equals_signal_power():
    signal = sine(500.0, 4.0)
    noisy = add_noise_snr(signal, 0.0, seed=11)
    p_signal = float(np.mean(signal.samples**2))
    p_noise = float(np.mean((noisy.samples - signal.samples) ** 2))
    assert p_noise == pytest.approx(p_signal, rel=0.05)


def test_infinite_snr_is_identity():
    signal = sine(500.0, 0.5)
    noisy = add_noise_snr(signal, math.inf, seed=0)
    assert np.array_equal(noisy.samples, signal.samples)


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
def test_snr_without_a_noise_level_rejected(snr_db):
    with pytest.raises(ValueError, match="snr_db must be a number or inf"):
        add_noise_snr(sine(500.0, 0.5), snr_db, seed=0)


def test_zero_power_signal_rejected():
    with pytest.raises(ValueError, match="zero-power"):
        add_noise_snr(AudioSignal(np.zeros(SR), SR), 10.0, seed=0)


def test_ten_db_target_roundtrip():
    signal = sine(650.0, 4.0)
    noisy = add_noise_snr(signal, 10.0, seed=5)
    assert measure_snr(signal, noisy) == pytest.approx(10.0, abs=0.1)


def test_twenty_db_target_roundtrip():
    signal = sine(320.0, 4.0)
    noisy = add_noise_snr(signal, 20.0, seed=9)
    assert measure_snr(signal, noisy) == pytest.approx(20.0, abs=0.1)


def test_measure_snr_identical_is_infinite():
    signal = sine(500.0, 0.25)
    assert measure_snr(signal, signal) == math.inf


def test_measure_snr_noise_at_signal_rms_is_zero_db():
    signal = sine(500.0, 2.0)
    rms = float(np.sqrt(np.mean(signal.samples**2)))
    flipper = np.resize(np.array([1.0, -1.0]), signal.samples.size)
    noisy = AudioSignal(signal.samples + rms * flipper, SR)
    assert measure_snr(signal, noisy) == pytest.approx(0.0, abs=1e-9)


def test_measure_snr_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length mismatch"):
        measure_snr(sine(500.0, 1.0), sine(500.0, 0.5))


@settings(max_examples=12, deadline=None)
@given(
    snr_db=st.sampled_from([-5.0, 0.0, 5.0, 10.0, 20.0, 30.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_noise_roundtrip_property(snr_db, seed):
    signal = sine(430.0, 1.0, amp=0.3)
    noisy = add_noise_snr(signal, snr_db, seed=seed)
    assert measure_snr(signal, noisy) == pytest.approx(snr_db, abs=0.1)
