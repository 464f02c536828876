from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechrag.adapter import AdapterParams, downsample, make_adapter, project
from speechrag.dsp import FeatureConfig


def test_downsample_window_means():
    seq = np.arange(1.0, 9.0).reshape(8, 1)
    out = downsample(seq, 4)
    assert np.array_equal(out, np.array([[2.5], [6.5]]))


def test_downsample_factor_one_identity():
    seq = np.random.default_rng(0).normal(size=(5, 3))
    assert np.array_equal(downsample(seq, 1), seq)


def test_downsample_partial_window_averages_actual_length():
    seq = np.arange(1.0, 7.0).reshape(6, 1)
    out = downsample(seq, 4)
    assert np.allclose(out, np.array([[2.5], [5.5]]))  # mean(1..4), mean(5, 6)


def test_downsample_output_length_is_ceil():
    for t in range(1, 20):
        seq = np.ones((t, 2))
        assert downsample(seq, 4).shape[0] == -(-t // 4)


def test_downsample_preserves_global_mean_when_factor_divides():
    rng = np.random.default_rng(1)
    seq = rng.normal(size=(12, 5))
    out = downsample(seq, 4)
    assert np.allclose(out.mean(axis=0), seq.mean(axis=0), atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    t=st.integers(min_value=1, max_value=40),
    factor=st.integers(min_value=1, max_value=7),
)
def test_downsample_length_property(t, factor):
    seq = np.random.default_rng(t * 7 + factor).normal(size=(t, 3))
    out = downsample(seq, factor)
    assert out.shape == (-(-t // factor), 3)


@settings(max_examples=60, deadline=None)
@given(
    t=st.integers(min_value=1, max_value=40),
    factor=st.integers(min_value=1, max_value=7),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_downsample_is_the_per_window_mean(t, factor, dtype):
    seq = np.random.default_rng(t * 7 + factor).normal(size=(t, 3)).astype(dtype)
    out = downsample(seq, factor)
    ref = np.stack([seq[i : i + factor].mean(axis=0) for i in range(0, t, factor)])
    assert out.dtype == dtype and out.shape == (-(-t // factor), 3)
    tol = 1e-6 if dtype == np.float32 else 1e-14
    assert np.max(np.abs(out - ref)) <= tol * np.max(np.abs(ref))


def test_effective_output_frame_is_80ms():
    cfg = FeatureConfig()
    adapter = make_adapter(downsample_factor=4)
    assert cfg.hop * adapter.downsample_factor == pytest.approx(0.080)


def test_project_zero_input_yields_bias():
    b = np.array([1.0, -2.0, 0.5])
    params = AdapterParams(w_proj=np.zeros((4, 3)), b_proj=b, downsample_factor=4)
    out = project(np.zeros((5, 4)), params)
    assert np.array_equal(out, np.tile(b, (5, 1)))


def test_project_identity():
    params = AdapterParams(w_proj=np.eye(3), b_proj=np.zeros(3), downsample_factor=4)
    x = np.random.default_rng(2).normal(size=(4, 3))
    assert np.allclose(project(x, params), x)


def test_project_jvp_matches_finite_differences():
    # Central differences on a scalar functional of the projection output.
    rng = np.random.default_rng(3)
    w = rng.normal(size=(6, 4))
    b = rng.normal(size=4)
    x = rng.normal(size=(5, 6))
    probe = rng.normal(size=(5, 4))
    params = AdapterParams(w_proj=w, b_proj=b, downsample_factor=4)

    def value(weight, bias):
        return float(np.sum(project(x, AdapterParams(weight, bias, 4)) * probe))

    analytic_w = x.T @ probe
    analytic_b = probe.sum(axis=0)
    eps = 1e-4
    worst = 0.0
    for idx in [(0, 0), (3, 2), (5, 3)]:
        shifted = w.copy()
        shifted[idx] += eps
        plus = value(shifted, b)
        shifted[idx] -= 2 * eps
        minus = value(shifted, b)
        numeric = (plus - minus) / (2 * eps)
        worst = max(worst, abs(numeric - analytic_w[idx]) / max(abs(numeric), 1e-8))
    for j in (0, 3):
        shifted = b.copy()
        shifted[j] += eps
        plus = value(w, shifted)
        shifted[j] -= 2 * eps
        minus = value(w, shifted)
        numeric = (plus - minus) / (2 * eps)
        worst = max(worst, abs(numeric - analytic_b[j]) / max(abs(numeric), 1e-8))
    assert worst <= 1e-4
