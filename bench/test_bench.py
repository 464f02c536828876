"""Self-tests of the benchmark's own arithmetic and input generation.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from speechrag.corpus import SynthParams, synth_corpus  # noqa: E402


def test_median_and_quartiles_follow_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.median(values) == 5.5
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)
    with pytest.raises(ValueError):
        stats.median([])


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 50) == 50
    assert stats.nearest_rank(values, 95) == 95
    assert stats.nearest_rank(values, 100) == 100
    assert stats.nearest_rank([7.0], 95) == 7.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(200, 95) == 10
    assert stats.samples_beyond(199, 95) == 9
    assert stats.tail_percentile(list(range(200)), 95) == 189
    with pytest.raises(ValueError, match="need 10"):
        stats.tail_percentile(list(range(199)), 95)
    assert workloads.SEARCH_CALLS >= 200


def test_paired_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    assert stats.paired_gain(parent, [p - 1.0 for p in parent], "lower")
    assert not stats.paired_gain(parent, [p - 1.0 for p in parent], "higher")
    assert stats.paired_gain([-p for p in parent], [1.0 - p for p in parent], "higher")
    # Eight wins and two losses fall short of nine tenths.
    eight = [p - 1.0 for p in parent[:8]] + [p + 1.0 for p in parent[8:]]
    assert not stats.paired_gain(parent, eight, "lower")
    # A tie counts for neither side but still counts as a pair run.
    nine_and_tie = [p - 1.0 for p in parent[:9]] + parent[9:]
    assert stats.paired_gain(parent, nine_and_tie, "lower")
    eight_and_ties = [p - 1.0 for p in parent[:8]] + parent[8:]
    assert not stats.paired_gain(parent, eight_and_ties, "lower")
    # Every pair won, but by less than the parent's own quartile distance.
    assert not stats.paired_gain(parent, [p - 0.01 for p in parent], "lower")
    with pytest.raises(ValueError):
        stats.paired_gain(parent, parent[:9], "lower")


def _differences(a, b, path=()):
    if isinstance(a, dict):
        keys = set(a) | set(b)
        return [d for k in sorted(keys) for d in _differences(a.get(k), b.get(k), path + (k,))]
    return [] if a == b else [path]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_the_generated_inputs_and_nothing_else(name):
    workload = workloads.WORKLOADS[name]
    assert workloads.configs(workload, 7) == workloads.configs(workload, 7)
    changed = _differences(workloads.configs(workload, 7), workloads.configs(workload, 8))
    assert changed and all(path[-1] == "seed" for path in changed)
    small = {"n_passages": 4, "vocabulary_size": workloads.SYNTH_VOCABULARY}
    first = synth_corpus(SynthParams(seed=7, **small))
    assert synth_corpus(SynthParams(seed=7, **small)).passages[0].transcript == (
        first.passages[0].transcript
    )
    assert [p.transcript for p in first.passages] != [
        p.transcript for p in synth_corpus(SynthParams(seed=8, **small)).passages
    ]


def test_benchmark_json_names_the_workloads_and_per_layer_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == layers.metric_names()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
