"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the assertions enforce every stated tolerance.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from speechrag.cli import main as cli_main
from speechrag.corpus import SynthParams, corpus_words, synth_corpus
from speechrag.dsp import AudioSignal, add_noise_snr, logmel
from speechrag.encoder import Vocab, embed_text
from speechrag.index import build, search
from speechrag.ragpipe import (
    CorruptionConfig,
    PipelineMode,
    corpus_wer,
    corrupt_transcript,
    eval_generation,
    exact_match,
    retrieval_run,
    run_pipeline,
    wer,
)
from speechrag.training import build_model, grad_check

from oracles import mean_cosine, measure_snr, recall_at_k

SR = 16000


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion:02d} {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    corpus = synth_corpus(SynthParams(n_passages=4, vocabulary_size=24, seed=7))
    vocab = Vocab.from_words(corpus_words(corpus))
    model = build_model(vocab, seed=7, dtype=np.float64, proj_std=0.1)
    items = []
    for p in corpus.passages[:2]:
        feats = logmel(corpus.load_audio(p), model.feature_config)
        items.append((feats, embed_text(p.transcript, model.vocab, model.backbone)))
    started = time.monotonic()
    err = grad_check(model, items, probe_count=5, eps=1e-4, seed=7)
    elapsed = time.monotonic() - started
    report(
        1,
        err <= 1e-4 and elapsed < 60.0,
        f"gradcheck max rel err {err:.3e} (<= 1e-4) in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_distillation_convergence(convergence_run, seed7_splits):
    checkpoint, elapsed = convergence_run
    train_corpus, val_corpus, _ = seed7_splits
    model = checkpoint.model
    train_cos = mean_cosine(train_corpus, model)
    val_cos = mean_cosine(val_corpus, model)
    report(
        2,
        train_cos >= 0.95 and val_cos >= 0.90 and elapsed < 600.0,
        f"train cos {train_cos:.4f} (>= 0.95), val cos {val_cos:.4f} (>= 0.90), "
        f"runtime {elapsed:.0f}s (< 600s)",
    )


def test_criterion_03_retrieval_parity(trained_model, seed7_splits):
    _, _, test_corpus = seed7_splits
    gt = retrieval_run(test_corpus, PipelineMode.GT_TEXT, trained_model, k_values=(5,)).recalls[5]
    speech = retrieval_run(
        test_corpus, PipelineMode.SPEECH_RAG, trained_model, k_values=(5,)
    ).recalls[5]
    report(
        3,
        speech >= gt - 0.05 and gt >= 0.9,
        f"test-split Recall@5: speech {speech:.4f} >= gt_text {gt:.4f} - 0.05, gt >= 0.9",
    )


def test_criterion_04_wer_degradation_trend(trained_model, seed7_corpus):
    vocabulary = tuple(corpus_words(seed7_corpus))
    gt = retrieval_run(seed7_corpus, PipelineMode.GT_TEXT, trained_model, k_values=(5,)).recalls[5]
    means = {}
    for target in (0.18, 0.40):  # inside the 0.17-0.20 and 0.35-0.45 windows
        recalls = []
        for seed in range(5):
            corruption = CorruptionConfig(target_wer=target, vocabulary=vocabulary, seed=seed)
            recalls.append(
                retrieval_run(
                    seed7_corpus,
                    PipelineMode.FULLY_CASCADED,
                    trained_model,
                    k_values=(5,),
                    corruption=corruption,
                ).recalls[5]
            )
        means[target] = float(np.mean(recalls))
    report(
        4,
        means[0.40] < means[0.18] <= gt,
        f"Recall@5 over 5 seeds: high-WER {means[0.40]:.4f} < low-WER {means[0.18]:.4f} "
        f"<= gt_text {gt:.4f}",
    )


def test_criterion_05_exact_search_oracle_equivalence():
    rng = np.random.default_rng(55)
    ids = [f"p{i:04d}" for i in range(1000)]
    matrix = rng.normal(size=(1000, 32))
    idx = build(ids, matrix)
    ok = True
    for k in (5, 10, 100):
        query = rng.normal(size=32)
        got_ids, _ = search(idx, query, k)
        qn = query / np.linalg.norm(query)
        scored = []
        for pid, vec in zip(ids, matrix):
            row = (np.asarray(vec) / np.linalg.norm(vec)).astype(np.float32).astype(np.float64)
            scored.append((pid, float(row @ qn)))
        scored.sort(key=lambda item: (-item[1], item[0]))
        expected_ids = [pid for pid, _ in scored[:k]]
        ok = ok and got_ids == expected_ids
    report(5, ok, "search matches brute-force full sort for 1000 vectors at k in {5, 10, 100}")


def test_criterion_06_snr_calibration():
    t = np.arange(SR) / SR  # 1 s signal
    signal = AudioSignal(0.3 * np.sin(2 * np.pi * 440 * t) + 0.1 * np.sin(2 * np.pi * 1310 * t), SR)
    worst = 0.0
    for i, target in enumerate((-5.0, 0.0, 5.0, 10.0, 20.0, 30.0)):
        noisy = add_noise_snr(signal, target, seed=100 + i)
        worst = max(worst, abs(measure_snr(signal, noisy) - target))
    report(6, worst <= 0.1, f"SNR round-trip worst error {worst:.4f} dB (<= 0.1) on 1 s signals")


def test_criterion_07_corruptor_calibration():
    vocabulary = tuple(f"w{i:03d}" for i in range(60))
    rng = np.random.default_rng(77)
    texts = [" ".join(rng.choice(vocabulary, size=100)) for _ in range(100)]  # 10,000 words
    worst = 0.0
    details = []
    for target in (0.20, 0.35, 0.45):
        cfg = CorruptionConfig(target_wer=target, vocabulary=vocabulary, seed=17)
        achieved = corpus_wer((t, corrupt_transcript(t, cfg)) for t in texts)
        worst = max(worst, abs(achieved - target))
        details.append(f"{target:.2f}->{achieved:.3f}")
    report(7, worst <= 0.02, f"corruptor calibration {', '.join(details)} (all within 0.02)")


def test_criterion_08_metric_truth_tables():
    ok = wer("a b c", "a b c") == 0.0
    ok = ok and wer("a b c", "a x c") == pytest.approx(1.0 / 3.0)
    ok = ok and wer("the cat sat", "cat sat on") == pytest.approx(2.0 / 3.0)

    ok = ok and exact_match(
        "The Sabre Dance was composed by Aram Khachaturian.", "Aram Khachaturian"
    ) == 1
    ok = ok and exact_match(
        "Aram Cocheterien composed the Sabre Dance.", "Aram Khachaturian"
    ) == 0
    ok = ok and exact_match("exact answer", "exact answer") == 1

    ids = [f"p{i:04d}" for i in range(250)]
    all_first = {f"q{i}": [f"p{i}", "x"] for i in range(3)}
    ok = ok and all(
        recall_at_k(all_first, {f"q{i}": f"p{i}" for i in range(3)}, k) == 1.0
        for k in (5, 10, 100)
    )
    rank7 = {"q": ids}
    ok = ok and recall_at_k(rank7, {"q": ids[6]}, 5) == 0.0
    ok = ok and recall_at_k(rank7, {"q": ids[6]}, 10) == 1.0
    ok = ok and recall_at_k(rank7, {"q": ids[6]}, 100) == 1.0
    mixed_results = {f"q{i}": ids for i in range(4)}
    mixed_qrels = {f"q{i}": ids[rank - 1] for i, rank in enumerate((1, 6, 11, 200))}
    ok = ok and recall_at_k(mixed_results, mixed_qrels, 5) == 0.25
    ok = ok and recall_at_k(mixed_results, mixed_qrels, 10) == 0.5
    ok = ok and recall_at_k(mixed_results, mixed_qrels, 100) == 0.75

    report(8, ok, "wer, exact_match, recall_at_k reproduce every specified example exactly")


def test_criterion_09_pipeline_consistency(trained_model, seed7_corpus):
    speech = run_pipeline(seed7_corpus, PipelineMode.SPEECH_RAG, trained_model, k=5)
    semi = run_pipeline(seed7_corpus, PipelineMode.SEMI_CASCADED, trained_model, k=5)
    ids_equal = all(a["retrieved_ids"] == b["retrieved_ids"] for a, b in zip(speech, semi))

    gt_traces = run_pipeline(seed7_corpus, PipelineMode.GT_TEXT, trained_model, k=5)
    em = eval_generation(gt_traces).em_mean
    recall = retrieval_run(
        seed7_corpus, PipelineMode.GT_TEXT, trained_model, k_values=(5,)
    ).recalls[5]
    report(
        9,
        ids_equal and em == recall,
        f"speech_rag/semi_cascaded id lists identical: {ids_equal}; "
        f"oracle EM {em:.4f} == Recall@5 {recall:.4f}",
    )


def test_criterion_10_determinism(tmp_path):
    config = {
        "data_dir": str(tmp_path),
        "synth": {"n_passages": 10, "vocabulary_size": 12, "words_per_passage": (5, 9)},
        "train": {"max_epochs": 2},
        "train_frac": 0.6,
        "val_frac": 0.2,
        "k_values": [5],
        "seed": 13,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    tracked = [
        "corpus/manifest.jsonl",
        "artifacts/model.ckpt",
        "reports/retrieval.csv",
        "reports/retrieval_speech_rag.jsonl",
        "reports/eval-retrieval.meta.json",
        "reports/train.meta.json",
    ]

    def run_all():
        for argv in (
            ["synth", "--config", str(config_path)],
            ["split", "--config", str(config_path)],
            ["train", "--config", str(config_path)],
            ["eval-retrieval", "--config", str(config_path), "--mode", "speech"],
        ):
            assert cli_main(argv) == 0
        return {name: (tmp_path / name).read_bytes() for name in tracked}

    first = run_all()
    second = run_all()
    identical = all(first[name] == second[name] for name in tracked)
    report(
        10,
        identical,
        "two runs of each subcommand with the same config and seed produced "
        "byte-identical reports and checkpoints",
    )
