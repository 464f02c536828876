from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speechrag.corpus import Passage, Query, SynthParams, corpus_words, synth_corpus
from speechrag.ragpipe import (
    CorruptionConfig,
    GenerationRequest,
    GeneratorError,
    HttpGenerator,
    HttpJudge,
    MockJudge,
    OracleGenerator,
    PipelineMode,
    _levenshtein,
    corpus_wer,
    corrupt_transcript,
    eval_generation,
    exact_match,
    normalize_answer,
    passage_embeddings,
    retrieval_run,
    run_pipeline,
    token_f1,
    wer,
)
from speechrag.training import build_model
from speechrag.encoder import Vocab

from conftest import BAD_REPLIES


@pytest.fixture(scope="module")
def pipe_corpus():
    return synth_corpus(SynthParams(n_passages=10, vocabulary_size=16, words_per_passage=(6, 12), seed=5))


@pytest.fixture(scope="module")
def pipe_model(pipe_corpus):
    vocab = Vocab.from_words(corpus_words(pipe_corpus))
    return build_model(vocab, seed=5)


# ---------------------------------------------------------------------------
# WER
# ---------------------------------------------------------------------------


def reference_edit_distance(ref, hyp):
    """Independent full-matrix DP oracle."""
    n, m = len(ref), len(hyp)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = i
    for j in range(m + 1):
        table[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]),
            )
    return table[n][m]


def test_wer_identical_strings():
    assert wer("a b c", "a b c") == 0.0


def test_wer_single_substitution():
    assert wer("a b c", "a x c") == pytest.approx(1.0 / 3.0)


def test_wer_deletion_plus_insertion():
    # One deletion ("the") and one insertion ("on"): distance 2 over 3 words.
    assert reference_edit_distance(["the", "cat", "sat"], ["cat", "sat", "on"]) == 2
    assert wer("the cat sat", "cat sat on") == pytest.approx(2.0 / 3.0)


def test_wer_case_and_punctuation_invariant():
    assert wer("The cat, sat!", "the CAT sat") == 0.0


def test_wer_empty_reference_rejected():
    with pytest.raises(ValueError, match="empty"):
        wer("!!!", "anything")


WORDS = st.lists(st.sampled_from(["a", "b", "c", "dd"]), max_size=150)
LONG = ["a", "b", "c", "dd", "a", "a", "c"] * 20  # 140 words: three 64-bit words


@settings(max_examples=150, deadline=None)
@given(WORDS, WORDS)
@example(LONG, LONG[3:] + ["b"] * 9)
@example(LONG, [])
@example([], LONG[:70])
@example(["a"], [])
def test_wer_matches_dp_oracle(ref_words, hyp_words):
    expected = reference_edit_distance(ref_words, hyp_words)
    assert _levenshtein(ref_words, hyp_words) == expected
    if ref_words:
        got = wer(" ".join(ref_words), " ".join(hyp_words))
        assert got == pytest.approx(expected / len(ref_words))


def test_corpus_wer_micro_average():
    pairs = [("a b", "a b"), ("a b c d", "x b c d")]
    assert corpus_wer(pairs) == pytest.approx(1.0 / 6.0)


# ---------------------------------------------------------------------------
# Transcript corruption
# ---------------------------------------------------------------------------

VOCAB = tuple(f"w{i:02d}" for i in range(30))


def test_corrupt_zero_target_is_identity():
    cfg = CorruptionConfig(target_wer=0.0, vocabulary=VOCAB, seed=1)
    text = "w01 w02 w03 w04"
    assert corrupt_transcript(text, cfg) == text


def test_corrupt_deterministic_per_seed():
    cfg = CorruptionConfig(target_wer=0.4, vocabulary=VOCAB, seed=9)
    text = " ".join(VOCAB)
    assert corrupt_transcript(text, cfg) == corrupt_transcript(text, cfg)
    other = CorruptionConfig(target_wer=0.4, vocabulary=VOCAB, seed=10)
    assert corrupt_transcript(text, cfg) != corrupt_transcript(text, other)


def test_corrupt_calibration_at_035():
    rng = np.random.default_rng(0)
    texts = [" ".join(rng.choice(VOCAB, size=100)) for _ in range(100)]  # 10,000 words
    cfg = CorruptionConfig(target_wer=0.35, vocabulary=VOCAB, seed=3)
    achieved = corpus_wer((t, corrupt_transcript(t, cfg)) for t in texts)
    assert achieved == pytest.approx(0.35, abs=0.02)


def test_corrupt_empty_vocabulary_rejected():
    with pytest.raises(ValueError, match="empty vocabulary but an insertion can be selected"):
        CorruptionConfig(target_wer=0.99, vocabulary=(), seed=0)


@pytest.mark.parametrize("vocabulary", [("w01",), ("w01", "w01")], ids=["one-word", "one-distinct"])
def test_corrupt_vocabulary_without_a_substitute_rejected(vocabulary):
    with pytest.raises(ValueError, match="vocabulary offers no substitute"):
        CorruptionConfig(target_wer=0.5, vocabulary=vocabulary, seed=0)
    # Without substitutions, one word is enough for insertions.
    cfg = CorruptionConfig(target_wer=0.5, vocabulary=vocabulary, sub_weight=0.0,
                           del_weight=0.5, ins_weight=0.5, seed=0)
    assert set(corrupt_transcript(" ".join(VOCAB), cfg).split()) <= set(VOCAB)


def test_corrupt_zero_target_needs_no_vocabulary():
    cfg = CorruptionConfig(target_wer=0.0, vocabulary=(), seed=0)
    assert corrupt_transcript("w01 w02", cfg) == "w01 w02"


def test_corrupt_empty_text_rejected():
    cfg = CorruptionConfig(target_wer=0.1, vocabulary=VOCAB, seed=0)
    with pytest.raises(ValueError):
        corrupt_transcript("", cfg)


def test_corruption_config_validation():
    with pytest.raises(ValueError, match="target_wer"):
        CorruptionConfig(target_wer=1.0, vocabulary=VOCAB)
    with pytest.raises(ValueError, match="sum to 1"):
        CorruptionConfig(target_wer=0.1, vocabulary=VOCAB, sub_weight=0.9)
    with pytest.raises(ValueError, match="non-negative"):
        CorruptionConfig(target_wer=0.1, vocabulary=VOCAB, sub_weight=1.5, del_weight=-0.5,
                         ins_weight=0.0)
    with pytest.raises(ValueError, match="sum to 1"):
        CorruptionConfig(target_wer=0.1, vocabulary=VOCAB, sub_weight=float("nan"),
                         del_weight=0.5, ins_weight=0.5)


# ---------------------------------------------------------------------------
# The wire protocol
# ---------------------------------------------------------------------------


def test_generation_request_requires_query():
    with pytest.raises(ValueError):
        GenerationRequest(query="", contexts=("x",))


# ---------------------------------------------------------------------------
# Answer metrics
# ---------------------------------------------------------------------------


def test_exact_match_containment_positive():
    answer = "The Sabre Dance was composed by Aram Khachaturian."
    assert exact_match(answer, "Aram Khachaturian") == 1


def test_exact_match_containment_negative():
    answer = "Aram Cocheterien composed the Sabre Dance."
    assert exact_match(answer, "Aram Khachaturian") == 0


def test_exact_match_equal_strings():
    assert exact_match("some answer", "some answer") == 1


def test_exact_match_normalizes_case_and_punctuation():
    assert exact_match("the ANSWER, is: forty-two!", "answer is forty two") == 1


def test_exact_match_matches_whole_words():
    assert exact_match("the badge", "bad") == 0
    assert exact_match("a bad, bad day", "bad day") == 1
    assert exact_match("forty-two", "two") == 1
    assert exact_match("fortytwo", "two") == 0


def test_exact_match_empty_gold_rejected():
    with pytest.raises(ValueError):
        exact_match("anything", "!!!")


def test_normalize_answer():
    assert normalize_answer("  The CAT,   sat. ") == "the cat sat"


def test_token_f1_permutation():
    assert token_f1("khachaturian aram", "aram khachaturian") == pytest.approx(1.0)


def test_mock_judge_cases():
    judge = MockJudge()
    assert judge("q", "same words", "same words") == 1
    assert judge("q", "khachaturian aram", "aram khachaturian") == 1
    assert judge("q", "completely unrelated text", "aram khachaturian") == 0


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def test_oracle_generator_hits_on_transcript_context(pipe_corpus):
    oracle = OracleGenerator(pipe_corpus)
    q = pipe_corpus.queries[0]
    relevant = pipe_corpus.passage(q.relevant_passage_id)
    hit = oracle(GenerationRequest(query=q.text, contexts=(relevant.transcript, "other")))
    assert hit == q.gold_answer
    miss = oracle(GenerationRequest(query=q.text, contexts=("other", "unrelated")))
    assert miss == ""


def test_oracle_generator_hits_on_audio_reference(pipe_corpus):
    oracle = OracleGenerator(pipe_corpus)
    q = pipe_corpus.queries[1]
    ref = f"audio:{q.relevant_passage_id}"
    assert oracle(GenerationRequest(query=q.text, contexts=(ref,))) == q.gold_answer


def test_http_generator_roundtrip(http_endpoint):
    generator = HttpGenerator(http_endpoint, timeout_s=5.0)
    response = generator(GenerationRequest(query="what", contexts=("a", "b", "c")))
    assert response == "echo:what:3"


def test_http_generator_server_error(http_endpoint):
    generator = HttpGenerator(http_endpoint, timeout_s=5.0)
    with pytest.raises(GeneratorError):
        generator(GenerationRequest(query="boom", contexts=("a",)))


def test_http_generator_unreachable():
    generator = HttpGenerator("http://127.0.0.1:1/", timeout_s=0.5)
    with pytest.raises(GeneratorError):
        generator(GenerationRequest(query="q", contexts=("a",)))


def test_http_judge(http_endpoint):
    judge = HttpJudge(http_endpoint, timeout_s=5.0)
    assert judge("q", "same thing", "same thing") == 1
    assert judge("q", "different", "gold") == 0


@pytest.mark.parametrize("query", sorted(BAD_REPLIES))
def test_http_generator_bad_reply_is_generator_error(http_endpoint, query):
    generator = HttpGenerator(http_endpoint, timeout_s=5.0)
    with pytest.raises(GeneratorError, match="generator"):
        generator(GenerationRequest(query=query, contexts=("a",)))


@pytest.mark.parametrize("query", sorted(BAD_REPLIES))
def test_http_judge_bad_reply_is_generator_error(http_endpoint, query):
    judge = HttpJudge(http_endpoint, timeout_s=5.0)
    with pytest.raises(GeneratorError, match="generator"):
        judge(query, "same thing", "same thing")


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


def test_gt_text_oracle_em_equals_recall(pipe_corpus, pipe_model):
    k = 5
    traces = run_pipeline(pipe_corpus, PipelineMode.GT_TEXT, pipe_model, k=k)
    report = eval_generation(traces)
    recall = retrieval_run(pipe_corpus, PipelineMode.GT_TEXT, pipe_model, k_values=(k,)).recalls[k]
    assert report.em_mean == recall


def test_fully_cascaded_zero_wer_equals_gt_text(pipe_corpus, pipe_model):
    corruption = CorruptionConfig(
        target_wer=0.0, vocabulary=tuple(corpus_words(pipe_corpus)), seed=0
    )
    gt = list(run_pipeline(pipe_corpus, PipelineMode.GT_TEXT, pipe_model, k=3))
    cascaded = list(run_pipeline(
        pipe_corpus, PipelineMode.FULLY_CASCADED, pipe_model, k=3, corruption=corruption
    ))
    assert gt == cascaded
    gt_rows, cascaded_rows = [], []
    retrieval_run(pipe_corpus, PipelineMode.GT_TEXT, pipe_model, k_values=(3,), sink=gt_rows.append)
    retrieval_run(pipe_corpus, PipelineMode.FULLY_CASCADED, pipe_model, k_values=(3,),
                  corruption=corruption, sink=cascaded_rows.append)
    assert gt_rows == cascaded_rows  # ids and scores


@pytest.mark.parametrize("target_wer", [0.0, 0.35])
def test_fully_cascaded_oracle_em_counts_retrieved_unchanged_transcripts(target_wer):
    # Short passages, so that some transcripts survive the corruptor unchanged.
    corpus = synth_corpus(SynthParams(n_passages=24, vocabulary_size=16,
                                      words_per_passage=(3, 5), seed=5))
    model = build_model(Vocab.from_words(corpus_words(corpus)), seed=5)
    corruption = CorruptionConfig(
        target_wer=target_wer, vocabulary=tuple(corpus_words(corpus)), seed=0
    )
    k = 5
    report = eval_generation(run_pipeline(
        corpus, PipelineMode.FULLY_CASCADED, model, k=k, corruption=corruption
    ))
    rows = []
    recall = retrieval_run(corpus, PipelineMode.FULLY_CASCADED, model, k_values=(k,),
                           corruption=corruption, sink=rows.append).recalls[k]
    unchanged = {p.id for p in corpus.passages
                 if corrupt_transcript(p.transcript, corruption) == p.transcript}
    hits = [row["relevant_id"] in row["ranked_ids"][:k] and row["relevant_id"] in unchanged
            for row in rows]
    # The oracle scores a query only when the relevant passage is retrieved
    # and its transcript came through the corruptor unchanged.
    assert report.em_mean == sum(hits) / len(hits)
    if target_wer == 0.0:
        assert report.em_mean == recall
    else:
        assert 0.0 < report.em_mean < recall


@pytest.mark.parametrize("mode", [PipelineMode.GT_TEXT, PipelineMode.SPEECH_RAG])
def test_passage_embeddings_rows_follow_corpus_order(pipe_corpus, pipe_model, mode):
    # Reversed, so that corpus order is not id order.
    corpus = dataclasses.replace(pipe_corpus, passages=pipe_corpus.passages[::-1])
    ids, matrix, contexts = passage_embeddings(corpus, mode, pipe_model)
    assert ids == [p.id for p in corpus.passages] != sorted(ids)
    assert matrix.shape == (len(ids), pipe_model.backbone.hidden_dim)
    for p, row in zip(corpus.passages, matrix):
        want = (pipe_model.embed_text(p.transcript) if mode is PipelineMode.GT_TEXT
                else pipe_model.embed_speech(corpus.load_audio(p)))
        assert np.array_equal(row, want)
    assert list(contexts) == ids


def test_passage_embeddings_of_an_empty_corpus_rejected(pipe_corpus, pipe_model):
    empty = dataclasses.replace(pipe_corpus, passages=(), queries=())
    with pytest.raises(ValueError, match="no passages"):
        passage_embeddings(empty, PipelineMode.GT_TEXT, pipe_model)


def test_speech_and_semi_cascaded_share_rankings(pipe_corpus, pipe_model):
    speech = list(run_pipeline(pipe_corpus, PipelineMode.SPEECH_RAG, pipe_model, k=4))
    semi = list(run_pipeline(pipe_corpus, PipelineMode.SEMI_CASCADED, pipe_model, k=4))
    for a, b in zip(speech, semi):
        assert a["retrieved_ids"] == b["retrieved_ids"]
    # Contexts differ: audio references vs ground-truth transcripts.
    assert any(a["contexts"] != b["contexts"] for a, b in zip(speech, semi))
    transcripts = {p.transcript for p in pipe_corpus.passages}
    assert all(ctx in transcripts for trace in semi for ctx in trace["contexts"])


def _with_deletable_passage(seed):
    """A 5-passage synth corpus plus passage "deleted", whose one-word
    transcript the returned delete-only corruptor removes entirely, and a
    query for it."""
    base = synth_corpus(SynthParams(n_passages=5, seed=seed))
    word = base.passages[0].transcript.split()[0]
    corpus = dataclasses.replace(
        base,
        passages=base.passages + (Passage(id="deleted", transcript=word),),
        queries=base.queries + (Query(text=word, gold_answer=word, relevant_passage_id="deleted"),),
    )
    configs = (CorruptionConfig(0.5, (), sub_weight=0.0, del_weight=1.0, ins_weight=0.0, seed=s)
               for s in range(64))
    return corpus, next(cfg for cfg in configs if not corrupt_transcript(word, cfg))


@pytest.mark.parametrize("hidden_dim", [8, 16, 64])
def test_fully_deleted_transcript_fallback_ranks_last(hidden_dim):
    """A passage with no words left is not indexed: no query retrieves it,
    even at k = N, while its empty context still counts toward the WER."""
    for seed in range(12):
        corpus, cfg = _with_deletable_passage(seed)
        model = build_model(Vocab.from_words(corpus_words(corpus)), hidden_dim=hidden_dim, seed=seed)
        mode, n = PipelineMode.FULLY_CASCADED, len(corpus.passages)
        ids, matrix, contexts = passage_embeddings(corpus, mode, model, corruption=cfg)
        assert ids == [p.id for p in corpus.passages[:-1]] and len(matrix) == n - 1
        assert list(contexts) == [p.id for p in corpus.passages] and contexts["deleted"] == ""
        rows = []
        report = retrieval_run(corpus, mode, model, k_values=(n,), corruption=cfg, sink=rows.append)
        assert all(len(r["ranked_ids"]) == n - 1 and "deleted" not in r["ranked_ids"] for r in rows)
        assert rows[-1]["relevant_rank"] is None
        assert report.recalls[n] == (n - 1) / n
        assert report.passage_wer == corpus_wer((p.transcript, contexts[p.id])
                                                for p in corpus.passages)
        traces = list(run_pipeline(corpus, mode, model, k=n, corruption=cfg))
        assert all("deleted" not in t["retrieved_ids"] for t in traces)


def test_every_transcript_deleted_is_a_named_error(pipe_model):
    corpus, cfg = _with_deletable_passage(0)
    only = dataclasses.replace(corpus, passages=corpus.passages[-1:], queries=corpus.queries[-1:])
    with pytest.raises(ValueError, match="the corruptor deleted every transcript"):
        passage_embeddings(only, PipelineMode.FULLY_CASCADED, pipe_model, corruption=cfg)


def test_fully_cascaded_requires_corruption(pipe_corpus, pipe_model):
    with pytest.raises(ValueError, match="CorruptionConfig"):
        run_pipeline(pipe_corpus, PipelineMode.FULLY_CASCADED, pipe_model, k=3)


def test_generator_failure_recorded_run_continues(pipe_corpus, pipe_model):
    def flaky(request):
        raise GeneratorError("synthetic outage")

    traces = list(
        run_pipeline(pipe_corpus, PipelineMode.GT_TEXT, pipe_model, k=3, generator=flaky)
    )
    assert len(traces) == len(pipe_corpus.queries)
    assert all(t["error"] and "synthetic outage" in t["error"] for t in traces)
    assert all(t["answer"] == "" for t in traces)
    rows = []
    report = eval_generation(
        traces, judge=lambda *args: pytest.fail("judged a failed answer"), sink=rows.append
    )
    assert report.generator_errors == len(traces) and report.judge_errors == 0
    assert len(rows) == len(traces)
    assert all(row["exact_match"] is None and row["correct"] is None for row in rows)
    # No row is scored or judged, so neither mean has a value.
    assert report.em_mean is None and report.correctness_mean is None


def test_run_pipeline_concurrent_matches_sequential(pipe_corpus, pipe_model):
    seq = list(run_pipeline(pipe_corpus, PipelineMode.GT_TEXT, pipe_model, k=3, concurrency=1))
    par = list(run_pipeline(pipe_corpus, PipelineMode.GT_TEXT, pipe_model, k=3, concurrency=4))
    assert len(seq) == len(pipe_corpus.queries)
    assert seq == par


def test_eval_generation_means():
    def trace(key, answer, gold):
        return dict(
            query_key=key, query="q", gold_answer=gold, relevant_id="p",
            retrieved_ids=["p"], contexts=["c"], answer=answer, error=None,
        )

    rows = []
    report = eval_generation([trace("q0", "gold", "gold"), trace("q1", "nope", "gold")],
                             sink=rows.append)
    assert report.em_mean == 0.5
    assert [row["exact_match"] for row in rows] == [1, 0]


def test_eval_generation_judge_errors_excluded():
    calls = {"n": 0}

    def judge(query, answer, gold):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("judge offline")
        return 1

    traces = [
        dict(query_key=f"q{i}", query="q", gold_answer="g", relevant_id="p",
             retrieved_ids=["p"], contexts=["c"], answer="g", error=None)
        for i in range(3)
    ]
    report = eval_generation(traces, judge=judge)
    assert report.judge_errors == 1
    assert report.correctness_mean == 1.0  # two judged, both correct

    def offline(query, answer, gold):
        raise RuntimeError("judge offline")

    report = eval_generation(traces, judge=offline)
    assert report.judge_errors == 3
    assert report.em_mean == 1.0 and report.correctness_mean is None


def test_retrieval_run_reports_passage_wer(pipe_corpus, pipe_model):
    corruption = CorruptionConfig(
        target_wer=0.3, vocabulary=tuple(corpus_words(pipe_corpus)), seed=2
    )
    rows = []
    report = retrieval_run(pipe_corpus, PipelineMode.FULLY_CASCADED, pipe_model, k_values=(5,),
                           corruption=corruption, sink=rows.append)
    assert report.passage_wer is not None and report.passage_wer > 0.1
    gt = retrieval_run(pipe_corpus, PipelineMode.GT_TEXT, pipe_model, k_values=(5,))
    assert gt.passage_wer == 0.0
    assert len(rows) == len(pipe_corpus.queries)
    for row in rows:
        assert row["relevant_rank"] is None or row["relevant_rank"] >= 1
        assert len(row["ranked_ids"]) == min(5, len(pipe_corpus.passages))
