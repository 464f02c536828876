"""The per-query JSONL reports are streamed: the files equal a list-built
reference byte for byte, a retrieval run's traced memory does not grow with
the query count, and a command that fails mid-stream leaves the previous
report in place."""

from __future__ import annotations

import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import jsonl_bytes, listed_generation_rows, listed_retrieval_rows, listed_traces
from speechrag import cli, ragpipe
from speechrag.checkpoint import load_checkpoint, save_checkpoint
from speechrag.corpus import (
    Corpus,
    Passage,
    Query,
    SynthParams,
    corpus_words,
    load_manifest,
    save_manifest,
    synth_corpus,
)
from speechrag.encoder import Vocab
from speechrag.ragpipe import (
    CorruptionConfig,
    GeneratorError,
    MockJudge,
    OracleGenerator,
    PipelineMode,
    retrieval_run,
)
from speechrag.training import Checkpoint, TrainConfig, build_model

BASE_PASSAGES = 8
TARGET_WER = 0.3
SEED = 3


@pytest.fixture(scope="module")
def base_corpus():
    return synth_corpus(SynthParams(n_passages=BASE_PASSAGES, vocabulary_size=10,
                                    words_per_passage=(3, 6), seed=11))


@pytest.fixture(scope="module")
def checkpoint(base_corpus):
    model = build_model(Vocab.from_words(corpus_words(base_corpus)), seed=11)
    return Checkpoint(model=model, train_config=TrainConfig(), best_val_loss=0.5, epoch=1)


def copies_corpus(base: Corpus, bases, copies: int, query_bases) -> Corpus:
    """`copies` passages with each base passage's transcript, so with the
    same embedding in every mode, and one query per entry of query_bases,
    relevant to the first copy of its base passage."""
    passages = tuple(
        Passage(id=f"p{i * copies + c:02d}", transcript=base.passages[b].transcript)
        for i, b in enumerate(bases) for c in range(copies)
    )
    first_copy = {b: f"p{i * copies:02d}" for i, b in enumerate(bases)}
    by_passage = {q.relevant_passage_id: q for q in base.queries}
    queries = tuple(
        Query(by_passage[base.passages[b].id].text, by_passage[base.passages[b].id].gold_answer,
              first_copy[b])
        for b in query_bases
    )
    return Corpus(passages=passages, queries=queries, codebook=base.codebook)


class FlakyGenerator:
    """The oracle generator, raising for the queries in `failing`."""

    def __init__(self, corpus, failing):
        self._inner, self._failing = OracleGenerator(corpus), failing

    def __call__(self, request):
        if request.query in self._failing:
            raise GeneratorError(f"outage for {request.query!r}")
        return self._inner(request)


class FlakyJudge(MockJudge):
    def __init__(self, failing):
        self._failing = failing

    def __call__(self, query, answer, gold):
        if query in self._failing:
            raise RuntimeError(f"judge offline for {query!r}")
        return super().__call__(query, answer, gold)


@st.composite
def layouts(draw):
    bases = draw(st.lists(st.integers(0, BASE_PASSAGES - 1), min_size=1, max_size=4, unique=True))
    copies = draw(st.integers(1, 3))
    return {
        "bases": bases,
        "copies": copies,
        "query_bases": draw(st.lists(st.sampled_from(bases), min_size=1, max_size=12)),
        "k": draw(st.integers(1, len(bases) * copies + 1)),
        "failing": draw(st.sets(st.sampled_from(bases))),
        "misjudged": draw(st.sets(st.sampled_from(bases))),
        "concurrency": draw(st.sampled_from((1, 4))),
    }


# Pairs of equal passages and an odd depth: every ranking cuts a tied pair
# at depth k. Twelve queries keep more generator calls in flight than four
# threads take at once.
TIED = {"bases": [0, 1, 2, 3], "copies": 2, "query_bases": [0, 1, 2, 3] * 3, "k": 3,
        "failing": {1}, "misjudged": {2}, "concurrency": 4}


@settings(max_examples=12, deadline=None)
@example(layout=TIED)
@example(layout=dict(TIED, concurrency=1))
@given(layout=layouts())
def test_streamed_reports_equal_the_list_built_reference(base_corpus, checkpoint, layout):
    corpus = copies_corpus(base_corpus, layout["bases"], layout["copies"], layout["query_bases"])
    texts = {b: q.text for b, q in zip(layout["query_bases"], corpus.queries)}
    failing = {texts[b] for b in layout["failing"] if b in texts}
    misjudged = {texts[b] for b in layout["misjudged"] if b in texts}
    k = layout["k"]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_manifest(corpus, root / "corpus/manifest.jsonl")
        save_checkpoint(checkpoint, root / "artifacts/model.ckpt")
        config = root / "config.json"
        config.write_text(json.dumps({
            "data_dir": tmp, "k_values": [k], "top_k_context": k, "target_wer": TARGET_WER,
            "generator_concurrency": layout["concurrency"], "seed": SEED,
        }))
        with mock.patch.object(cli, "OracleGenerator", lambda c: FlakyGenerator(c, failing)), \
                mock.patch.object(cli, "MockJudge", lambda: FlakyJudge(misjudged)):
            assert cli.main(["eval-retrieval", "--config", str(config),
                             "--mode", "gt_text,speech,cascaded"]) == 0
            for mode in PipelineMode:
                assert cli.main(["eval-generation", "--config", str(config),
                                 "--mode", mode.value]) == 0

        loaded = load_manifest(root / "corpus/manifest.jsonl")
        model = load_checkpoint(root / "artifacts/model.ckpt").model
        corruption = CorruptionConfig(TARGET_WER, tuple(corpus_words(loaded)), seed=SEED)
        reports = root / "reports"
        assert not (reports / "retrieval_semi_cascaded.jsonl").exists()
        for mode in PipelineMode:
            cascaded = corruption if mode is PipelineMode.FULLY_CASCADED else None
            if mode.retriever is mode:
                rows = listed_retrieval_rows(loaded, mode, model, k, corruption=cascaded)
                assert (reports / f"retrieval_{mode.value}.jsonl").read_bytes() == jsonl_bytes(rows)
            traces = listed_traces(loaded, mode, model, k, FlakyGenerator(loaded, failing),
                                   corruption=cascaded)
            assert (reports / f"traces_{mode.value}.jsonl").read_bytes() == jsonl_bytes(traces)
            scored = listed_generation_rows(traces, FlakyJudge(misjudged))
            assert (reports / f"generation_{mode.value}_rows.jsonl").read_bytes() == (
                jsonl_bytes(scored))
            if mode is PipelineMode.GT_TEXT and k % layout["copies"] and k < len(corpus.passages):
                # The k-th passage has an equal copy that ranks just outside.
                for row in rows:
                    last = loaded.passage(row["ranked_ids"][-1]).transcript
                    assert sum(p.transcript == last for p in loaded.passages) > sum(
                        loaded.passage(pid).transcript == last for pid in row["ranked_ids"])
        assert not list(reports.glob("*.tmp"))


def test_retrieval_run_memory_does_not_grow_with_queries():
    corpus = synth_corpus(SynthParams(n_passages=128, vocabulary_size=16,
                                      words_per_passage=(3, 6), seed=4))
    model = build_model(Vocab.from_words(corpus_words(corpus)), seed=4)

    def with_queries(n: int) -> Corpus:
        return Corpus(passages=corpus.passages,
                      queries=tuple(corpus.queries[i % len(corpus.queries)] for i in range(n)),
                      codebook=corpus.codebook)

    def traced_peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = with_queries(64), with_queries(256)
    peaks = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, queries in (("few", few), ("many", many)):
            def streamed():
                with cli._jsonl_report(Path(tmp) / f"{name}.jsonl") as sink:
                    retrieval_run(queries, PipelineMode.GT_TEXT, model, k_values=(5, 100),
                                  sink=sink)
            peaks[name] = traced_peak(streamed)
            peaks[f"listed_{name}"] = traced_peak(
                lambda: listed_retrieval_rows(queries, PipelineMode.GT_TEXT, model, 100))
    # 192 more queries add one rank each; 192 more rows of 100 ids and 100
    # scores held at once add about 2.5 MB, as the list-built reference shows.
    slack = 32 * 1024
    assert peaks["many"] - peaks["few"] < slack, peaks
    assert peaks["listed_many"] - peaks["listed_few"] > 10 * slack, peaks


FAIL_CASES = [
    (("eval-retrieval", "--mode", "gt_text"), ("retrieval_gt_text.jsonl",)),
    (("eval-generation", "--mode", "gt_text"),
     ("traces_gt_text.jsonl", "generation_gt_text_rows.jsonl")),
]


@pytest.mark.parametrize("command, outputs", FAIL_CASES, ids=[c[0][0] for c in FAIL_CASES])
def test_command_failing_mid_stream_leaves_the_previous_report(tmp_path, monkeypatch,
                                                               command, outputs):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data_dir": str(tmp_path), "synth": {"n_passages": 12, "vocabulary_size": 12}}))
    assert cli.main(["synth", "--config", str(config)]) == 0
    assert cli.main([*command, "--config", str(config)]) == 0
    reports = tmp_path / "reports"
    before = {name: (reports / name).read_bytes() for name in outputs}

    search, calls = ragpipe.search, []

    def search_failing_late(*args):
        calls.append(args)
        if len(calls) == 9:
            # Eight rows are out, and each report is a temp file.
            assert len(list(reports.glob("*.tmp"))) == len(outputs)
            raise OSError("no space left on device")
        return search(*args)

    monkeypatch.setattr(ragpipe, "search", search_failing_late)
    assert cli.main([*command, "--config", str(config), "--seed", "5"]) == 2
    assert len(calls) == 9
    assert {name: (reports / name).read_bytes() for name in outputs} == before
    assert not list(reports.glob("*.tmp"))


def test_csv_write_failing_partway_leaves_the_previous_report(tmp_path):
    out = tmp_path / "reports" / "retrieval.csv"
    header = ["mode", "passage_wer", "recall@5"]
    cli._write_csv(out, header, [["gt_text", "", "1.0000"]])
    before = out.read_bytes()

    class Unwritable:
        def __str__(self):
            # The header and the first row are out, to a temp file beside the report.
            assert [p.name for p in out.parent.iterdir()] != ["retrieval.csv"]
            raise OSError("no space left on device")

    with pytest.raises(OSError, match="no space"):
        cli._write_csv(out, header, [["gt_text", "", "0.5000"], ["speech_rag", "", Unwritable()]])
    assert out.read_bytes() == before
    assert [p.name for p in out.parent.iterdir()] == ["retrieval.csv"]
