"""Retrieval-augmented generation pipelines and their evaluation metrics.

Four pipeline modes (PipelineMode) share one retrieval core. Real ASR is
replaced by a calibrated word-level corruptor: the quantity under study is
the transcript WER level, and the corruptor controls it exactly.
Generators are pluggable; the built-in OracleGenerator answers correctly iff
the relevant passage was retrieved, which makes LLM-free end-to-end checks
possible. An HTTP generator client speaks the JSON wire protocol documented
in the README so a real (speech) language model endpoint can be attached.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import Corpus, Passage, Query
from .dsp import add_noise_snr
from .encoder import RetrieverModel, words
from .index import build as build_index, recall_from_ranks, search

DEFAULT_INSTRUCTION = "Answer the question using the numbered contexts."
JUDGE_INSTRUCTION = (
    "You are grading an answer. Contexts hold the candidate answer and the "
    "reference answer. Reply with 1 if the candidate conveys the reference, "
    "otherwise reply with 0."
)


class PipelineMode(str, Enum):
    """What a pipeline embeds each passage from, and its generator's context:
    ``speech_rag`` the audio, with audio references; ``semi_cascaded`` the
    audio, with transcripts; ``fully_cascaded`` a corrupted transcript (the
    ASR stand-in), with it; ``gt_text`` the transcript, with it (upper bound)."""

    SPEECH_RAG = "speech_rag"
    FULLY_CASCADED = "fully_cascaded"
    SEMI_CASCADED = "semi_cascaded"
    GT_TEXT = "gt_text"

    @property
    def embeds_audio(self) -> bool:
        """Whether passages are embedded from audio, by the trained speech
        branch that only a checkpoint holds, not from a transcript."""
        return self in (PipelineMode.SPEECH_RAG, PipelineMode.SEMI_CASCADED)


# ---------------------------------------------------------------------------
# Word error rate
# ---------------------------------------------------------------------------


def _levenshtein(ref: list[str], hyp: list[str]) -> int:
    """Word-level edit distance (unit costs) by the bit-parallel recurrence
    of Myers (1999) in Hyyro's (2003) form: bit i of `pv` / `mv` says that
    row i+1 of the current DP column is one more / one less than row i, and
    `score` follows the last row. A fixed number of operations on
    len(ref)-bit ints per hypothesis word replaces a pass over every cell."""
    if not ref:
        return len(hyp)
    peq: dict[str, int] = {}
    for i, word in enumerate(ref):
        peq[word] = peq.get(word, 0) | (1 << i)
    full = (1 << len(ref)) - 1
    last = 1 << (len(ref) - 1)
    pv, mv, score = full, 0, len(ref)
    for word in hyp:
        eq = peq.get(word, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & full)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # Row 0 of each column is one more than in the last: shift a 1 in.
        ph = ((ph << 1) | 1) & full
        mh = (mh << 1) & full
        pv = mh | (~(xv | ph) & full)
        mv = ph & xv
    return score


def wer(reference: str, hypothesis: str) -> float:
    """Word-level Levenshtein distance (unit costs) over reference length.
    Tokenization matches the retrieval tokenizer, so case and punctuation
    differences never count as errors."""
    ref = words(reference)
    if not ref:
        raise ValueError(f"reference {reference!r} is empty after tokenization")
    return _levenshtein(ref, words(hypothesis)) / len(ref)


def corpus_wer(pairs) -> float:
    """Micro-averaged WER: total edits over total reference words."""
    edits = 0
    total = 0
    for reference, hypothesis in pairs:
        ref = words(reference)
        if not ref:
            raise ValueError(f"reference {reference!r} is empty after tokenization")
        edits += _levenshtein(ref, words(hypothesis))
        total += len(ref)
    if total == 0:
        raise ValueError("no reference words")
    return edits / total


# ---------------------------------------------------------------------------
# WER-targeted transcript corruption
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorruptionConfig:
    target_wer: float
    vocabulary: tuple[str, ...]
    sub_weight: float = 0.6
    del_weight: float = 0.2
    ins_weight: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.target_wer < 1.0:
            raise ValueError("target_wer must lie in [0, 1)")
        weights = (self.sub_weight, self.del_weight, self.ins_weight)
        # Written so that NaN fails: a NaN weight makes the sum NaN.
        if not (min(weights) >= 0.0 and abs(sum(weights) - 1.0) <= 1e-9):
            raise ValueError(f"operation mix weights must be non-negative and sum to 1: {weights}")
        if self.target_wer > 0.0 and self.ins_weight > 0.0 and not self.vocabulary:
            raise ValueError("empty vocabulary but an insertion can be selected")
        if self.target_wer > 0.0 and self.sub_weight > 0.0 and len(set(self.vocabulary)) < 2:
            raise ValueError("vocabulary offers no substitute: fewer than two distinct words")


def _text_rng(seed: int, text: str) -> np.random.Generator:
    # Independent stream per text: sharing one stream across passages would
    # corrupt the same positions everywhere and wreck corpus-level calibration.
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:8], "little")])


def corrupt_transcript(text: str, cfg: CorruptionConfig) -> str:
    """Corrupt each word independently with probability target_wer, drawing
    the operation (substitute / delete / insert-after) from the configured
    mix. Deterministic per (seed, text)."""
    if not text:
        raise ValueError("cannot corrupt empty text")
    rng = _text_rng(cfg.seed, text)
    out: list[str] = []
    for word in words(text):
        if rng.random() >= cfg.target_wer:
            out.append(word)
            continue
        draw = rng.random()
        if draw < cfg.sub_weight:
            out.append(_random_other_word(rng, cfg.vocabulary, word))
        elif draw < cfg.sub_weight + cfg.del_weight:
            continue
        else:
            out.append(word)
            out.append(_random_word(rng, cfg.vocabulary))
    return " ".join(out)


def _random_word(rng: np.random.Generator, vocabulary) -> str:
    return vocabulary[int(rng.integers(len(vocabulary)))]


def _random_other_word(rng: np.random.Generator, vocabulary, word: str) -> str:
    # CorruptionConfig holds two distinct words, so some candidate differs.
    while True:
        candidate = vocabulary[int(rng.integers(len(vocabulary)))]
        if candidate != word:
            return candidate


# ---------------------------------------------------------------------------
# Generation wire protocol and generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenerationRequest:
    query: str
    contexts: tuple[str, ...]
    instruction: str = DEFAULT_INSTRUCTION

    def __post_init__(self):
        if not self.query:
            raise ValueError("query must be non-empty")

    def to_json(self) -> str:
        return json.dumps(
            {
                "query": self.query,
                "contexts": list(self.contexts),
                "instruction": self.instruction,
            }
        )


class GeneratorError(RuntimeError):
    pass


def audio_reference(passage: Passage) -> str:
    return passage.audio_path if passage.audio_path is not None else f"audio:{passage.id}"


class OracleGenerator:
    """Returns the gold answer iff the relevant passage is among the request
    contexts (matched by ground-truth transcript or audio reference), else an
    empty string. Makes end-to-end runs LLM-free. For speech, semi-cascaded
    and gt_text contexts, EM then equals the retriever's hit rate at the
    context depth. A fully_cascaded context is a corrupted transcript, which
    matches only if the corruptor left it unchanged, so there EM counts the
    queries whose relevant passage is retrieved with an unchanged transcript."""

    def __init__(self, corpus: Corpus):
        self._by_query: dict[str, tuple[str, set[str]]] = {}
        for q in corpus.queries:
            passage = corpus.passage(q.relevant_passage_id)
            keys = {passage.transcript, audio_reference(passage)}
            self._by_query[q.text] = (q.gold_answer, keys)

    def __call__(self, request: GenerationRequest) -> str:
        entry = self._by_query.get(request.query)
        if entry is None:
            return ""
        gold, keys = entry
        hit = any(ctx in keys for ctx in request.contexts)
        return gold if hit else ""


class HttpGenerator:
    """POSTs the JSON request body to an external generator endpoint."""

    def __init__(self, url: str, timeout_s: float = 30.0):
        self.url = url
        self.timeout_s = timeout_s

    def __call__(self, request: GenerationRequest) -> str:
        # Loaded here, not at the top: the HTTP stack (ssl, email, socket) would
        # cost every run that never calls it about 3 MiB and a slower cold start.
        import urllib.error
        import urllib.request

        req = urllib.request.Request(
            self.url,
            data=request.to_json().encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, TimeoutError, UnicodeDecodeError,
                json.JSONDecodeError) as exc:
            raise GeneratorError(f"generator call to {self.url} failed: {exc}") from exc
        if not isinstance(payload, dict) or not isinstance(payload.get("answer"), str):
            raise GeneratorError(f"generator reply has no string 'answer': {payload!r}")
        return payload["answer"]


# ---------------------------------------------------------------------------
# Answer-quality metrics
# ---------------------------------------------------------------------------


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return " ".join(words(text))


def exact_match(answer: str, gold: str) -> int:
    """1 iff the normalized gold answer occurs in the normalized generated
    answer as whole words."""
    gold_norm = normalize_answer(gold)
    if not gold_norm:
        raise ValueError(f"gold answer {gold!r} is empty after normalization")
    return int(f" {gold_norm} " in f" {normalize_answer(answer)} ")


def token_f1(answer: str, gold: str) -> float:
    """Token-multiset F1 between normalized answer and gold."""
    a, g = Counter(words(answer)), Counter(words(gold))
    overlap = sum((a & g).values())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(a.values())
    recall = overlap / sum(g.values())
    return 2 * precision * recall / (precision + recall)


class MockJudge:
    """Deterministic stand-in for an LLM judge: exact match, or token-level
    F1 at or above F1_THRESHOLD. Its agreement with any real judge is
    untested and not claimed."""

    F1_THRESHOLD = 0.8

    def __call__(self, query: str, answer: str, gold: str) -> int:
        if exact_match(answer, gold):
            return 1
        return int(token_f1(answer, gold) >= self.F1_THRESHOLD)


class HttpJudge:
    """LLM-judge client over the generator wire protocol with a fixed
    judging instruction."""

    def __init__(self, url: str, timeout_s: float = 30.0):
        self._generator = HttpGenerator(url, timeout_s)

    def __call__(self, query: str, answer: str, gold: str) -> int:
        request = GenerationRequest(
            query=query,
            contexts=(f"Candidate answer: {answer}", f"Reference answer: {gold}"),
            instruction=JUDGE_INSTRUCTION,
        )
        verdict = self._generator(request).strip().lower()
        return int(verdict.startswith(("1", "yes", "correct")))


# ---------------------------------------------------------------------------
# Pipeline execution
# ---------------------------------------------------------------------------


def _noise_seed_for(noise_seed: int, passage_id: str) -> int:
    digest = hashlib.sha256(f"{noise_seed}:{passage_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def passage_embeddings(
    corpus: Corpus,
    mode: PipelineMode,
    model: RetrieverModel,
    corruption: CorruptionConfig | None = None,
    snr_db: float | None = None,
    noise_seed: int = 0,
) -> tuple[list[str], np.ndarray, dict[str, str]]:
    """Embed every passage under the given mode's representation. Returns
    the ids of the passages with an embedding and their rows, both in corpus
    order, and the context string every passage contributes to generation
    prompts. A transcript the corruptor deletes entirely has no words to
    embed: its passage is left out of the rows, so no query retrieves it."""
    corrupted = mode is PipelineMode.FULLY_CASCADED
    if corrupted and corruption is None:
        raise ValueError("fully_cascaded mode requires a CorruptionConfig")
    ids: list[str] = []
    rows: list[np.ndarray] = []
    contexts: dict[str, str] = {}
    for p in corpus.passages:
        if mode.embeds_audio:
            signal = corpus.load_audio(p)
            if snr_db is not None:
                signal = add_noise_snr(signal, snr_db, _noise_seed_for(noise_seed, p.id))
            emb = model.embed_speech(signal)
            contexts[p.id] = (
                audio_reference(p) if mode is PipelineMode.SPEECH_RAG else p.transcript
            )
        else:
            text = corrupt_transcript(p.transcript, corruption) if corrupted else p.transcript
            contexts[p.id] = text
            if corrupted and not words(text):
                continue
            emb = model.embed_text(text)
        ids.append(p.id)
        rows.append(emb)
    if not rows:
        raise ValueError("no passages to embed: the corpus has none, or the corruptor "
                         "deleted every transcript")
    return ids, np.stack(rows), contexts


def _retrieve(
    corpus: Corpus,
    mode: PipelineMode,
    model: RetrieverModel,
    k: int,
    corruption: CorruptionConfig | None,
    snr_db: float | None,
    noise_seed: int,
) -> tuple[dict[str, str], Iterator[tuple[str, Query, tuple[list[str], list[float]]]]]:
    """The retrieval loop of every pipeline: embed the passages under the
    mode, index them once, and search each query's text embedding to depth
    k. Returns each passage's context string and an iterator that searches
    lazily, yielding one (query key, query, (ids, scores)) per query in
    corpus order, so a caller holds only the results it keeps."""
    ids, matrix, contexts = passage_embeddings(
        corpus, mode, model, corruption=corruption, snr_db=snr_db, noise_seed=noise_seed
    )
    idx = build_index(ids, matrix)
    hits = (
        (f"q{qi:04d}", q, search(idx, model.embed_text(q.text), k))
        for qi, q in enumerate(corpus.queries)
    )
    return contexts, hits


def run_pipeline(
    corpus: Corpus,
    mode: PipelineMode,
    model: RetrieverModel,
    k: int = 5,
    generator=None,
    corruption: CorruptionConfig | None = None,
    instruction: str = DEFAULT_INSTRUCTION,
    concurrency: int = 1,
) -> Iterator[dict]:
    """Retrieve top-k for every query over clean passage audio, build
    per-mode contexts, call the generator, and return an iterator over one
    trace row per query, in query order: the row that traces_<mode>.jsonl
    holds. The passages are embedded and indexed before it returns; each
    query is searched and generated for as its row is taken. A generator
    maps a GenerationRequest to its answer string; an exception it raises
    is recorded in the row's `error` (with an empty `answer`) and the run
    continues. With concurrency > 1, that many threads call the generator,
    and every query is searched and submitted when the first row is taken."""
    generator = generator if generator is not None else OracleGenerator(corpus)
    context_by_id, hits = _retrieve(corpus, mode, model, k, corruption, None, 0)

    def generate(hit) -> dict:
        key, q, (ids, _) = hit
        contexts = [context_by_id[pid] for pid in ids]
        try:
            answer = generator(
                GenerationRequest(query=q.text, contexts=tuple(contexts), instruction=instruction)
            )
            error = None
        except Exception as exc:  # recorded per query; the run continues
            answer, error = "", f"{type(exc).__name__}: {exc}"
        return {
            "query_key": key,
            "query": q.text,
            "gold_answer": q.gold_answer,
            "relevant_id": q.relevant_passage_id,
            "retrieved_ids": ids,
            "contexts": contexts,
            "answer": answer,
            "error": error,
        }

    if concurrency > 1:
        return _threaded_map(generate, hits, concurrency)
    return map(generate, hits)


def _threaded_map(fn, items, workers: int) -> Iterator:
    """fn over items on `workers` threads, yielded in item order."""
    # Loaded here, not at the top: concurrent.futures pulls in logging, which
    # sequential runs never use.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)


@dataclass
class RetrievalReport:
    recalls: dict[int, float]
    passage_wer: float | None = None


def retrieval_run(
    corpus: Corpus,
    mode: PipelineMode,
    model: RetrieverModel,
    k_values=(5, 10, 100),
    corruption: CorruptionConfig | None = None,
    snr_db: float | None = None,
    noise_seed: int = 0,
    sink=None,
) -> RetrievalReport:
    """Embed passages for the mode, run every query, and report Recall@k for
    each requested k. Each query's ranked row, the row that
    retrieval_<mode>.jsonl holds, goes to `sink` in query order; with no
    sink no row is made. Only each query's relevant rank is kept."""
    k_values = sorted(k_values)
    contexts, hits = _retrieve(
        corpus, mode, model, max(k_values), corruption, snr_db, noise_seed
    )
    ranks = []
    for key, q, (ids, scores) in hits:
        relevant = q.relevant_passage_id
        rank = ids.index(relevant) + 1 if relevant in ids else None
        ranks.append(rank)
        if sink is not None:
            sink({
                "query_key": key,
                "query": q.text,
                "relevant_id": relevant,
                "ranked_ids": ids,
                "scores": [round(score, 6) for score in scores],
                "relevant_rank": rank,
            })
    recalls = {k: recall_from_ranks(ranks, k) for k in k_values}
    passage_wer = None
    if mode is PipelineMode.FULLY_CASCADED:
        passage_wer = corpus_wer((p.transcript, contexts[p.id]) for p in corpus.passages)
    elif mode is PipelineMode.GT_TEXT:
        passage_wer = 0.0
    return RetrievalReport(recalls=recalls, passage_wer=passage_wer)


@dataclass
class GenerationReport:
    em_mean: float | None  # None when no row was scored
    correctness_mean: float | None  # None when no row was judged
    generator_errors: int
    judge_errors: int


def eval_generation(traces, judge=None, sink=None) -> GenerationReport:
    """Score trace rows, as run_pipeline yields them, with Exact Match and
    judge correctness. Each trace's score row, the row that
    generation_<mode>_rows.jsonl holds, goes to `sink` in trace order. A
    trace whose generator raised has no answer to score: its row's scores
    are None and the judge is not called. Generator and judge failures are
    excluded from the means and counted; a mean over no rows is None."""
    judge = judge or MockJudge()
    em_sum = scored = correct_sum = judged = generator_errors = judge_errors = 0
    for trace in traces:
        query, answer, gold = trace["query"], trace["answer"], trace["gold_answer"]
        em = correct = judge_error = None
        if trace["error"] is not None:
            generator_errors += 1
        else:
            em = exact_match(answer, gold)
            em_sum += em
            scored += 1
            try:
                correct = judge(query, answer, gold)
            except Exception as exc:
                judge_error = f"{type(exc).__name__}: {exc}"
                judge_errors += 1
            if correct is not None:
                correct_sum += correct
                judged += 1
        if sink is not None:
            sink({
                "query_key": trace["query_key"],
                "query": query,
                "gold_answer": gold,
                "answer": answer,
                "exact_match": em,
                "correct": correct,
                "retrieved_ids": trace["retrieved_ids"],
                "relevant_id": trace["relevant_id"],
                "generator_error": trace["error"],
                "judge_error": judge_error,
            })
    return GenerationReport(
        em_mean=em_sum / scored if scored else None,
        correctness_mean=correct_sum / judged if judged else None,
        generator_errors=generator_errors,
        judge_errors=judge_errors,
    )
