"""Corpus data model: manifest I/O, dataset splitting, and synthetic
audio/text corpus generation.

A corpus pairs spoken passages (each with a ground-truth transcript) with
queries that reference exactly one relevant passage. Synthetic corpora make
the audio a deterministic function of the transcript: every vocabulary word
owns a fixed 100 ms tone-plus-noise pattern, and a passage's waveform is the
concatenation of its words' patterns. Such a corpus keeps the word patterns
(its codebook) and renders a passage's audio when it is loaded, so it holds
no waveform per passage. Queries are dropout-perturbed copies of the
transcript, so lexical overlap ties each query to its one passage.

Corpus values are immutable after construction and safe to share across
threads read-only.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import files
from .dsp import AudioSignal, _wav_header, read_wav, write_wav
from .encoder import words as split_words

SYNTH_SAMPLE_RATE = 16000
WORD_SECONDS = 0.1

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


class ManifestError(ValueError):
    """Malformed manifest content; message carries the offending line number."""


@dataclass(frozen=True)
class Passage:
    """A spoken passage. Its audio is the WAV file at `audio_path`, relative
    to the corpus's base_dir, or, with no path, its transcript rendered by
    the corpus's codebook."""

    id: str
    transcript: str
    audio_path: str | None = None


# eq=False: a dict of arrays has no truth value to compare by, so a
# codebook equals only itself.
@dataclass(frozen=True, eq=False)
class Codebook:
    """Each vocabulary word's fixed waveform, read-only. A synthesized
    passage's audio is its transcript's word waveforms end to end."""

    patterns: dict[str, np.ndarray]
    sample_rate: int

    def render(self, transcript: str) -> AudioSignal:
        return AudioSignal(
            np.concatenate([self.patterns[w] for w in transcript.split()]), self.sample_rate
        )


@dataclass(frozen=True)
class Query:
    text: str
    gold_answer: str
    relevant_passage_id: str


@dataclass(frozen=True)
class Corpus:
    """Passages and the queries that reference them. Construction checks
    every corpus rule and raises ValueError on the first breach."""

    passages: tuple[Passage, ...]
    queries: tuple[Query, ...]
    sample_rate: int = SYNTH_SAMPLE_RATE
    base_dir: str | None = None
    codebook: Codebook | None = None

    def __post_init__(self):
        codebook = self.codebook
        if codebook is not None and codebook.sample_rate != self.sample_rate:
            raise ValueError(
                f"codebook sample rate {codebook.sample_rate} does not "
                f"match corpus rate {self.sample_rate}"
            )
        by_id = self.passages_by_id
        if len(by_id) != len(self.passages):
            seen: set[str] = set()
            dup = next(p.id for p in self.passages if p.id in seen or seen.add(p.id))
            raise ValueError(f"duplicate passage id {dup!r}")
        for p in self.passages:
            if not p.transcript:
                raise ValueError(f"passage {p.id}: empty transcript")
            if p.audio_path is None:
                if codebook is None:
                    raise ValueError(f"passage {p.id}: no file reference and no codebook")
                missing = [w for w in p.transcript.split() if w not in codebook.patterns]
                if missing:
                    raise ValueError(f"passage {p.id}: word {missing[0]!r} is not in the codebook")
        for q in self.queries:
            if q.relevant_passage_id not in by_id:
                raise ValueError(
                    f"query {q.text!r}: dangling relevant_passage_id {q.relevant_passage_id!r}"
                )

    @cached_property
    def passages_by_id(self) -> dict[str, Passage]:
        return {p.id: p for p in self.passages}

    def passage(self, passage_id: str) -> Passage:
        return self.passages_by_id[passage_id]

    def load_audio(self, passage: Passage) -> AudioSignal:
        if passage.audio_path is None:
            return self.codebook.render(passage.transcript)
        root = Path(self.base_dir) if self.base_dir else Path(".")
        signal = read_wav(root / passage.audio_path)
        if signal.sample_rate != self.sample_rate:
            raise ValueError(
                f"passage {passage.id}: sample rate {signal.sample_rate} does not "
                f"match corpus rate {self.sample_rate}"
            )
        return signal


def corpus_words(corpus: Corpus) -> list[str]:
    """Sorted unique lowercase words across all transcripts and query texts."""
    seen: set[str] = set()
    for p in corpus.passages:
        seen.update(split_words(p.transcript))
    for q in corpus.queries:
        seen.update(split_words(q.text))
    return sorted(seen)


# ---------------------------------------------------------------------------
# Manifest I/O (line-delimited JSON; see README for the record schema)
# ---------------------------------------------------------------------------

# Each record kind's fields, in file order after "kind", each a JSON string.
# save_manifest writes every record from this table, load_manifest reads with it.
RECORD_FIELDS = {"passage": ("id", "audio", "transcript"), "query": ("text", "answer", "passage_id")}
_FIELD_GETTERS = {kind: itemgetter(*names) for kind, names in RECORD_FIELDS.items()}


def load_manifest(path) -> Corpus:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    passages: list[Passage] = []
    queries: list[Query] = []
    sample_rate: int | None = None
    seen_ids: set[str] = set()
    base_dir = str(path.parent)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            # Each check raises a plain ValueError; the handler below names the line.
            try:
                try:
                    record = _decode_line(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"invalid JSON: {exc}") from exc
                if not isinstance(record, dict) or "kind" not in record:
                    raise ValueError("record has no 'kind' field")
                kind = record["kind"]
                if kind == "passage":
                    pid, audio, transcript = _record_fields(record, kind)
                    if not transcript:
                        raise ValueError(f"passage {pid!r} has empty transcript")
                    # Header-only read: samples stay lazy, but rate and duration are checked now.
                    audio_file = os.path.join(base_dir, audio)
                    try:
                        fd = os.open(audio_file, os.O_RDONLY)
                        try:
                            rate, n_frames, *_ = _wav_header(fd, audio_file)
                        finally:
                            os.close(fd)
                    except (FileNotFoundError, NotADirectoryError):
                        raise ValueError(f"audio file not found: {Path(base_dir, audio)}") from None
                    except (OSError, ValueError) as exc:  # a directory opens, then fails to read
                        reason = getattr(exc, "strerror", None) or exc
                        raise ValueError(f"unreadable WAV {Path(base_dir, audio)}: {reason}") from exc
                    if n_frames == 0:
                        raise ValueError(f"passage {pid!r} has zero-duration audio")
                    if pid in seen_ids:
                        raise ValueError(f"duplicate passage id {pid!r}")
                    seen_ids.add(pid)
                    if sample_rate is None:
                        sample_rate = rate
                    elif rate != sample_rate:
                        raise ValueError(
                            f"sample rate {rate} does not match corpus rate {sample_rate}"
                        )
                    passages.append(Passage(pid, transcript, audio))
                elif kind == "query":
                    queries.append(Query(*_record_fields(record, kind)))
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
            except ValueError as exc:
                raise ManifestError(f"line {lineno}: {exc}") from exc
    return Corpus(
        passages=tuple(passages),
        queries=tuple(queries),
        sample_rate=sample_rate if sample_rate is not None else SYNTH_SAMPLE_RATE,
        base_dir=base_dir,
    )


def _record_fields(record: dict, kind: str) -> tuple[str, str, str]:
    """`kind`'s fields of `record`, in RECORD_FIELDS order. Raises ValueError
    naming the first field that is missing or not a string, and the record by
    its first field (a passage's id, a query's text) when that one is a string."""
    try:
        a, b, c = fields = _FIELD_GETTERS[kind](record)
    except KeyError as exc:
        raise ValueError(f"{kind} record missing {exc.args[0]!r}") from None
    # One chained test: a loop over the fields costs about 0.3 us more per record.
    if type(a) is str and type(b) is str and type(c) is str:
        return fields
    names = RECORD_FIELDS[kind]
    name, value = next((n, v) for n, v in zip(names, fields) if type(v) is not str)
    label = kind if name == names[0] else f"{kind} {a!r}"
    raise ValueError(f"{label} {name} must be a string, got {value!r}")


_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = re.compile(r"[ \t\n\r]*")


def _decode_line(line: str):
    """json.loads(line) for a stripped, nonempty line, with the same value
    and the same JSONDecodeError, but without json.loads's whitespace scans
    (a stripped line has no JSON whitespace at either end)."""
    try:
        value, end = _raw_decode(line)
    except json.JSONDecodeError:
        if line.startswith("\ufeff"):
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
            ) from None
        raise
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, _JSON_SPACE.match(line, end).end())
    return value


def save_manifest(corpus: Corpus, path) -> None:
    """Write a corpus as JSONL plus PCM16 WAV files.

    Passages already referencing files under the destination directory keep
    their references; every other passage's audio is loaded, written to
    `<dir>/audio/` and dropped, one passage at a time.
    """
    path = Path(path)
    records: list[tuple[str, tuple[str, str, str]]] = []
    for p in corpus.passages:
        if p.audio_path is not None and corpus.base_dir == str(path.parent):
            rel = p.audio_path
        else:
            (path.parent / "audio").mkdir(parents=True, exist_ok=True)
            rel = f"audio/{p.id}.wav"
            write_wav(path.parent / rel, corpus.load_audio(p))
        records.append(("passage", (p.id, rel, p.transcript)))
    records += [("query", (q.text, q.gold_answer, q.relevant_passage_id)) for q in corpus.queries]
    with files.replacing(path, "w", encoding="utf-8") as fh:
        fh.write("".join(
            json.dumps({"kind": kind, **dict(zip(RECORD_FIELDS[kind], fields))}, ensure_ascii=False)
            + "\n" for kind, fields in records))


# ---------------------------------------------------------------------------
# Synthetic corpora
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthParams:
    # Default vocabulary is kept below the default training-split size: the
    # speech branch can only generalize to held-out passages when the
    # training passages pin down a per-word embedding dictionary, which
    # requires at least as many training passages as vocabulary words.
    n_passages: int = 64
    words_per_passage: tuple[int, int] = (20, 40)
    vocabulary_size: int = 48
    query_word_dropout: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n_passages < 1:
            raise ValueError("n_passages must be >= 1")
        lo, hi = self.words_per_passage
        if lo < 1 or hi < lo:
            raise ValueError(f"bad words_per_passage range {self.words_per_passage}")
        if self.vocabulary_size < 2:
            raise ValueError("vocabulary_size must be >= 2")
        if not 0.0 <= self.query_word_dropout < 1.0:
            raise ValueError("query_word_dropout must lie in [0, 1)")


def _make_vocabulary(size: int, rng: np.random.Generator) -> list[str]:
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    n = len(syllables)
    max_words = n**3
    if size > max_words:
        raise ValueError(f"vocabulary_size {size} exceeds {max_words} distinct words")
    codes = rng.choice(max_words, size=size, replace=False)
    words = []
    for code in codes:
        a, rem = divmod(int(code), n * n)
        b, c = divmod(rem, n)
        words.append(syllables[a] + syllables[b] + syllables[c])
    return words


def _word_waveform(rng: np.random.Generator, n_samples: int, sample_rate: int) -> np.ndarray:
    """Fixed tone/noise signature for one vocabulary word: three random
    sinusoids plus a low noise floor, faded in and out to avoid clicks."""
    t = np.arange(n_samples) / sample_rate
    wave_sum = np.zeros(n_samples)
    freqs = rng.uniform(250.0, 6000.0, size=3)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
    amps = rng.uniform(0.5, 1.0, size=3)
    amps = 0.4 * amps / amps.sum()
    for f, ph, a in zip(freqs, phases, amps):
        wave_sum += a * np.sin(2.0 * np.pi * f * t + ph)
    # Floor high enough that moderate added noise shifts log-mel energies
    # gradually instead of swamping near-silent bins all at once.
    wave_sum += 0.025 * rng.standard_normal(n_samples)
    fade = min(int(0.005 * sample_rate), n_samples // 4)
    if fade > 0:
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(fade) / fade))
        wave_sum[:fade] *= ramp
        wave_sum[-fade:] *= ramp[::-1]
    return wave_sum


def synth_corpus(params: SynthParams) -> Corpus:
    """Deterministically generate a paired audio/text corpus.

    Each passage transcript is a sequence of random vocabulary words; its
    waveform, rendered from the returned corpus's codebook when loaded,
    concatenates the per-word patterns. Each passage gets
    one query: the transcript with each word independently dropped with
    probability query_word_dropout, and a retained word as the gold answer.
    """
    rng_vocab = np.random.default_rng([params.seed, 0])
    rng_code = np.random.default_rng([params.seed, 1])
    rng_text = np.random.default_rng([params.seed, 2])
    rng_query = np.random.default_rng([params.seed, 3])

    vocabulary = _make_vocabulary(params.vocabulary_size, rng_vocab)
    word_samples = int(round(WORD_SECONDS * SYNTH_SAMPLE_RATE))
    patterns = {}
    for word in vocabulary:
        patterns[word] = _word_waveform(rng_code, word_samples, SYNTH_SAMPLE_RATE)
        patterns[word].flags.writeable = False

    lo, hi = params.words_per_passage
    passages: list[Passage] = []
    queries: list[Query] = []
    for i in range(params.n_passages):
        n_words = int(rng_text.integers(lo, hi + 1))
        word_ids = rng_text.integers(0, params.vocabulary_size, size=n_words)
        transcript_words = [vocabulary[w] for w in word_ids]
        pid = f"p{i:04d}"
        passages.append(Passage(id=pid, transcript=" ".join(transcript_words)))
        keep = rng_query.random(n_words) >= params.query_word_dropout
        if not keep.any():
            keep[int(rng_query.integers(n_words))] = True
        retained = [w for w, k in zip(transcript_words, keep) if k]
        gold = retained[int(rng_query.integers(len(retained)))]
        queries.append(Query(text=" ".join(retained), gold_answer=gold, relevant_passage_id=pid))

    return Corpus(
        passages=tuple(passages),
        queries=tuple(queries),
        codebook=Codebook(patterns, SYNTH_SAMPLE_RATE),
    )


def split(
    corpus: Corpus, train_frac: float, val_frac: float, seed: int
) -> tuple[Corpus, Corpus, Corpus]:
    """Disjoint train/val/test partition of passages; queries follow their
    relevant passage. Deterministic for a fixed seed."""
    if not (0.0 < train_frac < 1.0 and 0.0 < val_frac < 1.0):
        raise ValueError("train_frac and val_frac must lie in (0, 1)")
    if train_frac + val_frac >= 1.0:
        raise ValueError("train_frac + val_frac must be < 1")
    n = len(corpus.passages)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(n * train_frac)
    n_val = int(n * val_frac)
    buckets = (
        sorted(perm[:n_train].tolist()),
        sorted(perm[n_train : n_train + n_val].tolist()),
        sorted(perm[n_train + n_val :].tolist()),
    )
    parts = []
    for indices in buckets:
        chosen = [corpus.passages[i] for i in indices]
        ids = {p.id for p in chosen}
        part_queries = tuple(q for q in corpus.queries if q.relevant_passage_id in ids)
        parts.append(
            replace(corpus, passages=tuple(chosen), queries=part_queries)
        )
    return parts[0], parts[1], parts[2]
