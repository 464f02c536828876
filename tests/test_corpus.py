from __future__ import annotations

import json
import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechrag.corpus import (
    Corpus,
    ManifestError,
    Passage,
    Query,
    SynthParams,
    corpus_equal,
    corpus_words,
    load_manifest,
    save_manifest,
    split,
    synth_corpus,
    validate_corpus,
)
from speechrag.dsp import AudioSignal, _wav_header, read_wav, write_wav

SR = 16000


def write_manifest(tmp_path, lines):
    path = tmp_path / "manifest.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    return path


def make_wav(tmp_path, name, seconds=0.2, sr=SR):
    rel = f"audio/{name}"
    t = np.arange(int(seconds * sr)) / sr
    (tmp_path / "audio").mkdir(exist_ok=True)
    write_wav(tmp_path / rel, AudioSignal(0.3 * np.sin(2 * np.pi * 440 * t), sr))
    return rel


# ---------------------------------------------------------------------------
# Manifest loading
# ---------------------------------------------------------------------------


def test_load_two_passages_two_queries(tmp_path):
    a = make_wav(tmp_path, "a.wav")
    b = make_wav(tmp_path, "b.wav")
    path = write_manifest(
        tmp_path,
        [
            {"kind": "passage", "id": "p1", "audio": a, "transcript": "hello there"},
            {"kind": "passage", "id": "p2", "audio": b, "transcript": "other words"},
            {"kind": "query", "text": "hello", "answer": "hello", "passage_id": "p1"},
            {"kind": "query", "text": "other", "answer": "other", "passage_id": "p2"},
        ],
    )
    corpus = load_manifest(path)
    assert len(corpus.passages) == 2
    assert len(corpus.queries) == 2
    assert corpus.sample_rate == SR
    audio = corpus.load_audio(corpus.passage("p1"))
    assert audio.sample_rate == SR
    assert audio.samples.size > 0


def test_dangling_reference_rejected(tmp_path):
    a = make_wav(tmp_path, "a.wav")
    path = write_manifest(
        tmp_path,
        [
            {"kind": "passage", "id": "p1", "audio": a, "transcript": "hello"},
            {"kind": "query", "text": "q", "answer": "a", "passage_id": "missing"},
        ],
    )
    with pytest.raises(ValueError, match="dangling"):
        load_manifest(path)


def test_empty_manifest_is_valid_empty_corpus(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text("", encoding="utf-8")
    corpus = load_manifest(path)
    assert corpus.passages == ()
    assert corpus.queries == ()


def test_missing_file_rejected(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_manifest(tmp_path / "nope.jsonl")


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text('{"kind": "passage"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ManifestError, match="line 1"):
        load_manifest(path)
    good = make_wav(tmp_path, "a.wav")
    path.write_text(
        json.dumps({"kind": "passage", "id": "p1", "audio": good, "transcript": "x"})
        + "\nnot json\n",
        encoding="utf-8",
    )
    with pytest.raises(ManifestError, match="line 2"):
        load_manifest(path)


def test_missing_audio_file_rejected(tmp_path):
    path = write_manifest(
        tmp_path, [{"kind": "passage", "id": "p1", "audio": "audio/none.wav", "transcript": "x"}]
    )
    with pytest.raises(ManifestError, match="line 1: audio file not found: .*none.wav"):
        load_manifest(path)


# ---------------------------------------------------------------------------
# WAV header reading: the manifest's own RIFF walk against wave.open
# ---------------------------------------------------------------------------


def riff_chunk(name: bytes, payload: bytes) -> bytes:
    pad = b"\0" if len(payload) % 2 else b""
    return name + struct.pack("<I", len(payload)) + payload + pad


def fmt_chunk(tag=1, channels=1, rate=SR, bits=16, extra=b"") -> bytes:
    block = channels * ((bits + 7) // 8)
    payload = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    return riff_chunk(b"fmt ", payload + extra)


def riff_file(*chunks: bytes, form: bytes = b"WAVE") -> bytes:
    body = form + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


PCM = bytes(range(256)) * 4

WAV_VARIANTS = {
    "list_before_data": riff_file(
        fmt_chunk(), riff_chunk(b"LIST", b"INFOISFT" + struct.pack("<I", 6) + b"tool\0\0"),
        riff_chunk(b"data", PCM),
    ),
    "odd_chunk_with_padding": riff_file(
        fmt_chunk(), riff_chunk(b"junk", b"abc"), riff_chunk(b"data", PCM)
    ),
    "data_beyond_first_read": riff_file(
        fmt_chunk(), riff_chunk(b"LIST", bytes(1001)), riff_chunk(b"data", PCM)
    ),
    "fmt_with_extension": riff_file(fmt_chunk(extra=b"\0\0"), riff_chunk(b"data", PCM)),
    "stereo_8bit_8khz": riff_file(
        fmt_chunk(channels=2, rate=8000, bits=8), riff_chunk(b"data", PCM[:301])
    ),
    "trailing_chunk_after_data": riff_file(
        fmt_chunk(), riff_chunk(b"data", PCM), riff_chunk(b"LIST", b"x" * 10)
    ),
}

BAD_WAVS = {
    "non_pcm_tag": riff_file(fmt_chunk(tag=3, bits=32), riff_chunk(b"data", PCM)),
    "data_before_fmt": riff_file(riff_chunk(b"data", PCM), fmt_chunk()),
    "no_data_chunk": riff_file(fmt_chunk(), riff_chunk(b"LIST", b"abcd")),
    "bad_riff_magic": b"RIFX" + riff_file(fmt_chunk(), riff_chunk(b"data", PCM))[4:],
    "bad_wave_magic": riff_file(fmt_chunk(), riff_chunk(b"data", PCM), form=b"AVI "),
    "zero_channels": riff_file(fmt_chunk(channels=0), riff_chunk(b"data", PCM)),
    "zero_sample_width": riff_file(fmt_chunk(bits=0), riff_chunk(b"data", PCM)),
    "zero_bytes": b"",
    "truncated_riff_header": b"RIFF\x10\0",
    "truncated_fmt": riff_file(fmt_chunk(), riff_chunk(b"data", PCM))[:30],
    # The LIST chunk's size field claims 10**6 bytes, past the RIFF size.
    "chunk_past_riff_size": (
        lambda f: f[:40] + struct.pack("<I", 10**6) + f[44:]
    )(riff_file(fmt_chunk(), riff_chunk(b"LIST", b"abcd"), riff_chunk(b"data", PCM))),
}


def header_via_wave(path) -> tuple[int, int]:
    with wave.open(str(path), "rb") as fh:
        return fh.getframerate(), fh.getnframes()


def header_via_walk(path) -> tuple[int, int]:
    with open(path, "rb", buffering=0) as fh:
        return _wav_header(fh)[:2]


@pytest.mark.parametrize("seconds, sr", [(0.2, SR), (0.0625, 8000), (1.37, 22050)])
def test_wav_header_matches_wave_on_written_files(tmp_path, seconds, sr):
    path = tmp_path / make_wav(tmp_path, "a.wav", seconds=seconds, sr=sr)
    assert header_via_walk(path) == header_via_wave(path) == (sr, int(seconds * sr))


@pytest.mark.parametrize("name", sorted(WAV_VARIANTS))
def test_wav_header_matches_wave_on_hand_built_files(tmp_path, name):
    path = tmp_path / f"{name}.wav"
    path.write_bytes(WAV_VARIANTS[name])
    assert header_via_walk(path) == header_via_wave(path)


def read_via_wave(path):
    """read_wav's reference: (rate, samples) through wave.open, or None
    for a file that is not PCM16 mono."""
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            return None
        raw = fh.readframes(fh.getnframes())
        return fh.getframerate(), np.frombuffer(raw, dtype="<i2") / 32768.0


def assert_read_wav_matches_wave(path):
    expected = read_via_wave(path)
    if expected is None:
        with pytest.raises(ValueError, match="unsupported"):
            read_wav(path)
        return
    signal = read_wav(path)
    assert signal.sample_rate == expected[0]
    assert np.array_equal(signal.samples, expected[1])


@pytest.mark.parametrize("seconds, sr", [(0.2, SR), (0.0625, 8000), (1.37, 22050)])
def test_read_wav_matches_wave_on_written_files(tmp_path, seconds, sr):
    assert_read_wav_matches_wave(tmp_path / make_wav(tmp_path, "a.wav", seconds=seconds, sr=sr))


@pytest.mark.parametrize("name", sorted(WAV_VARIANTS))
def test_read_wav_matches_wave_on_hand_built_files(tmp_path, name):
    path = tmp_path / f"{name}.wav"
    path.write_bytes(WAV_VARIANTS[name])
    assert_read_wav_matches_wave(path)


@pytest.mark.parametrize("name", sorted(BAD_WAVS))
def test_malformed_wav_rejected_with_line_number(tmp_path, name):
    good = make_wav(tmp_path, "good.wav")
    (tmp_path / "audio" / "bad.wav").write_bytes(BAD_WAVS[name])
    path = write_manifest(
        tmp_path,
        [
            {"kind": "passage", "id": "p1", "audio": good, "transcript": "x"},
            {"kind": "passage", "id": "p2", "audio": "audio/bad.wav", "transcript": "y"},
        ],
    )
    with pytest.raises(ManifestError, match="line 2: unreadable WAV .*bad.wav"):
        load_manifest(path)
    # wave.open rejects every one of them too, some with a bare EOFError or,
    # for a chunk past the RIFF size, a RuntimeError.
    with pytest.raises((wave.Error, EOFError, RuntimeError)):
        header_via_wave(tmp_path / "audio" / "bad.wav")


def test_duplicate_passage_id_rejected(tmp_path):
    a = make_wav(tmp_path, "a.wav")
    path = write_manifest(
        tmp_path,
        [
            {"kind": "passage", "id": "p1", "audio": a, "transcript": "x"},
            {"kind": "passage", "id": "p1", "audio": a, "transcript": "y"},
        ],
    )
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(path)


def test_sample_rate_mismatch_rejected(tmp_path):
    a = make_wav(tmp_path, "a.wav", sr=16000)
    b = make_wav(tmp_path, "b.wav", sr=8000)
    path = write_manifest(
        tmp_path,
        [
            {"kind": "passage", "id": "p1", "audio": a, "transcript": "x"},
            {"kind": "passage", "id": "p2", "audio": b, "transcript": "y"},
        ],
    )
    with pytest.raises(ManifestError, match="sample rate"):
        load_manifest(path)


def test_manifest_roundtrip_equals_original(tmp_path):
    corpus = synth_corpus(SynthParams(n_passages=6, vocabulary_size=12, seed=3))
    manifest = tmp_path / "out" / "manifest.jsonl"
    save_manifest(corpus, manifest)
    loaded = load_manifest(manifest)
    assert corpus_equal(corpus, loaded)
    # A second save/load of the already-quantized corpus is exact.
    save_manifest(loaded, tmp_path / "again" / "manifest.jsonl")
    again = load_manifest(tmp_path / "again" / "manifest.jsonl")
    assert corpus_equal(loaded, again, audio_atol=0.0)


# ---------------------------------------------------------------------------
# Synthetic corpora
# ---------------------------------------------------------------------------


def test_synth_deterministic_for_fixed_seed():
    a = synth_corpus(SynthParams(n_passages=5, vocabulary_size=10, seed=7))
    b = synth_corpus(SynthParams(n_passages=5, vocabulary_size=10, seed=7))
    for pa, pb in zip(a.passages, b.passages):
        assert pa.id == pb.id
        assert pa.transcript == pb.transcript
        assert np.array_equal(pa.audio.samples, pb.audio.samples)
    assert a.queries == b.queries


def test_zero_dropout_queries_equal_transcripts():
    corpus = synth_corpus(SynthParams(n_passages=5, vocabulary_size=10, query_word_dropout=0.0, seed=1))
    for q in corpus.queries:
        assert q.text == corpus.passage(q.relevant_passage_id).transcript


def test_synth_64_passages_vocab_200_satisfies_invariants():
    params = SynthParams(n_passages=64, vocabulary_size=200, words_per_passage=(20, 40), seed=7)
    corpus = synth_corpus(params)
    validate_corpus(corpus)
    assert len(corpus.passages) == 64
    assert len(corpus.queries) == 64
    for p in corpus.passages:
        n_words = len(p.transcript.split())
        assert 20 <= n_words <= 40
        assert p.audio.duration == pytest.approx(n_words * 0.1)
    for q in corpus.queries:
        assert q.gold_answer in q.text.split()
        assert q.text
    assert len(corpus_words(corpus)) <= 200


@settings(max_examples=15, deadline=None)
@given(
    n_passages=st.integers(min_value=1, max_value=8),
    vocabulary_size=st.integers(min_value=2, max_value=30),
    dropout=st.floats(min_value=0.0, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_synth_invariants_property(n_passages, vocabulary_size, dropout, seed):
    corpus = synth_corpus(
        SynthParams(
            n_passages=n_passages,
            words_per_passage=(3, 8),
            vocabulary_size=vocabulary_size,
            query_word_dropout=dropout,
            seed=seed,
        )
    )
    validate_corpus(corpus)
    assert len(corpus.queries) == n_passages
    for q in corpus.queries:
        assert q.gold_answer in q.text.split()


def test_synth_params_validation():
    with pytest.raises(ValueError):
        SynthParams(vocabulary_size=1)
    with pytest.raises(ValueError):
        SynthParams(query_word_dropout=1.0)
    with pytest.raises(ValueError):
        SynthParams(words_per_passage=(5, 2))


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def make_corpus(n):
    passages = tuple(
        Passage(id=f"p{i}", transcript=f"word{i}", audio=AudioSignal(np.ones(100) * 0.1, SR))
        for i in range(n)
    )
    queries = tuple(
        Query(text=f"word{i}", gold_answer=f"word{i}", relevant_passage_id=f"p{i}")
        for i in range(n)
    )
    return Corpus(passages=passages, queries=queries, sample_rate=SR)


def test_split_sizes_ten_passages():
    corpus = make_corpus(10)
    tr, va, te = split(corpus, 0.8, 0.1, seed=0)
    assert (len(tr.passages), len(va.passages), len(te.passages)) == (8, 1, 1)


def test_split_deterministic():
    corpus = make_corpus(20)
    first = split(corpus, 0.8, 0.1, seed=5)
    second = split(corpus, 0.8, 0.1, seed=5)
    for a, b in zip(first, second):
        assert [p.id for p in a.passages] == [p.id for p in b.passages]


def test_split_is_partition():
    corpus = make_corpus(17)
    tr, va, te = split(corpus, 0.6, 0.2, seed=9)
    ids = [{p.id for p in part.passages} for part in (tr, va, te)]
    assert ids[0] | ids[1] | ids[2] == {p.id for p in corpus.passages}
    assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])


def test_split_queries_follow_passages():
    corpus = make_corpus(12)
    for part in split(corpus, 0.5, 0.25, seed=2):
        ids = {p.id for p in part.passages}
        assert all(q.relevant_passage_id in ids for q in part.queries)


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_split_partition_property(n, seed):
    corpus = make_corpus(n)
    tr, va, te = split(corpus, 0.5, 0.25, seed=seed)
    combined = sorted(p.id for part in (tr, va, te) for p in part.passages)
    assert combined == sorted(p.id for p in corpus.passages)


def test_split_fraction_validation():
    corpus = make_corpus(5)
    with pytest.raises(ValueError):
        split(corpus, 0.9, 0.2, seed=0)
    with pytest.raises(ValueError):
        split(corpus, 0.0, 0.5, seed=0)
    with pytest.raises(ValueError):
        split(corpus, 1.2, 0.1, seed=0)
