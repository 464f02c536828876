from __future__ import annotations

import dataclasses
import json
import os
import struct
import sys
import tempfile
import wave

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speechrag.corpus import (
    RECORD_FIELDS,
    Codebook,
    Corpus,
    ManifestError,
    _WORD_CHAR,
    _decode_line,
    Passage,
    Query,
    SynthParams,
    corpus_words,
    load_manifest,
    save_manifest,
    split,
    synth_corpus,
)
from speechrag.dsp import _PCM_HEADER, AudioSignal, _walk_riff, _wav_header, read_wav, write_wav
from speechrag.encoder import words as split_words

from oracles import corpus_equal, eager_synth_audio, write_wav_with_wave_module

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


@pytest.mark.parametrize("audio", [5, ["audio/a.wav"], None, 1.5, {"path": "a.wav"}],
                         ids=["int", "list", "null", "float", "object"])
def test_non_string_audio_rejected(tmp_path, audio):
    path = write_manifest(
        tmp_path, [{"kind": "passage", "id": "p1", "audio": audio, "transcript": "x"}]
    )
    with pytest.raises(ManifestError) as info:
        load_manifest(path)
    assert str(info.value) == f"line 1: passage 'p1' audio must be a string, got {audio!r}"


def test_dangling_reference_message_equals_validate_corpus(tmp_path):
    a = make_wav(tmp_path, "a.wav")
    path = write_manifest(
        tmp_path,
        [
            {"kind": "passage", "id": "p1", "audio": a, "transcript": "hello"},
            {"kind": "query", "text": "q", "answer": "a", "passage_id": "p1"},
            {"kind": "query", "text": "r", "answer": "b", "passage_id": "missing"},
        ],
    )
    with pytest.raises(ValueError) as loaded:
        load_manifest(path)
    with pytest.raises(ValueError) as validated:
        Corpus(
            passages=(Passage(id="p1", transcript="hello", audio_path=a),),
            queries=(Query("q", "a", "p1"), Query("r", "b", "missing")),
        )
    assert str(loaded.value) == str(validated.value) == (
        "query 'r': dangling relevant_passage_id 'missing'"
    )


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
    fd = os.open(path, os.O_RDONLY)
    try:
        return _wav_header(fd, path)[:2]
    finally:
        os.close(fd)


@pytest.mark.parametrize("seconds, sr", [(0.2, SR), (0.0625, 8000), (1.37, 22050)])
def test_wav_header_matches_wave_on_written_files(tmp_path, seconds, sr):
    path = tmp_path / make_wav(tmp_path, "a.wav", seconds=seconds, sr=sr)
    assert header_via_walk(path) == header_via_wave(path) == (sr, int(seconds * sr))


@pytest.mark.parametrize("name", sorted(WAV_VARIANTS))
def test_wav_header_matches_wave_on_hand_built_files(tmp_path, name):
    path = tmp_path / f"{name}.wav"
    path.write_bytes(WAV_VARIANTS[name])
    assert header_via_walk(path) == header_via_wave(path)


# write_wav's 44-byte header, field by field, and values that move each
# field off the layout the one-unpack path accepts.
PCM_FIELDS = (
    ("riff", "4s", b"RIFF", st.sampled_from([b"RIFX", b"RIFF", b"riff"])),
    ("riff_size", "I", 36 + 200, st.sampled_from([0, 4, 11, 12, 27, 28, 35, 36, 37, 2**32 - 1])
     | st.integers(0, 2**32 - 1)),
    ("wave", "4s", b"WAVE", st.sampled_from([b"AVI ", b"WAVE"])),
    ("fmt_id", "4s", b"fmt ", st.sampled_from([b"fmt\0", b"LIST", b"data"])),
    ("fmt_size", "I", 16, st.sampled_from([0, 13, 14, 15, 16, 17, 18, 40]) | st.integers(0, 2**32 - 1)),
    ("tag", "H", 1, st.sampled_from([0, 1, 3, 0xFFFE]) | st.integers(0, 2**16 - 1)),
    ("channels", "H", 1, st.sampled_from([0, 1, 2]) | st.integers(0, 2**16 - 1)),
    ("rate", "I", SR, st.sampled_from([8000, 44100]) | st.integers(0, 2**32 - 1)),
    ("byte_rate", "I", 2 * SR, st.integers(0, 2**32 - 1)),
    ("block_align", "H", 2, st.integers(0, 2**16 - 1)),
    ("bits", "H", 16, st.sampled_from([0, 1, 7, 8, 9, 24]) | st.integers(0, 2**16 - 1)),
    ("data_id", "4s", b"data", st.sampled_from([b"dat\0", b"LIST", b"fmt ", b"DATA"])),
    ("data_size", "I", 200, st.sampled_from([0, 1, 3, 199, 200, 2**32 - 1])
     | st.integers(0, 2**32 - 1)),
)
PCM_FORMAT = "<" + "".join(code for _, code, _, _ in PCM_FIELDS)


def header_or_error(read_header):
    try:
        return read_header()
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_pcm_fields_spell_write_wav_header(tmp_path):
    write_wav(tmp_path / "a.wav", AudioSignal(np.zeros(100), SR))
    write_wav_with_wave_module(tmp_path / "b.wav", np.zeros(100), SR)
    defaults = [default for _, _, default, _ in PCM_FIELDS]
    header = struct.pack(PCM_FORMAT, *defaults)
    assert _PCM_HEADER.size == 44
    assert _PCM_HEADER.pack(*defaults) == header
    assert (tmp_path / "a.wav").read_bytes()[:44] == header
    assert (tmp_path / "b.wav").read_bytes()[:44] == header


@settings(max_examples=300, deadline=None)
@given(
    mutations=st.lists(
        st.one_of(*[st.tuples(st.just(i), values) for i, (_, _, _, values) in enumerate(PCM_FIELDS)]),
        max_size=3,
    ),
    length=st.none() | st.integers(43, 256),
    tail=st.binary(min_size=256, max_size=256),
)
@example(mutations=[], length=None, tail=bytes(256))
@example(mutations=[(1, 35)], length=None, tail=bytes(256))
@example(mutations=[(4, 18)], length=None, tail=bytes(256))
@example(mutations=[], length=43, tail=bytes(256))
def test_one_unpack_header_equals_chunk_walk(mutations, length, tail):
    fields = [default for _, _, default, _ in PCM_FIELDS]
    for index, value in mutations:
        fields[index] = value
    data = struct.pack(PCM_FORMAT, *fields) + tail
    data = data[: 44 + 200 if length is None else length]
    with tempfile.TemporaryFile() as fh:
        fh.write(data)
        fh.flush()
        fd = fh.fileno()
        got = header_or_error(lambda: _wav_header(fd, "x.wav"))
        walked = header_or_error(lambda: _walk_riff(fd, os.pread(fd, 256, 0)))
    assert got == walked


def test_header_of_a_directory_names_it(tmp_path):
    fd = os.open(tmp_path, os.O_RDONLY)
    try:
        with pytest.raises(IsADirectoryError, match=str(tmp_path)):
            _wav_header(fd, tmp_path)
    finally:
        os.close(fd)
    with pytest.raises(IsADirectoryError, match=str(tmp_path)):
        read_wav(tmp_path)


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


def test_audio_entry_that_is_a_directory_names_its_line(tmp_path):
    good = make_wav(tmp_path, "good.wav")
    (tmp_path / "audio" / "dir.wav").mkdir()
    path = write_manifest(
        tmp_path,
        [
            {"kind": "passage", "id": "p1", "audio": good, "transcript": "x"},
            {"kind": "passage", "id": "p2", "audio": "audio/dir.wav", "transcript": "y"},
        ],
    )
    with pytest.raises(ManifestError, match=r"^line 2: unreadable WAV .*dir\.wav: Is a directory$"):
        load_manifest(path)


def test_manifest_of_wav_variants_loads_to_the_expected_corpus(tmp_path):
    """Each hand-built layout, one-unpack or walked, loads to the corpus
    that its records and wave.open describe."""
    (tmp_path / "audio").mkdir()
    by_rate: dict[int, list[dict]] = {}
    for name, data in sorted(WAV_VARIANTS.items()):
        (tmp_path / "audio" / f"{name}.wav").write_bytes(data)
        rate = header_via_wave(tmp_path / "audio" / f"{name}.wav")[0]
        by_rate.setdefault(rate, []).append(
            {"kind": "passage", "id": name, "audio": f"audio/{name}.wav", "transcript": name}
        )
    for rate, records in by_rate.items():
        records = records + [{"kind": "query", "text": "q", "answer": "7", "passage_id": records[0]["id"]}]
        path = write_manifest(tmp_path, records)
        expected = Corpus(
            passages=tuple(
                Passage(id=r["id"], transcript=r["transcript"], audio_path=r["audio"])
                for r in records[:-1]
            ),
            queries=(Query(text="q", gold_answer="7", relevant_passage_id=records[0]["id"]),),
            sample_rate=rate,
            base_dir=str(tmp_path),
        )
        assert load_manifest(path) == expected


GOOD_RECORDS = {
    "passage": {"kind": "passage", "id": "p2", "audio": "audio/a.wav", "transcript": "x"},
    "query": {"kind": "query", "text": "t", "answer": "a", "passage_id": "p1"},
}
# What names a record whose field is not a string: the field alone when it
# is the record's first, and otherwise the record by its first field too.
NON_STRING_NAMES = {
    ("passage", "id"): "passage id",
    ("passage", "audio"): "passage 'p2' audio",
    ("passage", "transcript"): "passage 'p2' transcript",
    ("query", "text"): "query text",
    ("query", "answer"): "query 't' answer",
    ("query", "passage_id"): "query 't' passage_id",
}
NON_STRING_FIELDS = [
    ({**GOOD_RECORDS[kind], field: value},
     f"line 2: {NON_STRING_NAMES[kind, field]} must be a string, got {value!r}")
    for kind, names in RECORD_FIELDS.items()
    for field in names
    for value in (None, 7, 1.5, ["a"], {"a": "b"})
]


@pytest.mark.parametrize(
    "record, message",
    [
        ({"kind": "passage", "audio": "audio/a.wav"}, "line 2: passage record missing 'id'"),
        ({"kind": "passage", "id": "p2", "transcript": "x"}, "line 2: passage record missing 'audio'"),
        ({"kind": "passage", "id": "p2", "audio": "audio/a.wav"},
         "line 2: passage record missing 'transcript'"),
        ({"kind": "passage", "id": "p2", "audio": "audio/none.wav", "transcript": ""},
         "line 2: passage 'p2' has empty transcript"),
        ({"kind": "passage", "id": "p2", "audio": "audio/empty.wav", "transcript": "x"},
         "line 2: passage 'p2' has zero-duration audio"),
        ({"kind": "passage", "id": "p1", "audio": "audio/a.wav", "transcript": "x"},
         "line 2: duplicate passage id 'p1'"),
        ({"kind": "passage", "id": "p2", "audio": "audio/slow.wav", "transcript": "x"},
         "line 2: sample rate 8000 does not match corpus rate 16000"),
        ({"kind": "query", "answer": "a", "passage_id": "p1"}, "line 2: query record missing 'text'"),
        ({"kind": "query", "text": "t", "passage_id": "p1"}, "line 2: query record missing 'answer'"),
        ({"kind": "query", "text": "t", "answer": "a"}, "line 2: query record missing 'passage_id'"),
        ({"kind": "other"}, "line 2: unknown record kind 'other'"),
        ([1, 2], "line 2: record has no 'kind' field"),
        # An unhashable kind is no kind either.
        ({"kind": ["passage"]}, "line 2: unknown record kind ['passage']"),
        # The first field that is not a string names the error.
        ({"kind": "passage", "id": None, "audio": 5, "transcript": ["hello", "world"]},
         "line 2: passage id must be a string, got None"),
        ({"kind": "query", "text": "t", "answer": 7, "passage_id": None},
         "line 2: query 't' answer must be a string, got 7"),
        *NON_STRING_FIELDS,
        # A transcript in which the tokenizer finds no word.
        ({"kind": "passage", "id": "p2", "audio": "audio/a.wav", "transcript": "!!!"},
         "line 2: passage 'p2' has no words in transcript '!!!'"),
        ({"kind": "passage", "id": "p2", "audio": "audio/a.wav", "transcript": " é-漢 "},
         "line 2: passage 'p2' has no words in transcript ' é-漢 '"),
        # A query whose text or gold answer the tokenizer finds no word in.
        ({"kind": "query", "text": "???", "answer": "a", "passage_id": "p1"},
         "line 2: query text '???' has no words"),
        ({"kind": "query", "text": "", "answer": "a", "passage_id": "p1"},
         "line 2: query text '' has no words"),
        ({"kind": "query", "text": "t", "answer": "...", "passage_id": "p1"},
         "line 2: query 't' has no words in answer '...'"),
        ({"kind": "query", "text": "t", "answer": "", "passage_id": "p1"},
         "line 2: query 't' has no words in answer ''"),
    ],
)
def test_record_errors_name_line_and_field(tmp_path, record, message):
    a = make_wav(tmp_path, "a.wav")
    make_wav(tmp_path, "slow.wav", sr=8000)
    write_wav(tmp_path / "audio" / "empty.wav", AudioSignal(np.zeros(0), SR))
    path = write_manifest(
        tmp_path, [{"kind": "passage", "id": "p1", "audio": a, "transcript": "x"}, record]
    )
    with pytest.raises(ManifestError) as info:
        load_manifest(path)
    assert str(info.value) == message


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# JSON whitespace, other Unicode whitespace that str.strip removes, and a BOM.
SPACES = st.text(alphabet=" \t\r\n\x0b\x0c\x85\xa0\u3000\ufeff", max_size=3)


def loads_or_error(decode, line):
    try:
        return "value", repr(decode(line))
    except json.JSONDecodeError as exc:
        return "error", str(exc), exc.pos


@settings(max_examples=300, deadline=None)
@given(
    line=st.one_of(
        st.text(max_size=30),
        st.tuples(SPACES, JSON_VALUES.map(json.dumps), SPACES, st.text(max_size=4)).map("".join),
    )
)
@example(line="{} x")
@example(line='{"a": 1}\t\r ,')
@example(line="\ufeff{}")
@example(line="[1] [2]")
def test_line_decoder_equals_json_loads(line):
    line = line.strip()
    if not line:
        return
    assert loads_or_error(_decode_line, line) == loads_or_error(json.loads, line)


@pytest.mark.parametrize("text", ["{} x", '{"kind": "query"} ]', "\ufeff{}", "nul", "[1,]"])
def test_invalid_json_line_message_equals_json_loads(tmp_path, text):
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n" + text + "\n", encoding="utf-8")
    with pytest.raises(ManifestError) as info:
        load_manifest(path)
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    assert str(info.value) == f"line 2: invalid JSON: {expected.value}"


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


# Every field's characters: non-ASCII, quotes, backslashes, and characters
# that JSON escapes. A passage id also names its WAV file, so it holds no
# "/" and no control character.
ID_TEXT = st.text(alphabet="ab \"'\\é漢😀\u2028", min_size=1, max_size=6)
FIELD_TEXT = st.text(alphabet="ab \"'\\/é漢😀\u2028\n\r\t\x00\x1f", min_size=1, max_size=12)
# A transcript, a query's text and its answer must each hold a word.
WORDED_TEXT = FIELD_TEXT.filter(split_words)


@settings(max_examples=40, deadline=None)
@given(
    passages=st.lists(st.tuples(ID_TEXT, WORDED_TEXT), min_size=1, max_size=3,
                      unique_by=lambda p: p[0]),
    queries=st.lists(st.tuples(WORDED_TEXT, WORDED_TEXT, st.integers(0, 2)), max_size=3),
)
def test_manifest_text_round_trips_through_save_and_load(passages, queries):
    with tempfile.TemporaryDirectory() as tmp:
        source = os.path.join(tmp, "source.wav")
        write_wav(source, AudioSignal(0.1 * np.ones(400), SR))
        corpus = Corpus(
            passages=tuple(Passage(pid, transcript, source) for pid, transcript in passages),
            queries=tuple(Query(text, answer, passages[i % len(passages)][0])
                          for text, answer, i in queries),
            sample_rate=SR,
        )
        manifest = os.path.join(tmp, "out", "manifest.jsonl")
        save_manifest(corpus, manifest)
        loaded = load_manifest(manifest)
        assert [(p.id, p.transcript) for p in loaded.passages] == passages
        assert [p.audio_path for p in loaded.passages] == [f"audio/{pid}.wav" for pid, _ in passages]
        assert loaded.queries == corpus.queries
        with open(manifest, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        assert [list(r) for r in records] == [
            ["kind", *RECORD_FIELDS[r["kind"]]] for r in records]
        # Saved where it was loaded from, the corpus keeps its bytes.
        before = open(manifest, "rb").read()
        save_manifest(loaded, manifest)
        assert open(manifest, "rb").read() == before


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
        assert np.array_equal(a.load_audio(pa).samples, b.load_audio(pb).samples)
    assert a.queries == b.queries


def test_zero_dropout_queries_equal_transcripts():
    corpus = synth_corpus(SynthParams(n_passages=5, vocabulary_size=10, query_word_dropout=0.0, seed=1))
    for q in corpus.queries:
        assert q.text == corpus.passage(q.relevant_passage_id).transcript


def test_synth_64_passages_vocab_200_satisfies_invariants():
    params = SynthParams(n_passages=64, vocabulary_size=200, words_per_passage=(20, 40), seed=7)
    corpus = synth_corpus(params)
    assert len(corpus.passages) == 64
    assert len(corpus.queries) == 64
    for p in corpus.passages:
        n_words = len(p.transcript.split())
        assert 20 <= n_words <= 40
        signal = corpus.load_audio(p)
        assert signal.samples.size / signal.sample_rate == pytest.approx(n_words * 0.1)
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


@pytest.mark.parametrize(
    "params",
    [SynthParams(seed=7),
     SynthParams(n_passages=9, vocabulary_size=5, words_per_passage=(1, 3), seed=2)],
)
def test_load_audio_of_synthesized_passages_equals_eager_concatenation(params):
    corpus = synth_corpus(params)
    eager = eager_synth_audio(params)
    assert [p.id for p in corpus.passages] == list(eager)
    for p in corpus.passages:
        signal = corpus.load_audio(p)
        assert signal.sample_rate == corpus.sample_rate
        assert np.array_equal(signal.samples, eager[p.id])


def test_synthesized_corpus_holds_its_codebook_not_its_passages_audio():
    corpus = synth_corpus(SynthParams(n_passages=5, vocabulary_size=10, seed=4))
    assert all(p.audio_path is None for p in corpus.passages)
    assert len(corpus.codebook.patterns) == 10
    pattern = next(iter(corpus.codebook.patterns.values()))
    with pytest.raises(ValueError, match="read-only"):
        pattern[0] = 0.0
    # Each load renders a fresh waveform; none is cached on the corpus.
    p = corpus.passages[0]
    assert corpus.load_audio(p).samples is not corpus.load_audio(p).samples


def test_save_manifest_wav_bytes_equal_reference_writer(tmp_path):
    params = SynthParams(n_passages=12, vocabulary_size=8, seed=5)
    save_manifest(synth_corpus(params), tmp_path / "manifest.jsonl")
    for pid, samples in eager_synth_audio(params).items():
        write_wav_with_wave_module(tmp_path / "reference.wav", samples, SR)
        written = (tmp_path / "audio" / f"{pid}.wav").read_bytes()
        assert written == (tmp_path / "reference.wav").read_bytes()


def test_synth_and_save_peak_memory_does_not_grow_with_passage_count(tmp_path):
    import tracemalloc

    def traced_peak(n_passages: int) -> int:
        tracemalloc.start()
        try:
            corpus = synth_corpus(SynthParams(n_passages=n_passages, seed=1))
            save_manifest(corpus, tmp_path / f"n{n_passages}" / "manifest.jsonl")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = traced_peak(40), traced_peak(400)
    # Holding every waveform makes the peak grow with the passage count
    # (about tenfold here); rendering one passage at a time keeps it flat.
    assert large < 2 * small, (small, large)


def test_validate_corpus_checks_the_codebook():
    codebook = Codebook({"ka": np.full(10, 0.1), "mo": np.full(10, 0.2)}, SR)
    passages = (Passage(id="p1", transcript="ka mo"), Passage(id="p2", transcript="mo zu"))
    queries = (Query(text="ka", gold_answer="ka", relevant_passage_id="p1"),)
    with pytest.raises(ValueError, match="p2: word 'zu' is not in the codebook"):
        Corpus(passages=passages, queries=queries, codebook=codebook)
    with pytest.raises(ValueError, match="p1: no file reference and no codebook"):
        Corpus(passages=passages[:1], queries=queries)
    with pytest.raises(ValueError, match="codebook sample rate 8000 does not match corpus rate"):
        Corpus(passages=passages[:1], queries=queries, codebook=Codebook(codebook.patterns, 8000))
    corpus = Corpus(passages=passages[:1], queries=queries, codebook=codebook)
    assert np.array_equal(corpus.load_audio(passages[0]).samples,
                          np.concatenate([np.full(10, 0.1), np.full(10, 0.2)]))


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def make_corpus(n):
    passages = tuple(Passage(id=f"p{i}", transcript=f"word{i}") for i in range(n))
    queries = tuple(
        Query(text=f"word{i}", gold_answer=f"word{i}", relevant_passage_id=f"p{i}")
        for i in range(n)
    )
    codebook = Codebook({f"word{i}": np.ones(100) * 0.1 for i in range(n)}, SR)
    return Corpus(passages=passages, queries=queries, sample_rate=SR, codebook=codebook)


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


_VALID = make_corpus(3)
_P0 = _VALID.passages[0]


@pytest.mark.parametrize("fields, message", [
    pytest.param({"sample_rate": 8000},
                 "codebook sample rate 16000 does not match corpus rate 8000", id="codebook-rate"),
    pytest.param({"passages": _VALID.passages + (_P0,)}, "duplicate passage id 'p0'",
                 id="unique-ids"),
    pytest.param({"passages": (dataclasses.replace(_P0, transcript=""),) + _VALID.passages[1:]},
                 "passage p0: empty transcript", id="transcript"),
    pytest.param({"passages": (dataclasses.replace(_P0, transcript="?! ..."),)
                  + _VALID.passages[1:]},
                 "passage p0: no words in transcript '?! ...'", id="wordless-transcript"),
    pytest.param({"codebook": None}, "passage p0: no file reference and no codebook",
                 id="audio-source"),
    pytest.param({"passages": (dataclasses.replace(_P0, transcript="word0 zu"),)
                  + _VALID.passages[1:]},
                 "passage p0: word 'zu' is not in the codebook", id="codebook-words"),
    pytest.param({"queries": (Query("q", "a", "p9"),)},
                 "query 'q': dangling relevant_passage_id 'p9'", id="dangling-query"),
    pytest.param({"queries": (Query("???", "a", "p0"),)},
                 "query '???': no words in text", id="wordless-query"),
    pytest.param({"queries": (Query("q", "...", "p0"),)},
                 "query 'q': no words in answer '...'", id="wordless-answer"),
])
def test_each_corpus_rule_raises_at_construction(fields, message):
    values = {f.name: getattr(_VALID, f.name) for f in dataclasses.fields(_VALID)}
    with pytest.raises(ValueError) as made:
        Corpus(**{**values, **fields})
    with pytest.raises(ValueError) as replaced:
        dataclasses.replace(_VALID, **fields)
    assert str(made.value) == str(replaced.value) == message


@settings(max_examples=200, deadline=None)
@given(text=st.text(min_size=1, max_size=8))
@example(text="!!!")
@example(text="\u212a")  # the Kelvin sign, which lowercases to "k"
@example(text="\u0130")  # dotted capital I, which lowercases to "i" and a combining dot
@example(text="\u00b2")  # superscript two, which is no [0-9] digit
def test_a_transcript_is_refused_exactly_when_the_tokenizer_finds_no_word(text):
    try:
        Corpus(passages=(Passage("p", text, "a.wav"),), queries=())
        refused = False
    except ValueError as exc:
        assert str(exc) == f"passage p: no words in transcript {text!r}"
        refused = True
    assert refused == (not split_words(text))


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=8), field=st.sampled_from(["text", "gold_answer"]))
@example(text="...", field="gold_answer")
@example(text="\u212a", field="text")
def test_a_query_is_refused_exactly_when_its_text_or_answer_has_no_word(text, field):
    query = dataclasses.replace(Query("q", "a", "p"), **{field: text})
    try:
        Corpus(passages=(Passage("p", "x", "a.wav"),), queries=(query,))
        refused = False
    except ValueError as exc:
        expected = ("no words in text" if field == "text"
                    else f"no words in answer {text!r}")
        assert str(exc) == f"query {query.text!r}: {expected}"
        refused = True
    assert refused == (not split_words(text))


def test_word_characters_are_those_the_tokenizer_finds_once_lowered():
    # Every code point: the manifest check searches the transcript itself.
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(_WORD_CHAR.findall(chars)) == {c for c in chars if split_words(c)}


def test_split_of_a_valid_corpus_returns_valid_parts():
    corpus = synth_corpus(SynthParams(n_passages=20, vocabulary_size=8, seed=3))
    for part in split(corpus, 0.6, 0.2, seed=1):
        # Made again from its own fields, each part passes every rule.
        assert dataclasses.replace(part) == part
        assert part.codebook is corpus.codebook
        assert {q.relevant_passage_id for q in part.queries} == {p.id for p in part.passages}
