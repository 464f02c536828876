from __future__ import annotations

import dataclasses
import json
import re
import struct

import numpy as np
import pytest

from speechrag import __version__, cli
from speechrag.checkpoint import load_checkpoint, save_checkpoint
from speechrag.cli import main
from speechrag.config import RunConfig, load_config, read_section, resolved_hash
from speechrag.encoder import Vocab
from speechrag.index import build as build_index
from speechrag.index import save as save_index
from speechrag.ragpipe import MockJudge
from speechrag.training import Checkpoint, TrainConfig, build_model

FAST_CONFIG = {
    "synth": {"n_passages": 10, "vocabulary_size": 12, "words_per_passage": (5, 9)},
    "train": {"max_epochs": 2},
    "train_frac": 0.6,
    "val_frac": 0.2,
    "k_values": [5],
    "seed": 3,
}


@pytest.fixture()
def workspace(tmp_path):
    config = dict(FAST_CONFIG)
    config["data_dir"] = str(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return tmp_path, str(config_path)


def run(*argv) -> int:
    return main(list(argv))


def test_unknown_subcommand_is_usage_error(capsys):
    assert run("definitely-not-a-command") == 1


def test_unknown_flag_is_usage_error():
    assert run("synth", "--bogus") == 1


def test_synth_split_train_flow(workspace, capsys):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    manifest = root / "corpus/manifest.jsonl"
    assert manifest.exists()
    assert (root / "reports/synth.meta.json").exists()

    assert run("split", "--config", config) == 0
    for name in ("train.jsonl", "val.jsonl", "test.jsonl"):
        assert (root / "corpus" / name).exists()

    capsys.readouterr()
    assert run("train", "--config", config) == 0
    assert "trained 2 epochs, stopped by max_epochs;" in capsys.readouterr().out
    assert (root / "artifacts/model.ckpt").exists()
    log_lines = (root / "artifacts/train_log.jsonl").read_text().splitlines()
    assert len(log_lines) == 2
    row = json.loads(log_lines[0])
    assert set(row) == {"epoch", "train_loss", "val_loss", "adam_steps", "elapsed_s"}
    # 6 training items fill one window of the default 4 x 16 items: one step an epoch.
    assert row["adam_steps"] == 1
    assert json.loads(log_lines[1])["stop_reason"] == "max_epochs"


def test_zero_byte_wav_in_manifest_is_exit_two(workspace, capsys):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    wav = sorted((root / "corpus/audio").glob("*.wav"))[3]
    wav.write_bytes(b"")
    assert run("split", "--config", config) == 2
    assert "unreadable WAV" in capsys.readouterr().err


def test_synth_deterministic_bytes(workspace):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    first = (root / "corpus/manifest.jsonl").read_bytes()
    wav = next((root / "corpus/audio").glob("*.wav")).read_bytes()
    assert run("synth", "--config", config) == 0
    assert (root / "corpus/manifest.jsonl").read_bytes() == first
    assert next((root / "corpus/audio").glob("*.wav")).read_bytes() == wav


def test_eval_retrieval_csv_format(workspace):
    root, config = workspace
    for cmd in ("synth", "split", "train"):
        assert run(cmd, "--config", config) == 0
    assert run("eval-retrieval", "--config", config,
               "--mode", "gt_text,speech", "--k", "1,5") == 0
    lines = (root / "reports/retrieval.csv").read_text().splitlines()
    assert lines[0] == "mode,passage_wer,recall@1,recall@5"
    assert len(lines) == 3
    assert lines[1].startswith("gt_text,0.0000,")
    assert lines[2].startswith("speech_rag,,")
    per_query = (root / "reports/retrieval_gt_text.jsonl").read_text().splitlines()
    assert len(per_query) == 10
    row = json.loads(per_query[0])
    assert {"query_key", "ranked_ids", "scores", "relevant_rank"} <= set(row)


def test_eval_retrieval_deterministic_reports(workspace):
    root, config = workspace
    for cmd in ("synth", "split", "train"):
        assert run(cmd, "--config", config) == 0
    assert run("eval-retrieval", "--config", config, "--mode", "speech") == 0
    csv_once = (root / "reports/retrieval.csv").read_bytes()
    meta_once = (root / "reports/eval-retrieval.meta.json").read_bytes()
    assert run("eval-retrieval", "--config", config, "--mode", "speech") == 0
    assert (root / "reports/retrieval.csv").read_bytes() == csv_once
    assert (root / "reports/eval-retrieval.meta.json").read_bytes() == meta_once


def test_embed_index_search_flow(workspace, capsys):
    root, config = workspace
    for cmd in ("synth", "split", "train"):
        assert run(cmd, "--config", config) == 0
    assert run("embed", "--config", config, "--mode", "gt_text") == 0
    assert (root / "artifacts/embeddings_gt_text.semb").exists()
    assert run("index", "--config", config, "--mode", "gt_text") == 0
    assert (root / "artifacts/index_gt_text.sidx").exists()
    manifest_line = (root / "corpus/manifest.jsonl").read_text().splitlines()[0]
    transcript = json.loads(manifest_line)["transcript"]
    capsys.readouterr()
    assert run("search", "--config", config, "--mode", "gt_text",
               "--query", transcript, "--k", "3") == 0
    out = capsys.readouterr().out.strip().splitlines()
    hits = [json.loads(line) for line in out if line.startswith("{")]
    assert len(hits) == 3
    assert hits[0]["score"] >= hits[1]["score"] >= hits[2]["score"]


def test_corrupt_writes_report(workspace):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    assert run("corrupt", "--config", config, "--target-wer", "0.3") == 0
    lines = (root / "reports/corruption.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert len(rows) == 11  # 10 passages + summary
    summary = rows[-1]
    assert summary["target_wer"] == 0.3
    assert 0.0 < summary["achieved_wer"] < 1.0


def test_noise_sweep_rows(workspace):
    root, config = workspace
    for cmd in ("synth", "split", "train"):
        assert run(cmd, "--config", config) == 0
    assert run("noise-sweep", "--config", config, "--snr", "-5,10", "--target-wer", "0.2") == 0
    lines = (root / "reports/noise_sweep.csv").read_text().splitlines()
    assert lines[0] == "snr_db,mode,recall@5"
    assert len(lines) == 5  # two SNR points x two modes
    assert lines[1].startswith("-5.0,speech_rag,")
    assert lines[2].startswith("-5.0,fully_cascaded,")


def test_embed_noise_follows_the_run_seed(workspace):
    root, config = workspace
    for cmd in ("synth", "split", "train"):
        assert run(cmd, "--config", config) == 0
    out = root / "artifacts/embeddings_speech_rag.semb"

    def embed(*flags) -> bytes:
        assert run("embed", "--config", config, "--mode", "speech", *flags) == 0
        return out.read_bytes()

    assert embed("--seed", "7", "--snr-db", "10") != embed("--seed", "8", "--snr-db", "10")
    assert embed("--seed", "7") == embed("--seed", "8")  # no noise, nothing seeded


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_noise_sweep_over_inf_writes_strict_json(workspace):
    root, config = workspace
    for cmd in ("synth", "split", "train"):
        assert run(cmd, "--config", config) == 0
    assert run("noise-sweep", "--config", config, "--snr", "inf,5") == 0
    text = (root / "reports/noise-sweep.meta.json").read_text()
    meta = json.loads(text, parse_constant=_reject_constant)
    assert meta["config"]["snr_grid"] == ["inf", 5.0]
    assert meta["config_hash"] == resolved_hash(meta["config"])
    lines = (root / "reports/noise_sweep.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["inf", "speech_rag"], ["inf", "fully_cascaded"],
        ["5.0", "speech_rag"], ["5.0", "fully_cascaded"]]


def test_finite_config_hash_is_unchanged(monkeypatch):
    """A finite config resolves to the same JSON, and hash, as it always has."""
    monkeypatch.delenv("SPEECHRAG_DATA_DIR", raising=False)
    assert resolved_hash(load_config(None).resolved()) == (
        "dfdb689d57e971c2c5cdac50e15ad946a50c6e148ca5a91e1cbf6584b2659550")
    assert resolved_hash(load_config(None, {"snr_grid": (5, 10.0), "target_wer": 0.2}).resolved()) == (
        "636dec6376c76a92cbeae7052dd88b7ca651b32b66b4b3cffb818bacad6a85ad")


@pytest.mark.parametrize(
    "argv, snr_db",
    [(("embed", "--snr-db", "10"), 10.0), (("eval-retrieval", "--snr-db", "-5"), -5.0),
     (("eval-retrieval", "--snr-db", "inf"), "inf"), (("embed",), None),
     (("eval-retrieval",), None)],
    ids=["embed_10", "eval_retrieval_minus_5", "eval_retrieval_inf", "embed_none",
         "eval_retrieval_none"],
)
def test_snr_db_is_recorded_only_when_given(workspace, argv, snr_db):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    assert run(*argv, "--config", config, "--mode", "gt_text") == 0
    text = (root / f"reports/{argv[0]}.meta.json").read_text()
    meta = json.loads(text, parse_constant=_reject_constant)
    assert meta.get("snr_db") == snr_db
    assert ("snr_db" in meta) == (snr_db is not None)


@pytest.mark.parametrize("snr", ["20", "-5"])
def test_eval_retrieval_noise_equals_the_noise_sweep_row(workspace, snr):
    root, config = workspace
    for cmd in ("synth", "split", "train"):
        assert run(cmd, "--config", config) == 0
    assert run("eval-retrieval", "--config", config, "--mode", "speech", "--snr-db", snr) == 0
    recall = (root / "reports/retrieval.csv").read_text().splitlines()[1].split(",")[-1]
    assert run("noise-sweep", "--config", config, "--snr", snr) == 0
    sweep = (root / "reports/noise_sweep.csv").read_text().splitlines()
    assert f"{float(snr)},speech_rag,{recall}" in sweep


def test_eval_generation_outputs(workspace):
    root, config = workspace
    for cmd in ("synth", "split", "train"):
        assert run(cmd, "--config", config) == 0
    assert run("eval-generation", "--config", config, "--mode", "gt_text") == 0
    csv_lines = (root / "reports/generation_gt_text.csv").read_text().splitlines()
    assert csv_lines[0] == "mode,exact_match,llm_correctness,generator_errors,judge_errors"
    assert csv_lines[1].startswith("gt_text,")
    traces = [json.loads(l) for l in (root / "reports/traces_gt_text.jsonl").read_text().splitlines()]
    assert len(traces) == 10
    trace_keys = {"query_key", "query", "gold_answer", "relevant_id", "retrieved_ids",
                  "contexts", "answer", "error"}
    assert all(set(t) == trace_keys for t in traces)
    rows_path = root / "reports/generation_gt_text_rows.jsonl"
    rows = [json.loads(l) for l in rows_path.read_text().splitlines()]
    assert len(rows) == 10
    assert all(set(r) == {"query_key", "query", "gold_answer", "answer", "exact_match", "correct",
                          "retrieved_ids", "relevant_id", "generator_error", "judge_error"}
               for r in rows)

    # A generator that fails on every query: each row records the error and
    # an empty answer, and the run still writes its reports.
    assert run("eval-generation", "--config", config, "--mode", "gt_text",
               "--generator-url", "http://127.0.0.1:1/") == 0
    failed = json.loads((root / "reports/traces_gt_text.jsonl").read_text().splitlines()[0])
    assert set(failed) == trace_keys
    assert "GeneratorError" in failed["error"] and failed["answer"] == ""
    summary = (root / "reports/generation_gt_text.csv").read_text().splitlines()[1]
    assert summary.split(",")[-2:] == ["10", "0"]


def test_generator_failure_is_neither_judged_nor_scored(workspace, monkeypatch, capsys):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    capsys.readouterr()
    judged = []
    monkeypatch.setattr(MockJudge, "__call__", lambda self, *args: judged.append(args) or 1)
    assert run("eval-generation", "--config", config, "--mode", "gt_text",
               "--generator-url", "http://127.0.0.1:1/") == 0
    assert judged == []
    rows_path = root / "reports/generation_gt_text_rows.jsonl"
    rows = [json.loads(line) for line in rows_path.read_text().splitlines()]
    assert len(rows) == 10
    assert all(r["exact_match"] is None and r["correct"] is None and r["generator_error"]
               for r in rows)
    # With no row scored, both means are empty cells, not 0.
    summary = (root / "reports/generation_gt_text.csv").read_text().splitlines()[1]
    assert summary == "gt_text,,,10,0"
    assert "gt_text: EM n/a correctness n/a" in capsys.readouterr().out


def test_gradcheck_passes(workspace, capsys):
    _, config = workspace
    assert run("gradcheck", "--config", config) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_failing_gradcheck_still_writes_metadata(workspace, capsys, monkeypatch):
    root, config = workspace
    monkeypatch.setattr(cli, "GRADCHECK_THRESHOLD", 0.0)
    assert run("gradcheck", "--config", config) == 2
    assert "FAIL" in capsys.readouterr().out
    assert json.loads((root / "reports/gradcheck.meta.json").read_text())["command"] == "gradcheck"


@pytest.mark.parametrize(
    "field, value",
    [("encoder_layers", 0), ("encoder_dim", 0), ("hidden_dim", 0),
     ("downsample_factor", 0), ("backbone_layers", -1)],
)
def test_config_rejects_impossible_architecture(tmp_path, field, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({field: value}), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{field} must be"):
        load_config(path)


def test_config_accepts_zero_layer_backbone():
    assert load_config(None, {"backbone_layers": 0}).backbone_layers == 0


def test_gradcheck_with_impossible_architecture_is_exit_two(workspace, capsys):
    root, _ = workspace
    bad = json.loads((root / "config.json").read_text(encoding="utf-8"))
    bad["hidden_dim"] = 0
    path = root / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    assert run("gradcheck", "--config", str(path)) == 2
    captured = capsys.readouterr()
    assert "hidden_dim" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize(
    "edit, field",
    [({"hidden_dim": "64"}, "config.hidden_dim"), ({"train": {"lr": "0.1"}}, "config.train.lr"),
     ({"target_wer": True}, "config.target_wer"), ({"k_values": [5, 10.0]}, "config.k_values"),
     ({"synth": {"words_per_passage": [5]}}, "config.synth.words_per_passage"),
     ({"feature": 40}, "config.feature"), ({"seed": "3"}, "config.seed"),
     ({"target_wer": 10**400}, "config.target_wer")],
)
def test_config_value_of_wrong_type_is_exit_two(workspace, capsys, edit, field):
    root, _ = workspace
    bad = json.loads((root / "config.json").read_text(encoding="utf-8"))
    bad.update(edit)
    path = root / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    assert run("gradcheck", "--config", str(path)) == 2
    assert field in capsys.readouterr().err


def test_config_types_accept_ints_for_floats_and_lists_for_tuples(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "train": {"lr": 1}, "target_wer": 0, "snr_grid": [5, 7.5],
        "synth": {"words_per_passage": [3, 4]}, "generator_url": None,
    }), encoding="utf-8")
    config = load_config(path)
    assert config.train.lr == 1 and config.target_wer == 0
    assert config.snr_grid == (5, 7.5)
    assert config.synth.words_per_passage == (3, 4)
    assert config.generator_url is None
    # An int given for a float is stored as one: both spellings hash alike.
    assert type(config.train.lr) is type(config.target_wer) is type(config.snr_grid[0]) is float
    spelled_as_floats = load_config(None, {"train": {"lr": 1.0}, "target_wer": 0.0,
                                           "snr_grid": [5.0, 7.5], "synth": {"words_per_passage": [3, 4]}})
    assert config.resolved() == spelled_as_floats.resolved()
    assert resolved_hash(config.resolved()) == resolved_hash(spelled_as_floats.resolved())
    assert resolved_hash(load_config(None, {"target_wer": 0}).resolved()) == (
        resolved_hash(load_config(None, {"target_wer": 0.0}).resolved()))


@dataclasses.dataclass(frozen=True)
class _Record:
    count: int
    scale: float
    name: str | None
    ks: tuple[int, ...]
    pair: tuple[float, float]


_RECORD = {"count": 3, "scale": 1, "name": None, "ks": [1, 2], "pair": [0, 2.5]}


def test_typed_reader_resolves_each_kind_of_field():
    record = read_section(_Record, _RECORD, "r", exact=True)
    assert record == _Record(3, 1.0, None, (1, 2), (0.0, 2.5))
    # An int given for a float is converted, also inside a tuple.
    assert [type(v) for v in (record.scale, *record.pair)] == [float] * 3
    assert read_section(_Record, {**_RECORD, "name": "x"}, "r", exact=True).name == "x"


@pytest.mark.parametrize(
    "edit, message",
    [({"count": True}, "r.count must be int, got True"),
     ({"scale": True}, "r.scale must be float, got True"),
     ({"name": 5}, "r.name must be str | None, got 5"),
     ({"ks": [1, "2"]}, "r.ks[1] must be int, got '2'"),
     ({"ks": [True]}, "r.ks[0] must be int, got True"),
     ({"pair": [1.0]}, "r.pair must be tuple[float, float], got (1.0,)"),
     ({"pair": [1.0, 10**400]}, f"r.pair[1] must be float, got {10**400}")],
    ids=["bool_for_int", "bool_for_float", "int_for_optional_str", "tuple_element",
         "bool_tuple_element", "tuple_length", "tuple_element_overflows_a_float"],
)
def test_typed_reader_names_the_value_that_does_not_fit(edit, message):
    with pytest.raises(ValueError) as info:
        read_section(_Record, {**_RECORD, **edit}, "r", exact=True)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "edit, message",
    [({"k_values": [5, 10.0]}, "config.k_values[1] must be int, got 10.0"),
     ({"snr_grid": [0, "5"]}, "config.snr_grid[1] must be float, got '5'"),
     ({"corruption_mix": [0.6, None, 0.2]}, "config.corruption_mix[1] must be float, got None")],
)
def test_config_tuple_fault_names_the_element(edit, message):
    with pytest.raises(ValueError) as info:
        load_config(None, edit)
    assert str(info.value) == message


def test_checkpoint_vocab_fault_names_the_entry(tmp_path):
    path = tmp_path / "model.ckpt"
    write_checkpoint_with_metadata(path, lambda m: m["vocab"].__setitem__(1, 5))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == (
        f"corrupt checkpoint (metadata: meta.vocab[1] must be str, got 5): {path}")


def write_checkpoint_with_metadata(path, edit) -> None:
    """A valid checkpoint whose metadata JSON `edit` then changes in place."""
    model = build_model(Vocab.from_words(["ka", "mo"]), hidden_dim=4, encoder_dim=4, seed=1)
    save_checkpoint(Checkpoint(model, TrainConfig(), best_val_loss=0.5, epoch=1), path)
    data = path.read_bytes()
    (n,) = struct.unpack_from("<I", data, 12)
    meta = json.loads(data[16 : 16 + n])
    edit(meta)
    encoded = json.dumps(meta).encode("utf-8")
    path.write_bytes(data[:12] + struct.pack("<I", len(encoded)) + encoded + data[16 + n :])


@pytest.mark.parametrize(
    "edit",
    [lambda m: m["feature"].update(bogus=1), lambda m: m.update(vocab=5),
     lambda m: m["backbone"].update(hidden_dim="64"), lambda m: m.pop("epoch"),
     lambda m: m["feature"].update(frame_len=True), lambda m: m.update(train_config={}),
     lambda m: m["feature"].pop("hop"), lambda m: m.update(feature=[0.025]),
     lambda m: m["train_config"].update(lr="0.1"), lambda m: m["train_config"].update(seed=1.5),
     lambda m: m["feature"].update(n_mels=40.0),
     lambda m: m["feature"].update(log_floor=10**400),
     lambda m: m.update(best_val_loss="0.5"), lambda m: m.update(best_val_loss=None),
     lambda m: m.update(epoch=1.0), lambda m: m.update(epoch=True),
     lambda m: m.update(downsample_factor=True), lambda m: m.update(encoder_layers=2.0),
     lambda m: m["vocab"].__setitem__(0, 5), lambda m: m["backbone"].update(n_layers="2")],
    ids=["extra_feature_key", "vocab_not_a_list", "backbone_dim_string", "missing_epoch",
         "frame_len_bool", "train_config_empty", "missing_feature_key", "feature_not_an_object",
         "lr_string", "train_seed_float", "n_mels_float", "log_floor_overflows_a_float",
         "best_val_loss_string", "best_val_loss_null", "epoch_float", "epoch_bool",
         "downsample_factor_bool", "encoder_layers_float", "vocab_entry_number",
         "backbone_layers_string"],
)
def test_checkpoint_metadata_of_wrong_shape_is_exit_two(workspace, capsys, edit):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    ckpt = root / "artifacts/model.ckpt"
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    write_checkpoint_with_metadata(ckpt, edit)
    capsys.readouterr()
    assert run("embed", "--config", config, "--mode", "gt_text") == 2
    err = capsys.readouterr().err
    assert "corrupt checkpoint (metadata" in err and str(ckpt) in err


def test_speech_mode_without_checkpoint_is_runtime_error(workspace, capsys):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    assert run("embed", "--config", config, "--mode", "speech") == 2


def write_index(config, mode: str) -> None:
    """An index of the corpus's passages over random rows of the backbone
    width, where `search --mode mode` reads it."""
    resolved = load_config(config)
    ids = [f"p{i:04d}" for i in range(FAST_CONFIG["synth"]["n_passages"])]
    rows = np.random.default_rng(0).standard_normal((len(ids), resolved.hidden_dim))
    save_index(build_index(ids, rows), resolved.path(resolved.index_path, mode=mode))


@pytest.mark.parametrize("argv", [
    *((command, "--mode", mode)
      for command in ("search", "embed", "eval-retrieval", "eval-generation")
      for mode in ("speech", "semi_cascaded")),
    ("noise-sweep",),
], ids=lambda argv: "-".join(argv[::2]))
def test_audio_mode_without_checkpoint_is_runtime_error(workspace, capsys, argv):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    if argv[0] == "search":
        # search reads its index before it asks for a model.
        write_index(config, cli.MODE_ALIASES[argv[2]].value)
        argv += ("--query", "some words")
    capsys.readouterr()
    assert run(*argv, "--config", config) == 2
    err = capsys.readouterr().err
    assert f"requires a trained checkpoint at {root / 'artifacts/model.ckpt'}" in err


@pytest.mark.parametrize("alias, mode", [("gt_text", "gt_text"), ("cascaded", "fully_cascaded")])
def test_text_mode_search_without_checkpoint_uses_a_fresh_model(workspace, capsys, alias, mode):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    write_index(config, mode)
    capsys.readouterr()
    assert run("search", "--config", config, "--mode", alias, "--query", "some words") == 0
    hits = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(hits) == 5 and not (root / "artifacts/model.ckpt").exists()


def test_mode_aliases_are_the_values_and_two_short_names():
    assert {name: mode.value for name, mode in cli.MODE_ALIASES.items()} == {
        "speech": "speech_rag", "speech_rag": "speech_rag", "semi_cascaded": "semi_cascaded",
        "cascaded": "fully_cascaded", "fully_cascaded": "fully_cascaded", "gt_text": "gt_text",
    }


def test_metadata_record_contents(workspace):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    meta = json.loads((root / "reports/synth.meta.json").read_text())
    assert meta["command"] == "synth"
    assert meta["seed"] == 3
    assert meta["config_hash"] == resolved_hash(load_config(config).resolved())
    assert meta["config"]["synth"]["n_passages"] == 10
    assert {"speechrag", "python", "numpy"} <= set(meta["versions"])


def test_env_var_data_dir(tmp_path, monkeypatch):
    config = dict(FAST_CONFIG)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.setenv("SPEECHRAG_DATA_DIR", str(tmp_path))
    assert run("synth", "--config", str(config_path)) == 0
    assert (tmp_path / "corpus/manifest.jsonl").exists()


def test_seed_flag_overrides_config(workspace):
    root, config = workspace
    assert run("synth", "--config", config, "--seed", "9") == 0
    meta = json.loads((root / "reports/synth.meta.json").read_text())
    assert meta["seed"] == 9
    first = (root / "corpus/manifest.jsonl").read_text()
    assert run("synth", "--config", config, "--seed", "10") == 0
    assert (root / "corpus/manifest.jsonl").read_text() != first


def test_passage_audio_that_is_a_directory_is_exit_two(workspace, capsys):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    wav = sorted((root / "corpus/audio").glob("*.wav"))[3]
    wav.unlink()
    wav.mkdir()
    capsys.readouterr()
    assert run("split", "--config", config) == 2
    assert str(wav) in capsys.readouterr().err


def test_train_on_cut_wav_is_exit_two(workspace, capsys):
    root, config = workspace
    for cmd in ("synth", "split"):
        assert run(cmd, "--config", config) == 0
    first = json.loads((root / "corpus/train.jsonl").read_text().splitlines()[0])
    wav = root / "corpus" / first["audio"]
    data = wav.read_bytes()
    wav.write_bytes(data[: 44 + (len(data) - 44) // 2])
    capsys.readouterr()
    assert run("train", "--config", config) == 2
    assert f"short data chunk in {wav}" in capsys.readouterr().err


def reports(root) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted((root / "reports").rglob("*"))}


def config_hash(root, command: str) -> str:
    return json.loads((root / f"reports/{command}.meta.json").read_text())["config_hash"]


# (setup commands, command, flag, flag value, config field, config value);
# "URL" stands for the loopback endpoint.
CONFIG_FLAG_CASES = [
    (("synth", "split"), ("corrupt",), "--manifest", "corpus/test.jsonl",
     "corpus_manifest", "corpus/test.jsonl"),
    (("synth",), ("corrupt",), "--target-wer", "0.3", "target_wer", 0.3),
    (("synth",), ("eval-retrieval", "--mode", "gt_text"), "--k", "1,3", "k_values", [1, 3]),
    (("synth", "split", "train"), ("noise-sweep",), "--snr", "-5,10", "snr_grid", [-5.0, 10.0]),
    (("synth",), ("eval-generation", "--mode", "gt_text"), "--top-k-context", "2",
     "top_k_context", 2),
    (("synth",), ("eval-generation", "--mode", "gt_text"), "--generator-url", "URL",
     "generator_url", "URL"),
]


@pytest.mark.parametrize(
    "setup, command, flag, flag_value, field, value",
    CONFIG_FLAG_CASES,
    ids=[case[2] for case in CONFIG_FLAG_CASES],
)
def test_config_flag_equals_config_file_value(
    workspace, http_endpoint, setup, command, flag, flag_value, field, value
):
    root, config = workspace
    flag_value = http_endpoint if flag_value == "URL" else flag_value
    value = http_endpoint if value == "URL" else value
    for cmd in setup:
        assert run(cmd, "--config", config) == 0
    assert run(*command, "--config", config) == 0
    without_flag = config_hash(root, command[0])

    assert run(*command, "--config", config, flag, flag_value) == 0
    with_flag = reports(root)
    edited = json.loads((root / "config.json").read_text(encoding="utf-8"))
    edited[field] = value
    path = root / "edited.json"
    path.write_text(json.dumps(edited), encoding="utf-8")
    assert run(*command, "--config", str(path)) == 0
    assert reports(root) == with_flag
    assert config_hash(root, command[0]) != without_flag


def test_external_judge_calls_the_generator_url(workspace, http_server, http_endpoint):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    edited = json.loads((root / "config.json").read_text(encoding="utf-8"))
    edited["judge"] = "external"
    path = root / "external.json"
    path.write_text(json.dumps(edited), encoding="utf-8")
    http_server.received.clear()
    assert run("eval-generation", "--config", str(path), "--mode", "gt_text",
               "--generator-url", http_endpoint) == 0
    received = http_server.received
    judged = [r for r in received if r["instruction"].startswith("You are grading")]
    assert len(judged) == len(received) - len(judged) == 10


@pytest.mark.parametrize(
    "argv, field",
    [(("eval-generation", "--mode", "gt_text", "--top-k-context", "0"), "top_k_context"),
     (("eval-retrieval", "--mode", "gt_text", "--k", "10,5"), "k_values"),
     (("eval-retrieval", "--mode", "gt_text", "--k", "0,5"), "k_values"),
     (("eval-retrieval", "--mode", "gt_text", "--k", "5,5"), "k_values")],
)
def test_config_flag_out_of_bounds_is_exit_two(workspace, capsys, argv, field):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    capsys.readouterr()
    assert run(*argv, "--config", config) == 2
    assert field in capsys.readouterr().err
    assert not (root / f"reports/{argv[0]}.meta.json").exists()


@pytest.mark.parametrize(
    "argv",
    [("embed", "--mode", "speech", "--target-wer", "7"), ("corrupt", "--target-wer", "1"),
     ("corrupt", "--target-wer", "-0.1"), ("eval-retrieval", "--target-wer", "nan")],
)
def test_target_wer_outside_unit_interval_is_exit_two(workspace, capsys, argv):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    capsys.readouterr()
    assert run(*argv, "--config", config) == 2
    assert "target_wer must lie in [0, 1)" in capsys.readouterr().err
    assert not (root / f"reports/{argv[0]}.meta.json").exists()


def test_target_wer_outside_unit_interval_in_config_file_is_exit_two(workspace, capsys):
    root, _ = workspace
    bad = json.loads((root / "config.json").read_text(encoding="utf-8"))
    bad["target_wer"] = 7
    path = root / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    assert run("corrupt", "--config", str(path)) == 2
    assert "target_wer must lie in [0, 1)" in capsys.readouterr().err
    assert not (root / "reports").exists()


@pytest.mark.parametrize(
    "flags",
    [pytest.param((f"--snr={snr}",), id=snr) for snr in ("-inf", "nan", "5,-inf")]
    + [pytest.param(("--snr", snr), id=f"after-flag{snr}") for snr in ("-inf,5", "-Infinity")],
)
def test_non_finite_snr_grid_flag_is_exit_two(workspace, capsys, flags):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    capsys.readouterr()
    assert run("noise-sweep", *flags, "--config", config) == 2
    assert "snr_grid values must be numbers or inf" in capsys.readouterr().err
    assert not (root / "reports/noise-sweep.meta.json").exists()


@pytest.mark.parametrize("snr", [float("nan"), float("-inf")])
def test_non_finite_snr_grid_in_config_file_is_exit_two(workspace, capsys, snr):
    root, _ = workspace
    bad = json.loads((root / "config.json").read_text(encoding="utf-8"))
    bad["snr_grid"] = [5, snr]
    path = root / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")  # NaN / -Infinity literals
    assert run("noise-sweep", "--config", str(path)) == 2
    assert "snr_grid values must be numbers or inf" in capsys.readouterr().err
    assert not (root / "reports").exists()


@pytest.mark.parametrize(
    "argv", [("embed", "--snr-db=nan"), ("embed", "--snr-db", "NaN"),
             ("eval-retrieval", "--snr-db=-inf"), ("eval-retrieval", "--snr-db", "-inf"),
             ("embed", "--snr-db", "-INFINITY")],
)
def test_non_finite_snr_db_is_usage_error(workspace, capsys, argv):
    root, config = workspace
    assert run(*argv, "--config", config) == 1
    assert "SNR must be a number or inf" in capsys.readouterr().err
    assert not (root / "reports").exists()


def test_infinite_snr_stays_the_no_noise_point():
    assert cli.parse_args(["embed", "--snr-db", "inf"]).snr_db == float("inf")
    assert cli.parse_args(["noise-sweep", "--snr", "inf,5"]).snr_grid == (float("inf"), 5.0)
    assert load_config(None, {"snr_grid": [float("inf"), 5.0]}).snr_grid == (float("inf"), 5.0)


@pytest.mark.parametrize(
    "argv",
    [("noise-sweep", "--snr-db", "5"), ("noise-sweep", "--snr", "5,x"),
     ("eval-retrieval", "--k", "5,"), ("embed", "--mode", "gt_text,speech"),
     # Prefixes of --snr-db and --top-k-context: no flag is abbreviated.
     ("eval-retrieval", "--snr", "5"), ("eval-generation", "--top", "3")],
)
def test_malformed_flag_is_usage_error(workspace, argv):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    assert run(*argv, "--config", config) == 1
    assert not (root / "artifacts").exists()
    assert not (root / f"reports/{argv[0]}.meta.json").exists()


@pytest.mark.parametrize(
    "edit", [{"judge": "foo"}, {"judge": "external"}], ids=["unknown", "external_without_url"]
)
def test_config_judge_is_checked_at_load(workspace, capsys, edit):
    root, _ = workspace
    bad = json.loads((root / "config.json").read_text(encoding="utf-8"))
    bad.update(edit)
    path = root / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    assert run("synth", "--config", str(path)) == 2
    assert "judge" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mix", [[1.5, -0.5, 0.0], [0.5, 0.5, 0.5], [float("nan"), 0.5, 0.5], [0.5, 0.5, float("inf")]],
    ids=["negative", "sum", "nan", "inf"],
)
def test_config_corruption_mix_is_checked_at_load(workspace, capsys, mix):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    bad = json.loads((root / "config.json").read_text(encoding="utf-8"))
    bad["corruption_mix"] = mix
    path = root / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    capsys.readouterr()
    assert run("corrupt", "--config", str(path)) == 2
    assert "corruption_mix" in capsys.readouterr().err
    assert not (root / "reports/corruption.jsonl").exists()


def run_with_edit(root, edit, *argv) -> int:
    bad = json.loads((root / "config.json").read_text(encoding="utf-8"))
    bad.update(edit)
    path = root / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    return run(*argv, "--config", str(path))


@pytest.mark.parametrize(
    "edit, message",
    [({"train": {"lr": float("nan")}}, "lr must be positive and finite"),
     ({"train": {"lr": float("inf")}}, "lr must be positive and finite"),
     ({"train": {"eps": float("nan")}}, "eps must be positive and finite"),
     ({"train": {"eps": 0.0}}, "eps must be positive and finite"),
     ({"feature": {"frame_len": float("inf")}}, "frame_len must be positive and finite"),
     ({"feature": {"hop": float("nan")}}, "hop must be positive and finite"),
     ({"feature": {"log_floor": float("nan")}}, "log_floor must be positive and finite"),
     ({"k_values": []}, "k_values must be non-empty"),
     ({"k_values": [5, 5]}, "k_values must be non-empty, positive and strictly ascending"),
     ({"train_frac": float("nan")}, "train_frac must lie in (0, 1)"),
     ({"train_frac": 0.0}, "train_frac must lie in (0, 1)"),
     ({"val_frac": float("nan")}, "val_frac must lie in (0, 1)"),
     ({"val_frac": 1.0}, "val_frac must lie in (0, 1)"),
     ({"train_frac": 0.95, "val_frac": 0.1}, "train_frac + val_frac must be < 1")],
    ids=["lr-nan", "lr-inf", "eps-nan", "eps-zero", "frame_len-inf", "hop-nan", "log_floor-nan",
         "k_values-empty", "k_values-repeated", "train_frac-nan", "train_frac-zero",
         "val_frac-nan", "val_frac-one", "fracs-sum-over-one"],
)
def test_config_value_out_of_range_is_exit_two(workspace, capsys, edit, message):
    root, _ = workspace
    assert run_with_edit(root, edit, "train") == 2  # NaN / Infinity literals
    assert message in capsys.readouterr().err
    assert not (root / "reports").exists()


@pytest.mark.parametrize("value", [0, -2])
def test_config_generator_concurrency_below_one_is_exit_two(workspace, capsys, value):
    root, _ = workspace
    assert run_with_edit(root, {"generator_concurrency": value},
                         "eval-generation", "--mode", "gt_text") == 2
    assert "generator_concurrency must be >= 1" in capsys.readouterr().err
    assert not (root / "reports").exists()


@pytest.mark.parametrize("value", [0.0, -1.5, float("inf"), float("nan")])
def test_config_generator_timeout_not_positive_is_exit_two(workspace, capsys, value):
    root, _ = workspace
    assert run_with_edit(root, {"generator_timeout_s": value},
                         "eval-generation", "--mode", "gt_text") == 2
    assert "generator_timeout_s must be a positive finite number" in capsys.readouterr().err
    assert not (root / "reports").exists()
    assert load_config(None, {"generator_timeout_s": 0.5}).generator_timeout_s == 0.5


# ---------------------------------------------------------------------------
# The flag surface: what each subcommand accepts, and how it is parsed
# ---------------------------------------------------------------------------

COMMON_OPTIONS = {"-h", "--help", "--config", "--seed", "--data-dir"}
SUBCOMMAND_OPTIONS = {
    "synth": set(),
    "split": set(),
    "train": set(),
    "embed": {"--mode", "--manifest", "--target-wer", "--snr-db"},
    "index": {"--mode"},
    "search": {"--mode", "--manifest", "--query", "--k"},
    "eval-retrieval": {"--mode", "--manifest", "--target-wer", "--snr-db", "--k"},
    "noise-sweep": {"--manifest", "--target-wer", "--snr"},
    "corrupt": {"--manifest", "--target-wer"},
    "eval-generation": {"--mode", "--manifest", "--target-wer", "--top-k-context",
                        "--generator-url"},
    "gradcheck": {"--probes", "--eps"},
}


def help_options(text: str) -> set[str]:
    """The option strings in the options section of argparse's help text."""
    options = set()
    for line in text.split("options:", 1)[1].splitlines():
        if line.startswith("  -"):
            invocation = line.strip().split("  ")[0]
            options.update(part.split()[0] for part in invocation.split(", "))
    return options


def test_version_prints_the_package_version(capsys):
    assert run("--version") == 0
    assert capsys.readouterr().out == f"{__version__}\n"


def test_help_lists_every_subcommand(capsys):
    assert run("--help") == 0
    listed = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1).split(",")
    assert listed == list(SUBCOMMAND_OPTIONS)


def test_no_subcommand_is_usage_error(capsys):
    assert run() == 1
    assert "required: command" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(SUBCOMMAND_OPTIONS))
def test_subcommand_help_lists_its_flags(capsys, command):
    assert run(command, "--help") == 0
    assert help_options(capsys.readouterr().out) == COMMON_OPTIONS | SUBCOMMAND_OPTIONS[command]


def test_flag_table_and_command_table_name_the_same_subcommands():
    assert list(cli.FLAGS) == list(cli.COMMANDS) == list(SUBCOMMAND_OPTIONS)


def test_parser_for_a_command_holds_only_that_command():
    assert cli.build_parser("index").parse_args(["index"]).command == "index"
    with pytest.raises(SystemExit):
        cli.build_parser("search").parse_args(["index"])
    assert cli.build_parser().parse_args(["index"]).command == "index"


def test_config_overrides_are_the_flags_whose_dest_is_a_config_field():
    dests = set()
    for command in cli.FLAGS:
        argv = [command, "--query", "q"] if command == "search" else [command]
        dests |= set(vars(cli.parse_args(argv)))
    config_fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert dests & config_fields == {"seed", "data_dir", "corpus_manifest", "target_wer",
                                     "k_values", "snr_grid", "top_k_context", "generator_url"}
    assert dests - config_fields == {"command", "config", "mode", "query", "k", "snr_db",
                                     "probes", "eps"}


BOGUS = "error: argument --mode: unknown mode 'bogus'"


@pytest.mark.parametrize(
    "argv, message",
    [(("eval-retrieval", "--mode", "gt_text,bogus"), BOGUS),
     (("eval-retrieval", "--mode", "speech,speech_rag"),
      "error: argument --mode: mode repeated in 'speech,speech_rag'"),
     (("eval-retrieval", "--mode", "gt_text,"), "error: argument --mode: unknown mode ''"),
     (("embed", "--mode", "bogus"), BOGUS), (("index", "--mode", "bogus"), BOGUS),
     (("search", "--mode", "bogus", "--query", "q"), BOGUS),
     (("eval-generation", "--mode", "bogus"), BOGUS),
     (("search", "--query", "q", "--target-wer", "0.3"),
      "error: unrecognized arguments: --target-wer 0.3"),
     (("search", "--query", "q", "--k", "0"), "error: argument --k: must be at least 1, got '0'"),
     (("gradcheck", "--probes", "0"), "error: argument --probes: must be at least 1, got '0'"),
     (("gradcheck", "--probes", "-2"), "error: argument --probes: must be at least 1, got '-2'"),
     (("gradcheck", "--eps", "0"), "error: argument --eps: step must be nonzero and finite"),
     (("gradcheck", "--eps", "-0.0"), "error: argument --eps: step must be nonzero and finite"),
     (("gradcheck", "--eps", "nan"), "error: argument --eps: step must be nonzero and finite"),
     (("gradcheck", "--eps", "inf"), "error: argument --eps: step must be nonzero and finite"),
     (("gradcheck", "--eps", "-inf"), "error: argument --eps: step must be nonzero and finite")],
    ids=["unknown_in_list", "repeated", "empty_in_list", "embed", "index", "search",
         "eval_generation", "search_target_wer", "search_k_0", "probes_0", "probes_negative",
         "eps_0", "eps_negative_0", "eps_nan", "eps_inf", "eps_negative_inf"],
)
def test_rejected_mode_or_flag_is_usage_error(workspace, capsys, argv, message):
    root, config = workspace
    assert run("synth", "--config", config) == 0
    before = reports(root)
    capsys.readouterr()
    assert run(*argv, "--config", config) == 1
    assert message in capsys.readouterr().err
    assert reports(root) == before
    assert not (root / "artifacts").exists()


@pytest.mark.parametrize(
    "argv, dest, value",
    [(("embed", "--snr-db", "-5"), "snr_db", -5.0),
     (("eval-retrieval", "--snr-db", "-5"), "snr_db", -5.0),
     (("corrupt", "--target-wer", "-0.1"), "target_wer", -0.1),
     (("noise-sweep", "--snr", "-5,-.5,10"), "snr_grid", (-5.0, -0.5, 10.0)),
     (("noise-sweep", "--snr=-5"), "snr_grid", (-5.0,)),
     (("gradcheck", "--eps", "-1e-3"), "eps", -1e-3),
     (("search", "--query", "-3 words"), "query", "-3 words"),
     (("noise-sweep", "--snr", "-inf,5"), "snr_grid", (float("-inf"), 5.0)),
     (("noise-sweep", "--snr", "-Infinity"), "snr_grid", (float("-inf"),))],
)
def test_negative_flag_value_parses(argv, dest, value):
    assert getattr(cli.parse_args(list(argv)), dest) == value


def test_eval_retrieval_modes_parse_in_order():
    modes = cli.parse_args(["eval-retrieval", "--mode", "gt_text, cascaded,semi_cascaded"]).mode
    assert [m.value for m in modes] == ["gt_text", "fully_cascaded", "semi_cascaded"]
    assert [m.value for m in cli.parse_args(["eval-retrieval"]).mode] == ["speech_rag"]
    assert cli.parse_args(["embed"]).mode.value == "speech_rag"


def test_manifest_with_non_string_audio_is_exit_two(workspace, capsys):
    root, config = workspace
    bad = root / "bad.jsonl"
    bad.write_text(json.dumps({"kind": "passage", "id": "p1", "audio": 5, "transcript": "x"})
                   + "\n", encoding="utf-8")
    assert run("corrupt", "--config", config, "--manifest", str(bad)) == 2
    assert "line 1: passage 'p1' audio must be a string, got 5" in capsys.readouterr().err
