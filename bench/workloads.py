"""The benchmark's workloads: closed-loop sequences of speechrag CLI commands
run in-process through ``speechrag.cli.main``, one client, each command
starting when the previous one returns.

Every workload trains the acceptance recipe (64 passages, 48-word
vocabulary, 200 epochs) and evaluates a corpus synthesized with the same
seed, which shares the recipe's vocabulary and codebook at any size. Each
evaluation runs ``embed → index → eval-retrieval → noise-sweep →
eval-generation`` with SEARCH_CALLS searches spread between those commands.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from speechrag import cli
from speechrag.checkpoint import load_checkpoint
from speechrag.index import load as load_index

SYNTH_VOCABULARY = 48
TRAIN_PASSAGES = 64
# Patience equal to the epoch budget keeps early stopping from firing, so
# every seed trains exactly EPOCHS epochs and the work does not depend on it.
EPOCHS = 200
BATCH_SIZE = 4
GRAD_ACCUM = 16
TARGET_WER = 0.35
# One point of the CLI's six-point default grid: each point costs a full
# speech pass over the evaluated corpus.
SNR_GRID = (20.0,)
K_VALUES = (5, 10, 100)
SEARCH_K = 5
# 200 calls put 10 samples beyond the nearest-rank p95.
SEARCH_CALLS = 200
# The searches of a unit run in this many blocks spread between its other
# commands and its pauses, so the latency samples span the whole run; the
# host's CPU speed drifts over tens of seconds.
SEARCH_BLOCKS = 6
EVAL_MODES = ("gt_text", "speech", "cascaded")
# Speech-mode passes over the evaluated corpus in one unit: embed,
# eval-retrieval, one per SNR point, eval-generation.
SPEECH_PASSES = 3 + len(SNR_GRID)
# retrieval_run calls in one unit: eval-retrieval modes, the sweep's cascaded
# line, one per SNR point.
RETRIEVAL_RUNS = len(EVAL_MODES) + 1 + len(SNR_GRID)
# Files whose bytes must repeat exactly; train_log.jsonl holds wall times.
TRACKED_SUFFIXES = (".csv", ".jsonl", ".json", ".ckpt", ".sidx", ".semb")
UNTRACKED = ("train_log.jsonl",)
CHECKPOINT = Path("artifacts/model.ckpt")
SPEECH_INDEX = Path("artifacts/index_speech_rag.sidx")


@dataclass(frozen=True)
class Workload:
    """A workload's reason is in BENCHMARK.json and bench/predictions.json."""

    name: str
    eval_passages: int
    # True: training is set-up and the timed unit only evaluates.
    train_in_setup: bool

    @property
    def eval_config(self) -> str:
        return "eval.json" if self.train_in_setup else "train.json"


WORKLOADS = {
    "train-cycle": Workload(
        name="train-cycle",
        eval_passages=TRAIN_PASSAGES,
        train_in_setup=False,
    ),
    "retrieval-2k": Workload(
        name="retrieval-2k",
        eval_passages=2000,
        train_in_setup=True,
    ),
}


class Session:
    """Runs CLI commands in-process and counts operations and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> bool:
        self.record(1, int(not ok), what)
        return ok

    def cli(self, *argv: str) -> tuple[float, str]:
        """Run one command; return its wall seconds and standard output."""
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        elapsed = time.perf_counter() - start
        self.check(code == 0, f"speechrag {' '.join(argv[:3])} exited {code}")
        return elapsed, out.getvalue()


@contextlib.contextmanager
def chdir(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def configs(workload: Workload, seed: int) -> dict[str, dict]:
    """The CLI config files of a run; only the seed depends on --seed.

    Paths are relative to the run directory, the working directory of every
    command, so the resolved config in each ``*.meta.json`` is the same in
    any directory.
    """
    common = {
        "data_dir": ".",
        "seed": seed,
        "train": {"max_epochs": EPOCHS, "patience": EPOCHS,
                  "batch_size": BATCH_SIZE, "grad_accum_steps": GRAD_ACCUM},
        "target_wer": TARGET_WER,
        "snr_grid": list(SNR_GRID),
        "k_values": list(K_VALUES),
    }
    train = dict(
        common,
        synth={"n_passages": TRAIN_PASSAGES, "vocabulary_size": SYNTH_VOCABULARY},
        corpus_manifest="train_corpus/manifest.jsonl",
        train_manifest="train_corpus/train.jsonl",
        val_manifest="train_corpus/val.jsonl",
        test_manifest="train_corpus/test.jsonl",
    )
    files = {"train.json": train}
    if workload.train_in_setup:
        files["eval.json"] = dict(
            common,
            synth={"n_passages": workload.eval_passages, "vocabulary_size": SYNTH_VOCABULARY},
            corpus_manifest="corpus/manifest.jsonl",
        )
    return files


def _train(session: Session, times: dict) -> None:
    for command in ("synth", "split", "train"):
        times[command] = session.cli(command, "--config", "train.json")[0]


def setup(workload: Workload, seed: int, session: Session) -> dict[str, float]:
    """Prepare the working directory; return the seconds of each command."""
    for name, body in configs(workload, seed).items():
        Path(name).write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    times: dict[str, float] = {}
    if workload.train_in_setup:
        _train(session, times)
        times["synth-eval"] = session.cli("synth", "--config", "eval.json")[0]
    return times


def read_manifest(path) -> tuple[list[dict], list[dict]]:
    """(passages, queries) of a JSONL manifest, parsed by the benchmark."""
    passages, queries = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            (passages if record["kind"] == "passage" else queries).append(record)
    return passages, queries


def manifest_path(workload: Workload) -> Path:
    body = configs(workload, 0)[workload.eval_config]
    return Path(body["corpus_manifest"])


def unit(workload: Workload, session: Session, first_query: int, searches: int,
         pause=None) -> dict:
    """One pass of the timed command sequence.

    ``pause``, if given, is called twice, after eval-retrieval and after
    eval-generation, each time followed by a search block; the caller may
    run a set-up there, and its time is not part of the unit. Returns each
    command's seconds, the seconds of every search call, and every search's
    query with its printed ranking, for the oracle check.
    """
    times: dict[str, float] = {}
    if not workload.train_in_setup:
        _train(session, times)
    config = ("--config", workload.eval_config)
    times["embed"] = session.cli("embed", *config, "--mode", "speech")[0]
    times["index"] = session.cli("index", *config, "--mode", "speech")[0]
    _, queries = read_manifest(manifest_path(workload))
    search_s, rankings = [], []
    blocks = iter(range(SEARCH_BLOCKS))

    def search_block() -> None:
        block = next(blocks)
        lo, hi = block * searches // SEARCH_BLOCKS, (block + 1) * searches // SEARCH_BLOCKS
        for j in range(lo, hi):
            query = queries[(first_query + j) % len(queries)]
            elapsed, out = session.cli(
                "search", *config, "--mode", "speech", "--k", str(SEARCH_K), "--query", query["text"]
            )
            search_s.append(elapsed)
            rankings.append((query, [json.loads(line) for line in out.splitlines()]))

    def paused() -> None:
        if pause is not None:
            pause()
        search_block()

    search_block()
    times["eval-retrieval"] = session.cli(
        "eval-retrieval", *config, "--mode", ",".join(EVAL_MODES),
        "--k", ",".join(map(str, K_VALUES)),
    )[0]
    search_block()
    paused()
    times["noise-sweep"] = session.cli("noise-sweep", *config)[0]
    search_block()
    times["eval-generation"] = session.cli("eval-generation", *config, "--mode", "speech")[0]
    search_block()
    paused()
    times["search"] = sum(search_s)
    return {"times": times, "search_s": search_s, "rankings": rankings}


def audio_seconds(workload: Workload) -> float:
    """Total duration of the evaluated corpus's WAV files."""
    path = manifest_path(workload)
    passages, _ = read_manifest(path)
    total = 0.0
    for p in passages:
        with wave.open(str(path.parent / p["audio"]), "rb") as fh:
            total += fh.getnframes() / fh.getframerate()
    return total


def expected_calls(workload: Workload, searches: int) -> dict[str, int]:
    """Exact call counts of one set-up plus one unit, derived from the
    workload's own inputs (the manifests in the working directory)."""
    train_passages, _ = read_manifest("train_corpus/train.jsonl")
    val_passages, _ = read_manifest("train_corpus/val.jsonl")
    eval_passages, queries = read_manifest(manifest_path(workload))
    n_train, n_val = len(train_passages), len(val_passages)
    n_eval, n_queries = len(eval_passages), len(queries)
    micro_batches = math.ceil(n_train / BATCH_SIZE)
    speech_embeds = SPEECH_PASSES * n_eval
    audio_loads = n_train + n_val + speech_embeds
    synths = 2 if workload.train_in_setup else 1
    written = TRAIN_PASSAGES + (n_eval if workload.train_in_setup else 0)
    return {
        "training.loss_and_grads": micro_batches * EPOCHS,
        "training.adam_step": math.ceil(micro_batches / GRAD_ACCUM) * EPOCHS,
        "training.evaluate_loss": EPOCHS,
        "training.train": 1,
        "checkpoint.save_checkpoint": 1,
        "corpus.synth_corpus": synths,
        "corpus.save_manifest": synths + 3,
        "dsp.write_wav": written,
        # save_manifest reads each synthesized passage's in-memory audio too.
        "corpus.load_audio": audio_loads + written,
        "dsp.read_wav": audio_loads,
        "dsp.logmel": audio_loads,
        "dsp.add_noise_snr": len(SNR_GRID) * n_eval,
        "encoder.embed_speech": speech_embeds,
        "encoder.speech_encode": speech_embeds,
        "adapter.project": speech_embeds,
        "adapter.downsample": (n_train + n_val) * EPOCHS + speech_embeds,
        "ragpipe.retrieval_run": RETRIEVAL_RUNS,
        "ragpipe.run_pipeline": 1,
        "ragpipe.passage_embeddings": RETRIEVAL_RUNS + 2,
        "ragpipe.corrupt_transcript": 2 * n_eval,
        "ragpipe.corpus_wer": 2,
        "ragpipe.generator": n_queries,
        "ragpipe.judge": n_queries,
        "ragpipe.eval_generation": 1,
        "index.build": RETRIEVAL_RUNS + 2,
        "index.search": searches + n_queries * (RETRIEVAL_RUNS + 1),
        "index.save": 1,
        "index.load": searches,
        "index.save_embeddings": 1,
        "index.load_embeddings": 1,
        # embed, each search, each eval-retrieval mode, noise-sweep, eval-generation
        "checkpoint.load_checkpoint": 1 + searches + len(EVAL_MODES) + 1 + 1,
        # split; train's train, val and full manifests; embed, each search,
        # eval-retrieval, noise-sweep, eval-generation
        "corpus.load_manifest": 1 + 3 + 1 + searches + 1 + 1 + 1,
        "cli.synth": synths,
        "cli.search": searches,
        "cli.eval-retrieval": 1,
    }


# ---------------------------------------------------------------------------
# Correctness of one working directory's outputs
# ---------------------------------------------------------------------------


def digests(run_dir: Path) -> dict[str, str]:
    """sha256 of every byte-tracked output under run_dir."""
    out = {}
    for path in sorted(run_dir.rglob("*")):
        if path.is_file() and path.suffix in TRACKED_SUFFIXES and path.name not in UNTRACKED:
            out[str(path.relative_to(run_dir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def check_rankings(workload: Workload, session: Session, rankings) -> None:
    """Each printed search ranking must equal a brute-force oracle over the
    loaded index: cosine scores in float64, ordered by (-score, id)."""
    index = load_index(SPEECH_INDEX)
    model = load_checkpoint(CHECKPOINT).model
    matrix = index.matrix.astype(np.float64)
    for query, printed in rankings:
        q = np.asarray(model.embed_text(query["text"]), dtype=np.float64)
        scores = matrix @ (q / np.linalg.norm(q))
        order = sorted(range(len(index.ids)), key=lambda i: (-scores[i], index.ids[i]))[:SEARCH_K]
        ok = [r["id"] for r in printed] == [index.ids[i] for i in order] and all(
            abs(r["score"] - scores[i]) <= 1e-6 for r, i in zip(printed, order)
        )
        session.check(ok, f"search {query['text']!r}: ranking differs from the oracle")


def check_reports(workload: Workload, session: Session) -> dict[str, float]:
    """Recompute Recall@k from the per-query rows, check generation errors
    and sanity floors, and return the quality figures."""
    reports = Path("reports")
    with open(reports / "retrieval.csv", encoding="utf-8") as fh:
        rows = {row["mode"]: row for row in csv.DictReader(fh)}
    for mode, row in rows.items():
        with open(reports / f"retrieval_{mode}.jsonl", encoding="utf-8") as fh:
            ranks = [json.loads(line)["relevant_rank"] for line in fh]
        for k in K_VALUES:
            recall = sum(1 for r in ranks if r is not None and r <= k) / len(ranks)
            session.check(f"{recall:.4f}" == row[f"recall@{k}"],
                          f"{mode} recall@{k}: rows give {recall:.4f}, csv {row[f'recall@{k}']}")
    with open(reports / "noise_sweep.csv", encoding="utf-8") as fh:
        noisy = [float(r["recall@5"]) for r in csv.DictReader(fh) if r["mode"] == "speech_rag"]
    with open(reports / "generation_speech_rag.csv", encoding="utf-8") as fh:
        generation = next(csv.DictReader(fh))
    with open(reports / "traces_speech_rag.jsonl", encoding="utf-8") as fh:
        generated = sum(1 for _ in fh)
    # Every generator and judge call is an operation; each error a failure.
    for kind in ("generator_errors", "judge_errors"):
        session.record(generated, int(generation[kind]), f"eval-generation {kind}")
    quality = {
        "recall5_speech": float(rows["speech_rag"]["recall@5"]),
        "recall5_cascaded": float(rows["fully_cascaded"]["recall@5"]),
        "recall5_gt_text": float(rows["gt_text"]["recall@5"]),
        "recall5_speech_noisy": sum(noisy) / len(noisy),
        "cascaded_wer": float(rows["fully_cascaded"]["passage_wer"]),
        "best_val_loss": load_checkpoint(CHECKPOINT).best_val_loss,
    }
    chance = SEARCH_K / workload.eval_passages
    session.check(quality["recall5_gt_text"] >= 0.9, f"gt_text recall@5 {quality['recall5_gt_text']}")
    session.check(quality["recall5_speech"] >= 2 * chance,
                  f"speech recall@5 {quality['recall5_speech']} below twice chance")
    session.check(abs(quality["cascaded_wer"] - TARGET_WER) <= 0.05,
                  f"cascaded WER {quality['cascaded_wer']} off target {TARGET_WER}")
    session.check(math.isfinite(quality["best_val_loss"]) and quality["best_val_loss"] < 1.0,
                  f"best val loss {quality['best_val_loss']}")
    return quality
