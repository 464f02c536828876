"""Command-line entry point.

Subcommands cover the full experiment cycle: ``synth``, ``split``, ``train``,
``embed``, ``index``, ``search``, ``eval-retrieval``, ``noise-sweep``,
``corrupt``, ``eval-generation``, ``gradcheck``. A single JSON config file
(--config) drives everything. FLAGS declares each subcommand's flags. A flag
whose argparse dest is a RunConfig field overrides that field over the file.
Every run writes a metadata record (resolved config with those overrides,
config hash, seed, versions), so reports are reproducible byte-for-byte from
it. The other flags (--mode, --query, search's --k, --snr-db, --probes and
--eps) are per-invocation inputs, not config; of these, only --snr-db is
recorded, and only when given.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, files
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_config, resolved_hash
from .corpus import SynthParams, corpus_words, load_manifest, save_manifest, split, synth_corpus
from .encoder import Vocab
from .index import build as build_index
from .index import load as load_index
from .index import load_embeddings, save, save_embeddings, search
from .ragpipe import (
    CorruptionConfig,
    HttpGenerator,
    HttpJudge,
    MockJudge,
    OracleGenerator,
    PipelineMode,
    corrupt_transcript,
    corpus_wer,
    eval_generation,
    passage_embeddings,
    retrieval_run,
    run_pipeline,
    wer,
)
from .training import _corpus_items, build_model, grad_check, train

MODE_ALIASES = {
    **{mode.value: mode for mode in PipelineMode},
    "speech": PipelineMode.SPEECH_RAG,
    "cascaded": PipelineMode.FULLY_CASCADED,
}

GRADCHECK_THRESHOLD = 1e-4

# json.dumps(row, sort_keys=True) without building an encoder per row.
_encode_row = json.JSONEncoder(sort_keys=True).encode


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _mode(value: str) -> PipelineMode:
    """One pipeline by name: eval-generation's --mode."""
    if value not in MODE_ALIASES:
        raise argparse.ArgumentTypeError(
            f"unknown mode {value!r} (choose from {sorted(MODE_ALIASES)})")
    return MODE_ALIASES[value]


def _retriever(value: str) -> PipelineMode:
    """One retriever by name: the --mode of embed, index and search."""
    if (mode := _mode(value)).retriever is not mode:
        raise argparse.ArgumentTypeError(f"{mode.value} is not a retriever: use {mode.retriever.value}")
    return mode


def _retrievers(value: str) -> tuple[PipelineMode, ...]:
    """A comma list of distinct retrievers: eval-retrieval's --mode."""
    modes = tuple(_retriever(token.strip()) for token in value.split(","))
    if len(set(modes)) != len(modes):
        raise argparse.ArgumentTypeError(f"mode repeated in {value!r}")
    return modes


def _snr_db(value: str) -> float:
    """An SNR in dB: a number, or inf for no noise. NaN and -inf set no
    noise level."""
    snr = float(value)
    if math.isnan(snr) or snr == -math.inf:
        raise argparse.ArgumentTypeError(f"SNR must be a number or inf, got {value!r}")
    return snr


def _at_least_one(value: str) -> int:
    """A count of one or more: search's --k and gradcheck's --probes."""
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value!r}")
    return count


def _step(value: str) -> float:
    """gradcheck's finite-difference step: nonzero and finite, of either sign."""
    eps = float(value)
    if eps == 0 or not math.isfinite(eps):
        raise argparse.ArgumentTypeError(f"step must be nonzero and finite, got {value!r}")
    return eps


def float_list(value: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in value.split(","))


def int_list(value: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in value.split(","))


def _write_meta(config: RunConfig, args) -> None:
    resolved = config.resolved()
    command = args.command
    meta = {
        "command": command,
        "config": resolved,
        "config_hash": resolved_hash(resolved),
        "seed": config.seed,
        "versions": {
            "speechrag": __version__,
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
        },
    }
    # Only when given, so a command run without it keeps its bytes; inf as
    # "inf", which strict JSON readers accept where they refuse Infinity.
    snr_db = getattr(args, "snr_db", None)
    if snr_db is not None:
        meta["snr_db"] = snr_db if math.isfinite(snr_db) else str(snr_db)
    data = (json.dumps(meta, sort_keys=True, indent=2, allow_nan=False) + "\n").encode("utf-8")
    out = config.path(config.report_dir) / f"{command}.meta.json"
    # A rerun with the same inputs (each benchmark search) leaves the record,
    # its inode and its mtime as they are.
    try:
        if out.read_bytes() == data:
            return
    except OSError:  # missing or unreadable: replacing says what is wrong
        pass
    with files.replacing(out) as fh:
        fh.write(data)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with files.replacing(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def _jsonl_report(path: Path):
    """Yield a sink that writes a JSONL report's rows one at a time to a
    temp file that replaces `path` when the block ends; a block that raises
    leaves the previous report."""
    with files.replacing(path) as fh:
        yield lambda row: fh.write((_encode_row(row) + "\n").encode("utf-8"))


def _tee(rows, sink):
    """Yield each of `rows` after handing it to `sink`."""
    for row in rows:
        sink(row)
        yield row


def _corruption(config: RunConfig, corpus) -> CorruptionConfig:
    sub, dele, ins = config.corruption_mix
    return CorruptionConfig(
        target_wer=config.target_wer,
        vocabulary=tuple(corpus_words(corpus)),
        sub_weight=sub,
        del_weight=dele,
        ins_weight=ins,
        seed=config.seed,
    )


def _build_model(config: RunConfig, vocab: Vocab, seed: int, **overrides):
    """A fresh model with the architecture and features the config names."""
    return build_model(
        vocab,
        hidden_dim=config.hidden_dim,
        encoder_dim=config.encoder_dim,
        encoder_layers=config.encoder_layers,
        backbone_layers=config.backbone_layers,
        downsample_factor=config.downsample_factor,
        feature_config=config.feature,
        seed=seed,
        **overrides,
    )


def _model_for(config: RunConfig, corpus, mode: PipelineMode):
    """The checkpoint's model. A mode that retrieves as speech_rag requires
    it; a text retriever falls back to a fresh (frozen-backbone) model."""
    ckpt_path = config.path(config.checkpoint_path)
    if ckpt_path.exists():
        return load_checkpoint(ckpt_path).model
    if mode.retriever is PipelineMode.SPEECH_RAG:
        raise FileNotFoundError(f"mode {mode.value} requires a trained checkpoint at {ckpt_path}")
    return _build_model(config, Vocab.from_words(corpus_words(corpus)), config.seed)


def _mode_inputs(config: RunConfig, corpus, mode: PipelineMode):
    """The model a mode runs with, and its corruptor: only fully_cascaded
    retrieves over corrupted transcripts, so every other mode gets None."""
    model = _model_for(config, corpus, mode)
    return model, (_corruption(config, corpus) if mode is PipelineMode.FULLY_CASCADED else None)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(config: RunConfig, args) -> int:
    corpus = synth_corpus(config.synth)
    save_manifest(corpus, config.path(config.corpus_manifest))
    print(f"wrote {len(corpus.passages)} passages, {len(corpus.queries)} queries "
          f"to {config.path(config.corpus_manifest)}")
    return 0


def cmd_split(config: RunConfig, args) -> int:
    corpus = load_manifest(config.path(config.corpus_manifest))
    parts = split(corpus, config.train_frac, config.val_frac, config.seed)
    for part, template in zip(parts, (config.train_manifest, config.val_manifest, config.test_manifest)):
        save_manifest(part, config.path(template))
    print("split sizes:", *(len(p.passages) for p in parts))
    return 0


def cmd_train(config: RunConfig, args) -> int:
    train_corpus = load_manifest(config.path(config.train_manifest))
    val_corpus = load_manifest(config.path(config.val_manifest))
    full_path = config.path(config.corpus_manifest)
    vocab_source = load_manifest(full_path) if full_path.exists() else None
    vocab = Vocab.from_words(
        corpus_words(vocab_source)
        if vocab_source
        else corpus_words(train_corpus) + corpus_words(val_corpus)
    )
    model = _build_model(config, vocab, config.train.seed)
    log_path = config.path(config.train_log_path)
    log_path.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    # Written in place, a line as each epoch ends: a run that dies keeps the
    # epochs it finished.
    with log_path.open("w", encoding="utf-8", buffering=1) as log:
        def log_row(row):
            log.write(json.dumps(row) + "\n")
            rows.append(row)

        checkpoint = train(train_corpus, val_corpus, config.train, model=model, sink=log_row)
    save_checkpoint(checkpoint, config.path(config.checkpoint_path))
    last = rows[-1]
    print(f"trained {last['epoch']} epochs, stopped by {last['stop_reason']}; "
          f"best epoch {checkpoint.epoch} (val loss {checkpoint.best_val_loss:.6f}); "
          f"checkpoint at {config.path(config.checkpoint_path)}")
    return 0


def cmd_embed(config: RunConfig, args) -> int:
    mode = args.mode
    corpus = load_manifest(config.path(config.corpus_manifest))
    model, corruption = _mode_inputs(config, corpus, mode)
    ids, matrix, _ = passage_embeddings(corpus, mode, model, corruption=corruption,
                                        snr_db=args.snr_db, noise_seed=config.seed)
    out = config.path(config.embeddings_path, mode=mode.value)
    save_embeddings(out, ids, matrix)
    print(f"wrote {len(ids)} embeddings to {out}")
    return 0


def cmd_index(config: RunConfig, args) -> int:
    idx = build_index(*load_embeddings(config.path(config.embeddings_path, mode=args.mode.value)))
    out = config.path(config.index_path, mode=args.mode.value)
    save(idx, out)
    print(f"indexed {len(idx)} vectors of dim {idx.dim} at {out}")
    return 0


def cmd_search(config: RunConfig, args) -> int:
    idx = load_index(config.path(config.index_path, mode=args.mode.value))
    corpus = load_manifest(config.path(config.corpus_manifest))
    model = _model_for(config, corpus, args.mode)
    ids, scores = search(idx, model.embed_text(args.query), args.k)
    for pid, score in zip(ids, scores):
        print(json.dumps({"id": pid, "score": round(score, 6)}))
    return 0


def cmd_eval_retrieval(config: RunConfig, args) -> int:
    corpus = load_manifest(config.path(config.corpus_manifest))
    report_dir = config.path(config.report_dir)
    header = ["mode", "passage_wer"] + [f"recall@{k}" for k in config.k_values]
    rows = []
    for mode in args.mode:
        model, corruption = _mode_inputs(config, corpus, mode)
        with _jsonl_report(report_dir / f"retrieval_{mode.value}.jsonl") as sink:
            report = retrieval_run(corpus, mode, model, k_values=config.k_values,
                                   corruption=corruption, snr_db=args.snr_db,
                                   noise_seed=config.seed, sink=sink)
        wer_cell = "" if report.passage_wer is None else f"{report.passage_wer:.4f}"
        rows.append([mode.value, wer_cell] + [f"{report.recalls[k]:.4f}" for k in config.k_values])
    out = report_dir / "retrieval.csv"
    _write_csv(out, header, rows)
    print(out)
    for row in rows:
        print(",".join(map(str, row)))
    return 0


def cmd_noise_sweep(config: RunConfig, args) -> int:
    corpus = load_manifest(config.path(config.corpus_manifest))
    speech_model = _model_for(config, corpus, PipelineMode.SPEECH_RAG)
    corruption = _corruption(config, corpus)
    # The corruptor is word-level, not audio-driven, so the cascaded row is a
    # noise-independent reference line at the configured WER.
    cascaded = retrieval_run(
        corpus, PipelineMode.FULLY_CASCADED, speech_model, k_values=(5,), corruption=corruption
    ).recalls[5]
    rows = []
    for snr_db in config.snr_grid:
        speech = retrieval_run(corpus, PipelineMode.SPEECH_RAG, speech_model, k_values=(5,),
                               snr_db=snr_db, noise_seed=config.seed).recalls[5]
        rows.append([snr_db, "speech_rag", f"{speech:.4f}"])
        rows.append([snr_db, "fully_cascaded", f"{cascaded:.4f}"])
    out = config.path(config.report_dir) / "noise_sweep.csv"
    _write_csv(out, ["snr_db", "mode", "recall@5"], rows)
    print(out)
    return 0


def cmd_corrupt(config: RunConfig, args) -> int:
    corpus = load_manifest(config.path(config.corpus_manifest))
    corruption = _corruption(config, corpus)
    rows = []
    for p in corpus.passages:
        corrupted = corrupt_transcript(p.transcript, corruption)
        rows.append(
            {
                "id": p.id,
                "transcript": p.transcript,
                "corrupted": corrupted,
                "wer": round(wer(p.transcript, corrupted), 6),
            }
        )
    achieved = corpus_wer((r["transcript"], r["corrupted"]) for r in rows)
    out = config.path(config.report_dir) / "corruption.jsonl"
    with _jsonl_report(out) as sink:
        for row in rows:
            sink(row)
        sink({"summary": True, "target_wer": corruption.target_wer,
              "achieved_wer": round(achieved, 6)})
    print(f"target {corruption.target_wer} achieved {achieved:.4f} -> {out}")
    return 0


def cmd_eval_generation(config: RunConfig, args) -> int:
    corpus = load_manifest(config.path(config.corpus_manifest))
    mode = args.mode
    model, corruption = _mode_inputs(config, corpus, mode)
    url, timeout_s = config.generator_url, config.generator_timeout_s
    judge = HttpJudge(url, timeout_s) if config.judge == "external" else MockJudge()
    report_dir = config.path(config.report_dir)
    with (_jsonl_report(report_dir / f"traces_{mode.value}.jsonl") as write_trace,
          _jsonl_report(report_dir / f"generation_{mode.value}_rows.jsonl") as write_row):
        traces = run_pipeline(
            corpus,
            mode,
            model,
            k=config.top_k_context,
            generator=HttpGenerator(url, timeout_s) if url else OracleGenerator(corpus),
            corruption=corruption,
            instruction=config.instruction_template,
            concurrency=config.generator_concurrency,
        )
        report = eval_generation(_tee(traces, write_trace), judge=judge, sink=write_row)
    out = report_dir / f"generation_{mode.value}.csv"
    em, correctness = (
        "" if mean is None else f"{mean:.4f}" for mean in (report.em_mean, report.correctness_mean)
    )
    _write_csv(
        out,
        ["mode", "exact_match", "llm_correctness", "generator_errors", "judge_errors"],
        [[mode.value, em, correctness, report.generator_errors, report.judge_errors]],
    )
    print(f"{mode.value}: EM {em or 'n/a'} correctness {correctness or 'n/a'} -> {out}")
    return 0


def cmd_gradcheck(config: RunConfig, args) -> int:
    probe_corpus = synth_corpus(
        SynthParams(n_passages=4, vocabulary_size=24, seed=config.seed)
    )
    vocab = Vocab.from_words(corpus_words(probe_corpus))
    # Probe at a healthy projection scale: the training init is nearly zero,
    # where finite differences measure curvature rather than gradient error.
    model = _build_model(config, vocab, config.seed, dtype=np.float64, proj_std=0.1)
    items = _corpus_items(probe_corpus, model)[:2]
    err = grad_check(model, items, probe_count=args.probes, eps=args.eps, seed=config.seed)
    passed = err <= GRADCHECK_THRESHOLD
    print(f"max relative error: {err:.3e} (threshold {GRADCHECK_THRESHOLD:g}) "
          f"-> {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 2


# ---------------------------------------------------------------------------


_COMMON = (("--config", dict(help="path to JSON config")),
           ("--seed", dict(type=int, help="override the global seed")),
           ("--data-dir", dict(dest="data_dir", help="override the data root")))
_RETRIEVER_NAMES = sorted(name for name, mode in MODE_ALIASES.items() if mode.retriever is mode)
_MODE = ("--mode", dict(type=_mode, default="speech", help=f"one mode from {sorted(MODE_ALIASES)}"))
_RETRIEVER = ("--mode", dict(type=_retriever, default="speech", help=f"one of {_RETRIEVER_NAMES}"))
_RETRIEVERS = ("--mode", dict(type=_retrievers, default="speech",
                              help=f"comma list of distinct retrievers from {_RETRIEVER_NAMES}"))
_MANIFEST = ("--manifest", dict(dest="corpus_manifest",
                                help="manifest to evaluate (overrides corpus_manifest)"))
_TARGET_WER = ("--target-wer", dict(dest="target_wer", type=float,
                                    help="corruption target WER (overrides target_wer)"))
_SNR_DB = ("--snr-db", dict(dest="snr_db", type=_snr_db,
                            help="add Gaussian noise at this SNR in dB"))

# Each subcommand's flags, as (flag, add_argument keywords). A flag whose
# dest is a RunConfig field overrides that field (see main).
FLAGS = {
    "synth": _COMMON,
    "split": _COMMON,
    "train": _COMMON,
    "embed": (*_COMMON, _RETRIEVER, _MANIFEST, _TARGET_WER, _SNR_DB),
    "index": (*_COMMON, _RETRIEVER),
    "search": (*_COMMON, _RETRIEVER, _MANIFEST, ("--query", dict(required=True)),
               ("--k", dict(type=_at_least_one, default=5))),
    "eval-retrieval": (*_COMMON, _RETRIEVERS, _MANIFEST, _TARGET_WER, _SNR_DB,
                       ("--k", dict(dest="k_values", type=int_list,
                                    help="comma list of recall cutoffs (overrides k_values)"))),
    "noise-sweep": (*_COMMON, _MANIFEST, _TARGET_WER,
                    ("--snr", dict(dest="snr_grid", type=float_list,
                                   help="comma list of SNR values in dB (overrides snr_grid)"))),
    "corrupt": (*_COMMON, _MANIFEST, _TARGET_WER),
    "eval-generation": (
        *_COMMON, _MODE, _MANIFEST, _TARGET_WER,
        ("--top-k-context", dict(dest="top_k_context", type=int,
                                 help="retrieved contexts per query (overrides top_k_context)")),
        ("--generator-url", dict(dest="generator_url",
                                 help="generator and judge endpoint (overrides generator_url)"))),
    "gradcheck": (*_COMMON,
                  ("--probes", dict(type=_at_least_one, default=5,
                                    help="random scalar probes per tensor")),
                  ("--eps", dict(type=_step, default=1e-4, help="central-difference step"))),
}


def build_parser(command: str | None = None) -> _Parser:
    """The CLI parser. It holds only `command`'s subparser when `command`
    names one, and every subparser otherwise (for --help or an error)."""
    parser = _Parser(prog="speechrag", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in (command,) if command in FLAGS else FLAGS:
        sub = subs.add_parser(name, allow_abbrev=False)
        for flag, keywords in FLAGS[name]:
            sub.add_argument(flag, **keywords)
    return parser


COMMANDS = {
    "synth": cmd_synth,
    "split": cmd_split,
    "train": cmd_train,
    "embed": cmd_embed,
    "index": cmd_index,
    "search": cmd_search,
    "eval-retrieval": cmd_eval_retrieval,
    "noise-sweep": cmd_noise_sweep,
    "corrupt": cmd_corrupt,
    "eval-generation": cmd_eval_generation,
    "gradcheck": cmd_gradcheck,
}


# A negative number, or -inf in any case (-Infinity too), then anything.
_NEGATIVE = re.compile(r"-([0-9.]|inf)", re.IGNORECASE)


def _join_negative_values(argv: list[str]) -> list[str]:
    """Fold ``--snr -5,0,10`` into ``--snr=-5,0,10``: a token that is ``-`` then
    a digit, ``.`` or ``inf`` is a value of the option before it, not an
    option name."""
    out: list[str] = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


# One parser per subcommand a process runs, and one for every other command
# line: argparse keeps no state between parses, and building a parser takes
# about 1 ms, which a process running many commands would pay on each.
_parser = functools.cache(build_parser)


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a command line; --help, --version and usage errors raise SystemExit."""
    command = argv[0] if argv and argv[0] in FLAGS else None
    return _parser(command).parse_args(_join_negative_values(argv))


def main(argv=None) -> int:
    try:
        args = parse_args(list(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
        config = load_config(args.config, overrides)
        code = COMMANDS[args.command](config, args)
        _write_meta(config, args)
        return code
    except (ValueError, OSError, KeyError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
