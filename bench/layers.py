"""The traced functions of each speechrag module and the per-layer metrics
derived from their spans.

Layers are the package modules. ``config`` is only read by ``cli`` and gets
no metrics. A metric is ``<module>.<function>.<stat>``: ``calls``, ``s``
(inclusive seconds), ``self_s`` (inclusive minus child spans) or a work
count named after its unit.
"""

from __future__ import annotations

import hashlib
import os

from tracer import Target

CLI_COMMANDS = (
    "synth", "split", "train", "embed", "index", "search",
    "eval-retrieval", "noise-sweep", "eval-generation",
)


def _size(position: int, keyword: str):
    """Size of the file named by a path argument, after the call."""
    return lambda args, kwargs, result: os.path.getsize(
        args[position] if len(args) > position else kwargs[keyword]
    )


def _rows(args, kwargs, result):
    return int(args[0].shape[0])


def _signal_key(args, kwargs):
    samples = args[0].samples
    return samples.size, hashlib.blake2b(samples[::97].tobytes(), digest_size=16).digest()


TARGETS = (
    Target("speechrag.dsp", "logmel", "dsp.logmel",
           work=lambda a, k, r: int(r.data.shape[0]), key=_signal_key),
    Target("speechrag.dsp", "add_noise_snr", "dsp.add_noise_snr",
           work=lambda a, k, r: int(a[0].samples.size)),
    Target("speechrag.dsp", "read_wav", "dsp.read_wav", work=_size(0, "path")),
    Target("speechrag.dsp", "write_wav", "dsp.write_wav", work=_size(0, "path")),
    Target("speechrag.corpus", "load_manifest", "corpus.load_manifest",
           work=lambda a, k, r: len(r.passages)),
    Target("speechrag.corpus", "save_manifest", "corpus.save_manifest", work=_size(1, "path")),
    Target("speechrag.corpus", "synth_corpus", "corpus.synth_corpus"),
    Target("speechrag.corpus", "load_audio", "corpus.load_audio", owner="Corpus"),
    Target("speechrag.encoder", "embed_speech", "encoder.embed_speech"),
    Target("speechrag.encoder", "speech_encode", "encoder.speech_encode",
           work=lambda a, k, r: int(r.shape[0])),
    Target("speechrag.encoder", "backbone_forward", "encoder.backbone_forward", work=_rows),
    Target("speechrag.encoder", "embed_text", "encoder.embed_text"),
    Target("speechrag.adapter", "downsample", "adapter.downsample", work=_rows),
    Target("speechrag.adapter", "project", "adapter.project"),
    Target("speechrag.training", "loss_and_grads", "training.loss_and_grads",
           work=lambda a, k, r: len(a[0])),
    Target("speechrag.training", "adam_step", "training.adam_step"),
    Target("speechrag.training", "evaluate_loss", "training.evaluate_loss"),
    Target("speechrag.training", "train", "training.train"),
    Target("speechrag.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint",
           work=_size(0, "path")),
    Target("speechrag.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint",
           work=_size(1, "path")),
    Target("speechrag.index", "search", "index.search",
           work=lambda a, k, r: len(a[0].ids)),
    Target("speechrag.index", "build", "index.build", work=lambda a, k, r: len(r)),
    Target("speechrag.index", "save", "index.save", work=_size(1, "path")),
    Target("speechrag.index", "load", "index.load", work=_size(0, "path")),
    Target("speechrag.index", "save_embeddings", "index.save_embeddings", work=_size(0, "path")),
    Target("speechrag.index", "load_embeddings", "index.load_embeddings", work=_size(0, "path")),
    Target("speechrag.ragpipe", "corrupt_transcript", "ragpipe.corrupt_transcript"),
    Target("speechrag.ragpipe", "corpus_wer", "ragpipe.corpus_wer"),
    Target("speechrag.ragpipe", "passage_embeddings", "ragpipe.passage_embeddings"),
    Target("speechrag.ragpipe", "retrieval_run", "ragpipe.retrieval_run"),
    Target("speechrag.ragpipe", "run_pipeline", "ragpipe.run_pipeline"),
    Target("speechrag.ragpipe", "eval_generation", "ragpipe.eval_generation"),
    Target("speechrag.ragpipe", "__call__", "ragpipe.generator", owner="OracleGenerator"),
    Target("speechrag.ragpipe", "__call__", "ragpipe.judge", owner="MockJudge"),
)


def command_targets(cli_module) -> tuple[Target, ...]:
    """One target per CLI subcommand the workloads run."""
    return tuple(
        Target("speechrag.cli", cli_module.COMMANDS[cmd].__name__, f"cli.{cmd}")
        for cmd in CLI_COMMANDS
    )


# (span name, stat, metric suffix). Stats: calls, s, self_s, work.
_STATS = [
    *[(f"cli.{cmd}", stat, stat) for cmd in CLI_COMMANDS for stat in ("s", "self_s")],
    ("training.loss_and_grads", "calls", "calls"),
    ("training.loss_and_grads", "s", "s"),
    ("training.loss_and_grads", "work", "items"),
    ("training.adam_step", "calls", "calls"),
    ("training.adam_step", "s", "s"),
    ("training.evaluate_loss", "calls", "calls"),
    ("training.evaluate_loss", "s", "s"),
    ("training.train", "self_s", "self_s"),
    ("dsp.logmel", "calls", "calls"),
    ("dsp.logmel", "s", "s"),
    ("dsp.logmel", "work", "frames"),
    ("dsp.add_noise_snr", "calls", "calls"),
    ("dsp.add_noise_snr", "s", "s"),
    ("dsp.add_noise_snr", "work", "samples"),
    *[(f"dsp.{fn}", stat, suffix) for fn in ("read_wav", "write_wav")
      for stat, suffix in (("calls", "calls"), ("s", "s"), ("work", "bytes"))],
    ("corpus.load_audio", "calls", "calls"),
    ("corpus.load_audio", "s", "s"),
    ("corpus.load_manifest", "calls", "calls"),
    ("corpus.load_manifest", "s", "s"),
    ("corpus.load_manifest", "work", "passages"),
    ("corpus.synth_corpus", "s", "s"),
    ("corpus.save_manifest", "s", "s"),
    ("corpus.save_manifest", "work", "bytes"),
    ("encoder.embed_speech", "self_s", "self_s"),
    ("encoder.speech_encode", "calls", "calls"),
    ("encoder.speech_encode", "s", "s"),
    ("encoder.speech_encode", "work", "rows"),
    ("encoder.backbone_forward", "calls", "calls"),
    ("encoder.backbone_forward", "s", "s"),
    ("encoder.backbone_forward", "work", "rows"),
    ("encoder.embed_text", "calls", "calls"),
    ("encoder.embed_text", "s", "s"),
    ("adapter.downsample", "calls", "calls"),
    ("adapter.downsample", "s", "s"),
    ("adapter.downsample", "work", "rows"),
    ("adapter.project", "calls", "calls"),
    ("adapter.project", "s", "s"),
    ("index.search", "calls", "calls"),
    ("index.search", "s", "s"),
    ("index.search", "work", "rows_scored"),
    ("index.build", "calls", "calls"),
    ("index.build", "s", "s"),
    ("index.build", "work", "rows"),
    *[(f"index.{fn}", stat, suffix)
      for fn in ("save", "load", "save_embeddings", "load_embeddings")
      for stat, suffix in (("calls", "calls"), ("s", "s"), ("work", "bytes"))],
    ("checkpoint.load_checkpoint", "calls", "calls"),
    ("checkpoint.load_checkpoint", "s", "s"),
    ("checkpoint.load_checkpoint", "work", "bytes"),
    ("checkpoint.save_checkpoint", "s", "s"),
    ("checkpoint.save_checkpoint", "work", "bytes"),
    ("ragpipe.corrupt_transcript", "calls", "calls"),
    ("ragpipe.corrupt_transcript", "s", "s"),
    ("ragpipe.corpus_wer", "calls", "calls"),
    ("ragpipe.corpus_wer", "s", "s"),
    ("ragpipe.retrieval_run", "self_s", "self_s"),
    ("ragpipe.passage_embeddings", "self_s", "self_s"),
    ("ragpipe.run_pipeline", "self_s", "self_s"),
    # Generator and judge errors are failed operations in the run's result.
    ("ragpipe.generator", "calls", "calls"),
    ("ragpipe.generator", "s", "s"),
    ("ragpipe.judge", "calls", "calls"),
    ("ragpipe.judge", "s", "s"),
    ("ragpipe.eval_generation", "self_s", "self_s"),
]

# Values that are not span statistics.
DERIVED = (
    "dsp.logmel.calls_per_passage",
    "checkpoint.load_checkpoint.calls_per_command",
    "corpus.load_manifest.passages_per_query",
    "ragpipe.recall5_speech",
    "ragpipe.recall5_cascaded",
    "ragpipe.recall5_speech_noisy",
    "training.best_val_loss",
    "trace.overhead_s",
)


def metric_names() -> list[str]:
    """Every per-layer metric name, as BENCHMARK.json lists them."""
    return [f"{name}.{suffix}" for name, _stat, suffix in _STATS] + list(DERIVED)


def span_metrics(tracer) -> dict[str, float]:
    """The span-statistic metrics, zero for a layer the run never called,
    plus the three ratios that show redone or unused work."""
    stats = tracer.aggregate()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}
    values = {
        f"{name}.{suffix}": stats.get(name, empty)[stat] for name, stat, suffix in _STATS
    }
    # logmel calls per distinct input signal: above 1 means redone work.
    distinct = len(tracer.input_keys.get("dsp.logmel", ()))
    values["dsp.logmel.calls_per_passage"] = stats["dsp.logmel"]["calls"] / distinct
    calls, commands = tracer.command_counts("checkpoint.load_checkpoint")
    values["checkpoint.load_checkpoint.calls_per_command"] = calls / commands
    # Passages parsed by load_manifest per search command, none of which it uses.
    parsed, searches = tracer.work_under("corpus.load_manifest", "cli.search")
    values["corpus.load_manifest.passages_per_query"] = parsed / searches
    return values
