"""Run configuration: one JSON file drives every CLI subcommand.

Unspecified fields take the defaults below; CLI flags override file values.
The fully resolved configuration (plus its hash, the seed, and component
versions) is echoed into a metadata record next to every report so any run
can be reproduced exactly from its outputs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .corpus import SynthParams
from .dsp import FeatureConfig
from .ragpipe import DEFAULT_INSTRUCTION
from .training import TrainConfig

ENV_DATA_DIR = "SPEECHRAG_DATA_DIR"


@dataclass(frozen=True)
class RunConfig:
    data_dir: str = "."
    corpus_manifest: str = "corpus/manifest.jsonl"
    train_manifest: str = "corpus/train.jsonl"
    val_manifest: str = "corpus/val.jsonl"
    test_manifest: str = "corpus/test.jsonl"
    checkpoint_path: str = "artifacts/model.ckpt"
    train_log_path: str = "artifacts/train_log.jsonl"
    embeddings_path: str = "artifacts/embeddings_{mode}.semb"
    index_path: str = "artifacts/index_{mode}.sidx"
    report_dir: str = "reports"

    hidden_dim: int = 64
    encoder_dim: int = 64
    encoder_layers: int = 2
    backbone_layers: int = 2
    downsample_factor: int = 4

    feature: FeatureConfig = field(default_factory=FeatureConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthParams = field(default_factory=SynthParams)

    target_wer: float = 0.0
    corruption_mix: tuple[float, float, float] = (0.6, 0.2, 0.2)
    train_frac: float = 0.8
    val_frac: float = 0.1

    k_values: tuple[int, ...] = (5, 10, 100)
    snr_grid: tuple[float, ...] = (-5.0, 0.0, 5.0, 10.0, 20.0, 30.0)
    top_k_context: int = 5
    generator_url: str | None = None
    generator_timeout_s: float = 30.0
    generator_concurrency: int = 1
    instruction_template: str = DEFAULT_INSTRUCTION
    judge: str = "mock"
    seed: int = 7

    def __post_init__(self):
        for name, least in (("hidden_dim", 1), ("encoder_dim", 1), ("encoder_layers", 1),
                            ("backbone_layers", 0), ("downsample_factor", 1), ("top_k_context", 1),
                            ("generator_concurrency", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        ks = self.k_values
        if not ks or ks[0] < 1 or any(a >= b for a, b in zip(ks, ks[1:])):
            raise ValueError(
                f"k_values must be non-empty, positive and strictly ascending, got {ks}")
        if not 0.0 <= self.target_wer < 1.0:
            raise ValueError("target_wer must lie in [0, 1)")
        # Written so that NaN fails; corpus.split checks again for library callers.
        for name in ("train_frac", "val_frac"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        if self.train_frac + self.val_frac >= 1.0:
            raise ValueError("train_frac + val_frac must be < 1, "
                             f"got {self.train_frac} + {self.val_frac}")
        mix = self.corruption_mix
        if not (min(mix) >= 0.0 and abs(sum(mix) - 1.0) <= 1e-9):  # NaN fails
            raise ValueError(f"corruption_mix must be non-negative and sum to 1, got {mix}")
        # +inf is the no-noise point; NaN and -inf set no noise level.
        if any(math.isnan(snr) or snr == -math.inf for snr in self.snr_grid):
            raise ValueError(f"snr_grid values must be numbers or inf, got {self.snr_grid}")
        # An HTTP call with a timeout of 0 or less, or of inf, always fails.
        if not 0.0 < self.generator_timeout_s < math.inf:
            raise ValueError("generator_timeout_s must be a positive finite number of seconds, "
                             f"got {self.generator_timeout_s}")
        if self.judge not in ("mock", "external"):
            raise ValueError(f"judge must be 'mock' or 'external', got {self.judge!r}")
        if self.judge == "external" and not self.generator_url:
            raise ValueError("judge 'external' needs a generator_url")

    def path(self, template: str, **fmt) -> Path:
        return Path(self.data_dir) / template.format(**fmt)

    def resolved(self) -> dict:
        """The config as JSON values, each non-finite float as its string
        ("inf"): strict JSON readers refuse Infinity."""
        return asdict(self, dict_factory=_strict_json)


def _strict_json(pairs) -> dict:
    def value(v):
        if isinstance(v, tuple):
            return tuple(map(value, v))
        return str(v) if isinstance(v, float) and not math.isfinite(v) else v
    return {k: value(v) for k, v in pairs}


def resolved_hash(resolved: dict) -> str:
    """sha256 of a resolved config's canonical JSON: the metadata record's
    `config_hash`."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# Resolving the string annotations costs about 0.8 ms; every command loads a config.
_type_hints = functools.cache(typing.get_type_hints)


class _Misfit(TypeError):
    """Args: a value that does not fit its declared type, that type, and the
    value's place below the field ("[3]" for a tuple's element, else "")."""


def _as_declared(value, hint):
    """A JSON value (lists already made tuples) as a value of the field type
    `hint`. An int given for a float becomes a float, so that 0 and 0.0
    resolve, and hash, the same; a bool fits no number. Raises _Misfit, for
    the first element that does not fit when `hint` is a tuple, or for the
    value."""
    if type(value) is hint:  # a bool is its own class, so it still fits no int
        return value
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if args[-1] is Ellipsis and isinstance(value, tuple):
            args = args[:1] * len(value)
        if not isinstance(value, tuple) or len(value) != len(args):
            raise _Misfit(value, hint, "")
        items = []
        for i, (item, arg) in enumerate(zip(value, args)):
            try:
                items.append(_as_declared(item, arg))
            except _Misfit as exc:
                bad, bad_hint, where = exc.args
                raise _Misfit(bad, bad_hint, f"[{i}]{where}") from None
        return tuple(items)
    for arg in args:  # a union, such as str | None
        try:
            return _as_declared(value, arg)
        except _Misfit:
            pass
    if args or (isinstance(value, bool) and hint is not bool):
        raise _Misfit(value, hint, "")
    if hint is float and isinstance(value, int):
        try:
            return float(value)
        except OverflowError:  # an int no float holds
            raise _Misfit(value, hint, "") from None
    if not isinstance(value, hint):
        raise _Misfit(value, hint, "")
    return value


def read_section(cls, data, section: str, seed: int | None = None, exact: bool = False):
    """Build the dataclass `cls` from a JSON object, each value of its
    field's declared type; `section` names the object in errors. Nested
    dataclass fields are sections of their own. With `exact`, every field at
    every level must be given; otherwise an unset field takes its default,
    and a section with a seed field takes `seed` unless it sets its own."""
    if not isinstance(data, dict):
        raise ValueError(f"config section {section} must be a JSON object")
    hints = _type_hints(cls)
    names = [f.name for f in fields(cls)]
    if unknown := set(data) - set(names):
        raise ValueError(f"unknown {section} fields: {sorted(unknown)}")
    if exact and (missing := [name for name in names if name not in data]):
        raise ValueError(f"missing {section} fields: {missing}")
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
    if "seed" in names:
        values.setdefault("seed", seed)
    sections = [name for name in names if is_dataclass(hints[name])]
    for name, value in values.items():
        if name in sections:
            continue
        try:
            values[name] = _as_declared(value, hints[name])
        except _Misfit as exc:
            bad, hint, where = exc.args
            type_name = hint.__name__ if typing.get_origin(hint) is None else str(hint)
            raise ValueError(f"{section}.{name}{where} must be {type_name}, got {bad!r}") from None
    for name in sections:
        values[name] = read_section(hints[name], values.get(name, {}), f"{section}.{name}",
                                    values.get("seed", seed), exact)
    return cls(**values)


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional JSON file, and explicit
    overrides (highest precedence). The global seed flows into the synth and
    train sections unless those set their own."""
    data: dict = {}
    if path is not None:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"config root must be a JSON object: {path}")
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    data.update(overrides)
    if "data_dir" not in data and os.environ.get(ENV_DATA_DIR):
        data["data_dir"] = os.environ[ENV_DATA_DIR]
    return read_section(RunConfig, data, "config", RunConfig.seed)
