"""Plain-text key-value documents used for channels, codebooks and experiment configs.

Format: one ``key = value`` pair per line; blank lines and ``#`` comments are
ignored.  Values are parsed as JSON when possible (numbers, lists, booleans,
quoted strings) and kept as bare strings otherwise.  Unknown keys are always
errors at the schema layer: a typo must never silently change an experiment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError


def parse_kv_text(text: str) -> dict:
    doc: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in doc:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        try:
            doc[key] = json.loads(value)
        except json.JSONDecodeError:
            doc[key] = value
    return doc


_CONFIG_KEYS = {
    "channel",
    "channel_file",
    "overlap",
    "flip",
    "noise",
    "n_grid",
    "R_grid",
    "delta",
    "delta_source",
    "delta_cond",
    "epsilon_target",
    "trials",
    "seed",
    "variants",
    "distinct_codewords",
    "exact",
    "m_max",
    "dim_budget",
    "set_budget",
    "work_budget",
}

_VARIANTS = ("rank_one", "subspace", "pgm")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see README for the file schema)."""

    channel: str
    channel_file: str | None = None
    channel_params: dict = field(default_factory=dict)
    n_grid: tuple[int, ...] = (4, 6)
    r_grid: tuple[float, ...] = (0.3,)
    delta: float = 0.3
    delta_source: float | None = None
    delta_cond: float | None = None
    epsilon_target: float = 0.1
    trials: int = 1000
    seed: int = 0
    variants: tuple[str, ...] = ("rank_one",)
    distinct_codewords: bool = False
    exact: str = "auto"
    m_max: int = 64
    dim_budget: int | None = None
    set_budget: int | None = None
    work_budget: int | None = None


def as_number(value, caster, key):
    """A JSON number as ``caster`` (int or float); any other value is a config error.

    bools, strings, lists and null are not numbers, inf and nan are
    rejected, and an int key takes only integral values.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not math.isfinite(value)
            or caster is int and value != int(value)):
        raise ConfigError(f"'{key}' must be a finite {caster.__name__}, got {value!r}")
    try:
        return caster(value)
    except OverflowError as exc:  # an int too large for a float
        raise ConfigError(f"'{key}' is out of range") from exc


def as_numbers(value, caster, key):
    """A JSON list of numbers as a tuple of ``caster`` (see as_number)."""
    if not isinstance(value, list):
        raise ConfigError(f"'{key}' must be a JSON list")
    return tuple(as_number(v, caster, key) for v in value)


def experiment_config_from_document(doc: dict) -> ExperimentConfig:
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "channel" not in doc:
        raise ConfigError("config requires a 'channel' key")
    channel = doc["channel"]
    if not isinstance(channel, str):
        raise ConfigError("'channel' must be a builtin name or 'file'")
    channel_file = doc.get("channel_file")
    if channel_file is not None and not isinstance(channel_file, str):
        raise ConfigError("'channel_file' must be a path")
    if channel == "file" and not channel_file:
        raise ConfigError("channel = file requires 'channel_file'")
    if channel != "file" and channel_file:
        raise ConfigError("'channel_file' is only valid with channel = file")

    params = {k: as_number(doc[k], float, k) for k in ("overlap", "flip", "noise") if k in doc}

    kwargs: dict = {"channel": channel, "channel_file": channel_file, "channel_params": params}
    if "n_grid" in doc:
        kwargs["n_grid"] = as_numbers(doc["n_grid"], int, "n_grid")
    if "R_grid" in doc:
        kwargs["r_grid"] = as_numbers(doc["R_grid"], float, "R_grid")
    for key, caster in (
        ("delta", float),
        ("delta_source", float),
        ("delta_cond", float),
        ("epsilon_target", float),
        ("trials", int),
        ("seed", int),
        ("m_max", int),
        ("dim_budget", int),
        ("set_budget", int),
        ("work_budget", int),
    ):
        if key in doc:
            kwargs[key] = as_number(doc[key], caster, key)
    if "variants" in doc:
        variants = doc["variants"]
        if not isinstance(variants, list) or not all(isinstance(v, str) for v in variants):
            raise ConfigError("'variants' must be a JSON list of names")
        variants = tuple(variants)
        bad = set(variants) - set(_VARIANTS)
        if bad:
            raise ConfigError(f"unknown variants {sorted(bad)}; valid: {_VARIANTS}")
        kwargs["variants"] = variants
    if "distinct_codewords" in doc:
        if not isinstance(doc["distinct_codewords"], bool):
            raise ConfigError("'distinct_codewords' must be true or false")
        kwargs["distinct_codewords"] = doc["distinct_codewords"]
    if "exact" in doc:
        value = doc["exact"]
        if isinstance(value, bool):
            value = "always" if value else "never"
        if value not in ("auto", "always", "never"):
            raise ConfigError("'exact' must be auto, always, never, true or false")
        kwargs["exact"] = value

    cfg = ExperimentConfig(**kwargs)
    if cfg.trials < 0:
        raise ConfigError("'trials' must be >= 0")
    if cfg.seed < 0:
        raise ConfigError("'seed' must be >= 0")
    if cfg.m_max < 0:
        raise ConfigError("'m_max' must be >= 0")
    for key, values in (("n_grid", cfg.n_grid), ("R_grid", cfg.r_grid), ("variants", cfg.variants)):
        if not values or len(set(values)) < len(values):
            raise ConfigError(f"'{key}' must list at least one entry, none twice")
    if any(n < 1 for n in cfg.n_grid):
        raise ConfigError("'n_grid' entries must be >= 1")
    if any(r < 0 for r in cfg.r_grid):
        raise ConfigError("'R_grid' entries must be >= 0")
    for key in ("delta", "delta_source", "delta_cond"):
        value = getattr(cfg, key)
        if value is not None and value < 0:
            raise ConfigError(f"'{key}' must be >= 0")
    if not 0.0 < cfg.epsilon_target < 1.0:
        raise ConfigError("'epsilon_target' must be in (0, 1)")
    for key in ("dim_budget", "set_budget", "work_budget"):
        value = getattr(cfg, key)
        if value is not None and value < 1:
            raise ConfigError(f"'{key}' must be >= 1")
    return cfg


def load_experiment_config(path: str, seed: int | None = None) -> ExperimentConfig:
    """The config at ``path``; a ``seed`` replaces its seed key before validation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    doc = parse_kv_text(text)
    if seed is not None:
        doc["seed"] = seed
    return experiment_config_from_document(doc)
