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


# Every number key of an experiment config: key -> (ExperimentConfig field,
# int or float, smallest value).  A _grid key takes a non-empty JSON list of
# them, none twice.
NUMBER_KEYS = {
    "n_grid": ("n_grid", int, 1),
    "R_grid": ("r_grid", float, 0),
    "delta": ("delta", float, 0),
    "delta_source": ("delta_source", float, 0),
    "delta_cond": ("delta_cond", float, 0),
    "trials": ("trials", int, 0),
    "seed": ("seed", int, 0),
    "m_max": ("m_max", int, 0),
    "dim_budget": ("dim_budget", int, 1),
    "set_budget": ("set_budget", int, 1),
    "work_budget": ("work_budget", int, 1),
}
# the builtin channels' parameters, in a config and in a channel document
BUILTIN_PARAMS = ("overlap", "flip", "noise")
_CONFIG_KEYS = {
    "channel", "channel_file", *BUILTIN_PARAMS, *NUMBER_KEYS,
    "epsilon_target", "variants", "distinct_codewords", "exact",
}

VARIANTS = ("rank_one", "subspace", "pgm")


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


def builtin_params(doc: dict) -> dict:
    """The builtin channel parameters of a config or channel document, as floats."""
    return {k: as_number(doc[k], float, k) for k in BUILTIN_PARAMS if k in doc}


def _distinct(key: str, values: tuple) -> None:
    if not values or len(set(values)) < len(values):
        raise ConfigError(f"'{key}' must list at least one entry, none twice")


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

    kwargs: dict = {
        "channel": channel, "channel_file": channel_file, "channel_params": builtin_params(doc)
    }
    for key, (name, caster, least) in NUMBER_KEYS.items():
        if key not in doc:
            continue
        if key.endswith("_grid"):
            value = as_numbers(doc[key], caster, key)
            _distinct(key, value)
            if min(value) < least:
                raise ConfigError(f"'{key}' entries must be >= {least}")
        else:
            value = as_number(doc[key], caster, key)
            if value < least:
                raise ConfigError(f"'{key}' must be >= {least}")
        kwargs[name] = value
    if "epsilon_target" in doc:
        target = as_number(doc["epsilon_target"], float, "epsilon_target")
        if not 0.0 < target < 1.0:
            raise ConfigError("'epsilon_target' must be in (0, 1)")
        kwargs["epsilon_target"] = target
    if "variants" in doc:
        variants = doc["variants"]
        if not isinstance(variants, list) or not all(isinstance(v, str) for v in variants):
            raise ConfigError("'variants' must be a JSON list of names")
        bad = set(variants) - set(VARIANTS)
        if bad:
            raise ConfigError(f"unknown variants {sorted(bad)}; valid: {VARIANTS}")
        _distinct("variants", variants)
        kwargs["variants"] = tuple(variants)
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
    return ExperimentConfig(**kwargs)


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
