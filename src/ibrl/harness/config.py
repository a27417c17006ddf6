"""Experiment configuration: a flat dotted-key text format and its schema.

Config files are plain ``key = value`` lines. Keys use dots for grouping
(``env.alpha_dgp = 0.99``), comments start with ``#``, blank lines are
ignored, and comma-separated values parse to tuples. Every malformed line is
reported with its line number so CLI users get an exact diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

from ..errors import ConfigError

EXPERIMENTS = ("validate-classical", "ku-bandit", "newcomb", "trap-bandit")

DEFAULT_SEED = 42


def _parse_scalar(text: str) -> object:
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_value(text: str) -> object:
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
        if any(not p for p in parts):
            raise ConfigError("empty element in comma-separated value")
        return tuple(_parse_scalar(p) for p in parts)
    return _parse_scalar(text)


def parse_config_text(text: str) -> dict[str, object]:
    """Parse config text into a flat key/value mapping.

    Raises ``ConfigError`` with a line-numbered message on any malformed or
    duplicated line."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key before '='")
        if not value:
            raise ConfigError(f"line {lineno}: missing value for key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = _parse_value(value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run request.

    ``settings`` holds the experiment-specific dotted keys (step counts,
    environment parameters, agent roster); each experiment's runner validates
    them against its documented schema and fills defaults for what is
    absent."""

    experiment: str
    seed: int = DEFAULT_SEED
    out: str | None = None
    settings: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r} (expected one of {', '.join(EXPERIMENTS)})"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 1:
            raise ConfigError(f"seed must be a positive integer, got {self.seed!r}")
        object.__setattr__(self, "settings", MappingProxyType(dict(self.settings)))

    def setting(self, key: str, default: object) -> object:
        return self.settings.get(key, default)

    def with_overrides(
        self,
        experiment: str | None = None,
        seed: int | None = None,
        out: str | None = None,
        extra_settings: Mapping[str, object] | None = None,
    ) -> "ExperimentConfig":
        settings = dict(self.settings)
        if extra_settings:
            settings.update(extra_settings)
        return replace(
            self,
            experiment=experiment if experiment is not None else self.experiment,
            seed=seed if seed is not None else self.seed,
            out=out if out is not None else self.out,
            settings=settings,
        )


def config_from_mapping(mapping: Mapping[str, object]) -> ExperimentConfig:
    """Build an ``ExperimentConfig`` from parsed key/value pairs.

    The reserved keys ``experiment``, ``seed``, and ``out`` populate the
    top-level fields; everything else lands in ``settings``."""
    data = dict(mapping)
    experiment = data.pop("experiment", None)
    if experiment is None:
        raise ConfigError("config is missing the required key 'experiment'")
    if not isinstance(experiment, str):
        raise ConfigError(f"field 'experiment': expected a name, got {experiment!r}")
    seed = data.pop("seed", DEFAULT_SEED)
    out = data.pop("out", None)
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"field 'out': expected a path, got {out!r}")
    return ExperimentConfig(experiment=experiment, seed=seed, out=out, settings=data)


def check_settings(cfg: ExperimentConfig, allowed: Mapping[str, str]) -> None:
    """Reject settings keys outside the experiment's documented schema.

    ``allowed`` maps exact keys to their descriptions; a key ending in ``.``
    matches any dotted continuation (used for numbered families such as
    ``setting.1``)."""
    prefixes = tuple(k for k in allowed if k.endswith("."))
    for key in cfg.settings:
        if key in allowed:
            continue
        if any(key.startswith(p) for p in prefixes):
            continue
        raise ConfigError(
            f"field {key!r}: unknown setting for experiment {cfg.experiment!r} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )
