"""Structured-text serialization of belief states.

Beliefs serialize to the same flat dotted-key format the config files use,
which makes golden tests plain text diffs. Floats are written with ``repr``
so every bit of the value round-trips through the text."""

from __future__ import annotations

import dataclasses

import numpy as np

from ..inframeasure import Infradistribution


def _flatten(prefix: str, value: object, lines: list[str]) -> None:
    if isinstance(value, np.ndarray):
        value = tuple(value.tolist())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            if field.init:  # fields built from the others are caches, not state
                _flatten(f"{prefix}.{field.name}", getattr(value, field.name), lines)
        return
    if isinstance(value, (tuple, list)):
        lines.append(f"{prefix}.len = {len(value)}")
        for i, item in enumerate(value):
            _flatten(f"{prefix}.{i}", item, lines)
        return
    if value is None or isinstance(value, (bool, int, float, str)):
        lines.append(f"{prefix} = {value!r}")
        return
    lines.append(f"{prefix} = {value!r}")


def serialize_infradistribution(psi: Infradistribution) -> str:
    """Render a belief as dotted key/value text, one fact per line.

    The layout is deterministic: model identity and parameters first, then
    the shared history, then each point's scale, offset, and measure in
    point order."""
    lines: list[str] = [f"model.kind = {type(psi.model).__name__!r}"]
    _flatten("model.params", psi.model, lines)
    _flatten("history", psi.history, lines)
    lines.append(f"points = {len(psi.points)}")
    for i, point in enumerate(psi.points):
        lines.append(f"point.{i}.scale = {point.scale!r}")
        lines.append(f"point.{i}.offset = {point.offset!r}")
        _flatten(f"point.{i}.measure", point.measure, lines)
    return "\n".join(lines) + "\n"
