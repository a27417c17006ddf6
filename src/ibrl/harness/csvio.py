"""CSV emission and parsing for run records.

The column set and float formatting are part of the tool's external
contract: plotting scripts regenerate every figure and table from these
files, so the format must stay byte-stable for a given (config, seed).
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence

from ..errors import ConfigError, IBRLError
from .runner import RunRecord

CSV_COLUMNS = RunRecord._fields


def _row(record) -> tuple:
    """One CSV row from a ``RunRecord``: the six leading fields (two names,
    four ints) pass through as stored, for the writer to render with
    ``str``, and the four floats are pre-formatted at 6 decimals."""
    experiment, agent, seed, episode, step, action, reward, exp_regret, cum_regret, cum_exp = record
    return (
        experiment,
        agent,
        seed,
        episode,
        step,
        action,
        f"{reward:.6f}",
        f"{exp_regret:.6f}",
        f"{cum_regret:.6f}",
        f"{cum_exp:.6f}",
    )


def emit_csv(records: Iterable[object], path: str) -> None:
    """Write a header row plus one row per ``RunRecord``, floats at 6
    decimals, every row newline-terminated."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            writer.writerows(map(_row, records))
    except OSError as exc:
        raise IBRLError(f"cannot write CSV {path!r}: {exc}") from None


def read_records(path: str) -> list:
    """Parse a file produced by ``emit_csv`` back into run records."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            rows: Sequence[list[str]] = list(reader)
    except OSError as exc:
        raise ConfigError(f"cannot read CSV {path!r}: {exc}") from None
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise ConfigError(f"{path!r} does not start with the expected CSV header")
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_COLUMNS):
            raise ConfigError(f"{path!r} line {lineno}: expected {len(CSV_COLUMNS)} columns")
        try:
            records.append(
                RunRecord(
                    experiment=row[0],
                    agent=row[1],
                    seed=int(row[2]),
                    episode=int(row[3]),
                    step=int(row[4]),
                    action=int(row[5]),
                    reward=float(row[6]),
                    exp_regret=float(row[7]),
                    cum_regret=float(row[8]),
                    cum_exp_regret=float(row[9]),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{path!r} line {lineno}: {exc}") from None
    return records
