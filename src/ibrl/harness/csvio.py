"""CSV emission and parsing for run records.

The column set and float formatting are part of the tool's external
contract: plotting scripts regenerate every figure and table from these
files, so the format must stay byte-stable for a given (config, seed).
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence

from ..errors import ConfigError, IBRLError
from .runner import RunRecord

CSV_COLUMNS = RunRecord._fields


# Every column after the two names: four ints, then four floats at 6 decimals.
_NUMBERS = "%s,%s,%s,%s,%.6f,%.6f,%.6f,%.6f\n"


def _names(experiment: object, agent: object) -> str:
    """The ``experiment,agent,`` prefix of a row, quoted by ``csv.writer``
    as it quotes those two fields in a whole row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((experiment, agent))
    return buffer.getvalue()[:-1] + ","


def emit_csv(records: Iterable[object], path: str) -> None:
    """Write a header row plus one row per ``RunRecord``, floats at 6
    decimals, every row newline-terminated. The name prefix is rendered by
    ``csv.writer`` once per distinct ``(experiment, agent)`` pair and the
    numbers by one format string, which gives the bytes ``csv.writer`` gives
    for the whole row: numbers never need quoting."""
    prefixes: dict[tuple, str] = {}
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(",".join(CSV_COLUMNS) + "\n")
            for record in records:
                names = record[:2]
                prefix = prefixes.get(names)
                if prefix is None:
                    prefix = prefixes[names] = _names(*names)
                handle.write(prefix + _NUMBERS % record[2:])
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
