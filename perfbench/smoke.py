"""Smoke check of the benchmark's own code; it measures nothing.

Run from the root of the checkout, outside the test suite:

    python3 perfbench/smoke.py

It checks that
- ``BENCHMARK.json`` lists the metrics that ``metrics.py`` defines;
- every workload runs at tiny size, traced and untraced, and prints one
  result line with exactly the listed metrics;
- the output check rejects a CSV whose regrets are wrong;
- a wrong recorded digest makes the run exit 1 with ``correct: false``;
- outside an ibrl checkout the run exits 2 and prints no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from check import check_csv
from metrics import END_TO_END, PER_LAYER
from workloads import NEWCOMB_SWEEP, WORKLOADS

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
KEYS = ["correct", "attempted", "failed", "metrics"]


def check_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["perfbench"], spec["paths"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    listed = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    assert listed == list(END_TO_END), listed
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(PER_LAYER), listed


def check_tiny_runs() -> None:
    for workload in WORKLOADS:
        for trace, spec in ((0, END_TO_END), (1, PER_LAYER)):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                                 "--trace", str(trace)], tiny=True)
            result = json.loads(stdout.getvalue().splitlines()[-1])
            assert code == 0 and result["correct"], (workload, trace, result)
            assert list(result) == KEYS and result["failed"] == 0 and result["attempted"] >= 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == {m[0]: m[1] for m in spec}, (workload, trace, units)
            print(f"ok   {workload} trace {trace}: attempted {result['attempted']}")


def check_rejects_bad_rows() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from ibrl.harness.config import config_from_mapping, parse_config_text
    from ibrl.harness.csvio import emit_csv
    from ibrl.harness.runner import run_experiment

    size = NEWCOMB_SWEEP.tiny
    cfg = config_from_mapping(parse_config_text(NEWCOMB_SWEEP.config_text(5, size)))
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        path = Path(tmp) / "newcomb.csv"
        emit_csv(run_experiment(cfg), str(path))
        text = path.read_text(encoding="utf-8")
    assert check_csv(text.encode(), NEWCOMB_SWEEP, size, 5, {}) == []
    lines = text.splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[7] = "-1.000000"  # exp_regret
    bad = "".join([lines[0], ",".join(fields), *lines[2:]])
    problems = check_csv(bad.encode(), NEWCOMB_SWEEP, size, 5, {})
    assert any("< 0" in p for p in problems) and any("running sum" in p for p in problems), problems
    print("ok   the output check rejects a negative regret and a broken running sum")


def _copy(tmp: Path, with_sources: bool, digests: dict | None = None) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp)
    shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", tmp / "src", ignore=shutil.ignore_patterns("__pycache__"))
    if digests is not None:
        (tmp / "perfbench" / "digests.json").write_text(json.dumps(digests))


def _run_copy(tmp: Path) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", "ku-long", "--seconds", "1"]
    return subprocess.run(command, cwd=tmp, capture_output=True, text=True, timeout=170, check=False)


def check_wrong_digest_fails() -> None:
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        _copy(Path(tmp), with_sources=True, digests={"ku-long": {"42": "0" * 64}})
        done = _run_copy(Path(tmp))
    result = json.loads(done.stdout.splitlines()[-1])
    assert done.returncode == 1 and not result["correct"] and result["failed"] >= 1, done
    print("ok   a wrong recorded digest exits 1 with correct: false")


def check_needs_sources() -> None:
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        _copy(Path(tmp), with_sources=False)
        done = _run_copy(Path(tmp))
    assert done.returncode == 2 and done.stdout == "", done
    print("ok   without ibrl sources the run exits 2 and prints no result")


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    check_spec()
    print("ok   BENCHMARK.json matches metrics.py and workloads.py")
    check_tiny_runs()
    check_rejects_bad_rows()
    check_wrong_digest_fails()
    check_needs_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
