"""ibrl benchmark: rollout throughput, set-up time and memory per workload.

Run from the root of an ibrl checkout:

    python3 perfbench/run.py --workload trap-roster --seed 42 --seconds 32 --trace 0

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end ones:

- ``steps_per_s``: CSV rows (agent-steps) of all timed passes over their
  total config-to-CSV wall time, scaled to the reference host speed: times
  the calibration kernel's mean time in the run over ``CALIBRATION_S``;
- ``setup_s``: median over the run's processes of the time from process
  start to the first call into ``run_experiment`` (interpreter start,
  ``import ibrl``, config parsing), each scaled to the reference host speed
  by the calibration kernel's time right after it;
- ``peak_rss_mb``: largest peak resident set of the run's processes.

The measured time is split into ``SEGMENTS`` worker processes, one after the
other, so set-up is sampled several times and spread over the run like the
passes are.

The host this benchmark was defined on (2 vCPUs of a shared Intel Xeon) swings
between two speeds, about 1.7x apart, for tens of seconds at a time. The raw
throughput and set-up time of a 32-second run then depend on how long it ran
slow. A fixed calibration kernel that does not touch ibrl
(``worker.calibration_kernel``) runs after set-up and after every pass;
scaling by its time removes the swing and keeps the library's own speed. The
raw figures and the scale factors are printed.

With ``--trace 1`` the metrics are the per-layer ones from a traced run (see
``tracer.py``). Lines before the last one give the same figures for people,
with quartiles, numeric faults, failed passes and the environment.

Every pass's CSV is checked (see ``check.py``). The exit code is 1 when a pass
raised or its output failed the check, and 2 when the benchmark cannot run
here at all, for example outside an ibrl checkout; no result line is printed
then. Each workload runs in one single-threaded process: the BLAS pools are
pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEGMENTS = 4
# Typical calibration-kernel time on the reference host at its slower speed.
CALIBRATION_S = 0.05
PROCESS_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _worker(args, root: Path, out: Path, tiny: bool, segment: int, seconds: float) -> dict:
    """Run worker.py once; returns its JSON result with ``setup_s`` added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    for pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[pool] = "1"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace), "--out", str(out),
        "--segment", str(segment),
    ]
    command += ["--tiny"] * tiny
    started = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=root, env=env, stdout=subprocess.PIPE, timeout=PROCESS_TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker ran past {PROCESS_TIMEOUT_S} s") from None
    lines = done.stdout.decode().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with code {done.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def _spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(args, root: Path, tiny: bool = False) -> tuple[dict, list[str]]:
    """Run the workload; returns the result object and the lines for people."""
    if not (root / "src" / "ibrl" / "__init__.py").is_file():
        raise BenchmarkError(f"{root} holds no ibrl sources (src/ibrl); run from a checkout's root")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    lines = []
    if args.trace:
        result = _worker(args, root, out, tiny, 0, args.seconds)
        metrics = {name: {"value": result["per_layer"].get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER}
        shares = "  ".join(f"{name[6:]} {m['value']:.1%}" for name, m in metrics.items() if name.startswith("share."))
        lines.append(f"{args.workload}: self-time share  {shares}")
        lines.append(f"{args.workload}: trace overhead {metrics['harness.trace_overhead']['value']:+.1%}")
    else:
        segments = [
            _worker(args, root, out, tiny, segment, args.seconds / SEGMENTS) for segment in range(SEGMENTS)
        ]
        rows = [n for s in segments for n in s["rows"]]
        walls = [t for s in segments for t in s["walls"]]
        raw_setups = [s["setup_s"] for s in segments]
        setups = [s["setup_s"] * CALIBRATION_S / s["setup_calibration"] for s in segments]
        calibration = [t for s in segments for t in s["calibration"]]
        factor = sum(calibration) / len(calibration) / CALIBRATION_S
        raw = sum(rows) / sum(walls) if walls else 0.0
        values = {
            "steps_per_s": raw * factor,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(s["peak_rss_mb"] for s in segments),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
        q1, median, q3 = _spread([n / t for n, t in zip(rows, walls)] or [0.0])
        notes = {
            "steps_per_s": f"raw {raw:.6g} x calibration {factor:.4f}; raw per pass: "
            f"median {median:.6g}, quartiles {q1:.6g} .. {q3:.6g}",
            "setup_s": "raw per process: median {1:.6g}, quartiles {0:.6g} .. {2:.6g}".format(*_spread(raw_setups)),
        }
        for name, unit, _, _ in END_TO_END:
            note = f" ({notes[name]})" if name in notes else ""
            lines.append(f"{args.workload}: {name} {values[name]:.6g} {unit}{note}")
        result = {
            "attempted": sum(s["attempted"] for s in segments),
            "failed": sum(s["failed"] for s in segments),
            "env": segments[0]["env"],
        }
        lines.append(f"{args.workload}: numeric_faults {segments[0]['numeric_faults']} count at seed {args.seed}")
        lines.append(
            f"{args.workload}: failed_runs {result['failed']} of {result['attempted']} "
            f"({len(walls)} timed passes in {SEGMENTS} processes)"
        )
    lines.append("env: " + json.dumps(result["env"], sort_keys=True))
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        raise BenchmarkError(f"non-finite metric values: {', '.join(bad)}")
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": result["env"], **summary}
    (out / f"result-{args.workload}-{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    return summary, lines


def main(argv=None, tiny: bool = False) -> int:
    args = _args(argv)
    try:
        summary, lines = measure(args, Path.cwd(), tiny)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(summary, allow_nan=False))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
