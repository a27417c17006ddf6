"""One benchmark process: runs one workload and prints its measurements.

``run.py`` starts this script with ``src`` on the import path and the BLAS
pools pinned to one thread. It prints a single JSON object on stdout, which
includes the monotonic time reached just before the first call into
``run_experiment`` (after ``import ibrl`` and config parsing); the parent
subtracts its own start time from it to get ``setup_s``. Right after that
point an untraced segment runs the calibration kernel (see
``calibration_kernel``) a few times, which samples the host's speed during
set-up.

- ``--trace 0``: one segment of a run. An untimed warm-up pass, then timed
  passes until ``--seconds`` have passed. Each pass is config to CSV:
  ``run_experiment`` plus ``emit_csv``. Segment 0 warms up at the run's own
  seed (recorded digest, exact numeric-fault count); every other pass uses a
  seed drawn from the run's seed and the segment. Every pass's CSV is checked.
  After each pass the calibration kernel runs once, so its times sample the
  host's speed over the same stretch of time as the passes.
- ``--trace 1``: pairs of passes at the run's seed, one untraced and one
  traced, until ``--seconds`` have passed. Each traced pass must give the same
  CSV bytes and leave every random stream in the same state as its untraced
  twin. The spans of the first traced pass are written to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy
import scipy
from check import check_csv, load_digests
from tracer import Tracer, captured_generators
from workloads import WORKLOADS, rep_seeds

from ibrl.harness.config import config_from_mapping, parse_config_text
from ibrl.harness.csvio import emit_csv
from ibrl.harness.runner import run_experiment


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--segment", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    workload = WORKLOADS[args.workload]
    size = workload.tiny if args.tiny else workload.size
    seeds = rep_seeds(args.seed, args.segment)

    def config(seed):
        return config_from_mapping(parse_config_text(workload.config_text(seed, size)))

    first_seed = next(seeds)
    first = config(first_seed)
    ready = time.monotonic()
    if args.trace:
        result = _traced(args, workload, size, first_seed, first)
    else:
        setup_calibration = statistics.median(calibration_kernel() for _ in range(3))
        result = _untraced(args, workload, size, first_seed, first, seeds, config)
        result["setup_calibration"] = setup_calibration
    result["ready"] = ready
    result["env"] = _environment()
    print(json.dumps(result))
    return 0


class _Pass:
    """Runs config-to-CSV passes into one file and checks their output."""

    def __init__(self, args, workload, size):
        self.workload = workload
        self.size = size
        self.digests = load_digests()
        self.path = Path(args.out) / f"{workload.name}-{args.seed}-{args.segment}-t{args.trace}.csv"

    def __call__(self, cfg, rollout=run_experiment, emit=emit_csv):
        """Returns (wall seconds, rows, CSV bytes, RuntimeWarning count)."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            records = rollout(cfg)
            emit(records, str(self.path))
            wall = time.perf_counter() - start
        faults = sum(issubclass(w.category, RuntimeWarning) for w in caught)
        return wall, len(records), self.path.read_bytes(), faults

    def problems(self, data, seed):
        return check_csv(data, self.workload, self.size, seed, self.digests)


def _report(problems, label):
    for problem in problems[:10]:
        print(f"{label}: {problem}", file=sys.stderr)


def _untraced(args, workload, size, first_seed, first, seeds, config):
    one_pass = _Pass(args, workload, size)
    attempted = failed = 0
    rows_done, walls, calibration = [], [], []
    faults = None
    deadline = None
    seed, cfg = first_seed, first
    while True:
        attempted += 1
        try:
            wall, rows, data, pass_faults = one_pass(cfg)
            problems = one_pass.problems(data, seed)
        except Exception:
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            failed += 1
            _report(problems, f"{workload.name} seed {seed}")
        elif deadline is None:
            faults = pass_faults
        else:
            rows_done.append(rows)
            walls.append(wall)
        calibration.append(calibration_kernel())
        if deadline is None:
            deadline = time.monotonic() + args.seconds
        elif time.monotonic() >= deadline:
            break
        seed = next(seeds)
        cfg = config(seed)
    one_pass.path.unlink(missing_ok=True)
    return {
        "attempted": attempted,
        "failed": failed,
        "rows": rows_done,
        "walls": walls,
        "calibration": calibration,
        "numeric_faults": faults,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array work.

    The mix resembles the library's (dict and float work, tiny numpy calls)
    but touches no ibrl code, so its time moves with the host's speed and not
    with the library's."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    total = 0.0
    for i in range(60000):
        key = i & 63
        table[key] = table.get(key, 0.0) + i * 0.5
        total += (i % 7) * 1.25
    a, b = numpy.arange(4.0), numpy.ones(4)
    for _ in range(8000):
        total += float(numpy.dot(numpy.asarray(a), b)) + float(a.max())
    return time.perf_counter() - start


def _traced(args, workload, size, first_seed, first):
    one_pass = _Pass(args, workload, size)
    attempted = failed = 0
    samples: dict[str, list[float]] = {}
    counts = first_tracer = None
    deadline = time.monotonic() + args.seconds
    spans_path = Path(args.out) / f"spans-{workload.name}-{args.seed}.jsonl"
    while attempted == 0 or time.monotonic() < deadline:
        attempted += 1
        tracer = Tracer()
        try:
            with captured_generators() as streams:
                plain_wall, _, plain, faults = one_pass(first)
            plain_states = [g.bit_generator.state for g in streams]
            with captured_generators() as streams, tracer.installed():
                wall, _, data, _ = one_pass(
                    first,
                    rollout=tracer.timed("harness.rollout", run_experiment),
                    emit=tracer.timed("harness.emit_csv", emit_csv),
                )
            problems = one_pass.problems(plain, first_seed)
            if data != plain:
                problems.append("traced CSV bytes differ from the untraced run")
            if [g.bit_generator.state for g in streams] != plain_states:
                problems.append("traced run drew differently from the untraced run")
        except Exception:
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            failed += 1
            _report(problems, f"{workload.name} seed {first_seed} traced")
            continue
        metrics = tracer.metrics(wall)
        metrics["harness.trace_overhead"] = wall / plain_wall - 1.0
        metrics["harness.csv_bytes"] = len(data)
        metrics["numeric_faults"] = faults
        if counts is None:
            counts, first_tracer = metrics, tracer
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
    one_pass.path.unlink(missing_ok=True)
    if first_tracer is not None:
        first_tracer.write_spans(spans_path)
    # Counts and belief statistics repeat exactly at one seed, so they come
    # from the first pass; times are medians over the passes.
    per_layer = dict(counts or {})
    for name in per_layer:
        if name.endswith(".self_s") or name.startswith("share.") or name == "harness.trace_overhead":
            per_layer[name] = statistics.median(samples[name])
    return {"attempted": attempted, "failed": failed, "per_layer": per_layer}


def _environment() -> dict[str, object]:
    return {
        "commit": _commit(Path(".git")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def _commit(git: Path) -> str:
    """HEAD of the checkout's git directory, or "unknown" outside a git tree."""
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


if __name__ == "__main__":
    sys.exit(main())
