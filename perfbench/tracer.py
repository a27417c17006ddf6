"""Per-layer tracing of the ibrl library from outside it.

``Tracer.installed()`` wraps the public callables of each ``ibrl`` layer and
binds each wrapper under every module attribute that holds the original, so
calls are caught where the calling module looks the name up (``runner``
imports ``select_policy``; ``agents`` imports ``renormalize``). World-model
methods are wrapped on their classes. Leaving the context restores every
original binding, so the same process can run untraced afterwards.

Every wrapped call is a span (name, start, end, parent) kept in memory. A
span's self time is its duration minus the time its child spans cover. A call
nested directly in a span of the same name (``bind_policy`` calling
``policy_return``) belongs to the outer span. A callable that the library no
longer has is skipped; its metrics then read 0.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import ibrl.agents
import ibrl.environments
import ibrl.inframeasure
import ibrl.updates
import ibrl.worldmodels
from metrics import LAYERS, TIMED

# (defining module, function name, span name)
FUNCTIONS = (
    (ibrl.agents, "select_policy", "agents.select_policy"),
    (ibrl.agents, "policy_value", "agents.policy_value"),
    (ibrl.agents, "bayes_select", "agents.bayes_select"),
    (ibrl.agents, "ib_observe", "agents.ib_observe"),
    (ibrl.inframeasure, "lower_expectation", "inframeasure.lower_expectation"),
    (ibrl.inframeasure, "evaluate", None),  # counted, not timed
    (ibrl.inframeasure, "prune", "inframeasure.prune"),
    (ibrl.updates, "update_infra", "updates.update_infra"),
    (ibrl.updates, "renormalize", "updates.renormalize"),
    (ibrl.worldmodels, "predictive", "worldmodels.predictive"),
    (ibrl.environments, "bernoulli_step", "environments.step"),
    (ibrl.environments, "ku_step", "environments.step"),
    (ibrl.environments, "newcomb_step", "environments.step"),
    (ibrl.environments, "trap_step", "environments.step"),
)

# World-model method name -> span name, wrapped on every WorldModel subclass
# that defines the method.
METHODS = {
    "expectation": "worldmodels.expectation",
    "restrict": "worldmodels.restrict",
    "expected_action_values": "worldmodels.action_values",
    "sampled_action_values": "worldmodels.action_values",
    "policy_return": "worldmodels.return_fn",
    "bind_policy": "worldmodels.return_fn",
}


def _ibrl_modules():
    return [m for name, m in list(sys.modules.items()) if name == "ibrl" or name.startswith("ibrl.")]


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.stack: list[list] = []  # [name, span index, child ns]
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.span_min = math.inf
        self.offset_max = 0.0

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            stack = self.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            frame = [name, index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                parent = -1
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][1]
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[2]
                self.spans[index] = (name, start, end, parent)

        return wrapper

    # Counters taken around a span, outside its timing.

    def _count_evaluate(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["evaluate"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_rng(self, fn):
        def wrapper(state, *args, **kwargs):
            rng = getattr(state, "rng", None)
            before = rng.bit_generator.state if rng is not None else None
            out = fn(state, *args, **kwargs)
            if rng is not None and rng.bit_generator.state != before:
                self.counts["rng_draws"] += 1
            return out

        return wrapper

    def _count_prune(self, fn):
        def wrapper(psi, *args, **kwargs):
            out = fn(psi, *args, **kwargs)
            self.counts["prune_in"] += len(psi.points)
            self.counts["prune_out"] += len(out.points)
            return out

        return wrapper

    def _count_renormalize(self, fn):
        def wrapper(psi, *args, **kwargs):
            try:
                out = fn(psi, *args, **kwargs)
            except Exception:
                self.counts["renormalize_failed"] += 1
                raise
            # Every point is divided by the same span, so one point with a
            # finite positive scale before and after recovers it.
            for before, after in zip(psi.points, out.points):
                if before.scale > 0.0 and 0.0 < after.scale < math.inf:
                    self.span_min = min(self.span_min, before.scale / after.scale)
                    break
            for a in out.points:
                if math.isfinite(a.offset) and math.isfinite(a.scale):
                    self.offset_max = max(self.offset_max, a.offset)
                else:
                    self.counts["nonfinite_points"] += 1
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block."""
        extra = {
            "agents.select_policy": self._count_rng,
            "agents.bayes_select": self._count_rng,
            "inframeasure.prune": self._count_prune,
            "updates.renormalize": self._count_renormalize,
        }
        replacements = {}
        for module, attr, span in FUNCTIONS:
            original = getattr(module, attr, None)
            if original is None:
                continue
            if span is None:
                wrapped = self._count_evaluate(original)
            else:
                wrapped = self.timed(span, original)
                if span in extra:
                    wrapped = extra[span](wrapped)
            replacements[id(original)] = (original, wrapped)
        saved = []
        for module in _ibrl_modules():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        base = ibrl.worldmodels.WorldModel
        for cls in vars(ibrl.worldmodels).values():
            if not (isinstance(cls, type) and issubclass(cls, base)) or cls is base:
                continue
            for attr, span in METHODS.items():
                if attr in vars(cls):
                    original = vars(cls)[attr]
                    saved.append((cls, attr, original))
                    setattr(cls, attr, self.timed(span, original))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the traced run; ``wall`` is its config-to-CSV
        time in seconds. The caller adds trace overhead, CSV bytes and
        numeric faults."""
        m: dict[str, float] = {}
        for name in TIMED:
            m[f"{name}.calls"] = self.calls[name]
            m[f"{name}.self_s"] = self.self_ns[name] / 1e9
        lower = self.calls["inframeasure.lower_expectation"]
        m["inframeasure.points_per_eval"] = self.counts["evaluate"] / lower if lower else 0.0
        pruned = self.counts["prune_in"]
        m["inframeasure.prune.kept_ratio"] = self.counts["prune_out"] / pruned if pruned else 0.0
        m["updates.renormalize.failed"] = self.counts["renormalize_failed"]
        m["updates.span_min"] = self.span_min if math.isfinite(self.span_min) else 0.0
        # Offsets grow towards the float limit before they overflow, so the
        # largest one is reported as log10(1 + offset): 0 when nothing grew.
        m["updates.offset_max_log10"] = math.log1p(self.offset_max) / math.log(10)
        m["updates.nonfinite_points"] = self.counts["nonfinite_points"]
        m["agents.rng_draws"] = self.counts["rng_draws"]
        m["harness.rollout.self_s"] = self.self_ns["harness.rollout"] / 1e9
        m["harness.emit_csv.self_s"] = self.self_ns["harness.emit_csv"] / 1e9
        for layer in LAYERS:
            busy = sum(ns for name, ns in self.self_ns.items() if name.split(".")[0] == layer)
            m[f"share.{layer}"] = busy / 1e9 / wall
        return m

    def write_spans(self, path: Path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent."""
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                name, start, end, parent = span
                handle.write(
                    json.dumps({"id": index, "name": name, "start_ns": start, "end_ns": end, "parent": parent})
                    + "\n"
                )


@contextmanager
def captured_generators():
    """Collect every numpy Generator the library creates during the block."""
    created = []
    original = np.random.default_rng

    def default_rng(*args, **kwargs):
        rng = original(*args, **kwargs)
        created.append(rng)
        return rng

    np.random.default_rng = default_rng
    try:
        yield created
    finally:
        np.random.default_rng = original
