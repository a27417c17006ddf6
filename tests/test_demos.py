"""Smoke tests of the narrative demos and the README example: each runs to
completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ibrl

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_tour() -> str:
    """The first fenced ``python`` block under the README's "Library tour"."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library tour\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_tour_runs(monkeypatch):
    """The tour's one lower expectation, taken before conditioning, is the
    0.4 its comment promises; conditioning then advances the history."""
    original = ibrl.lower_expectation
    seen = []

    def recording(psi, f):
        seen.append(original(psi, f))
        return seen[-1]

    monkeypatch.setattr(ibrl, "lower_expectation", recording)
    namespace: dict = {}
    exec(compile(readme_tour(), "README.md", "exec"), namespace)
    assert seen == [pytest.approx(0.4)]
    assert namespace["belief"].history.counts == ((0, 0), (0, 1))


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
