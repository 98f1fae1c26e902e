"""The demos and the README's library API sketch run to the end."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _sketch():
    """The python block under the README heading "Library API sketch"."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library API sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=60)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    assert len(DEMOS) == 5
    done = _run([str(script)])
    assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
    assert done.stdout


def test_readme_api_sketch_runs():
    done = _run(["-c", _sketch()])
    assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
    assert done.stdout.splitlines()[:2] == ["True (32, 0)", "{}"]
