"""Every demo script and the README quick start run to completion, and no
numpy warning escapes them."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_readme_quick_start_runs():
    # the README block runs in this process, so the warning filter of the
    # suite applies; its comments state the values checked here
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    scope = {}
    exec(compile(block.group(1), "README.md", "exec"), scope)
    t = scope["t"]
    assert scope["balanced_exponent"](t) == 4
    assert scope["balanced_local_delta"](t) == 1
    assert scope["sym"].blocks() == ((1, 2), (3, 4))
    assert len(scope["fams"]) == 6
    assert scope["rec"].passed
