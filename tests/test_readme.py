"""The README's Python example runs against the current API and prints its stated values."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qustat

README = Path(__file__).resolve().parent.parent / "README.md"
QUSTAT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(qustat.__file__)))


def test_readme_quick_start_prints_its_stated_values():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [QUSTAT_ROOT, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    theta, c, m2, wick, fock = proc.stdout.split()
    assert float(theta) == 0.0
    assert c == "2"
    assert float(m2) == pytest.approx(1.125, rel=1e-12)
    assert float(wick) == pytest.approx(1.25, rel=1e-12)
    assert float(fock) == pytest.approx(1.25, rel=1e-8)
