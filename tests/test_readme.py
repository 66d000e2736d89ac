"""The README's Python examples run and print their stated values; its layout names resolve."""

import ast
import functools
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qustat
from qustat.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"
QUSTAT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(qustat.__file__)))


def _run_python_block(index):
    """The stdout of the README's index-th Python block, run in a fresh interpreter."""
    block = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)[index]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [QUSTAT_ROOT, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_readme_quick_start_prints_its_stated_values():
    theta, c, m2, wick, fock = _run_python_block(0).split()
    assert float(theta) == 0.0
    assert c == "2"
    assert float(m2) == pytest.approx(1.125, rel=1e-12)
    assert float(wick) == pytest.approx(1.25, rel=1e-12)
    assert float(fock) == pytest.approx(1.25, rel=1e-12)


def test_readme_run_test_example_prints_the_record_result_json_holds(tmp_path):
    record = ast.literal_eval(_run_python_block(1))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "test-sim", "state": {"eigenvalues": [0.75, 0.25]},
                                  "alpha": 0.05, "n_list": [10]}), encoding="utf-8")
    run(str(config), str(tmp_path / "out"))
    assert record == json.loads((tmp_path / "out" / "result.json").read_text(encoding="utf-8"))


def _layout_rows():
    """(module, contents) of each row of the README's "Package layout" table."""
    text = README.read_text(encoding="utf-8").split("## Package layout", 1)[1]
    rows = []
    for line in text.strip().splitlines():
        if not line.startswith("|"):
            break
        module, contents = [cell.strip() for cell in line.strip("|").split("|")]
        if module.startswith("`"):
            rows.append((module.strip("`"), contents))
    return rows


def _resolves(dotted):
    """Whether a dotted name is a module, or an attribute path on the longest module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            functools.reduce(getattr, parts[cut:], obj)
        except AttributeError:
            return False
        return True
    return False


def test_readme_layout_names_resolve_in_their_module_or_the_package():
    rows = _layout_rows()
    assert "qustat.operators" in dict(rows)
    names = 0
    for module, contents in rows:
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", contents):
            names += 1
            assert _resolves(module + "." + name) or _resolves("qustat." + name), (
                "README layout row %s names %s, which resolves neither there nor in qustat"
                % (module, name))
    assert names
