"""The demo scripts and the README quick start run to completion and
print something, and the README's module table names every module."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme,
                      re.DOTALL)
    assert block, "README has no Quick start python block"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", block.group(1)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "+/-" in proc.stdout


def test_readme_module_table_names_every_module():
    readme = (ROOT / "README.md").read_text()
    table = re.search(r"## Modules\n\n(.*?)\n\n", readme, re.DOTALL)
    assert table, "README has no Modules table"
    listed = re.findall(r"^\| `(\w+)` +\|", table.group(1), re.MULTILINE)
    assert len(listed) == len(set(listed))
    modules = {path.stem for path in (ROOT / "src" / "hilbert_selberg").glob(
        "*.py")} - {"__init__", "__main__"}
    assert set(listed) == modules
