"""A test run whose PYTHONPATH names another tree's package first stops, naming both.

pyproject.toml's ``pythonpath = ["src"]`` puts this checkout's ``src`` ahead of
``PYTHONPATH``, so without the guard in ``conftest.py`` such a run would
silently test this checkout's code.
"""

import os
import subprocess
import sys
from pathlib import Path

import rootrank

ROOT = Path(__file__).resolve().parent.parent
QUICK = "tests/test_src_references.py::test_the_check_sees_an_unreferenced_definition"


def run_pytest(pythonpath: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": pythonpath}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", QUICK],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_another_trees_package_first_exits_naming_both(tmp_path):
    (tmp_path / "rootrank").mkdir()
    (tmp_path / "rootrank" / "__init__.py").write_text("", encoding="utf-8")
    proc = run_pytest(os.pathsep.join([str(tmp_path), "src"]))
    assert proc.returncode == 4, proc.stdout + proc.stderr
    named = tmp_path.resolve() / "rootrank"
    imported = Path(rootrank.__file__).resolve().parent
    assert f"PYTHONPATH names the package {named} first, but the tests would import " \
           f"{imported}" in proc.stdout + proc.stderr


def test_this_trees_src_first_runs_relative_or_absolute(tmp_path):
    for entry in ("src", str(ROOT / "src"), str(tmp_path)):   # tmp_path holds no package
        proc = run_pytest(entry)
        assert proc.returncode == 0, (entry, proc.stdout + proc.stderr)
