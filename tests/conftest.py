import os
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import rootrank  # noqa: E402  (after pyproject.toml's pythonpath has put src first)


def pytest_configure(config) -> None:
    """Stop when the first entry of ``PYTHONPATH`` holds a ``rootrank`` package other than the
    one the tests import.

    pyproject.toml's ``pythonpath = ["src"]`` puts this checkout's ``src``
    ahead of ``PYTHONPATH``, so a run meant for another tree would test this
    one.  A relative entry resolves against the working directory, as Python
    resolves it.
    """
    entry = os.environ.get("PYTHONPATH", "").split(os.pathsep)[0]
    if not entry:
        return
    named = (pathlib.Path(entry) / "rootrank").resolve()
    imported = pathlib.Path(rootrank.__file__).resolve().parent
    if (named / "__init__.py").is_file() and named != imported:
        pytest.exit(f"PYTHONPATH names the package {named} first, but the tests would import "
                    f"{imported}: pyproject.toml's pythonpath puts this checkout's src ahead of "
                    f"PYTHONPATH, so run pytest from the checkout that holds {named}",
                    returncode=pytest.ExitCode.USAGE_ERROR)
