"""The determinism contract: bit-exact from ``--seed`` per numpy build and OpenBLAS kernel.

Across OpenBLAS kernels only the rankings are promised.  On the v1 fixture,
training for 10 epochs under the default kernel (SkylakeX) and under
``OPENBLAS_CORETYPE=Prescott`` gave checkpoints that differ in the last
bits of 3,749 of 114,472 values, by at most 8.4e-17, loss logs that were
equal bit for bit, and the same order for every commit.  The kernel is set
only in the child processes' environment.
"""

import csv
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import rootrank

DATA = Path(__file__).parent / "data"

# Relative bound on the difference of each epoch's loss between the two kernels.  The logs
# were bit-equal when it was set, so it only leaves room for another build's rounding.
LOSS_BOUND = 1e-12

pytestmark = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                                reason="OPENBLAS_CORETYPE selects x86-64 kernels")


def _cli(args, env, cwd):
    return subprocess.run([sys.executable, "-m", "rootrank.cli", *args], cwd=cwd, env=env,
                          timeout=300, capture_output=True, text=True)


def _train_and_rank(tmp_path: Path, coretype: str | None):
    """(OpenBLAS core name, loss log, {commit: ranked node ids}) of one child run."""
    src = str(Path(rootrank.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
               OPENBLAS_VERBOSE="2")
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    name = coretype or "default"
    ckpt, log, ranking = (tmp_path / f"{name}.{ext}" for ext in ("ckpt", "log", "csv"))
    trained = _cli(["train", "-d", str(DATA / "v1_dataset.json"), "-o", str(ckpt),
                    "--log", str(log), "--epochs", "10"], env, tmp_path)
    assert trained.returncode == 0, trained.stderr
    ranked = _cli(["rank", "-d", str(DATA / "v1_dataset.json"), "-m", str(ckpt),
                   "-o", str(ranking)], env, tmp_path)
    assert ranked.returncode == 0, ranked.stderr
    cores = [line.split(":", 1)[1].strip() for line in trained.stderr.splitlines()
             if line.startswith("Core:")]
    losses = [float(line.split(",")[1]) for line in log.read_text().splitlines()[1:]]
    order: dict[str, list[int]] = {}
    with open(ranking, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            order.setdefault(row["commit_id"], []).append(int(row["node_id"]))
    return cores, losses, order


def test_another_kernel_keeps_every_ranking_and_the_loss_log(tmp_path):
    default_core, default_losses, default_order = _train_and_rank(tmp_path, None)
    other_core, other_losses, other_order = _train_and_rank(tmp_path, "Prescott")
    if default_core == other_core:
        pytest.skip(f"this OpenBLAS build runs kernel {default_core} either way")
    assert len(default_losses) == len(other_losses) == 10
    for a, b in zip(default_losses, other_losses):
        assert abs(a - b) <= LOSS_BOUND * abs(a)
    assert len(default_order) == 8
    assert other_order == default_order
