"""The benchmark's tracer spans functions of rootrank by name; each name must resolve.

``bench/tracing.py`` reports a function it cannot find as "not traced
(absent)" and goes on, so a rename in the package would silently drop a
per-layer metric from traced runs.  Its ``SPANNED`` table is read here
with ``ast``, without importing the benchmark.  A smoke run of each
workload checks the rest of the benchmark's calls into the package.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def spanned_targets() -> dict[str, tuple[str, str]]:
    """``SPANNED`` of bench/tracing.py: span name -> (module, dotted attribute path)."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, (ast.Assign, ast.AnnAssign))
                and any(isinstance(t, ast.Name) and t.id == "SPANNED"
                        for t in (node.targets if isinstance(node, ast.Assign) else [node.target]))):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANNED table in {TRACING}")


def test_every_spanned_target_resolves_in_rootrank():
    targets = spanned_targets()
    assert {"ranker.pair_loss", "aggregation.attention_forward"} <= set(targets)
    missing = []
    for span, (module, path) in targets.items():
        assert module.startswith("rootrank."), span
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{span}: {module}.{path}")
                break
        else:
            assert callable(owner), span
    assert not missing, f"spanned targets absent from rootrank: {missing}"


def smoke_run(trace: int, workload: str = "small-commits") -> dict:
    """The last line of a ``--smoke`` benchmark run of ``workload``, parsed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--trace", str(trace),
         "--workload", workload],
        cwd=TRACING.parent.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["small-commits", "large-commits", "cv-mixed"])
def test_benchmark_smoke_run_is_correct(workload):
    """The benchmark drives the library through its public calls; a change in ``src`` that
    breaks one of them fails here, on the workload it breaks, rather than only in a full
    benchmark run."""
    result = smoke_run(trace=0, workload=workload)
    assert (result["correct"], result["failed"]) == (True, 0), result


def test_traced_smoke_run_counts_every_tape_op():
    """The tracer reads ``len(tape)`` after ``autodiff.backward`` has used the tape up, so the
    length must still count every recorded op: 11 for a two-layer commit."""
    result = smoke_run(trace=1)
    assert result["correct"] is True, result
    assert result["metrics"]["autodiff.tape_ops_per_commit"]["value"] == 11, result
