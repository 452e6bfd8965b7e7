"""rootrank benchmark: one workload, one seed, one result line.

Run from the root of a rootrank checkout:

    python3 bench/run.py --workload small-commits --seed 1 --seconds 20 --trace 0

The script generates the workload's dataset from ``--seed`` (the
synthetic generator is not measured), writes it to a file, and starts a
fresh process (``child.py``) that drives the library path of
``rootrank train`` -> ``rank`` / ``evaluate --cv`` on that file alone.
It checks the outputs, prints every metric by name with its unit and
direction, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of one untraced run whose
rank phase fills ``--seconds``.  ``--trace 1`` runs the workload twice
with a fixed number of rank passes, untraced and then traced, checks
that both give bit-identical losses and rankings, and reports the
per-layer metrics of the traced run.  Spans are written to
``.bench_work/``.  The exit code is 0 when every check passes, 1 when a
check fails and 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl  # this script's directory is first on sys.path

BENCH_DIR = Path(__file__).resolve().parent

# A run, children included, must end within this many seconds.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed output check)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description="rootrank benchmark")
    p.add_argument("--workload", default=wl.DEFAULT_WORKLOAD, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced inputs and counts, for testing the benchmark itself")
    return p.parse_args(argv)


def make_dataset(parts, seed: int, path: Path) -> dict:
    """Generate and save the workload's dataset; returns its description."""
    from rootrank.graphs import Dataset, save_dataset
    from rootrank.synthetic import GenConfig, generate

    graphs = []
    configs = []
    for part in parts:
        cfg = GenConfig(n_commits=part.commits, deleted_per_commit=part.deleted,
                        added_per_commit=part.added, edge_density=part.density,
                        seed=seed + part.seed_offset)
        graphs.extend(generate(cfg).graphs)
        configs.append({"commits": cfg.n_commits, "deleted": cfg.deleted_per_commit,
                        "added": cfg.added_per_commit, "density": cfg.edge_density,
                        "signal_strength": cfg.signal_strength, "seed": cfg.seed})
    save_dataset(Dataset(graphs=tuple(graphs), name=f"bench(seed={seed})"), path)
    return {
        "generator": configs,
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "nodes": sum(len(g.nodes) for g in graphs),
        "edges": sum(len(g.edges) for g in graphs),
    }


def run_child(spec: dict, work: Path, tag: str, deadline: float) -> dict:
    spec_path = work / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = spec["src"] + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {tag} run")
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
                              env=env, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"{tag} run exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{tag} run exited with code {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text())


def end_to_end(res: dict) -> dict[str, float]:
    """End-to-end metrics of one untraced run.

    The machine's speed changes from second to second with load from other
    tenants, and a run's rounds sample it all through the run.  Throughput
    and wall time are total work over total time, which moves in
    proportion to the share of slow moments; a median would jump between
    the fast and the slow speed.  Latency percentiles are taken across
    commits, over each commit's mean latency in the run's passes.
    """
    commit_ms = [statistics.fmean(calls) * 1e3 for calls in zip(*res["rank_latencies_s"])]
    p50, p90 = (statistics.quantiles(commit_ms, n=10, method="inclusive")[i] for i in (4, 8))
    return {
        "train_commits_per_s": res["train_steps"] * len(res["train_s"]) / sum(res["train_s"]),
        "rank_commits_per_s": rank_calls(res) / sum(res["rank_pass_s"]),
        "rank_p50_ms": p50,
        "rank_p90_ms": p90,
        "cv_s": statistics.fmean(res["cv_s"]),
        "setup_s": statistics.median(res["setup_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "final_loss": res["training_log"][-1],
    }


def rank_calls(res: dict) -> int:
    return sum(len(row) for row in res["rank_latencies_s"])


def attempted_failed(res: dict) -> tuple[int, int]:
    rounds = len(res["train_s"])
    return rounds * (res["train_steps"] + res["cv_folds"]) + rank_calls(res), res["rank_failed"]


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in wl.BLAS_ENV:  # before numpy is first imported, here and in the child
        os.environ[var] = wl.BLAS_THREADS
    started = time.monotonic()
    root = Path.cwd()
    src = root / "src"
    if not (src / "rootrank" / "__init__.py").is_file():
        print(f"bench: {src / 'rootrank'} not found; run from the root of a rootrank checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = wl.WORKLOADS[args.workload]
    parts = workload.smoke_parts if args.smoke else workload.parts

    work = root / ".bench_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    dataset_path = work / "dataset.json"
    try:
        inputs = make_dataset(parts, args.seed, dataset_path)
        spec = {
            "src": str(src.resolve()),
            "dataset": str(dataset_path),
            "checkpoint": str(work / "model.ckpt"),
            "seed": args.seed,
            "dim": wl.DIM, "heads": wl.HEADS, "layers": wl.LAYERS,
            "epochs": workload.epochs,
            "cv_folds": 2 if args.smoke else workload.cv_folds,
            "passes_per_round": wl.SMOKE_PASSES_PER_ROUND if args.smoke else workload.passes_per_round,
            "min_rounds": 1 if args.trace else 2 if args.smoke else workload.min_rounds,
            "until_s": None if args.trace or args.smoke else args.seconds,
            "blas_env": list(wl.BLAS_ENV),
            "trace": False,
        }
        deadline = started + RUN_LIMIT_S
        base = run_child(dict(spec, result=str(work / "result.json")), work, "untraced", deadline)
        checks = list(base["checks"])
        if args.trace:
            traced = run_child(dict(spec, trace=True, result=str(work / "result-traced.json"),
                                    spans=str(work / "spans.json")), work, "traced", deadline)
            checks += [f"traced run: {c}" for c in traced["checks"]]
            if traced["digest"] != base["digest"] or traced["final_loss_hex"] != base["final_loss_hex"]:
                checks.append("traced and untraced runs differ in final_loss, rankings or cv report")
            if traced["trace_missing"]:
                print(f"bench: not traced (absent): {', '.join(traced['trace_missing'])}", file=sys.stderr)
            metrics = dict(traced["layers"])
            attempted, failed = attempted_failed(traced)
            metrics["recall_at_1"] = traced["recall_at_1"]
            metrics["failed_share"] = failed / attempted
            metrics["process.cpu_per_wall"] = base["cpu_per_wall"]
            metrics["trace.overhead_share"] = traced["measured_wall_s"] / base["measured_wall_s"] - 1.0
            defs = wl.PER_LAYER
        else:
            metrics = end_to_end(base)
            attempted, failed = attempted_failed(base)
            defs = wl.END_TO_END
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        dataset_path.unlink(missing_ok=True)
        (work / "model.ckpt").unlink(missing_ok=True)

    correct = not checks and failed == 0
    for d in defs:
        moves = f"  moves: {d.moves}" if args.trace else ""
        print(f"{d.name:34s} {metrics[d.name]:>14.6g} {d.unit:8s} ({d.better} is better){moves}")
    print(f"rank calls: {rank_calls(base)} in {len(base['rank_pass_s'])} passes over "
          f"{len(base['rank_latencies_s'][0])} commits; train steps: {base['train_steps']} "
          f"x {len(base['train_s'])} calls; cv folds: {base['cv_folds']} x {len(base['cv_s'])} calls")
    print("inputs: " + json.dumps(inputs))
    print("env: " + json.dumps(base["env"]))
    for c in checks:
        print(f"CHECK FAILED: {c}")
    (work / "summary.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
         "inputs": inputs, "env": base["env"], "checks": checks, "metrics": metrics}, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d.name: {"value": metrics[d.name], "unit": d.unit} for d in defs},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
