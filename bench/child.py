"""One timed benchmark process: the library path of ``rootrank train`` -> ``rank`` / ``evaluate --cv``.

Usage: ``python3 bench/child.py SPEC.json`` with ``src`` on PYTHONPATH.
``run.py`` writes the spec and the dataset, starts this process, and
reads the result file the spec names.  The process reads only the
dataset file; its own peak RSS is the workload's.

Library calls go through module attributes (``ranker.train``, not a
name imported at load time), so that a traced run sees the same calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def _has_pairs(g) -> bool:
    """Whether train() takes an optimizer step on this commit (a root and a non-root deleted line)."""
    labels = {g.nodes[i].is_root_cause for i in g.deleted_ids()}
    return labels == {True, False}


def _blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": None, "version": None}


def run(spec: dict) -> dict:
    import numpy as np

    from rootrank import embedding, evaluation, graphs, network, ranker

    checks: list[str] = []
    clock = time.perf_counter
    provider = embedding.HashingEmbedder(spec["dim"])

    def model_config(epochs: int) -> network.ModelConfig:
        return network.ModelConfig(dim=spec["dim"], heads=spec["heads"], layers=spec["layers"],
                                   mode=network.Mode.FULL, epochs=epochs, seed=spec["seed"])

    wall0, cpu0 = clock(), _cpu_seconds()
    ckpt = spec["checkpoint"]
    train_s: list[float] = []
    setup_s: list[float] = []
    cv_s: list[float] = []
    pass_s: list[float] = []
    latencies: list[list[float]] = []       # [pass][commit]
    first_pass: dict[int, list[tuple[int, float]]] = {}
    rank_failed = 0

    def setup_cycle(model):
        """3. load + embed + checkpoint save + load, timed together and checked."""
        t = clock()
        ds = graphs.load_dataset(spec["dataset"])
        embedded = embedding.embed_dataset(ds, provider)
        network.save_checkpoint(ckpt, model.params, model.cfg)
        params, loaded_cfg = network.load_checkpoint(ckpt)
        setup_s.append(clock() - t)
        if any(not np.array_equal(a, b.h0) for a, b in zip(h0, embedded)):
            checks.append("embed_dataset is not deterministic across set-up cycles")
        for (name, saved), (_n, loaded) in zip(network.named_tensors(model.params),
                                               network.named_tensors(params)):
            if not np.array_equal(saved.data, loaded.data):
                checks.append(f"checkpoint round trip changed tensor {name}")
                break
        return ranker.TrainedModel(params=params, cfg=loaded_cfg, training_log=[])

    def rank_pass(served) -> None:
        """4. rank_commit over every commit, checked against the first pass."""
        nonlocal rank_failed
        t_pass = clock()
        row = []
        for i, eg in enumerate(embedded):
            t = clock()
            try:
                ranked = ranker.rank_commit(served, eg)
            except Exception as exc:  # counted as a failed call, reported below
                ranked = None
                rank_failed += 1
                checks.append(f"rank_commit failed on {eg.graph.commit_id}: {exc!r}")
            row.append(clock() - t)
            if ranked is None:
                continue
            if i not in first_pass:
                first_pass[i] = ranked
                ids = [node_id for node_id, _score in ranked]
                if sorted(ids) != sorted(eg.graph.deleted_ids()):
                    checks.append(f"{eg.graph.commit_id}: ranking is not a permutation of deleted ids")
                if ranked != sorted(ranked, key=lambda item: (-item[1], item[0])):
                    checks.append(f"{eg.graph.commit_id}: ranking is not ordered by score")
            elif ranked != first_pass[i]:
                checks.append(f"{eg.graph.commit_id}: pass {len(pass_s) + 1} scores differ from pass 1")
        pass_s.append(clock() - t_pass)
        latencies.append(row)

    # 1. load and embed once; the rest runs in rounds until --seconds have
    # passed (and at least min_rounds are done).  A round trains, sets up,
    # ranks half its passes, cross-validates, sets up and ranks the other
    # half, so every metric's samples spread over the whole run.  Every train() and
    # cross_validate() call starts from the same seed and must repeat exactly.
    ds = graphs.load_dataset(spec["dataset"])
    embedded = embedding.embed_dataset(ds, provider)
    h0 = [eg.h0 for eg in embedded]
    cfg = model_config(spec["epochs"])
    train_steps = spec["epochs"] * sum(1 for eg in embedded if _has_pairs(eg.graph))
    model = cv_report = None
    rounds = 0
    while rounds < spec["min_rounds"] or (spec["until_s"] is not None
                                          and clock() - wall0 < spec["until_s"]):
        t = clock()
        trained = ranker.train(embedded, cfg)                          # 2. train
        train_s.append(clock() - t)
        if model is not None and trained.training_log != model.training_log:
            checks.append("repeated train() calls gave different losses")
        model = trained
        served = setup_cycle(model)
        for _ in range(spec["passes_per_round"] // 2):
            rank_pass(served)

        t = clock()
        cv_mean, cv_folds = evaluation.cross_validate(                   # 5. cross-validate
            ds, model_config(1), provider, k=spec["cv_folds"], with_classification=True)
        cv_s.append(clock() - t)
        if cv_report is not None and cv_mean.to_dict() != cv_report:
            checks.append("repeated cross_validate() calls gave different reports")
        cv_report = cv_mean.to_dict()
        served = setup_cycle(model)
        for _ in range(spec["passes_per_round"] - spec["passes_per_round"] // 2):
            rank_pass(served)
        rounds += 1
    wall = clock() - wall0
    cpu = _cpu_seconds() - cpu0

    if len(model.training_log) != spec["epochs"] or not all(map(math.isfinite, model.training_log)):
        checks.append(f"training log is not one finite loss per epoch: {model.training_log}")
    recall_at_1 = cv_mean.recall_at[1]
    if len(cv_folds) != spec["cv_folds"] or not 0.0 <= recall_at_1 <= 1.0:
        checks.append(f"cross_validate returned {len(cv_folds)} folds, recall@1 {recall_at_1}")

    digest = hashlib.sha256(json.dumps({
        "training_log": [x.hex() for x in model.training_log],
        "rankings": [[(n, s.hex()) for n, s in first_pass[i]] for i in sorted(first_pass)],
        "cv": {k: float(v).hex() for k, v in cv_report.items()},
    }).encode()).hexdigest()

    return {
        "checks": checks[:20],
        "train_s": train_s,
        "train_steps": train_steps,
        "training_log": model.training_log,
        "final_loss_hex": model.training_log[-1].hex(),
        "setup_s": setup_s,
        "cv_s": cv_s,
        "cv_folds": len(cv_folds),
        "recall_at_1": recall_at_1,
        "rank_latencies_s": latencies,
        "rank_pass_s": pass_s,
        "rank_failed": rank_failed,
        "measured_wall_s": wall,
        "cpu_per_wall": cpu / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas_info(np),
            "blas_env": {k: os.environ.get(k) for k in spec["blas_env"]},
            "process_threads": _threads(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        },
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import rootrank

    src = Path(spec["src"]).resolve()
    if Path(rootrank.__file__).resolve().parent.parent != src:
        print(f"child: rootrank imported from {rootrank.__file__}, expected {src}", file=sys.stderr)
        return 2
    if spec["trace"]:
        from tracing import Recorder

        with Recorder() as recorder:
            result = run(spec)
        result["layers"] = recorder.layer_metrics()
        result["trace_missing"] = recorder.missing
        Path(spec["spans"]).write_text(json.dumps(recorder.span_records()))
    else:
        result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
