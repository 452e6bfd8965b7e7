"""Ranking metrics and experiment harnesses.

Metrics treat each commit's deleted lines as one ranked list with a set
of true root-cause lines; dataset-level numbers pool over commits.
The harness side covers seeded or chronological k-fold cross-validation
and fixed train/test splits.

Cross-validation trains its folds in parallel worker processes, at most
one per fold and per CPU this process may run on.  Workers are forked
from a fork server that has numpy and this package imported and that
lives as long as the calling process, so only the first call pays the
import, and every worker of a call loads the embedded dataset from one
pickle.  Each fold is seeded on its own and sees its training commits
in dataset order, and reports are collected in fold order, so the
result is the same, bit for bit, as training the folds one after
another.  Each fold, like ``evaluate -m``, ranks its held-out commits
in disjoint-union batches.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddedGraph, EmbeddingProvider, embed_dataset
from .graphs import Dataset
from .network import ModelConfig
from .ranker import TrainedModel, rank_commits, train


@dataclass(frozen=True)
class CommitRanking:
    commit_id: str
    ranked: tuple[int, ...]
    truth: frozenset[int]

    def __post_init__(self):
        if len(set(self.ranked)) != len(self.ranked):
            raise ValueError(f"commit {self.commit_id!r}: ranked list has duplicates")
        if not self.truth <= set(self.ranked):
            raise ValueError(f"commit {self.commit_id!r}: truth nodes missing from ranking")


def recall_at_n(rankings: list[CommitRanking], n: int) -> float:
    """Pooled fraction of truth lines appearing in the top n of their commit."""
    if not rankings:
        raise ValueError("recall_at_n of an empty ranking list")
    if n < 1:
        raise ValueError("n must be >= 1")
    hits = sum(len(set(r.ranked[:n]) & r.truth) for r in rankings)
    total = sum(len(r.truth) for r in rankings)
    if total == 0:
        raise ValueError("no truth lines in any commit")
    return hits / total


def first_rank(r: CommitRanking) -> int:
    """1-based position of the best-placed truth line."""
    if not r.truth:
        raise ValueError(f"commit {r.commit_id!r} has no truth lines")
    for pos, node_id in enumerate(r.ranked, start=1):
        if node_id in r.truth:
            return pos
    raise ValueError(f"commit {r.commit_id!r}: truth not present in ranking")


def mfr(rankings: list[CommitRanking], first_only: bool = True) -> float:
    """Mean rank of truth lines.

    Default: mean over commits of each commit's best truth position.
    ``first_only=False`` pools the positions of all truth lines instead.
    """
    if not rankings:
        raise ValueError("mfr of an empty ranking list")
    if first_only:
        return float(np.mean([first_rank(r) for r in rankings]))
    positions = []
    for r in rankings:
        if not r.truth:
            raise ValueError(f"commit {r.commit_id!r} has no truth lines")
        index = {node_id: pos for pos, node_id in enumerate(r.ranked, start=1)}
        positions.extend(index[t] for t in sorted(r.truth))
    return float(np.mean(positions))


def classification_at_k(rankings: list[CommitRanking], k: int) -> tuple[float, float, float]:
    """Precision, recall and F1 when the top k lines are predicted positive."""
    if not rankings:
        raise ValueError("classification_at_k of an empty ranking list")
    tp = fp = fn = 0
    for r in rankings:
        top = set(r.ranked[:k])
        tp += len(top & r.truth)
        fp += len(top - r.truth)
        fn += len(r.truth - top)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass
class EvalReport:
    recall_at: dict[int, float]
    mfr: float
    per_commit_first_rank: list[int]
    classification: dict[int, tuple[float, float, float]] | None = None

    def to_dict(self) -> dict:
        out = {f"recall@{n}": v for n, v in sorted(self.recall_at.items())}
        out["mfr"] = self.mfr
        if self.classification is not None:
            for k, (p, r, f1) in sorted(self.classification.items()):
                out[f"precision@{k}"] = p
                out[f"recall_cls@{k}"] = r
                out[f"f1@{k}"] = f1
        return out


_CUTOFFS = (1, 2, 3)   # a report's n of each recall@n and k of each classification at k


def evaluate_rankings(rankings: list[CommitRanking], with_classification: bool = False,
                      mfr_first_only: bool = True) -> EvalReport:
    """Recall@n (and, if asked, classification at k) for n, k in ``_CUTOFFS``, and MFR."""
    report = EvalReport(
        recall_at={n: recall_at_n(rankings, n) for n in _CUTOFFS},
        mfr=mfr(rankings, first_only=mfr_first_only),
        per_commit_first_rank=[first_rank(r) for r in rankings],
    )
    if with_classification:
        report.classification = {k: classification_at_k(rankings, k) for k in _CUTOFFS}
    return report


def evaluate_model(model: TrainedModel, embedded: list[EmbeddedGraph],
                   with_classification: bool = False,
                   mfr_first_only: bool = True) -> EvalReport:
    """The report of ``model``'s rankings of ``embedded`` (see :func:`evaluate_rankings`).

    The commits are ranked by ``ranker.rank_commits``, in disjoint-union
    batches.  A report depends only on the order of each commit's lines,
    which batching leaves as one-commit scoring has it.
    """
    rankings = [CommitRanking(commit_id=eg.graph.commit_id,
                              ranked=tuple(node_id for node_id, _score in ranked),
                              truth=frozenset(eg.graph.root_cause_ids()))
                for eg, ranked in zip(embedded, rank_commits(model, embedded))]
    return evaluate_rankings(rankings, with_classification=with_classification,
                             mfr_first_only=mfr_first_only)


# ---------------------------------------------------------------------------
# Experiment harnesses


def kfold_split(ds: Dataset, k: int = 10, seed: int = 0,
                chronological: bool = False) -> list[list[str]]:
    """Partition commit ids into k folds differing in size by at most one.

    Seeded shuffle + round robin by default.  Chronological mode sorts
    by timestamp and cuts contiguous folds instead; it requires a
    timestamp on every graph.
    """
    if len(ds.graphs) < k:
        raise ValueError(f"need at least {k} graphs for {k}-fold split, have {len(ds.graphs)}")
    if k < 2:
        raise ValueError("k must be >= 2")
    ids = [g.commit_id for g in ds.graphs]
    if chronological:
        missing = [g.commit_id for g in ds.graphs if g.timestamp is None]
        if missing:
            raise ValueError(f"chronological split needs timestamps; missing on {missing[:3]}")
        ids = [g.commit_id for g in sorted(ds.graphs, key=lambda g: (g.timestamp, g.commit_id))]
        base, extra = divmod(len(ids), k)   # the first ``extra`` folds take one more
        return [ids[i * base + min(i, extra):(i + 1) * base + min(i + 1, extra)]
                for i in range(k)]
    order = [ids[i] for i in np.random.default_rng(seed).permutation(len(ids))]
    return [order[f::k] for f in range(k)]


def mean_report(reports: list[EvalReport]) -> EvalReport:
    if not reports:
        raise ValueError("no reports to average")
    ns = sorted(reports[0].recall_at)
    merged = EvalReport(
        recall_at={n: float(np.mean([r.recall_at[n] for r in reports])) for n in ns},
        mfr=float(np.mean([r.mfr for r in reports])),
        per_commit_first_rank=[fr for r in reports for fr in r.per_commit_first_rank],
    )
    if all(r.classification is not None for r in reports):
        merged.classification = {
            k: tuple(float(np.mean([r.classification[k][i] for r in reports])) for i in range(3))
            for k in sorted(reports[0].classification)
        }
    return merged


def train_test_report(train_embedded: list[EmbeddedGraph],
                      test_embedded: list[EmbeddedGraph],
                      cfg: ModelConfig,
                      with_classification: bool = False,
                      mfr_first_only: bool = True) -> EvalReport:
    """Train on one split, evaluate on the other (cross-project protocol)."""
    model = train(train_embedded, cfg)
    return evaluate_model(model, test_embedded, with_classification=with_classification,
                          mfr_first_only=mfr_first_only)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# State of one cross_validate() worker process: the embedded dataset, the
# model config and the two report flags, set once per worker by the pool
# initializer so that each fold task carries only its row indices.
_worker_state: tuple[list[EmbeddedGraph], ModelConfig, bool, bool] | None = None


def _init_fold_worker(state: bytes) -> None:
    """Unpickle the worker state that cross_validate() pickled once for every worker."""
    global _worker_state
    _worker_state = pickle.loads(state)


def _fold_report(held_rows: list[int]) -> EvalReport:
    """Train on every commit outside ``held_rows``, in dataset order; evaluate on ``held_rows``."""
    embedded, cfg, with_classification, mfr_first_only = _worker_state
    held = set(held_rows)
    train_part = [eg for row, eg in enumerate(embedded) if row not in held]
    test_part = [embedded[row] for row in held_rows]
    return train_test_report(train_part, test_part, cfg,
                             with_classification=with_classification,
                             mfr_first_only=mfr_first_only)


def cross_validate(ds: Dataset, cfg: ModelConfig, provider: EmbeddingProvider,
                   k: int = 10, chronological: bool = False,
                   with_classification: bool = False,
                   mfr_first_only: bool = True) -> tuple[EvalReport, list[EvalReport]]:
    """k-fold protocol: train on k-1 folds, evaluate on the held-out fold, average.

    Folds are split with ``cfg.seed`` (see :func:`kfold_split`) and run in
    ``min(k, _usable_cpus())`` worker processes forked from a fork server:
    a separate interpreter that preloads this package and numpy, runs no
    numerical code (so holds no BLAS threads, which makes the fork safe
    even when the caller does) and lives as long as the caller, so later
    calls start their workers in milliseconds.  Each worker still imports
    the caller's main module, so a script that calls this must do so under
    ``if __name__ == "__main__":``.

    On Python 3.11 the server imports its preloads with the ``sys.path``
    a new interpreter starts with (``PYTHONPATH`` included, run-time
    inserts not) and skips one that fails.  If ``rootrank`` is importable
    only through such an insert, each worker imports it itself: the same
    result, at the start-up cost of a fresh interpreter per worker.

    The embedded dataset, the config and the report flags are pickled
    once, here, and each worker unpickles those bytes: the pool pickles
    its initializer's arguments again for every worker it starts, which
    for the list itself would cost the caller one full pickle per worker
    before the next can start.  The call keeps only the pickled copy.
    Each fold ranks its held-out commits with :func:`evaluate_model`, in
    disjoint-union batches.

    An exception raised by a fold is re-raised here.
    """
    embedded = embed_dataset(ds, provider)
    row_of = {eg.graph.commit_id: row for row, eg in enumerate(embedded)}
    folds = kfold_split(ds, k=k, seed=cfg.seed, chronological=chronological)
    held_rows = [[row_of[cid] for cid in fold] for fold in folds]
    state = pickle.dumps((embedded, cfg, with_classification, mfr_first_only),
                         protocol=pickle.HIGHEST_PROTOCOL)
    del embedded
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(["__main__", "rootrank.evaluation"])
    with ProcessPoolExecutor(max_workers=min(len(folds), _usable_cpus()),
                             mp_context=context,
                             initializer=_init_fold_worker,
                             initargs=(state,)) as pool:
        reports = list(pool.map(_fold_report, held_rows))
    return mean_report(reports), reports


def report_json(report: EvalReport, per_fold: list[EvalReport] | None = None) -> str:
    payload = report.to_dict()
    if per_fold is not None:
        payload["per_fold"] = [r.to_dict() for r in per_fold]
    return json.dumps(payload, indent=1)


def multi_report_table(labels: list[str], reports: list[EvalReport]) -> str:
    """Aligned text table, one row per report."""
    if len(labels) != len(reports) or not reports:
        raise ValueError("one label per report required")
    ns = sorted(reports[0].recall_at)
    headers = ["approach"] + [f"Recall@{n}" for n in ns] + ["MFR"]
    rows = [
        [label] + [f"{r.recall_at[n]:.3f}" for n in ns] + [f"{r.mfr:.3f}"]
        for label, r in zip(labels, reports)
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.extend("  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows)
    return "\n".join(lines)
