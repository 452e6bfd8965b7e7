"""Workload and metric definitions of the rootrank benchmark.

This module is the benchmark's single description of what it runs and
what it reports; ``BENCHMARK.json`` at the repository root must agree
with it (``tests/test_perfbench.py`` checks that).
"""

from __future__ import annotations

from dataclasses import dataclass

# Model shape shared by every workload; lr and sigma keep the library defaults.
DIM = 64
HEADS = 8
LAYERS = 2

# BLAS threads are part of the workload definition: one thread keeps runs
# steady on a shared two-core machine, and makes process.cpu_per_wall show
# parallelism that the program itself adds.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Part:
    """One call of the synthetic generator (``rootrank generate`` flags)."""

    commits: int
    deleted: int
    added: int
    density: float
    seed_offset: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    parts: tuple[Part, ...]
    epochs: int                 # epochs of each train() call
    cv_folds: int               # k of each cross_validate() call (1 epoch per fold)
    passes_per_round: int       # rank passes over every commit in one round
    min_rounds: int             # rounds of a --trace 0 run, at least; --trace 1 runs one
    smoke_parts: tuple[Part, ...]  # reduced inputs for --smoke


# A second generator seed for the medium commits of cv-mixed, so its two
# parts never share a commit id.
_SECOND_SEED = 7919

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small-commits",
            why="200 commits x 15 nodes: ~320 tape ops and ~17 edges per commit, so per-op Python "
                "overhead, backward and Adam dominate",
            parts=(Part(200, 10, 5, 0.08),),
            epochs=1,
            cv_folds=2,
            passes_per_round=2,
            min_rounds=3,
            smoke_parts=(Part(12, 4, 2, 0.2),),
        ),
        Workload(
            name="large-commits",
            why="12 commits x 300 sparse nodes (E~890): dense O(E*n) plans, attention and plan "
                "rebuilds in rank_commit dominate time and memory",
            parts=(Part(12, 200, 100, 0.01),),
            epochs=1,
            cv_folds=2,
            passes_per_round=5,
            min_rounds=2,
            smoke_parts=(Part(4, 20, 10, 0.05),),
        ),
        Workload(
            name="cv-mixed",
            why="5-fold cross_validate over 100 small + 20 medium commits: unequal folds, so fold "
                "orchestration and the slowest fold set the wall time",
            parts=(Part(100, 10, 5, 0.08), Part(20, 60, 30, 0.03, _SECOND_SEED)),
            epochs=1,
            cv_folds=5,
            passes_per_round=6,
            min_rounds=2,
            smoke_parts=(Part(8, 4, 2, 0.2), Part(2, 8, 4, 0.1, _SECOND_SEED)),
        ),
    )
}
DEFAULT_WORKLOAD = "small-commits"

# Rank passes per round of a --smoke run.
SMOKE_PASSES_PER_ROUND = 2


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str          # end-to-end metric and workload this one should move


# Bounds: timings on a shared two-core machine drift by 10-40% over minutes
# (neighbouring load, not this program), so every timing gets the largest
# bound the benchmark contract allows.  Memory and the deterministic loss
# are steady and get tight bounds.
END_TO_END = (
    EndToEnd("train_commits_per_s", "1/s", "higher", 0.25),
    EndToEnd("rank_commits_per_s", "1/s", "higher", 0.25),
    EndToEnd("rank_p50_ms", "ms", "lower", 0.25),
    EndToEnd("rank_p90_ms", "ms", "lower", 0.25),
    EndToEnd("cv_s", "s", "lower", 0.25),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
    EndToEnd("final_loss", "nats", "lower", 0.05),
)

PER_LAYER = (
    PerLayer("graphs.load_dataset_s", "s", "lower", "setup_s on every workload"),
    PerLayer("embedding.embed_dataset_s", "s", "lower", "setup_s on every workload"),
    PerLayer("network.save_checkpoint_s", "s", "lower", "setup_s on every workload"),
    PerLayer("network.load_checkpoint_s", "s", "lower", "setup_s on every workload"),
    PerLayer("aggregation.build_plan_s", "s", "lower",
             "train_commits_per_s, rank_commits_per_s, rank_p50_ms on large-commits"),
    PerLayer("aggregation.build_plan_calls", "count", "lower",
             "train_commits_per_s, rank_commits_per_s, rank_p50_ms on large-commits"),
    PerLayer("aggregation.plan_mb", "MB", "lower", "peak_rss_mb on large-commits"),
    PerLayer("aggregation.attention_forward_s", "s", "lower",
             "train_commits_per_s, rank_commits_per_s on small-commits and large-commits"),
    PerLayer("network.gru_cell_s", "s", "lower", "train_commits_per_s on small-commits"),
    PerLayer("network.network_forward_s", "s", "lower",
             "rank_p50_ms on small-commits and large-commits"),
    PerLayer("autodiff.tape_ops_per_commit", "count", "lower",
             "train_commits_per_s on small-commits"),
    PerLayer("autodiff.op_calls_per_commit", "count", "lower",
             "train_commits_per_s, rank_commits_per_s on small-commits"),
    PerLayer("autodiff.backward_s", "s", "lower",
             "train_commits_per_s on small-commits and large-commits"),
    PerLayer("autodiff.matmul_calls_per_commit", "count", "lower",
             "train_commits_per_s, rank_commits_per_s on large-commits"),
    PerLayer("autodiff.matmul_gflop_per_commit", "GFLOP", "lower",
             "train_commits_per_s, rank_commits_per_s on large-commits"),
    PerLayer("ranker.adam_step_s", "s", "lower", "train_commits_per_s on small-commits"),
    PerLayer("ranker.adam_tensors_per_step", "count", "lower",
             "train_commits_per_s on small-commits"),
    PerLayer("ranker.build_pairs_s", "s", "lower", "train_commits_per_s on large-commits"),
    PerLayer("ranker.pair_loss_s", "s", "lower", "train_commits_per_s on small-commits"),
    PerLayer("ranker.train_s", "s", "lower", "train_commits_per_s on small-commits"),
    PerLayer("ranker.rank_commit_s", "s", "lower", "rank_commits_per_s on every workload"),
    PerLayer("evaluation.fold_s_max", "s", "lower", "cv_s on cv-mixed"),
    PerLayer("evaluation.fold_s_sum", "s", "lower", "cv_s on cv-mixed"),
    PerLayer("evaluation.evaluate_model_s", "s", "lower", "cv_s on cv-mixed"),
    PerLayer("recall_at_1", "fraction", "higher", "none; a quality guard on every workload"),
    PerLayer("failed_share", "ratio", "lower", "none; a failure guard on every workload"),
    PerLayer("process.cpu_per_wall", "ratio", "higher",
             "none; separates gains from threads from gains from less work"),
    PerLayer("trace.overhead_share", "ratio", "lower", "none; the cost of tracing"),
)
