import json
import multiprocessing.forkserver
import os
import pickle

import numpy as np
import pytest

from rootrank import evaluation
from rootrank.embedding import EmbeddedGraph, HashingEmbedder, embed_dataset
from rootrank.evaluation import (
    CommitRanking,
    EvalReport,
    classification_at_k,
    cross_validate,
    evaluate_rankings,
    first_rank,
    kfold_split,
    mean_report,
    mfr,
    multi_report_table,
    recall_at_n,
    report_json,
    train_test_report,
)
from rootrank.graphs import CommitGraph, Dataset, DepEdge, EdgeKind, LineNode, NodeKind
from rootrank.network import Mode, ModelConfig
from rootrank.synthetic import GenConfig, generate


def ranking(commit_id, ranked, truth):
    return CommitRanking(commit_id=commit_id, ranked=tuple(ranked), truth=frozenset(truth))


class TestRecallAtN:
    def test_single_truth_on_top(self):
        rs = [ranking("a", [0, 1, 2], {0})]
        assert recall_at_n(rs, 1) == 1.0

    def test_half_of_two_truths_in_top_two(self):
        rs = [ranking("a", [0, 2, 1], {0, 1})]
        assert recall_at_n(rs, 2) == 0.5

    def test_truth_outside_top_n_contributes_zero(self):
        ranked = list(range(10))
        rs = [ranking("a", ranked, {6})]  # truth at position 7
        assert recall_at_n(rs, 3) == 0.0

    def test_monotone_in_n(self):
        rng = np.random.default_rng(0)
        rs = []
        for i in range(20):
            order = list(rng.permutation(8))
            truth = set(int(x) for x in rng.choice(8, size=2, replace=False))
            rs.append(ranking(f"c{i}", order, truth))
        values = [recall_at_n(rs, n) for n in range(1, 9)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            recall_at_n([], 1)

    def test_order_of_commits_irrelevant(self):
        rs = [ranking("a", [0, 1], {0}), ranking("b", [1, 0], {0})]
        assert recall_at_n(rs, 1) == recall_at_n(list(reversed(rs)), 1)


class TestMfr:
    def test_perfect_ranking_gives_one(self):
        rs = [ranking(f"c{i}", [i % 3, (i + 1) % 3, (i + 2) % 3], {i % 3}) for i in range(5)]
        assert mfr(rs) == 1.0

    def test_mean_of_first_ranks(self):
        rs = [ranking("a", [5, 6, 7], {5}), ranking("b", [1, 2, 3], {3})]
        assert mfr(rs) == 2.0

    def test_multiple_truths_use_best_position(self):
        rs = [ranking("a", [9, 4, 8, 7, 2, 1], {4, 2})]  # positions 2 and 5
        assert first_rank(rs[0]) == 2
        assert mfr(rs) == 2.0

    def test_all_positions_variant(self):
        rs = [ranking("a", [9, 4, 8, 7, 2, 1], {4, 2})]
        assert mfr(rs, first_only=False) == (2 + 5) / 2

    def test_one_iff_every_top_line_is_truth(self):
        good = [ranking("a", [1, 0], {1}), ranking("b", [4, 2], {4})]
        assert mfr(good) == 1.0
        mixed = good + [ranking("c", [3, 5], {5})]
        assert mfr(mixed) > 1.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            mfr([ranking("a", [1, 2], set())])


class TestClassificationAtK:
    def test_perfect_single_truth_at_one(self):
        rs = [ranking(f"c{i}", [0, 1, 2], {0}) for i in range(4)]
        assert classification_at_k(rs, 1) == (1.0, 1.0, 1.0)

    def test_miss_at_one(self):
        rs = [ranking("a", [1, 0], {0})]
        assert classification_at_k(rs, 1) == (0.0, 0.0, 0.0)

    def test_single_truth_at_two(self):
        rs = [ranking("a", [0, 1], {0})]
        precision, recall, f1 = classification_at_k(rs, 2)
        assert precision == 0.5
        assert recall == 1.0
        assert abs(f1 - 2 / 3) < 1e-15

    def test_recall_equals_recall_at_n(self):
        rng = np.random.default_rng(1)
        rs = []
        for i in range(15):
            order = list(rng.permutation(6))
            truth = set(int(x) for x in rng.choice(6, size=2, replace=False))
            rs.append(ranking(f"c{i}", order, truth))
        for k in (1, 2, 3):
            _p, recall, _f1 = classification_at_k(rs, k)
            assert abs(recall - recall_at_n(rs, k)) < 1e-15


class TestKfoldSplit:
    def _dataset(self, n, with_timestamps=True):
        graphs = []
        for i in range(n):
            graphs.append(
                CommitGraph(
                    commit_id=f"c{i}",
                    nodes=(
                        LineNode(0, NodeKind.DELETED, text="x", is_root_cause=True),
                        LineNode(1, NodeKind.ADDED, text="y"),
                    ),
                    edges=(DepEdge(0, 1, EdgeKind.LINE_MAPPING),),
                    timestamp=(1000 + (n - i) * 10) if with_timestamps else None,
                )
            )
        return Dataset(graphs=tuple(graphs), name="folds")

    def test_ten_singletons(self):
        folds = kfold_split(self._dataset(10), k=10, seed=1)
        assert len(folds) == 10
        assert all(len(f) == 1 for f in folds)

    def test_balanced_sizes_for_23(self):
        folds = kfold_split(self._dataset(23), k=10, seed=1)
        sizes = sorted((len(f) for f in folds), reverse=True)
        assert sizes == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]

    def test_same_seed_identical(self):
        ds = self._dataset(17)
        assert kfold_split(ds, k=5, seed=9) == kfold_split(ds, k=5, seed=9)

    def test_disjoint_and_complete(self):
        ds = self._dataset(23)
        folds = kfold_split(ds, k=10, seed=3)
        ids = [cid for fold in folds for cid in fold]
        assert sorted(ids) == sorted(g.commit_id for g in ds.graphs)
        assert len(set(ids)) == len(ids)

    def test_chronological_cuts_by_timestamp(self):
        ds = self._dataset(10)
        folds = kfold_split(ds, k=5, chronological=True)
        by_id = {g.commit_id: g.timestamp for g in ds.graphs}
        previous = None
        for fold in folds:
            for cid in fold:
                ts = by_id[cid]
                if previous is not None:
                    assert ts >= previous
                previous = ts

    @pytest.mark.parametrize("chronological, expected", [
        (False, [["c7", "c4", "c8", "c6"], ["c10", "c0", "c2", "c3"], ["c5", "c1", "c9"]]),
        (True, [["c10", "c9", "c8", "c7"], ["c6", "c5", "c4", "c3"], ["c2", "c1", "c0"]]),
    ])
    def test_exact_folds_of_one_seed(self, chronological, expected):
        assert kfold_split(self._dataset(11), k=3, seed=1, chronological=chronological) == expected

    def test_chronological_needs_timestamps(self):
        ds = self._dataset(10, with_timestamps=False)
        with pytest.raises(ValueError, match="timestamps"):
            kfold_split(ds, k=5, chronological=True)

    def test_too_few_graphs(self):
        with pytest.raises(ValueError, match="at least"):
            kfold_split(self._dataset(5), k=10)


class TestHarness:
    def _cfg(self, mode=Mode.FULL):
        return ModelConfig(dim=16, heads=2, layers=1, proj_dim=8,
                           epochs=2, lr=1e-4, seed=5, mode=mode)

    def test_cross_validate_small(self):
        ds = generate(GenConfig(n_commits=8, deleted_per_commit=3,
                                added_per_commit=2, seed=4))
        mean, per_fold = cross_validate(ds, self._cfg(), HashingEmbedder(16), k=2)
        assert len(per_fold) == 2
        for rep in per_fold + [mean]:
            assert 0.0 <= rep.recall_at[1] <= rep.recall_at[2] <= rep.recall_at[3] <= 1.0
            assert rep.mfr >= 1.0
        for n in (1, 2, 3):
            assert abs(mean.recall_at[n] - np.mean([r.recall_at[n] for r in per_fold])) < 1e-15

    def test_mode_sweep_produces_three_reports(self):
        ds = generate(GenConfig(n_commits=6, deleted_per_commit=3,
                                added_per_commit=2, seed=2))
        reports = {}
        for mode in Mode:
            mean, _folds = cross_validate(ds, self._cfg(mode), HashingEmbedder(16), k=2)
            reports[mode] = mean
        assert len(reports) == 3

    def test_cross_project_split(self):
        from rootrank.embedding import embed_dataset

        train_ds = generate(GenConfig(n_commits=6, deleted_per_commit=3,
                                      added_per_commit=2, seed=10))
        test_ds = generate(GenConfig(n_commits=4, deleted_per_commit=3,
                                     added_per_commit=2, seed=11))
        provider = HashingEmbedder(16)
        report = train_test_report(
            embed_dataset(train_ds, provider), embed_dataset(test_ds, provider), self._cfg())
        assert set(report.recall_at) == {1, 2, 3}
        assert len(report.per_commit_first_rank) == 4

    @pytest.mark.parametrize("chronological", [False, True])
    def test_cross_validate_equals_in_process_folds(self, chronological):
        ds = generate(GenConfig(n_commits=9, deleted_per_commit=4,
                                added_per_commit=2, seed=6))
        cfg = self._cfg()
        provider = HashingEmbedder(16)
        mean, per_fold = cross_validate(ds, cfg, provider, k=3,
                                        chronological=chronological, with_classification=True)
        embedded = embed_dataset(ds, provider)
        expected = []
        for fold in kfold_split(ds, k=3, seed=cfg.seed, chronological=chronological):
            held = set(fold)
            train_part = [eg for eg in embedded if eg.graph.commit_id not in held]
            test_part = [next(eg for eg in embedded if eg.graph.commit_id == cid) for cid in fold]
            expected.append(train_test_report(train_part, test_part, cfg, with_classification=True))
        assert per_fold == expected
        assert report_json(mean, per_fold) == report_json(mean_report(expected), expected)

    @pytest.mark.parametrize("cpus, k, workers", [(1, 2, 1), (4, 2, 2)])
    def test_pool_has_one_worker_per_usable_cpu_and_fold(self, monkeypatch, cpus, k, workers):
        started = []
        start_methods = []

        class SpyPool(evaluation.ProcessPoolExecutor):
            def shutdown(self, *args, **kwargs):
                started.extend(self._processes or ())
                start_methods.append(self._mp_context.get_start_method())
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", SpyPool)
        ds = generate(GenConfig(n_commits=4, deleted_per_commit=3,
                                added_per_commit=2, seed=3))
        _mean, per_fold = cross_validate(ds, self._cfg(), HashingEmbedder(16), k=k)
        assert len(per_fold) == k
        assert len(started) == workers
        assert start_methods == ["forkserver"]

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_each_embedded_graph_is_pickled_once_per_call(self, monkeypatch, cpus):
        # the pool pickles its initializer's arguments once per worker it starts
        pickled = []
        real = EmbeddedGraph.__getstate__

        def counting(self):
            pickled.append(self.graph.commit_id)
            return real(self)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(EmbeddedGraph, "__getstate__", counting)
        ds = generate(GenConfig(n_commits=6, deleted_per_commit=3,
                                added_per_commit=2, seed=3))
        _mean, per_fold = cross_validate(ds, self._cfg(), HashingEmbedder(16), k=3)
        assert len(per_fold) == 3
        assert pickled == [g.commit_id for g in ds.graphs]

    def test_repeated_calls_reuse_one_fork_server(self):
        ds = generate(GenConfig(n_commits=4, deleted_per_commit=3,
                                added_per_commit=2, seed=3))
        first = cross_validate(ds, self._cfg(), HashingEmbedder(16), k=2)
        server_pid = multiprocessing.forkserver._forkserver._forkserver_pid
        second = cross_validate(ds, self._cfg(), HashingEmbedder(16), k=2)
        assert second == first
        assert server_pid is not None
        assert multiprocessing.forkserver._forkserver._forkserver_pid == server_pid

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert evaluation._usable_cpus() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert evaluation._usable_cpus() == 3

    def test_worker_inputs_and_results_survive_pickle(self):
        ds = generate(GenConfig(n_commits=2, deleted_per_commit=3,
                                added_per_commit=2, seed=8))
        for eg in embed_dataset(ds, HashingEmbedder(16)):
            again = pickle.loads(pickle.dumps(eg))
            assert again.graph == eg.graph and np.array_equal(again.h0, eg.h0)
        cfg = self._cfg(Mode.RETENTION_ONLY)
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        report = evaluate_rankings([ranking("a", [2, 0, 1], {0})], with_classification=True)
        assert isinstance(report, EvalReport)
        assert pickle.loads(pickle.dumps(report)) == report

    def test_report_serialization(self):
        rs = [ranking("a", [0, 1, 2], {0})]
        report = evaluate_rankings(rs, with_classification=True)
        payload = json.loads(report_json(report, per_fold=[report]))
        assert payload["recall@1"] == 1.0
        assert payload["mfr"] == 1.0
        assert "per_fold" in payload and len(payload["per_fold"]) == 1
        table = multi_report_table(["model"], [report])
        assert "Recall@1" in table and "MFR" in table

    def test_mean_report_pools_first_ranks(self):
        r1 = evaluate_rankings([ranking("a", [0, 1], {0})])
        r2 = evaluate_rankings([ranking("b", [1, 0], {0})])
        merged = mean_report([r1, r2])
        assert merged.per_commit_first_rank == [1, 2]
        assert merged.mfr == 1.5
