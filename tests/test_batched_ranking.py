"""Disjoint-union scoring: ``aggregation.union_plan`` and ``ranker.rank_commits``.

A batch of commits scores as one graph whose plan is the union of theirs.
Its scores agree with one-commit scoring to rounding and its rankings are
equal; a batch of one commit is scored bit for bit as that commit alone.
"""

import dataclasses
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootrank import autodiff as ad
from rootrank import ranker
from rootrank.aggregation import MU_SIZE, build_plan, union_plan
from rootrank.autodiff import CheckedIndex, constant
from rootrank.embedding import EmbeddedGraph, HashingEmbedder, embed_dataset
from rootrank.evaluation import CommitRanking, evaluate_model, evaluate_rankings, report_json
from rootrank.graphs import CommitGraph, DepEdge, EdgeKind, LineNode, NodeKind, load_dataset
from rootrank.network import ModelConfig, init_network_params, load_checkpoint
from rootrank.ranker import TrainedModel, rank_commit, rank_commits, train
from rootrank.synthetic import GenConfig, generate

from naive_reference import assert_plan_matches_graphs, assert_same_fields

DATA = Path(__file__).parent / "data"
CFG = ModelConfig(dim=8, heads=2, layers=2, proj_dim=4, seed=3)
MODEL = TrainedModel(params=init_network_params(CFG, np.random.default_rng(3), random_scorer=True),
                     cfg=CFG, training_log=[])


def commit(rng, cid, deleted, added, density, dim=CFG.dim):
    """An embedded commit with ``deleted`` and ``added`` lines in shuffled id order; a drawn
    line_mapping edge is kept only where it runs deleted -> added, as ``validate_graph``
    requires."""
    kinds = [NodeKind.DELETED] * deleted + [NodeKind.ADDED] * added
    rng.shuffle(kinds)
    ids = [i for i, kind in enumerate(kinds) if kind is NodeKind.DELETED]
    root = int(rng.choice(ids)) if ids else -1
    nodes = tuple(LineNode(i, kind, text=f"line {i}", is_root_cause=i == root)
                  for i, kind in enumerate(kinds))
    drawn = [DepEdge(src, dst, list(EdgeKind)[int(rng.integers(len(EdgeKind)))])
             for src in range(len(kinds)) for dst in range(len(kinds))
             if src != dst and rng.random() < density]
    edges = tuple(e for e in drawn if e.kind is not EdgeKind.LINE_MAPPING
                  or (kinds[e.src], kinds[e.dst]) == (NodeKind.DELETED, NodeKind.ADDED))
    graph = CommitGraph(commit_id=cid, nodes=nodes, edges=edges)
    return EmbeddedGraph(graph=graph, h0=rng.normal(size=(len(kinds), dim)))


# (deleted, added, density) of the commits every drawn list holds: one without
# edges, one with a single node kind, and one over the smallest drawn budget
SPECIAL = [(3, 2, 0.0), (4, 0, 0.5), (20, 10, 0.1)]
SMALL_BUDGET = 40


@st.composite
def commit_lists(draw):
    drawn = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 4),
                                    st.sampled_from([0.0, 0.2, 0.6])), max_size=5))
    shapes = draw(st.permutations(drawn + SPECIAL))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [commit(rng, f"c{i}", *shape) for i, shape in enumerate(shapes)]


def stacked_graph(graphs):
    """``graphs`` as one graph, in list order, each one's node ids offset by the nodes of those
    before it."""
    nodes, edges, base = [], [], 0
    for g in graphs:
        nodes += [dataclasses.replace(node, id=node.id + base) for node in g.nodes]
        edges += [DepEdge(e.src + base, e.dst + base, e.kind) for e in g.edges]
        base += len(g.nodes)
    return CommitGraph(commit_id="stacked", nodes=tuple(nodes), edges=tuple(edges))


def alone(model, eg):
    """One commit's ranking, scored on its own plan without ``rank_commits``."""
    scores = ranker._deleted_scores(None, eg.h0_tensor, eg.plan, model.params, model.cfg).data
    return sorted(zip(eg.graph.deleted_ids(), scores.tolist()), key=lambda s: (-s[1], s[0]))


def assert_close_and_equally_ranked(got, want):
    assert [node for node, _s in got] == [node for node, _s in want]
    assert max(abs(a - b) for (_n, a), (_m, b) in zip(got, want)) <= 1e-12


class TestUnionScoring:
    @settings(max_examples=40, deadline=None)
    @given(embedded=commit_lists(), budget=st.sampled_from([0, SMALL_BUDGET, 200,
                                                            ranker.BATCH_ROWS]))
    def test_batches_rank_as_single_commits_do(self, embedded, budget):
        with mock.patch.object(ranker, "BATCH_ROWS", budget):
            got = rank_commits(MODEL, embedded)
            backwards = rank_commits(MODEL, embedded[::-1])
        assert len(got) == len(embedded)
        for eg, ranked, reranked in zip(embedded, got, backwards[::-1]):    # input order
            want = alone(MODEL, eg)
            assert_close_and_equally_ranked(ranked, want)
            assert_close_and_equally_ranked(reranked, want)
            exact = [(node, score.hex()) for node, score in want]
            assert [(node, score.hex()) for node, score in rank_commit(MODEL, eg)] == exact
            assert [(node, s.hex()) for node, s in rank_commits(MODEL, [eg])[0]] == exact

    @settings(max_examples=40, deadline=None)
    @given(embedded=commit_lists())
    def test_a_union_is_kind_major_and_ranks_by_node_id(self, embedded):
        # each commit's node kinds interleave in its ids; the union lays out every kind of
        # every commit as one run, and its rankings still name each commit's node ids
        union = union_plan([eg.plan for eg in embedded])
        assert_plan_matches_graphs(union, [eg.graph for eg in embedded])
        assert union.node_counts == tuple(
            sum(counts) for counts in zip(*(eg.plan.node_counts for eg in embedded)))
        stacked_kinds = [node.kind.ordinal for eg in embedded for node in eg.graph.nodes]
        assert union.node_ids.tolist() == sorted(range(len(stacked_kinds)),
                                                 key=stacked_kinds.__getitem__)
        with mock.patch.object(ranker, "BATCH_ROWS", 10**9):
            assert len(ranker._batches(embedded)) == 1
            batched = rank_commits(MODEL, embedded)
        for eg, ranked in zip(embedded, batched):
            assert [node for node, _s in ranked] == [node for node, _s in rank_commit(MODEL, eg)]
            assert sorted(node for node, _s in ranked) == eg.graph.deleted_ids()

    @settings(max_examples=40, deadline=None)
    @given(embedded=commit_lists())
    def test_the_union_plan_is_checked_once_and_holds_each_commits_edges(self, embedded):
        # field for field, node_ids and the scored block included, the union is build_plan of
        # the commits' graphs stacked in order, with node ids offset by the commits before
        plans = [eg.plan for eg in embedded]
        union = union_plan(plans)
        want = build_plan(stacked_graph([eg.graph for eg in embedded]))
        assert_same_fields(union, want)
        n = sum(p.n for p in plans)
        e = sum(len(p.src) for p in plans)
        assert union.n == n
        for name, bound in (("src", n), ("dst", n), ("mu_idx", MU_SIZE), ("node_ids", n)):
            array = getattr(union, name)
            assert type(array) is CheckedIndex and array.bound == bound, name
            assert len(array) == (n if name == "node_ids" else e), name
        # the same arrays offset by hand were never checked, so no op takes them
        node_base = np.cumsum([0] + [p.n for p in plans])[:-1]
        by_hand = np.concatenate([p.src + base for p, base in zip(plans, node_base)])
        x, mu = constant(np.zeros((n, 2))), constant(np.ones((MU_SIZE, 1)))
        typed = [(np.arange(n), constant(np.eye(2)), constant(np.zeros(2)))]
        with pytest.raises(ValueError, match=r"^attend: src must be a CheckedIndex"):
            ad.attend(None, x, x, typed, typed, typed, [], [], mu, by_hand, union.dst,
                      union.mu_idx, 1)
        with pytest.raises(ValueError, match=r"^attend: keys groups must be non-empty runs"):
            ad.attend(None, x, x, typed, typed, typed, [], [], mu, union.src, union.dst,
                      union.mu_idx, 1)

    @settings(max_examples=40, deadline=None)
    @given(embedded=commit_lists())
    def test_the_union_block_is_the_commits_blocks_laid_out_kind_major(self, embedded):
        # targets are the union's first rows, each commit's deleted lines in commit order;
        # each kind's run of kept edges is the commits' kept edges of that kind, in commit
        # order, read in node ids offset by the nodes of the commits before
        plans = [eg.plan for eg in embedded]
        union = union_plan(plans)
        block = union.scored
        node_base = np.cumsum([0] + [p.n for p in plans])[:-1]
        k = sum(p.scored.n for p in plans)
        kept = sum(len(p.scored.src) for p in plans)
        assert block.n == k and block.node_rows == ({NodeKind.DELETED: slice(0, k)} if k else {})
        assert np.array_equal(union.node_ids[:k], np.concatenate(
            [p.node_ids[:p.scored.n] + base for p, base in zip(plans, node_base)]))
        for name, bound in (("src", union.n), ("dst", k), ("mu_idx", MU_SIZE)):
            array = getattr(block, name)
            assert type(array) is CheckedIndex and array.bound == bound and len(array) == kept
        assert set(block.edge_rows) == {kind for p in plans for kind in p.scored.edge_rows}
        for kind, rows in block.edge_rows.items():
            parts = [(p, p.scored.edge_rows[kind], base) for p, base in zip(plans, node_base)
                     if kind in p.scored.edge_rows]
            for name in ("src", "dst"):
                assert np.array_equal(union.node_ids[getattr(block, name)[rows]], np.concatenate(
                    [p.node_ids[getattr(p.scored, name)[r]] + base for p, r, base in parts]))
            assert np.array_equal(block.mu_idx[rows],
                                  np.concatenate([p.scored.mu_idx[r] for p, r, _base in parts]))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), a_shape=st.tuples(st.integers(1, 5), st.integers(0, 4)),
           b_shape=st.tuples(st.integers(2, 5), st.integers(0, 4)),
           density=st.sampled_from([0.0, 0.2, 0.6]), b_first=st.booleans())
    def test_perturbing_one_commit_of_a_union_leaves_the_others_scores(
            self, seed, a_shape, b_shape, density, b_first):
        # new vectors on every node of b and one more edge, which shifts a's edge rows when
        # b comes first: a wrong offset in the union would make a read b's rows
        rng = np.random.default_rng(seed)
        a, b = commit(rng, "a", *a_shape, density), commit(rng, "b", *b_shape, density)
        n = len(b.graph.nodes)
        present = {(e.src, e.dst, e.kind) for e in b.graph.edges}
        new = [(src, dst, kind) for src in range(n) for dst in range(n)
               for kind in EdgeKind if kind is not EdgeKind.LINE_MAPPING
               and src != dst and (src, dst, kind) not in present]
        edge = DepEdge(*new[int(rng.integers(len(new)))])
        graph = CommitGraph(commit_id="b", nodes=b.graph.nodes, edges=b.graph.edges + (edge,))
        b2 = EmbeddedGraph(graph=graph, h0=rng.normal(size=b.h0.shape))

        def a_scores(other):
            batch = [other, a] if b_first else [a, other]
            assert len(ranker._batches(batch)) == 1     # scored as one union
            return rank_commits(MODEL, batch)[batch.index(a)]

        before, after = a_scores(b), a_scores(b2)
        deleted = b.graph.nodes[edge.dst].kind is NodeKind.DELETED
        if (sum(e.kind is edge.kind for eg in (a, b) for e in eg.graph.edges) == 1
                or deleted and sum(e.kind is edge.kind
                                   and eg.graph.nodes[e.dst].kind is NodeKind.DELETED
                                   for eg in (a, b) for e in eg.graph.edges) == 1):
            # the union's rows of the edge's kind, or those of the last layer's block of edges
            # into deleted lines, go from one to two, and numpy multiplies a single row
            # through BLAS's matrix-vector kernel, which rounds unlike the matrix-matrix one
            # (see test_locality.py)
            assert_close_and_equally_ranked(after, before)
        else:
            assert after == before

    def test_a_union_of_one_plan_is_that_plan(self):
        eg = commit(np.random.default_rng(0), "one", 3, 2, 0.5)
        assert_same_fields(union_plan([eg.plan]), eg.plan)

    def test_batches_fill_up_to_the_budget_and_a_larger_commit_runs_alone(self):
        rng = np.random.default_rng(5)
        embedded = [commit(rng, f"c{i}", *shape) for i, shape in enumerate(
            [(3, 2, 0.3), (3, 2, 0.3), (20, 10, 0.1), (2, 1, 0.0), (3, 2, 0.3)])]
        size = [eg.plan.n + len(eg.plan.src) for eg in embedded]
        assert size[2] > SMALL_BUDGET and size[0] + size[1] <= SMALL_BUDGET
        with mock.patch.object(ranker, "BATCH_ROWS", SMALL_BUDGET):
            batches = ranker._batches(embedded)
        assert [[eg.graph.commit_id for eg in batch] for batch in batches] == [
            ["c0", "c1"], ["c2"], ["c3", "c4"]]
        assert ranker._batches([]) == []


class TestErrorsNameTheCommit:
    def embedded(self, bad):
        rng = np.random.default_rng(11)
        return [bad(rng) if i == 2 else commit(rng, f"c{i}", 3, 2, 0.4) for i in range(4)]

    def test_no_deleted_lines(self):
        embedded = self.embedded(lambda rng: commit(rng, "c2", 0, 3, 0.5))
        with pytest.raises(ValueError, match=r"^commit 'c2' has no deleted lines$"):
            rank_commits(MODEL, embedded)

    def test_wrong_embedding_dim(self):
        embedded = self.embedded(lambda rng: commit(rng, "c2", 3, 2, 0.4, dim=4))
        with pytest.raises(ValueError, match=r"^commit 'c2': embedding dim 4 != model dim 8$"):
            rank_commits(MODEL, embedded)

    def test_a_non_finite_score_inside_a_batch(self):
        def huge(rng):
            eg = commit(rng, "c2", 3, 2, 0.6)
            return EmbeddedGraph(graph=eg.graph, h0=eg.h0 * 1e200)

        embedded = self.embedded(huge)
        assert len(ranker._batches(embedded)) == 1
        with pytest.raises(ValueError, match=r"^commit 'c2': \w+ produced non-finite values "
                                             r"in its \(.*\) \w+"):
            rank_commits(MODEL, embedded)
        assert len(rank_commits(MODEL, embedded[:2] + embedded[3:])) == 3


def per_commit_report(model, embedded, **flags):
    """The report of rankings made one commit at a time with ``rank_commit``."""
    rankings = [CommitRanking(commit_id=eg.graph.commit_id,
                              ranked=tuple(node for node, _s in rank_commit(model, eg)),
                              truth=frozenset(eg.graph.root_cause_ids())) for eg in embedded]
    return evaluate_rankings(rankings, **flags)


class TestEvaluateModelBatches:
    FLAGS = [dict(), dict(with_classification=True, mfr_first_only=False)]

    def check(self, model, embedded):
        assert len(ranker._batches(embedded)) < len(embedded)
        for flags in self.FLAGS:
            report = evaluate_model(model, embedded, **flags)
            expected = per_commit_report(model, embedded, **flags)
            assert report == expected
            assert report_json(report) == report_json(expected)

    def test_v1_fixture(self):
        params, cfg = load_checkpoint(DATA / "v4_model.ckpt")
        embedded = embed_dataset(load_dataset(DATA / "v1_dataset.json"), HashingEmbedder(cfg.dim))
        self.check(TrainedModel(params=params, cfg=cfg, training_log=[]), embedded)

    def test_generated_60_commits(self):
        cfg = ModelConfig(dim=16, heads=2, layers=2, epochs=2, lr=1e-3, seed=101)
        embedded = embed_dataset(generate(GenConfig(n_commits=60, seed=101)), HashingEmbedder(16))
        self.check(train(embedded, cfg), embedded)
