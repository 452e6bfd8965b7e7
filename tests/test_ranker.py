import dataclasses
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootrank import autodiff as ad
from rootrank import embedding, network, ranker
from rootrank.aggregation import GraphPlan, build_plan
from rootrank.autodiff import Tape, Tensor, constant
from rootrank.embedding import HashingEmbedder, embed_dataset, embed_graph
from rootrank.graphs import CommitGraph, Dataset, DepEdge, EdgeKind, LineNode, NodeKind
from rootrank.network import Mode, ModelConfig, init_network_params, named_tensors
from rootrank.ranker import (
    AdamState,
    TrainedModel,
    TrainingError,
    build_pairs,
    commit_loss,
    rank_commit,
    train,
    _pair_loss_from_scores,
)
from rootrank.synthetic import GenConfig, generate

from naive_reference import (
    composed_attention_layer,
    composed_gru,
    composed_pair_loss,
    naive_adam_step,
    naive_build_pairs,
    pair_label,
    random_graph,
)


def pair_loss(s_i, s_j, label, sigma=1.0):
    """Tape pair loss of one pair with scores (s_i, s_j) and label ``label``."""
    pairs = (ad.checked_index([0], 2), ad.checked_index([1], 2), np.array([label]))
    scores = constant(np.array([s_i, s_j]))
    return _pair_loss_from_scores(None, scores, pairs, ModelConfig(sigma=sigma)).item()


def pair_probability(s_i, s_j, sigma=1.0):
    """Probability that i outranks j, read back from the loss: P = exp(-loss at label 1)."""
    return math.exp(-pair_loss(s_i, s_j, 1.0, sigma))


def graph_with_deleted(flags, commit_id="g", extra_added=1):
    """One deleted node per flag (True = root cause), plus added nodes."""
    nodes = [
        LineNode(i, NodeKind.DELETED, text=f"del {i}", is_root_cause=flag)
        for i, flag in enumerate(flags)
    ]
    base = len(flags)
    for i in range(extra_added):
        nodes.append(LineNode(base + i, NodeKind.ADDED, text=f"add {i}"))
    edges = (DepEdge(0, base, EdgeKind.DATA_DEPENDENCY),) if extra_added else ()
    return CommitGraph(commit_id=commit_id, nodes=tuple(nodes), edges=edges)


class TestPairLabel:
    def test_root_vs_nonroot(self):
        g = graph_with_deleted([True, False])
        assert pair_label(g.nodes[0], g.nodes[1]) == 1.0

    def test_nonroot_vs_root(self):
        g = graph_with_deleted([True, False])
        assert pair_label(g.nodes[1], g.nodes[0]) == 0.0

    def test_both_root_is_tie(self):
        g = graph_with_deleted([True, True])
        assert pair_label(g.nodes[0], g.nodes[1]) == 0.5

    def test_neither_root_is_tie(self):
        g = graph_with_deleted([False, False, True])
        assert pair_label(g.nodes[0], g.nodes[1]) == 0.5

    def test_added_node_rejected(self):
        g = graph_with_deleted([True])
        with pytest.raises(ValueError, match="deleted"):
            pair_label(g.nodes[0], g.nodes[1])


def pair_triples(g, include_ties=False):
    """build_pairs as (node id i, node id j, label) tuples."""
    deleted = g.deleted_ids()
    pair_i, pair_j, labels = build_pairs(g, include_ties=include_ties)
    return [(deleted[a], deleted[b], float(y)) for a, b, y in zip(pair_i, pair_j, labels)]


class TestBuildPairs:
    def test_enumeration_without_ties(self):
        g = graph_with_deleted([True, False, False])
        assert pair_triples(g) == [(0, 1, 1.0), (0, 2, 1.0)]

    def test_tie_pairs_behind_flag(self):
        g = graph_with_deleted([True, False, False])
        assert pair_triples(g, include_ties=True) == [
            (0, 1, 1.0), (0, 2, 1.0), (1, 2, 0.5),
        ]

    def test_single_deleted_node_gives_nothing(self):
        g = graph_with_deleted([True])
        pair_i, pair_j, labels = build_pairs(g)
        assert len(pair_i) == len(pair_j) == len(labels) == 0

    @pytest.mark.parametrize("include_ties", [False, True])
    def test_matches_loop_oracle_in_order(self, include_ties):
        rng = np.random.default_rng(17)
        for trial in range(200):
            n = int(rng.integers(0, 13))
            nodes = []
            for i in range(n):
                kind = NodeKind.DELETED if rng.random() < 0.6 else NodeKind.ADDED
                root = kind is NodeKind.DELETED and rng.random() < 0.4
                nodes.append(LineNode(i, kind, text=f"l{i}", is_root_cause=root))
            g = CommitGraph(commit_id=f"c{trial}", nodes=tuple(nodes), edges=())
            expected = [(p.i, p.j, p.label) for p in naive_build_pairs(g, include_ties)]
            assert pair_triples(g, include_ties) == expected
            pair_i, pair_j, labels = build_pairs(g, include_ties)
            assert pair_i.dtype == pair_j.dtype == np.intp and labels.dtype == np.float64
            # checked where they are made, against the commit's deleted lines
            assert type(pair_i) is type(pair_j) is ad.CheckedIndex
            assert pair_i.bound == pair_j.bound == len(g.deleted_ids())


class TestPairProbability:
    def test_equal_scores_half(self):
        assert abs(pair_probability(3.7, 3.7) - 0.5) <= 1e-15

    def test_large_gap_approaches_one(self):
        assert pair_probability(60.0, 0.0) > 1.0 - 1e-12

    def test_ln3_gap_gives_three_quarters(self):
        assert abs(pair_probability(math.log(3.0), 0.0) - 0.75) < 1e-12

    def test_complement_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            s_i, s_j = rng.uniform(-20, 20, size=2)
            sigma = float(rng.uniform(0.1, 4.0))
            total = pair_probability(s_i, s_j, sigma) + pair_probability(s_j, s_i, sigma)
            assert abs(total - 1.0) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s_i, s_j, c = rng.uniform(-5, 5, size=3)
            assert abs(pair_probability(s_i, s_j) - pair_probability(s_i + c, s_j + c)) < 1e-12

    def test_sigma_must_be_positive(self):
        # the loss reads sigma from the model config, which rejects sigma <= 0
        with pytest.raises(ValueError, match="sigma"):
            ModelConfig(sigma=0.0)


class TestPairwiseLoss:
    def test_half_probability_costs_ln2(self):
        assert abs(pair_loss(0.0, 0.0, 1.0) - math.log(2.0)) < 1e-12

    def test_tie_at_half_costs_ln2(self):
        # -0.5*log(0.5) - 0.5*log(0.5) = ln 2, at any score gap
        assert abs(pair_loss(0.0, 0.0, 0.5) - math.log(2.0)) < 1e-12
        assert abs(pair_loss(2.0, -1.0, 0.5) - pair_loss(-1.0, 2.0, 0.5)) < 1e-12

    def test_confident_correct_costs_nothing(self):
        assert pair_loss(30.0, 0.0, 1.0) < 1e-9
        assert pair_loss(0.0, 30.0, 0.0) < 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            s_i, s_j = rng.uniform(-40, 40, size=2)
            p_bar = float(rng.choice([0.0, 0.5, 1.0]))
            assert pair_loss(s_i, s_j, p_bar) >= 0.0

    def test_extreme_probabilities_stay_finite(self):
        assert pair_loss(0.0, 1e3, 1.0) == 1e3
        assert pair_loss(1e3, 0.0, 0.0) == 1e3
        assert pair_loss(1e3, 0.0, 1.0) == 0.0


class TestPairLossSaturation:
    """Misranked pairs keep their full cost and a live gradient at any logit."""

    @pytest.mark.parametrize("logit", [30.0, -30.0, 1e3, -1e3])
    def test_value_is_exact(self, logit):
        # label 1 costs -log sigmoid(x) = log1p(exp(-x)), = -x + log1p(exp(x)) for x < 0
        expected = math.log1p(math.exp(-logit)) if logit > 0 else -logit + math.log1p(math.exp(logit))
        assert pair_loss(logit, 0.0, 1.0) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("logit", [30.0, -30.0, 1e3, -1e3])
    def test_gradient_check(self, logit):
        scores = Tensor(np.array([logit, 0.0]), requires_grad=True)
        pairs = (ad.checked_index([0, 1], 2), ad.checked_index([1, 0], 2), np.array([1.0, 0.5]))
        cfg = ModelConfig()

        def loss(tape, _params):
            return _pair_loss_from_scores(tape, scores, pairs, cfg)

        assert ad.grad_check(loss, [scores]) < 1e-7

    def test_misranked_pair_keeps_unit_slope(self):
        # d loss / d logit = -sigmoid(-x) -> -1 for a confidently wrong pair
        scores = Tensor(np.array([-30.0, 0.0]), requires_grad=True)
        pairs = (ad.checked_index([0], 2), ad.checked_index([1], 2), np.array([1.0]))
        tape = Tape()
        loss = _pair_loss_from_scores(tape, scores, pairs, ModelConfig())
        grads = ad.backward(tape, loss)
        assert loss.item() > 30.0
        assert grads[scores][0] == pytest.approx(-1.0, abs=1e-12)
        assert grads[scores][1] == pytest.approx(1.0, abs=1e-12)


class TestScore:
    """Scores through rank_commit; a zero projection map makes every task
    embedding relu(proj.b), so the scorer sees a chosen vector."""

    def _scores(self, proj_b, scorer_w):
        cfg = ModelConfig(dim=4, heads=2, layers=1, proj_dim=3)
        params = init_network_params(cfg, np.random.default_rng(0))
        params["proj.w"].data = np.zeros((4, 3))
        params["proj.b"].data = np.array(proj_b, dtype=float)
        params["scorer.w"].data = np.array(scorer_w, dtype=float)
        model = TrainedModel(params=params, cfg=cfg, training_log=[])
        eg = embed_graph(graph_with_deleted([True, False]), HashingEmbedder(4))
        return [s for _nid, s in rank_commit(model, eg)]

    def test_zero_scorer_scores_zero(self):
        assert self._scores([9.0, 2.0, 4.0], [0.0, 0.0, 0.0]) == [0.0, 0.0]

    def test_picks_single_dimension(self):
        assert self._scores([7.0, 5.0, 1.0], [1.0, 0.0, 0.0]) == [7.0, 7.0]

    def test_masked_dimensions_do_not_matter(self):
        a = self._scores([1.0, 99.0, 3.0], [1.0, 0.0, 2.0])
        b = self._scores([1.0, 55.0, 3.0], [1.0, 0.0, 2.0])
        assert a == b == [7.0, 7.0]


def tiny_dataset(n_graphs=4, deleted=3, seed=0):
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(n_graphs):
        root = int(rng.integers(0, deleted))
        flags = [j == root for j in range(deleted)]
        nodes = [
            LineNode(j, NodeKind.DELETED, text=f"delline {j} c{i}", is_root_cause=flags[j])
            for j in range(deleted)
        ]
        nodes.append(LineNode(deleted, NodeKind.ADDED, text=f"addline c{i}"))
        edges = [DepEdge(root, deleted, EdgeKind.LINE_MAPPING),
                 DepEdge(deleted, root, EdgeKind.DATA_DEPENDENCY)]
        graphs.append(CommitGraph(commit_id=f"c{i}", nodes=tuple(nodes), edges=tuple(edges)))
    return Dataset(graphs=tuple(graphs), name="tiny")


class TestTrain:
    def _embedded(self, **kwargs):
        return embed_dataset(tiny_dataset(**kwargs), HashingEmbedder(8))

    def _cfg(self, **overrides):
        base = dict(dim=8, heads=2, layers=1, proj_dim=4, epochs=2, lr=1e-4, seed=7)
        base.update(overrides)
        return ModelConfig(**base)

    def test_zero_epochs_leaves_initialization(self):
        embedded = self._embedded()
        cfg = self._cfg(epochs=0)
        model = train(embedded, cfg)
        fresh = init_network_params(cfg, np.random.default_rng(cfg.seed))
        for (name, a), (_n, b) in zip(named_tensors(model.params), named_tensors(fresh)):
            assert np.array_equal(a.data, b.data), name
        assert model.training_log == []

    def test_same_seed_bitwise_identical(self):
        cfg = self._cfg()
        m1 = train(self._embedded(), cfg)
        m2 = train(self._embedded(), self._cfg())
        for (name, a), (_n, b) in zip(named_tensors(m1.params), named_tensors(m2.params)):
            assert np.array_equal(a.data, b.data), name
        assert m1.training_log == m2.training_log

    def test_unlabeled_graph_rejected(self):
        ds = tiny_dataset()
        bad_nodes = tuple(
            LineNode(n.id, n.kind, text=n.text, is_root_cause=False) for n in ds.graphs[0].nodes
        )
        bad = CommitGraph(commit_id="bad", nodes=bad_nodes, edges=ds.graphs[0].edges)
        embedded = embed_dataset(Dataset(graphs=(bad,), name="x"), HashingEmbedder(8))
        with pytest.raises(ValueError, match="root-cause"):
            train(embedded, self._cfg())

    def test_dim_mismatch_rejected(self):
        embedded = embed_dataset(tiny_dataset(), HashingEmbedder(16))
        with pytest.raises(ValueError, match="dim"):
            train(embedded, self._cfg(dim=8))

    def test_forward_overflow_is_named_without_numpy_warnings(self, monkeypatch):
        cfg = self._cfg()
        params = init_network_params(cfg, np.random.default_rng(cfg.seed), random_scorer=True)
        params["proj.w"].data[...] = 1e200
        params["scorer.w"].data[...] = 1e200
        monkeypatch.setattr(ranker, "init_network_params", lambda _cfg: params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match=r"^non-finite loss at epoch 0, commit 'c\d': "
                                                    r"matmul produced non-finite values"):
                train(self._embedded(), cfg)

    @pytest.mark.parametrize("op", ["attend", "pair_loss"])
    def test_fused_op_overflow_is_named_without_numpy_warnings(self, monkeypatch, op):
        cfg = self._cfg(sigma=1e308) if op == "pair_loss" else self._cfg()
        params = init_network_params(cfg, np.random.default_rng(cfg.seed), random_scorer=True)
        if op == "attend":
            params["layer0.attn.mu"].data[...] = 1.5e308
            for name, t in params.items():   # the last layer has no added-line queries
                if name.startswith(("layer0.attn.w_k.", "layer0.attn.w_q.")):
                    t.data *= 1e3
        else:  # score gaps above 1.8 overflow sigma * gap
            params["scorer.w"].data *= 1e3
        monkeypatch.setattr(ranker, "init_network_params", lambda _cfg: params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match=rf"^non-finite loss at epoch 0, commit 'c\d': "
                                                    rf"{op} produced non-finite values in its "
                                                    r"\(\d+(,|, 2)\) logits$"):
                train(self._embedded(), cfg)

    @pytest.mark.parametrize("branch, quantity", [("k", r"\(\d+, 2\) logits"),
                                                  ("v", r"\(3, 8\) output")])
    def test_a_non_finite_projection_is_named_by_attend(self, monkeypatch, branch, quantity):
        # the layer's projections are not checked on their own: a non-finite key reaches the
        # logits check, a non-finite value the output check
        cfg = self._cfg()
        params = init_network_params(cfg, np.random.default_rng(cfg.seed), random_scorer=True)
        for kind in NodeKind:
            params[f"layer0.attn.b_{branch}.{kind.value}"].data[...] = np.inf
        monkeypatch.setattr(ranker, "init_network_params", lambda _cfg: params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match=rf"^non-finite loss at epoch 0, commit 'c\d': "
                                                    rf"attend produced non-finite values in its "
                                                    rf"{quantity}$"):
                train(self._embedded(), cfg)

    def test_one_step_decreases_loss_on_same_commit(self):
        embedded = self._embedded(n_graphs=1)
        cfg = self._cfg(epochs=0, lr=1e-6)
        params = init_network_params(cfg, np.random.default_rng(1), random_scorer=True)
        eg = embedded[0]
        pairs = build_pairs(eg.graph, cfg.include_tie_pairs)

        tape = Tape()
        loss_before = commit_loss(tape, eg, pairs, params, cfg)
        grads = ad.backward(tape, loss_before)
        named = named_tensors(params)
        tensors = [t for _n, t in named]
        AdamState(named).step(tensors, [grads[t] for t in tensors], cfg.lr)
        loss_after = commit_loss(None, eg, pairs, params, cfg)
        assert loss_after.item() < loss_before.item()

    @pytest.mark.parametrize("step_per_pair", [False, True])
    def test_matches_stepping_each_commit_or_each_pair_by_hand(self, step_per_pair):
        embedded = self._embedded(n_graphs=3)
        cfg = self._cfg(lr=1e-3, include_tie_pairs=True, step_per_pair=step_per_pair)
        model = train(embedded, cfg)

        params = init_network_params(cfg, np.random.default_rng(cfg.seed))
        named = named_tensors(params)
        tensors = [t for _n, t in named]
        adam = AdamState(named)
        rng = np.random.default_rng(cfg.seed)
        log = []
        for _epoch in range(cfg.epochs):
            losses = []
            for idx in rng.permutation(len(embedded)):
                eg = embedded[idx]
                pair_i, pair_j, labels = build_pairs(eg.graph, cfg.include_tie_pairs)
                if step_per_pair:
                    total = 0.0
                    for row in range(len(labels)):
                        tape = Tape()
                        one = (ad.checked_index(pair_i[row:row + 1], pair_i.bound),
                               ad.checked_index(pair_j[row:row + 1], pair_j.bound),
                               labels[row:row + 1])
                        loss = commit_loss(tape, eg, one, params, cfg)
                        grads = ad.backward(tape, loss)
                        adam.step(tensors, [grads[t] for t in tensors], cfg.lr)
                        total += loss.item()
                    losses.append(total)
                else:
                    tape = Tape()
                    loss = commit_loss(tape, eg, (pair_i, pair_j, labels), params, cfg)
                    grads = ad.backward(tape, loss)
                    adam.step(tensors, [grads[t] for t in tensors], cfg.lr)
                    losses.append(loss.item())
            log.append(float(np.mean(losses)))

        assert model.training_log == log
        for (name, a), (_name, b) in zip(named_tensors(model.params), named_tensors(params)):
            assert np.array_equal(a.data, b.data), name
        # every trained parameter is a view of one flat buffer, in named order
        buffers = {id(t.data.base) for _n, t in named_tensors(model.params)}
        assert len(buffers) == 1
        flat = named_tensors(model.params)[0][1].data.base
        assert flat.ndim == 1 and flat.size == sum(t.data.size for t in tensors)
        assert np.array_equal(flat, np.concatenate([t.data.reshape(-1) for t in tensors]))

    def test_training_log_finite(self):
        model = train(self._embedded(), self._cfg(epochs=3))
        assert len(model.training_log) == 3
        assert all(math.isfinite(x) for x in model.training_log)

    def test_step_per_pair_mode_runs(self):
        model = train(self._embedded(n_graphs=2), self._cfg(epochs=1, step_per_pair=True))
        assert len(model.training_log) == 1

    def test_each_steps_pairs_are_checked_once_not_every_epoch(self, monkeypatch):
        embedded = self._embedded(n_graphs=3)
        n_pairs = sum(len(build_pairs(eg.graph)[2]) for eg in embedded)
        for eg in embedded:
            eg.plan   # built, and its indices checked, before counting
        calls = []
        checked_index = ad.checked_index
        monkeypatch.setattr(ad, "checked_index",
                            lambda *args: calls.append(args) or checked_index(*args))
        counts = []
        for epochs in (1, 3):
            calls.clear()
            train(embedded, self._cfg(epochs=epochs, step_per_pair=True))
            counts.append(len(calls))
        # two per commit in build_pairs, then two per pair for its one-pair step
        assert counts == [2 * len(embedded) + 2 * n_pairs] * 2


class TestTapeSize:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 8), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from([k for k in EdgeKind if k is not EdgeKind.LINE_MAPPING]))
    def test_tape_length_does_not_grow_with_edge_kinds(self, n, seed, kind):
        # the same nodes and edge endpoints, once with one edge kind and once with all five;
        # the last endpoints run deleted -> added, where the line_mapping edge must run
        rng = np.random.default_rng(seed)
        pairs = [(s, d) for s in range(n) for d in range(n) if s != d and (s, d) != (0, 2)]
        chosen = [pairs[i] for i in rng.choice(len(pairs), size=len(EdgeKind) - 1,
                                               replace=False)] + [(0, 2)]
        nodes = (LineNode(0, NodeKind.DELETED, text="a", is_root_cause=True),
                 LineNode(1, NodeKind.DELETED, text="b"),
                 LineNode(2, NodeKind.ADDED, text="c"),
                 *(LineNode(i, NodeKind.DELETED if rng.random() < 0.5 else NodeKind.ADDED,
                            text=str(i)) for i in range(3, n)))
        cfg = ModelConfig(dim=4, heads=2, layers=2, proj_dim=2)
        params = init_network_params(cfg, np.random.default_rng(0))
        lengths = []
        for kinds in ([kind] * len(EdgeKind), list(EdgeKind)):
            edges = tuple(DepEdge(s, d, k) for (s, d), k in zip(chosen, kinds))
            g = CommitGraph(commit_id="tape", nodes=nodes, edges=edges)
            tape = Tape()
            commit_loss(tape, embed_graph(g, HashingEmbedder(4)), build_pairs(g), params, cfg)
            lengths.append(len(tape))
        assert lengths[0] == lengths[1]


    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_full_two_layer_commit_records_11_ops(self, seed):
        # per layer one attend and one gru, and the last layer's gather of the deleted rows it
        # updates; then norm, projection (3), scorer and pair_loss.  A last layer without an
        # edge into a deleted line records only its gather and gru.
        rng = np.random.default_rng(seed)
        g = random_graph(rng, max_nodes=8)
        while not build_plan(g).scored.edge_rows:
            g = random_graph(rng, max_nodes=8)
        cfg = ModelConfig(dim=4, heads=2, layers=2, proj_dim=2, mode=Mode.FULL)
        params = init_network_params(cfg, np.random.default_rng(0))
        tape = Tape()
        commit_loss(tape, embed_graph(g, HashingEmbedder(4)), build_pairs(g), params, cfg)
        assert len(tape) == 11

    def test_default_model_records_11_ops_per_commit(self):
        # the count README gives: ModelConfig() defaults, full mode, on a synthetic commit
        # whose deleted lines have incoming edges
        g = generate(GenConfig(n_commits=1, seed=101)).graphs[0]
        assert build_plan(g).scored.edge_rows
        cfg = ModelConfig()
        assert (cfg.mode, cfg.layers) == (Mode.FULL, 2)
        tape = Tape()
        commit_loss(tape, embed_graph(g, HashingEmbedder(cfg.dim)), build_pairs(g),
                    init_network_params(cfg, np.random.default_rng(0)), cfg)
        assert len(tape) == 11


class TestFusedGate:
    """The fused ``gru`` op in place of the 23-op chain, through the whole loss."""

    def _commit(self):
        g = generate(GenConfig(n_commits=1, seed=3)).graphs[0]
        return embed_graph(g, HashingEmbedder(8))

    def test_two_layer_commit_records_44_fewer_tape_ops(self, monkeypatch):
        cfg = ModelConfig(dim=8, heads=2, layers=2, proj_dim=4)
        params = init_network_params(cfg, np.random.default_rng(0))
        eg = self._commit()
        pairs = build_pairs(eg.graph)
        lengths = []
        for cell in (network.gru_cell, composed_gru):
            monkeypatch.setattr(network, "gru_cell", cell)
            tape = Tape()
            commit_loss(tape, eg, pairs, params, cfg)
            lengths.append(len(tape))
        assert lengths[1] - lengths[0] == 2 * 22
        assert lengths == [11, 11 + 2 * 22]

    @pytest.mark.parametrize("mode", [Mode.FULL, Mode.RETENTION_ONLY])
    def test_training_matches_the_composed_chain(self, monkeypatch, mode):
        embedded = embed_dataset(generate(GenConfig(n_commits=4, seed=5)), HashingEmbedder(8))
        cfg = ModelConfig(dim=8, heads=2, layers=2, proj_dim=4, epochs=2, lr=1e-3, mode=mode)
        fused = train(embedded, cfg)
        monkeypatch.setattr(network, "gru_cell", composed_gru)
        composed = train(embedded, cfg)
        pairs = zip(named_tensors(fused.params), named_tensors(composed.params))
        if mode is Mode.RETENTION_ONLY:  # x is h: its two gradient parts add in another order
            np.testing.assert_allclose(fused.training_log, composed.training_log, rtol=1e-12)
            for (name, a), (_n, b) in pairs:
                np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-12, err_msg=name)
        else:
            assert fused.training_log == composed.training_log
            for (name, a), (_n, b) in pairs:
                assert np.array_equal(a.data, b.data), name


class TestFusedAttention:
    """The fused ``attend`` layer in place of the nine-op chain, through training: with three
    layers the middle layer's input also feeds its gate, so it gets gradients from both."""

    @pytest.mark.parametrize("layers, heads, mode", [(2, 2, Mode.FULL), (3, 1, Mode.FULL),
                                                      (3, 8, Mode.AGGREGATION_ONLY)])
    def test_training_with_the_composed_layer_is_bit_identical(self, monkeypatch, layers, heads,
                                                               mode):
        embedded = embed_dataset(generate(GenConfig(n_commits=4, seed=5)), HashingEmbedder(8))
        cfg = ModelConfig(dim=8, heads=heads, layers=layers, proj_dim=4, epochs=2, lr=1e-3,
                          mode=mode)
        fused = train(embedded, cfg)
        monkeypatch.setattr(network, "attention_forward", composed_attention_layer)
        composed = train(embedded, cfg)
        assert fused.training_log == composed.training_log
        for (name, a), (_n, b) in zip(named_tensors(fused.params), named_tensors(composed.params)):
            assert np.array_equal(a.data, b.data), name


def composed_pair_loss_from_scores(tape, scores, pairs, cfg):
    """``ranker._pair_loss_from_scores`` through the twelve-op chain."""
    return composed_pair_loss(tape, scores, *pairs, cfg.sigma)


class TestFusedLoss:
    """The fused ``pair_loss`` op in place of the twelve-op chain, through training."""

    @pytest.mark.parametrize("step_per_pair", [False, True])
    def test_training_with_the_composed_loss_is_bit_identical(self, monkeypatch, step_per_pair):
        embedded = embed_dataset(generate(GenConfig(n_commits=4, seed=5)), HashingEmbedder(8))
        cfg = ModelConfig(dim=8, heads=2, layers=2, proj_dim=4, epochs=2, lr=1e-3, sigma=1.5,
                          include_tie_pairs=True, step_per_pair=step_per_pair)
        fused = train(embedded, cfg)
        monkeypatch.setattr(ranker, "_pair_loss_from_scores", composed_pair_loss_from_scores)
        composed = train(embedded, cfg)
        assert fused.training_log == composed.training_log
        for (name, a), (_n, b) in zip(named_tensors(fused.params), named_tensors(composed.params)):
            assert np.array_equal(a.data, b.data), name


class TestPlanCache:
    def _model(self):
        cfg = ModelConfig(dim=8, heads=2, layers=1, proj_dim=4, epochs=2, lr=1e-3)
        params = init_network_params(cfg, np.random.default_rng(0), random_scorer=True)
        return TrainedModel(params=params, cfg=cfg, training_log=[])

    def _count_builds(self, monkeypatch):
        calls = []
        real = embedding.build_plan

        def build_plan(g):
            calls.append(g.commit_id)
            return real(g)

        monkeypatch.setattr(embedding, "build_plan", build_plan)
        return calls

    def test_built_once_across_ranking_and_training(self, monkeypatch):
        calls = self._count_builds(monkeypatch)
        embedded = embed_dataset(tiny_dataset(n_graphs=3), HashingEmbedder(8))
        assert calls == [] and all("plan" not in vars(eg) for eg in embedded)  # lazy
        model = self._model()
        first = [rank_commit(model, eg) for eg in embedded]
        second = [rank_commit(model, eg) for eg in embedded]
        trained = train(embedded, model.cfg)
        assert calls == [eg.graph.commit_id for eg in embedded]
        fresh = embed_dataset(tiny_dataset(n_graphs=3), HashingEmbedder(8))
        assert first == second == [rank_commit(model, eg) for eg in fresh]
        assert trained.training_log == train(fresh, model.cfg).training_log

    def test_cached_plan_survives_pickling(self, monkeypatch):
        eg = embed_dataset(tiny_dataset(n_graphs=1), HashingEmbedder(8))[0]
        plan = eg.plan
        copy = pickle.loads(pickle.dumps(eg))
        calls = self._count_builds(monkeypatch)
        restored = copy.plan
        assert calls == [] and restored is not plan
        pending = [(plan, restored)]    # the plan, then its scored block
        while pending:
            want_of, got_of = pending.pop()
            for field in dataclasses.fields(want_of):
                want, got = getattr(want_of, field.name), getattr(got_of, field.name)
                if dataclasses.is_dataclass(want):
                    pending.append((want, got))
                elif isinstance(want, dict):
                    assert list(got) == list(want)
                    assert all(np.array_equal(got[k], want[k]) for k in want)
                else:
                    assert np.array_equal(got, want)
        model = self._model()
        assert rank_commit(model, copy) == rank_commit(model, eg)


class TestRankCommit:
    def _model(self, cfg=None):
        cfg = cfg or ModelConfig(dim=8, heads=2, layers=1, proj_dim=4, epochs=0)
        params = init_network_params(cfg, np.random.default_rng(0), random_scorer=True)
        return TrainedModel(params=params, cfg=cfg, training_log=[])

    def test_descending_scores_with_id_tiebreak(self):
        model = self._model()
        eg = embed_graph(tiny_dataset(n_graphs=1).graphs[0], HashingEmbedder(8))
        ranked = rank_commit(model, eg)
        scores = [s for _nid, s in ranked]
        assert scores == sorted(scores, reverse=True)
        for (id_a, s_a), (id_b, s_b) in zip(ranked, ranked[1:]):
            if s_a == s_b:
                assert id_a < id_b

    def test_permutation_of_deleted_set(self):
        model = self._model()
        g = tiny_dataset(n_graphs=1, deleted=5).graphs[0]
        eg = embed_graph(g, HashingEmbedder(8))
        ranked = rank_commit(model, eg)
        assert sorted(nid for nid, _s in ranked) == g.deleted_ids()
        # plain ints, which json can write (the plan holds numpy ints)
        assert all(type(nid) is int for nid, _s in ranked)

    def test_all_equal_scores_fall_back_to_id_order(self):
        model = self._model()
        model.params["scorer.w"].data = np.zeros(4)
        g = tiny_dataset(n_graphs=1, deleted=4).graphs[0]
        eg = embed_graph(g, HashingEmbedder(8))
        ranked = rank_commit(model, eg)
        assert [nid for nid, _s in ranked] == g.deleted_ids()

    def test_no_deleted_lines_raises(self):
        model = self._model()
        g = CommitGraph(
            commit_id="adds-only",
            nodes=(LineNode(0, NodeKind.ADDED, text="a"),),
            edges=(),
        )
        eg = embed_graph(g, HashingEmbedder(8))
        with pytest.raises(ValueError, match="deleted"):
            rank_commit(model, eg)

    def test_forward_overflow_names_the_commit(self):
        model = self._model()
        model.params["proj.w"].data[...] = 1e200
        model.params["scorer.w"].data[...] = 1e200
        eg = embed_graph(tiny_dataset(n_graphs=1).graphs[0], HashingEmbedder(8))
        with np.errstate(over="ignore"), pytest.raises(ValueError) as exc:
            rank_commit(model, eg)
        assert not isinstance(exc.value, FloatingPointError)
        assert re.fullmatch(rf"commit {re.escape(repr(eg.graph.commit_id))}: matmul produced "
                            r"non-finite values in its \(\d+,\) output", str(exc.value))

    def test_deleted_ids_come_from_the_plan(self, monkeypatch):
        # the node ids of the plan's deleted-kind rows, its first, are the graph's deleted ids
        model = self._model()
        rng = np.random.default_rng(12)
        graphs = [random_graph(rng, max_nodes=8) for _ in range(20)]
        embedded = [embed_graph(g, HashingEmbedder(8)) for g in graphs]
        expected = [rank_commit(model, eg) for eg in embedded]
        for g, eg in zip(graphs, embedded):
            assert eg.plan.node_ids[eg.plan.node_rows[NodeKind.DELETED]].tolist() == g.deleted_ids()

        def unused(_self):
            raise AssertionError("rank_commit read CommitGraph.deleted_ids")

        monkeypatch.setattr(CommitGraph, "deleted_ids", unused)
        assert [rank_commit(model, eg) for eg in embedded] == expected

    def test_train_checks_each_commits_pairs_once(self, monkeypatch):
        calls = []
        real = ad.checked_index

        def counted(index, bound):
            calls.append(bound)
            return real(index, bound)

        monkeypatch.setattr(ad, "checked_index", counted)
        embedded = embed_dataset(tiny_dataset(n_graphs=3, deleted=4), HashingEmbedder(8))
        for eg in embedded:
            assert eg.plan.n
        calls.clear()
        train(embedded, ModelConfig(dim=8, heads=2, layers=1, proj_dim=4, epochs=3))
        assert calls == [4] * 2 * len(embedded)     # pair_i and pair_j of each commit

    def test_single_deleted_node(self):
        model = self._model()
        g = CommitGraph(
            commit_id="one",
            nodes=(
                LineNode(0, NodeKind.DELETED, text="x", is_root_cause=True),
                LineNode(1, NodeKind.ADDED, text="y"),
            ),
            edges=(DepEdge(0, 1, EdgeKind.LINE_MAPPING),),
        )
        ranked = rank_commit(model, embed_graph(g, HashingEmbedder(8)))
        assert len(ranked) == 1 and ranked[0][0] == 0


class TestAdam:
    def test_moment_shapes_track_parameters(self):
        cfg = ModelConfig(dim=4, heads=2, layers=1, proj_dim=2)
        params = init_network_params(cfg, np.random.default_rng(0))
        named = named_tensors(params)
        shapes = [t.data.shape for _n, t in named]
        before = [t.data.copy() for _n, t in named]
        adam = AdamState(named)
        total = sum(t.data.size for _n, t in named)
        assert adam.m.shape == adam.v.shape == adam.params.shape == (total,)
        lo = 0
        for (name, t), shape, old in zip(named, shapes, before):
            assert t.data.shape == shape and t.data.base is adam.params, name
            assert np.array_equal(t.data, old), name
            assert np.shares_memory(t.data, adam.params[lo:lo + t.data.size]), name
            lo += t.data.size

    def test_zero_gradient_means_no_update(self):
        cfg = ModelConfig(dim=4, heads=2, layers=1, proj_dim=2)
        params = init_network_params(cfg, np.random.default_rng(0))
        named = named_tensors(params)
        tensors = [t for _n, t in named]
        before = [t.data.copy() for t in tensors]
        adam = AdamState(named)
        adam.step(tensors, [np.zeros_like(t.data) for t in tensors], lr=1e-3)
        for t, b in zip(tensors, before):
            assert np.array_equal(t.data, b)

    def test_overflowing_step_is_named_and_leaves_parameters_finite(self, monkeypatch):
        embedded = embed_dataset(generate(GenConfig(n_commits=40, seed=7)), HashingEmbedder(16))
        cfg = ModelConfig(dim=16, heads=2, layers=2, lr=1e300, epochs=1)
        params = init_network_params(cfg)
        scored, failed = [], []
        real_loss, real_step = ranker.commit_loss, AdamState.step

        def loss(tape, eg, pairs, params, cfg):
            scored.append(eg.graph.commit_id)
            return real_loss(tape, eg, pairs, params, cfg)

        def step(self, tensors, grads, lr):
            try:
                real_step(self, tensors, grads, lr)
            except FloatingPointError:
                failed.append(scored[-1])
                raise

        monkeypatch.setattr(ranker, "commit_loss", loss)
        monkeypatch.setattr(AdamState, "step", step)
        monkeypatch.setattr(ranker, "init_network_params", lambda _cfg: params)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingError, match="^non-finite loss at epoch 0") as info:
                train(embedded, cfg)
        assert len(failed) == 1
        assert f"commit {failed[0]!r}: adam_step produced non-finite values" in str(info.value)
        assert all(np.isfinite(t.data).all() for _n, t in named_tensors(params))
        shapes = {name: t.data.shape for name, t in named_tensors(params)}
        name = str(info.value).rsplit(": ", 1)[1]
        assert str(info.value).endswith(f"values in its {shapes[name]} output: {name}")

    def test_step_moves_against_gradient(self):
        cfg = ModelConfig(dim=4, heads=2, layers=1, proj_dim=2)
        params = init_network_params(cfg, np.random.default_rng(0))
        named = named_tensors(params)
        tensors = [t for _n, t in named]
        grads = [np.ones_like(t.data) for t in tensors]
        before = [t.data.copy() for t in tensors]
        AdamState(named).step(tensors, grads, lr=1e-3)
        for t, b in zip(tensors, before):
            assert np.all(t.data <= b)

    def test_flat_step_is_bit_identical_to_per_tensor_loop(self):
        cfg = ModelConfig(dim=8, heads=2, layers=2, proj_dim=4)
        params = init_network_params(cfg, np.random.default_rng(3), random_scorer=True)
        named = named_tensors(params)
        tensors = [t for _n, t in named]
        ref = [t.data.copy() for t in tensors]
        ref_m = [np.zeros_like(p) for p in ref]
        ref_v = [np.zeros_like(p) for p in ref]
        adam = AdamState(named)
        rng = np.random.default_rng(4)
        for step in range(1, 6):
            # every third tensor gets an all-zero gradient, and the scale varies widely
            grads = [np.zeros_like(p) if i % 3 == step % 3
                     else rng.normal(scale=10.0 ** rng.integers(-8, 4), size=p.shape)
                     for i, p in enumerate(ref)]
            adam.step(tensors, grads, lr=1e-2)
            ref = naive_adam_step(ref, grads, ref_m, ref_v, step, lr=1e-2)
            for (name, t), want in zip(named, ref):
                assert t.data.tobytes() == want.tobytes(), (step, name)
        assert adam.m.tobytes() == np.concatenate([m.reshape(-1) for m in ref_m]).tobytes()
        assert adam.v.tobytes() == np.concatenate([v.reshape(-1) for v in ref_v]).tobytes()

    def test_overflow_names_the_parameter_and_writes_nothing(self):
        cfg = ModelConfig(dim=4, heads=2, layers=1, proj_dim=2)
        params = init_network_params(cfg, np.random.default_rng(0))
        named = named_tensors(params)
        tensors = [t for _n, t in named]
        adam = AdamState(named)
        before = adam.params.copy()
        grads = [np.zeros_like(t.data) for t in tensors]
        hit = [name for name, _t in named].index("layer0.gru.w_hn")
        grads[hit] = np.full(tensors[hit].data.shape, 1e300)
        with pytest.raises(FloatingPointError,
                           match=r"^adam_step produced non-finite values in its \(4, 4\) "
                                 r"output: layer0\.gru\.w_hn$"):
            adam.step(tensors, grads, lr=1e300)
        assert adam.params.tobytes() == before.tobytes()

    def test_step_rejects_tensors_detached_from_the_buffer(self):
        cfg = ModelConfig(dim=4, heads=2, layers=1, proj_dim=2)
        params = init_network_params(cfg, np.random.default_rng(0))
        named = named_tensors(params)
        tensors = [t for _n, t in named]
        adam = AdamState(named)
        tensors[0].data = tensors[0].data.copy()
        with pytest.raises(ValueError, match="views"):
            adam.step(tensors, [np.zeros_like(t.data) for t in tensors], lr=1e-3)
