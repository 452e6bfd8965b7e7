import dataclasses
import itertools
import json
import math
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rootrank import autodiff as ad
from rootrank import network as network_module
from rootrank.aggregation import MU_SIZE, attention_forward, build_plan
from rootrank.autodiff import constant
from rootrank.embedding import EmbeddedGraph, HashingEmbedder, embed_dataset
from rootrank.graphs import CommitGraph, DepEdge, EdgeKind, LineNode, NodeKind, load_dataset
from rootrank.network import (
    CheckpointError,
    ConfigError,
    Mode,
    ModelConfig,
    gru_cell,
    init_network_params,
    load_checkpoint,
    named_tensors,
    param_shapes,
    network_forward,
    save_checkpoint,
    task_projection,
)
from rootrank.ranker import TrainedModel, build_pairs, commit_loss, rank_commit, train
from rootrank.synthetic import GenConfig, generate

from naive_reference import (
    decode_data,
    encode_data,
    gru_tensors,
    layer_params,
    naive_checkpoint_text,
    naive_gru,
    naive_head,
    naive_network_forward,
    random_graph,
    unread_tensor_shapes,
    with_unread_tensors,
)


def forward(h0, g, params, cfg):
    """``network_forward`` on ``g`` with ``h0`` in node id order, permuted into plan row order as
    ``EmbeddedGraph.h0_tensor`` does; the deleted lines' rows, in node id order."""
    plan = build_plan(g)
    return network_forward(None, constant(h0[plan.node_ids]), plan, params, cfg).data


def zero_gru(dim):
    p = layer_params(dim, 1, np.random.default_rng(0))
    for t in gru_tensors(p, 0).values():
        t.data = np.zeros_like(t.data)
    return p


class TestGruCell:
    def test_saturated_update_gate_preserves_history(self):
        dim = 6
        p = zero_gru(dim)
        p["layer0.gru.b_iz"].data = np.full(dim, 30.0)
        rng = np.random.default_rng(1)
        h_tilde = constant(rng.normal(size=(3, dim)))
        h_prev = constant(rng.normal(size=(3, dim)))
        out = gru_cell(None, h_tilde, h_prev, p, 0)
        np.testing.assert_allclose(out.data, h_prev.data, atol=1e-9)

    def test_closed_gates_give_zero(self):
        dim = 4
        p = zero_gru(dim)
        p["layer0.gru.b_iz"].data = np.full(dim, -30.0)  # z -> 0
        p["layer0.gru.b_ir"].data = np.full(dim, -30.0)  # r -> 0
        rng = np.random.default_rng(2)
        out = gru_cell(None, constant(rng.normal(size=(2, dim))),
                       constant(rng.normal(size=(2, dim))), p, 0)
        np.testing.assert_allclose(out.data, np.zeros((2, dim)), atol=1e-12)

    def test_all_zero_params_halve_history(self):
        # r = z = sigmoid(0) = 0.5, n = tanh(0) = 0, out = 0.5 * h_prev
        dim = 5
        p = zero_gru(dim)
        rng = np.random.default_rng(3)
        h_tilde = constant(rng.normal(size=(4, dim)))
        h_prev = constant(rng.normal(size=(4, dim)))
        out = gru_cell(None, h_tilde, h_prev, p, 0)
        np.testing.assert_allclose(out.data, 0.5 * h_prev.data, atol=1e-15)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            p = layer_params(dim, 1, rng)
            h_tilde = rng.normal(size=(3, dim))
            h_prev = rng.normal(size=(3, dim))
            fast = gru_cell(None, constant(h_tilde), constant(h_prev), p, 0).data
            np.testing.assert_allclose(fast, naive_gru(h_tilde, h_prev, p, 0), atol=1e-12)

    def test_bounded_when_history_bounded(self):
        rng = np.random.default_rng(5)
        p = layer_params(6, 1, rng)
        h_tilde = constant(rng.normal(size=(5, 6)) * 3)
        h_prev = constant(rng.uniform(-1, 1, size=(5, 6)))
        out = gru_cell(None, h_tilde, h_prev, p, 0).data
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_shape_mismatch_raises(self):
        p = layer_params(4, 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="shapes differ"):
            gru_cell(None, constant(np.zeros((2, 4))), constant(np.zeros((3, 4))), p, 0)


class TestTaskProjection:
    def _params(self, dim, out_dim):
        cfg = ModelConfig(dim=dim, heads=1, layers=1, proj_dim=out_dim)
        return init_network_params(cfg, np.random.default_rng(0))

    def test_relu_clips_identity_projection(self):
        params = self._params(2, 2)
        params["proj.w"].data = np.eye(2)
        params["proj.b"].data = np.zeros(2)
        out = task_projection(None, constant(np.array([[-1.0, 2.0]])), params)
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])

    def test_pure_bias(self):
        params = self._params(3, 1)
        params["proj.w"].data = np.zeros((3, 1))
        params["proj.b"].data = np.array([5.0])
        out = task_projection(None, constant(np.ones((4, 3))), params)
        np.testing.assert_array_equal(out.data, np.full((4, 1), 5.0))

    def test_negative_bias_clipped(self):
        params = self._params(3, 1)
        params["proj.w"].data = np.zeros((3, 1))
        params["proj.b"].data = np.array([-3.0])
        out = task_projection(None, constant(np.zeros((2, 3))), params)
        np.testing.assert_array_equal(out.data, np.zeros((2, 1)))

    def test_output_nonnegative(self):
        rng = np.random.default_rng(8)
        params = self._params(6, 4)
        out = task_projection(None, constant(rng.normal(size=(5, 6))), params)
        assert np.all(out.data >= 0.0)


class TestNetworkForward:
    def test_isolated_node_full_mode_composition(self):
        g = CommitGraph(
            commit_id="solo",
            nodes=(LineNode(0, NodeKind.DELETED, text="x", is_root_cause=True),),
            edges=(),
        )
        cfg = ModelConfig(dim=4, heads=2, layers=1, proj_dim=3)
        params = init_network_params(cfg, np.random.default_rng(0), random_scorer=True)
        plan = build_plan(g)
        h0 = np.random.default_rng(1).normal(size=(1, 4))

        out = network_forward(None, constant(h0), plan, params, cfg).data

        expected = naive_head(naive_gru(np.zeros((1, 4)), h0, params, 0), params)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_modes_match_naive_oracle_on_random_graphs(self):
        rng = np.random.default_rng(21)
        for mode in Mode:
            for _ in range(10):
                g = random_graph(rng)
                cfg = ModelConfig(dim=8, heads=2, layers=2, proj_dim=5, mode=mode)
                params = init_network_params(cfg, rng, random_scorer=True)
                h0 = rng.normal(size=(len(g.nodes), 8))
                fast = forward(h0, g, params, cfg)
                slow = naive_network_forward(h0, g, params, cfg)
                np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_full_vs_retention_only_differ_only_on_edgeless_input_port(self):
        g = CommitGraph(
            commit_id="noedges",
            nodes=(
                LineNode(0, NodeKind.DELETED, text="x", is_root_cause=True),
                LineNode(1, NodeKind.DELETED, text="y"),
            ),
            edges=(),
        )
        cfg = ModelConfig(dim=4, heads=2, layers=1, proj_dim=4)
        params = init_network_params(cfg, np.random.default_rng(3), random_scorer=True)
        plan = build_plan(g)
        h0 = np.random.default_rng(4).normal(size=(2, 4))

        full = network_forward(None, constant(h0), plan, params, cfg).data
        retention = network_forward(None, constant(h0), plan, params,
                                    dataclasses.replace(cfg, mode=Mode.RETENTION_ONLY)).data

        exp_full = naive_gru(np.zeros((2, 4)), h0, params, 0)
        exp_ret = naive_gru(h0, h0, params, 0)
        for out, hidden in ((full, exp_full), (retention, exp_ret)):
            np.testing.assert_allclose(out, naive_head(hidden, params), atol=1e-12)

    def test_saturated_update_gate_makes_depth_inert(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng)
        cfg = ModelConfig(dim=8, heads=2, layers=3, proj_dim=4)
        params = init_network_params(cfg, rng, random_scorer=True)
        for layer in range(cfg.layers):
            gru = gru_tensors(params, layer)
            for name in ("w_iz", "w_hz"):
                gru[name].data = np.zeros((8, 8))
            gru["b_iz"].data = np.full(8, 30.0)
            gru["b_hz"].data = np.zeros(8)
        h0 = rng.normal(size=(len(g.nodes), 8))
        out = forward(h0, g, params, cfg)
        np.testing.assert_allclose(out, naive_head(h0, params)[g.deleted_ids()], atol=1e-9)

    def test_aggregation_only_single_layer_equals_attention_plus_head(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng)
        while not g.edges:
            g = random_graph(rng)
        cfg = ModelConfig(dim=8, heads=2, layers=1, proj_dim=6, mode=Mode.AGGREGATION_ONLY)
        params = init_network_params(cfg, rng, random_scorer=True)
        plan = build_plan(g)
        h0 = constant(rng.normal(size=(len(g.nodes), 8)))

        out = network_forward(None, h0, plan, params, cfg).data

        targets = ad.take_rows(None, h0, slice(0, plan.scored.n))
        h_tilde = attention_forward(None, h0, plan, params, 0, 2, targets)
        normed = ad.layer_norm(None, h_tilde, params["final_norm.gain"], params["final_norm.bias"])
        expected = task_projection(None, normed, params).data
        np.testing.assert_allclose(out, expected, atol=1e-12)


def _commit(kinds, edges):
    """A commit of ``kinds`` lines whose first deleted line is the root cause."""
    root = kinds.index(NodeKind.DELETED)
    return CommitGraph(commit_id="case",
                       nodes=tuple(LineNode(i, kind, text=f"l{i}", is_root_cause=i == root)
                                   for i, kind in enumerate(kinds)),
                       edges=tuple(DepEdge(s, d, kind) for s, d, kind in edges))


D, A = NodeKind.DELETED, NodeKind.ADDED
CF, DD, CALL, CMR, LM = EdgeKind

# The edge cases of updating only the deleted lines in the last layer.
SCORED_CASES = {
    # deleted and added lines interleaved in node id order, so no kind's rows are one run
    "interleaved": _commit([D, A, D, A, A, D, D, A],
                           [(0, 1, LM), (1, 0, DD), (3, 2, CF), (4, 2, CALL), (2, 4, LM),
                            (6, 5, CMR), (5, 6, DD), (7, 5, CALL), (1, 6, CF), (6, 7, LM),
                            (4, 3, DD), (0, 5, CF), (3, 0, CMR)]),
    # edges, but none into a deleted line: the last layer's block is empty
    "no-edge-into-a-deleted-line": _commit([D, D, A, A, D],
                                           [(0, 2, LM), (1, 3, CF), (2, 3, DD), (3, 2, CALL),
                                            (4, 2, CMR)]),
    # one deleted line, so every product over the scored rows has one row
    "one-deleted-line": _commit([A, D, A, A],
                                [(0, 1, DD), (2, 1, CF), (1, 3, LM), (3, 0, CALL), (2, 0, CMR)]),
}


def _ranked(embeddings, params, ids):
    """``ids`` ordered by the scores of ``embeddings``, highest first, ties by id."""
    scores = embeddings @ params["scorer.w"].data
    return [node for _score, node in sorted(zip(-scores, ids))]


class TestScoredRows:
    """The forward computes the deleted lines' rows alone; they equal the loop oracle's and
    the rows of a forward whose last layer updates every node, and rank alike."""

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
    @pytest.mark.parametrize("case", list(SCORED_CASES))
    def test_scored_rows_match_the_oracle_and_the_full_rows(self, case, mode, layers):
        g = SCORED_CASES[case]
        cfg = ModelConfig(dim=8, heads=2, layers=layers, proj_dim=5, mode=mode)
        rng = np.random.default_rng(len(case) + layers)
        params = init_network_params(cfg, rng, random_scorer=True)
        h0 = rng.normal(size=(len(g.nodes), cfg.dim))
        deleted = g.deleted_ids()
        fast = forward(h0, g, params, cfg)
        assert fast.shape == (len(deleted), cfg.out_dim)
        np.testing.assert_allclose(fast, naive_network_forward(h0, g, params, cfg),
                                   rtol=0, atol=1e-12)
        every = naive_network_forward(h0, g, with_unread_tensors(params, cfg, rng), cfg,
                                      all_rows=True)
        np.testing.assert_allclose(fast, every[deleted], rtol=0, atol=1e-12)
        ranked = [node for node, _score in rank_commit(
            TrainedModel(params=params, cfg=cfg, training_log=[]), EmbeddedGraph(g, h0))]
        assert ranked == _ranked(fast, params, deleted) == _ranked(every[deleted], params,
                                                                   deleted)

    def test_an_empty_block_gives_zero_rows_of_the_deleted_lines(self):
        g = SCORED_CASES["no-edge-into-a-deleted-line"]
        plan = build_plan(g)
        params = layer_params(8, 2, np.random.default_rng(0))
        h = constant(np.random.default_rng(1).normal(size=(len(g.nodes), 8)))
        assert plan.edge_rows and not plan.scored.edge_rows and plan.scored.n == 3
        assert attention_forward(None, h, plan, params, 0, 2).data[2:4].any()
        targets = ad.take_rows(None, h, slice(0, plan.scored.n))
        out = attention_forward(None, h, plan, params, 0, 2, targets).data
        assert out.shape == (3, 8) and not out.any()

    @pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
    def test_random_graphs_rank_as_the_full_rows_do(self, mode):
        rng = np.random.default_rng(33)
        cfg = ModelConfig(dim=8, heads=2, layers=2, proj_dim=5, mode=mode)
        for _ in range(20):
            g = random_graph(rng, max_nodes=8)
            params = init_network_params(cfg, rng, random_scorer=True)
            h0 = rng.normal(size=(len(g.nodes), cfg.dim))
            fast = forward(h0, g, params, cfg)
            every = naive_network_forward(h0, g, with_unread_tensors(params, cfg, rng), cfg,
                                          all_rows=True)[g.deleted_ids()]
            np.testing.assert_allclose(fast, every, rtol=0, atol=1e-12)
            assert _ranked(fast, params, g.deleted_ids()) == _ranked(every, params,
                                                                     g.deleted_ids())

    def test_the_unread_tensors_are_exactly_those_the_last_layer_drops(self):
        cfg = ModelConfig(dim=8, heads=2, layers=2)
        deep = dict(param_shapes(dataclasses.replace(cfg, layers=3)))
        declared = dict(param_shapes(cfg))
        inner = {name: shape for name, shape in deep.items() if name.startswith("layer1.")}
        missing = {name: shape for name, shape in inner.items() if name not in declared}
        assert missing == unread_tensor_shapes(cfg)


class TestNoDeclaredTensorIsDead:
    """Every tensor ``param_shapes`` declares feeds a score: backpropagated over every commit
    of the v1 fixture, each gets a nonzero gradient on at least one commit."""

    @pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
    def test_every_declared_tensor_gets_a_gradient(self, mode):
        cfg = ModelConfig(dim=16, heads=2, layers=2, proj_dim=8, mode=mode)
        params = init_network_params(cfg, np.random.default_rng(0), random_scorer=True)
        live = set()
        for eg in embed_dataset(load_dataset(DATA / "v1_dataset.json"), HashingEmbedder(cfg.dim)):
            tape = ad.Tape()
            grads = ad.backward(tape, commit_loss(tape, eg, build_pairs(eg.graph), params, cfg))
            live |= {name for name, t in params.items() if grads[t].any()}
        assert [name for name, _shape in param_shapes(cfg) if name not in live] == []


@st.composite
def relabelled_graphs(draw):
    """A graph with isolated nodes and parallel edges of different kinds, plus a relabelling;
    line_mapping edges end at added lines, as ``validate_graph`` requires."""
    n = draw(st.integers(2, 7))
    kinds = draw(st.lists(st.sampled_from(list(NodeKind)), min_size=n, max_size=n))
    isolated = draw(st.integers(1, n - 1))   # the last ``isolated`` nodes touch no edge
    linked = n - isolated
    edges = set()
    if linked >= 2:
        pairs = st.tuples(st.integers(0, linked - 1), st.integers(0, linked - 1)).filter(
            lambda p: p[0] != p[1])
        for src, dst in draw(st.lists(pairs, max_size=10)):
            for kind in draw(st.sets(st.sampled_from(list(EdgeKind)), min_size=1, max_size=3)):
                if kind is not EdgeKind.LINE_MAPPING or kinds[dst] is NodeKind.ADDED:
                    edges.add((src, dst, kind))
    perm = draw(st.permutations(range(n)))
    return kinds, sorted(edges, key=lambda e: (e[0], e[1], e[2].value)), perm


def _graph(kinds, edges):
    nodes = tuple(LineNode(i, kind, text=f"l{i}") for i, kind in enumerate(kinds))
    return CommitGraph(commit_id="g", nodes=nodes,
                       edges=tuple(DepEdge(s, d, k) for s, d, k in edges))


class TestRelabellingEquivariance:
    cfg = ModelConfig(dim=8, heads=2, layers=2, proj_dim=4)
    params = init_network_params(cfg, np.random.default_rng(3), random_scorer=True)

    @settings(max_examples=60, deadline=None)
    @given(case=relabelled_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_relabelling_node_ids_permutes_outputs(self, case, seed):
        kinds, edges, perm = case
        n = len(kinds)
        h0 = np.random.default_rng(seed).normal(size=(n, self.cfg.dim))
        # node i of the original graph becomes node perm[i]
        relabelled = _graph([kinds[perm.index(j)] for j in range(n)],
                            [(perm[s], perm[d], k) for s, d, k in edges])
        h0_relabelled = np.empty_like(h0)
        h0_relabelled[perm] = h0
        for mode in Mode:
            cfg = dataclasses.replace(self.cfg, mode=mode)
            out = forward(h0, _graph(kinds, edges), self.params, cfg)
            out_relabelled = forward(h0_relabelled, relabelled, self.params, cfg)
            # rows are the deleted lines in node id order, in each graph its own
            moved = [perm[i] for i, kind in enumerate(kinds) if kind is NodeKind.DELETED]
            np.testing.assert_allclose(out_relabelled[np.argsort(np.argsort(moved))], out,
                                       rtol=0, atol=1e-12)


DATA = Path(__file__).parent / "data"


class TestHeadBlockMaps:
    def test_named_maps_hold_only_head_blocks(self):
        named = named_tensors(init_network_params(ModelConfig(dim=64, heads=8, layers=2)))
        maps = [t for name, t in named if ".w_att." in name or ".w_msg." in name]
        assert len(maps) == 2 * 2 * len(EdgeKind) - 2     # the last layer has no line_mapping maps
        assert all(t.data.shape == (64, 8) for t in maps)

    @pytest.mark.parametrize("mode, values", [
        (Mode.FULL, 109_288), (Mode.AGGREGATION_ONLY, 59_368), (Mode.RETENTION_ONLY, 54_272),
    ])
    def test_default_model_holds_only_its_modes_values(self, mode, values):
        named = named_tensors(init_network_params(ModelConfig(mode=mode)))
        assert sum(t.data.size for _name, t in named) == values

    def test_init_draws_each_head_block_in_turn(self):
        dim, heads = 8, 4
        d = dim // heads
        rng = np.random.default_rng(3)
        params = init_network_params(ModelConfig(dim=dim, heads=heads, layers=1), rng)
        ref = np.random.default_rng(3)
        bound = math.sqrt(6.0 / (dim + dim))
        for _ in range(3 * len(NodeKind)):      # the w_k, w_q, w_v projections
            ref.uniform(-bound, bound, size=(dim, dim))
        for maps in ("w_att", "w_msg"):
            for kind in EdgeKind:
                for i in range(heads):
                    block = np.eye(d) + ref.uniform(-0.01, 0.01, size=(d, d))
                    if kind is EdgeKind.LINE_MAPPING:   # drawn, but the last layer holds none
                        assert f"layer0.attn.{maps}.{kind.value}" not in params
                        continue
                    held = params[f"layer0.attn.{maps}.{kind.value}"].data
                    assert np.array_equal(held[i * d:(i + 1) * d], block)
        gate = 1.0 / math.sqrt(dim)
        for field in ("w_ir", "b_ir", "w_hr", "b_hr", "w_iz", "b_iz",
                      "w_hz", "b_hz", "w_in", "b_in", "w_hn", "b_hn"):   # the gate tensors
            ref.uniform(-gate, gate, size=(dim, dim) if field[0] == "w" else dim)
        ref.uniform(-bound, bound, size=(dim, dim))   # proj.w, with D_out = D
        assert rng.random() == ref.random()


class TestParamLayout:
    @settings(max_examples=60, deadline=None)
    @given(heads=st.integers(1, 4), head_dim=st.integers(1, 4), layers=st.integers(1, 3),
           proj_dim=st.none() | st.integers(1, 6), mode=st.sampled_from(list(Mode)),
           random_scorer=st.booleans())
    def test_param_shapes_declares_every_initialized_tensor(self, heads, head_dim, layers,
                                                            proj_dim, mode, random_scorer):
        cfg = ModelConfig(dim=heads * head_dim, heads=heads, layers=layers, proj_dim=proj_dim,
                          mode=mode)
        params = init_network_params(cfg, np.random.default_rng(0), random_scorer=random_scorer)
        layout = [(name, t.data.shape) for name, t in named_tensors(params)]
        assert layout == list(param_shapes(cfg))

    def test_param_shapes_of_a_huge_config_allocates_nothing(self):
        shapes = param_shapes(ModelConfig(dim=10**12, heads=10**6, layers=10**9))
        first = list(itertools.islice(shapes, 23))
        assert first[0] == ("layer0.attn.w_k.deleted", (10**12, 10**12))
        assert first[12] == ("layer0.attn.w_att.control_flow", (10**12, 10**6))
        assert first[22] == ("layer0.attn.mu", (MU_SIZE, 1))

    @settings(max_examples=30, deadline=None)
    @given(heads=st.integers(1, 3), head_dim=st.integers(1, 3), layers=st.integers(1, 3),
           proj_dim=st.none() | st.integers(1, 4), mode=st.sampled_from(list(Mode)),
           seed=st.integers(0, 2**32), random_scorer=st.booleans())
    def test_ablation_tensors_hold_the_full_models_values(self, heads, head_dim, layers,
                                                          proj_dim, mode, seed, random_scorer):
        cfg = ModelConfig(dim=heads * head_dim, heads=heads, layers=layers, proj_dim=proj_dim,
                          mode=mode, seed=seed)
        full = init_network_params(dataclasses.replace(cfg, mode=Mode.FULL),
                                   random_scorer=random_scorer)
        params = init_network_params(cfg, random_scorer=random_scorer)
        for name, t in params.items():
            assert t.data.tobytes() == full[name].data.tobytes(), name

    def test_load_draws_nothing(self, monkeypatch):
        def no_rng(*_args, **_kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        params, cfg = load_checkpoint(DATA / "v4_model.ckpt")
        layout = [(name, t.data.shape) for name, t in named_tensors(params)]
        assert layout == list(param_shapes(cfg))


class ReadRecorder(dict):
    """A name -> tensor dict that records every name read through ``[]``."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


class TestForwardReadsTheDeclaredNames:
    """Scoring reads each tensor by its ``param_shapes`` name, so a misspelt name fails here,
    and every tensor a mode declares, so a tensor its forward never reads fails here too."""

    GRAPH = CommitGraph(    # both node kinds and all five edge kinds
        commit_id="every-kind",
        nodes=(LineNode(0, NodeKind.DELETED, text="a", is_root_cause=True),
               LineNode(1, NodeKind.DELETED, text="b"),
               LineNode(2, NodeKind.ADDED, text="c"),
               LineNode(3, NodeKind.ADDED, text="d")),
        edges=(DepEdge(0, 1, EdgeKind.CONTROL_FLOW), DepEdge(2, 0, EdgeKind.DATA_DEPENDENCY),
               DepEdge(3, 0, EdgeKind.CALL), DepEdge(1, 0, EdgeKind.CLASS_MEMBER_REF),
               DepEdge(0, 2, EdgeKind.LINE_MAPPING), DepEdge(3, 1, EdgeKind.DATA_DEPENDENCY)),
    )

    @pytest.mark.parametrize("mode", list(Mode))
    def test_scoring_reads_every_declared_name_and_no_other(self, mode):
        cfg = ModelConfig(dim=4, heads=2, layers=2, proj_dim=3, mode=mode)
        params = ReadRecorder(init_network_params(cfg, np.random.default_rng(0)))
        h0 = np.random.default_rng(1).normal(size=(4, 4))
        rank_commit(TrainedModel(params=params, cfg=cfg, training_log=[]),
                    EmbeddedGraph(graph=self.GRAPH, h0=h0))
        names = [name for name, _shape in param_shapes(cfg)]
        assert params.read == set(names)


class TestCheckpointWriter:
    """``save_checkpoint`` writes one tensor entry at a time; the bytes are those of dumping
    the whole payload object at once (``naive_reference.naive_checkpoint_text``)."""

    @settings(max_examples=40, deadline=None)
    @given(heads=st.integers(1, 4), head_dim=st.integers(1, 3), layers=st.integers(1, 3),
           proj_dim=st.none() | st.integers(1, 5), mode=st.sampled_from(list(Mode)),
           seed=st.integers(0, 2**40), sigma=st.floats(1e-3, 1e3) | st.integers(1, 10),
           scale=st.sampled_from([1e-300, 1e-5, 1.0, 1e5, 1e300]),
           specials=st.lists(st.sampled_from([0.0, -0.0, 5e-324, -1.7976931348623157e308, 0.1]),
                             max_size=4))
    def test_bytes_equal_one_dump_of_the_payload(self, tmp_path_factory, heads, head_dim, layers,
                                                 proj_dim, mode, seed, sigma, scale, specials):
        cfg = ModelConfig(dim=heads * head_dim, heads=heads, layers=layers, proj_dim=proj_dim,
                          mode=mode, seed=seed, sigma=sigma)
        rng = np.random.default_rng(seed)
        params = init_network_params(cfg, rng, random_scorer=True)
        tensors = [t for _name, t in named_tensors(params)]
        for t in tensors:
            t.data *= scale
        for value in specials:   # one entry of a drawn tensor set to an edge-case float
            t = tensors[int(rng.integers(len(tensors)))]
            t.data.reshape(-1)[int(rng.integers(t.data.size))] = value
        path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
        save_checkpoint(path, params, cfg)
        assert path.read_bytes() == naive_checkpoint_text(params, cfg).encode("utf-8")


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = ModelConfig(dim=8, heads=2, layers=2, proj_dim=4, seed=11)
        params = init_network_params(cfg, np.random.default_rng(11), random_scorer=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg.dim == 8 and loaded_cfg.heads == 2 and loaded_cfg.layers == 2
        for (name_a, t_a), (name_b, t_b) in zip(named_tensors(params), named_tensors(loaded)):
            assert name_a == name_b
            assert np.array_equal(t_a.data, t_b.data), name_a

    def test_rewrite_identical_bytes(self, tmp_path):
        cfg = ModelConfig(dim=4, heads=2, layers=1, proj_dim=4, seed=3)
        params = init_network_params(cfg, np.random.default_rng(3))
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, params, cfg)
        loaded, loaded_cfg = load_checkpoint(p1)
        save_checkpoint(p2, loaded, loaded_cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_maps_are_written_in_their_live_shape(self, tmp_path):
        cfg = ModelConfig(dim=4, heads=2, layers=2, proj_dim=4, seed=3)
        params = init_network_params(cfg, np.random.default_rng(3))
        save_checkpoint(tmp_path / "m.ckpt", params, cfg)
        entry = json.loads((tmp_path / "m.ckpt").read_text())["tensors"][12]
        assert entry["name"] == "layer0.attn.w_att.control_flow"
        assert entry["shape"] == [4, 2]
        blocks = params["layer0.attn.w_att.control_flow"].data
        assert decode_data(entry["data"]).tobytes() == blocks.tobytes()

    def test_fixture_resaves_byte_identical(self, tmp_path):
        params, cfg = load_checkpoint(DATA / "v4_model.ckpt")   # dim 8, heads 2, layers 1
        assert params["layer0.attn.w_msg.call"].data.shape == (8, 4)
        save_checkpoint(tmp_path / "again.ckpt", params, cfg)
        assert (tmp_path / "again.ckpt").read_bytes() == (DATA / "v4_model.ckpt").read_bytes()

    def test_fixture_is_the_v3_fixture_without_the_last_layers_unread_tensors(self):
        v3 = json.loads((DATA / "v3_model.ckpt").read_text())
        v4 = json.loads((DATA / "v4_model.ckpt").read_text())
        assert v3.pop("format") == "rootrank-checkpoint-v3"
        assert v4.pop("format") == "rootrank-checkpoint-v4"
        unread = {"layer0.attn.w_q.added", "layer0.attn.b_q.added",
                  "layer0.attn.w_att.line_mapping", "layer0.attn.w_msg.line_mapping"}
        assert {entry["name"] for entry in v3["tensors"]} >= unread
        v3["tensors"] = [entry for entry in v3["tensors"] if entry["name"] not in unread]
        assert v3 == v4

    def test_fixture_is_the_v2_fixture_without_its_scorer_bias(self):
        v2 = json.loads((DATA / "v2_model.ckpt").read_text())
        v3 = json.loads((DATA / "v3_model.ckpt").read_text())
        assert v2.pop("format") == "rootrank-checkpoint-v2"
        assert v3.pop("format") == "rootrank-checkpoint-v3"
        bias = v2["tensors"].pop()
        assert (bias["name"], bias["shape"]) == ("scorer.b", [])
        assert v2 == v3

    def test_fixture_holds_the_v1_fixtures_values_bit_for_bit(self):
        # v1 stored each map as its D x D block-diagonal matrix, in JSON numbers
        v1 = json.loads((DATA / "v1_model.ckpt").read_text())
        params, cfg = load_checkpoint(DATA / "v4_model.ckpt")
        assert [v1[key] for key in ("dim", "heads", "layers", "proj_dim", "mode", "seed",
                                    "sigma")] == [cfg.dim, cfg.heads, cfg.layers, cfg.out_dim,
                                                  cfg.mode.value, cfg.seed, cfg.sigma]
        bias = v1["tensors"].pop()   # the scorer bias, which v3 does not hold
        assert bias["name"] == "scorer.b"
        # v4 does not hold the last layer's added-line queries and line_mapping maps either
        kept = [entry for entry in v1["tensors"] if entry["name"] in params]
        assert [entry["name"] for entry in kept] == list(params)
        assert len(v1["tensors"]) - len(kept) == 4
        for entry in kept:
            values = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
            if entry["name"].split(".")[-2] in ("w_att", "w_msg"):
                assert not values[:4, 4:].any() and not values[4:, :4].any(), entry["name"]
                values = np.concatenate([values[:4, :4], values[4:, 4:]])   # its head blocks
            assert values.tobytes() == params[entry["name"]].data.tobytes(), entry["name"]

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_file_is_rejected_naming_its_format(self, version):
        path = DATA / f"v{version}_model.ckpt"
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == (f"{path}: not a rootrank-checkpoint-v4 file "
                                   f"(its format is 'rootrank-checkpoint-v{version}')")

    def test_loaded_tensors_are_owned_writable_float64(self):
        params, _cfg = load_checkpoint(DATA / "v4_model.ckpt")
        for name, t in params.items():
            flags = t.data.flags
            assert t.data.dtype == np.float64 and t.data.dtype.isnative, name
            assert flags.owndata and flags.writeable and flags.c_contiguous, name

    @pytest.mark.parametrize("shape", [[4, 4], [2, 4]], ids=["dense-v1-layout", "transposed"])
    def test_map_must_have_its_live_shape(self, tmp_path, shape):
        cfg = ModelConfig(dim=4, heads=2, layers=2, proj_dim=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_network_params(cfg, np.random.default_rng(0)), cfg)
        payload = json.loads(path.read_text())
        payload["tensors"][12].update(shape=shape, data=encode_data(np.zeros(math.prod(shape))))
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckpointError,
                           match=rf"w_att.control_flow: shape \({shape[0]}, {shape[1]}\) "
                                 r"!= \(4, 2\)$"):
            load_checkpoint(path)

    def test_map_in_the_v1_dense_layout_is_named(self, tmp_path):
        # the v1 fixture's D x D map, entries outside the head blocks included, in v2 data
        dense = next(e for e in json.loads((DATA / "v1_model.ckpt").read_text())["tensors"]
                     if e["name"] == "layer0.attn.w_msg.call")
        payload = json.loads((DATA / "v4_model.ckpt").read_text())
        entry = next(e for e in payload["tensors"] if e["name"] == "layer0.attn.w_msg.call")
        entry.update(shape=dense["shape"], data=encode_data(dense["data"]))
        path = tmp_path / "bad.ckpt"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckpointError,
                           match=r"layer0\.attn\.w_msg\.call: shape \(8, 8\) != \(8, 4\)$"):
            load_checkpoint(path)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["name", "shape", "data"])
    def test_missing_tensor_entry_field_is_named(self, tmp_path, field):
        cfg = ModelConfig(dim=4, heads=2, layers=1, proj_dim=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_network_params(cfg, np.random.default_rng(0)), cfg)
        payload = json.loads(path.read_text())
        del payload["tensors"][3][field]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckpointError, match=repr(field)):
            load_checkpoint(path)

    @pytest.mark.parametrize("data", [[1.0] * 4, encode_data([1.0] * 3), "@" * 44,
                                      encode_data([1.0] * 4).rstrip("="), None],
                             ids=["json-numbers", "three-values", "bad-alphabet", "unpadded",
                                  "null"])
    def test_bad_tensor_data_rejected(self, tmp_path, data):
        cfg = ModelConfig(dim=4, heads=2, layers=1, proj_dim=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_network_params(cfg, np.random.default_rng(0)), cfg)
        payload = json.loads(path.read_text())
        payload["tensors"][1]["data"] = data   # layer0.attn.b_k.deleted, 4 numbers
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckpointError, match="b_k.deleted"):
            load_checkpoint(path)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="divide"):
            ModelConfig(dim=64, heads=7)
        with pytest.raises(ValueError, match="sigma"):
            ModelConfig(sigma=0.0)
        ModelConfig()

    @pytest.mark.parametrize("name", ["sigma", "lr"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0,
                                       # JSON integers past float64, as a checkpoint header holds
                                       pytest.param(10**400, id="10**400"),
                                       pytest.param(-10**400, id="-10**400")])
    def test_sigma_and_lr_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            ModelConfig(**{name: value})

    def test_header_holds_the_config_fields_in_table_order(self, tmp_path):
        cfg = ModelConfig(dim=4, heads=2, layers=1, mode=Mode.RETENTION_ONLY, seed=5, sigma=2.5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_network_params(cfg, np.random.default_rng(0)), cfg)
        payload = json.loads(path.read_text())
        assert list(payload) == ["format", "dim", "heads", "layers", "proj_dim", "mode", "seed",
                                 "sigma", "tensors"]
        assert [payload[key] for key in list(payload)[1:-1]] == [4, 2, 1, 4, "retention-only",
                                                                  5, 2.5]
        _params, loaded = load_checkpoint(path)
        assert loaded == ModelConfig(dim=4, heads=2, layers=1, proj_dim=4,
                                     mode=Mode.RETENTION_ONLY, seed=5, sigma=2.5)


# Finite float64 values at the edges of the format: signed zeros, subnormals, the extremes.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0, -1.0]


class TestCheckpointRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(heads=st.integers(1, 4), head_dim=st.integers(1, 3), layers=st.integers(1, 3),
           proj_dim=st.none() | st.integers(1, 5), mode=st.sampled_from(list(Mode)),
           seed=st.integers(0, 2**32), edges=st.lists(st.sampled_from(EDGE_FLOATS), max_size=8))
    def test_save_load_save_is_byte_identical_and_bit_exact(self, tmp_path_factory, heads,
                                                           head_dim, layers, proj_dim, mode,
                                                           seed, edges):
        cfg = ModelConfig(dim=heads * head_dim, heads=heads, layers=layers, proj_dim=proj_dim,
                          mode=mode, seed=seed)
        rng = np.random.default_rng(seed)
        params = init_network_params(cfg, rng)
        for t in params.values():   # uniform bit patterns, each non-finite one made finite
            bits = rng.integers(0, 2**64, size=t.data.shape, dtype=np.uint64)
            values = bits.view(np.float64)
            t.data = np.where(np.isfinite(values), values, np.copysign(0.0, values))
        tensors = list(params.values())
        for value in edges:
            t = tensors[int(rng.integers(len(tensors)))]
            t.data.reshape(-1)[int(rng.integers(t.data.size))] = value
        first, second = (tmp_path_factory.mktemp("ckpt") / "m.ckpt" for _ in range(2))
        save_checkpoint(first, params, cfg)
        loaded, loaded_cfg = load_checkpoint(first)
        save_checkpoint(second, loaded, loaded_cfg)
        assert first.read_bytes() == second.read_bytes()
        assert list(loaded) == list(params)
        for name, t in params.items():
            assert loaded[name].data.shape == t.data.shape, name
            assert loaded[name].data.tobytes() == t.data.tobytes(), name


class TestSaveReplacesTheFileWhole:
    """A save that fails part way leaves no partial file and an earlier checkpoint as it was."""

    @staticmethod
    def _failing_writer(monkeypatch, after, error):
        real = network_module._encode
        calls = []

        def encode(data):
            calls.append(1)
            if len(calls) > after:
                raise error
            return real(data)

        monkeypatch.setattr(network_module, "_encode", encode)
        return calls

    @pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    def test_no_file_is_left_where_none_was(self, tmp_path, monkeypatch, error):
        cfg = ModelConfig(dim=4, heads=2, layers=1)
        params = init_network_params(cfg, np.random.default_rng(0))
        calls = self._failing_writer(monkeypatch, 5, error)
        with pytest.raises(type(error)):
            save_checkpoint(tmp_path / "m.ckpt", params, cfg)
        assert len(calls) == 6
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    def test_an_existing_checkpoint_is_left_untouched(self, tmp_path, monkeypatch, error):
        cfg = ModelConfig(dim=4, heads=2, layers=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_network_params(cfg, np.random.default_rng(0)), cfg)
        before = path.read_bytes()
        self._failing_writer(monkeypatch, 5, error)
        with pytest.raises(type(error)):
            save_checkpoint(path, init_network_params(cfg, np.random.default_rng(1)), cfg)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before
        load_checkpoint(path)

    def test_a_save_replaces_an_existing_checkpoint(self, tmp_path):
        cfg = ModelConfig(dim=4, heads=2, layers=1)
        path = tmp_path / "m.ckpt"
        path.write_text("an older file", encoding="utf-8")
        params = init_network_params(cfg, np.random.default_rng(0))
        save_checkpoint(path, params, cfg)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == naive_checkpoint_text(params, cfg).encode("utf-8")


# ModelConfig keywords for the property below: values a config takes, then up to two
# fields set to values that may break it.  Sizes stay <= 16 unless spoiled (a valid config
# with a larger size would really allocate its model, so the property skips one).
GOOD_VALUES = {
    "dim": st.integers(1, 16), "heads": st.sampled_from([1, 2]), "layers": st.integers(1, 3),
    "proj_dim": st.none() | st.integers(1, 16), "epochs": st.integers(0, 3),
    "seed": st.integers(0, 2**70) | st.just(10**400),
    "sigma": st.floats(1e-300, 1e300) | st.integers(1, 3) | st.just(10**300),
    "lr": st.floats(1e-300, 1e300) | st.integers(1, 3),
    "mode": st.sampled_from(list(Mode) + [m.value for m in Mode]),
    "include_tie_pairs": st.booleans(), "step_per_pair": st.booleans(),
}
# For each field annotation: the types a wrong type's message names, and values of other types
WRONG_TYPES = {
    int: ("int", [True, 2.0, math.nan, "1", None]),
    int | None: ("int or NoneType", [math.inf, False, "3"]),
    float: ("int or float", [True, "1e-3", None]),
    bool: ("bool", [1, None, "no"]),
}
ODD_INTS = st.sampled_from([0, -1, 10**400, -10**400, math.nan, math.inf, -math.inf, True, False,
                            2.0, "1", None])
ODD_NUMBERS = st.sampled_from([0, -1, 0.0, -0.5, math.nan, math.inf, -math.inf, 10**400,
                               -10**400, True, "0.5", None])
BAD_VALUES = {
    **dict.fromkeys(("dim", "heads", "layers", "proj_dim", "epochs", "seed"), ODD_INTS),
    "sigma": ODD_NUMBERS, "lr": ODD_NUMBERS,
    "mode": st.text(max_size=4) | st.sampled_from(["FULL", None, 1, True]),
    "include_tie_pairs": st.sampled_from([0, 1, "no", None]),
    "step_per_pair": st.sampled_from([0, 1, "no", None]),
}


@st.composite
def config_kwargs(draw):
    kwargs = {name: draw(values) for name, values in GOOD_VALUES.items()
              if name in ("dim", "heads") or draw(st.booleans())}
    for name in draw(st.lists(st.sampled_from(sorted(BAD_VALUES)), max_size=2, unique=True)):
        kwargs[name] = draw(BAD_VALUES[name])
    return kwargs


class TestModelConfigChecksItself:
    def test_a_mode_string_trains_saves_and_loads_as_its_mode(self, tmp_path):
        cfg = ModelConfig(dim=8, heads=2, layers=1, epochs=2, mode="aggregation-only")
        assert cfg.mode is Mode.AGGREGATION_ONLY
        ds = generate(GenConfig(n_commits=3, deleted_per_commit=3, added_per_commit=2, seed=1))
        model = train(embed_dataset(ds, HashingEmbedder(8)), cfg)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.params, cfg)
        assert json.loads(path.read_text())["mode"] == "aggregation-only"
        params, loaded = load_checkpoint(path)
        assert loaded.mode is Mode.AGGREGATION_ONLY
        assert loaded == dataclasses.replace(cfg, proj_dim=8, epochs=ModelConfig().epochs)
        for (name, saved), (_name, read) in zip(named_tensors(model.params),
                                                named_tensors(params)):
            assert np.array_equal(saved.data, read.data), name

    def test_an_unknown_mode_is_named_before_any_size(self):
        with pytest.raises(ConfigError, match="^unknown mode 'bogus'; choose from full, "
                                              "aggregation-only, retention-only$") as info:
            ModelConfig(dim=0, heads=3, mode="bogus")
        assert info.value.fields == ("mode",)

    def test_a_checkpoint_mode_is_checked_by_the_config(self, tmp_path):
        cfg = ModelConfig(dim=4, heads=2, layers=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_network_params(cfg), cfg)
        path.write_text(path.read_text().replace('"mode": "full"', '"mode": "bogus"'))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == (f"{path}: unknown mode 'bogus'; "
                                   "choose from full, aggregation-only, retention-only")

    @pytest.mark.parametrize("name", [field.name for field in dataclasses.fields(ModelConfig)])
    def test_no_field_can_be_assigned(self, name):
        cfg = ModelConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, getattr(cfg, name))

    @pytest.mark.parametrize("name, value, expected", [
        (field.name, value, expected) for field in dataclasses.fields(ModelConfig)
        if field.name != "mode"   # checked by Mode itself, above
        for expected, values in [WRONG_TYPES[typing.get_type_hints(ModelConfig)[field.name]]]
        for value in values])
    def test_a_value_of_another_type_is_named(self, name, value, expected):
        with pytest.raises(ConfigError, match=rf"^{name} must be {expected}, got ") as info:
            ModelConfig(**{name: value})
        assert info.value.fields == (name,)

    @settings(max_examples=150, deadline=None)
    @given(kwargs=config_kwargs())
    def test_keywords_make_a_config_that_round_trips_or_a_config_error(self, kwargs):
        try:
            cfg = ModelConfig(**kwargs)
        except ConfigError as exc:
            assert exc.fields
            assert set(exc.fields) <= {field.name for field in dataclasses.fields(ModelConfig)}
            return
        assert isinstance(cfg.mode, Mode)
        assume(max(cfg.dim, cfg.heads, cfg.layers, cfg.out_dim) <= 16)
        params = init_network_params(cfg)
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "m.ckpt"
            save_checkpoint(path, params, cfg)
            loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == dataclasses.replace(
            ModelConfig(), **{name: getattr(cfg, name) for name in
                              ("dim", "heads", "layers", "mode", "seed", "sigma")},
            proj_dim=cfg.out_dim)
        for (name, saved), (_name, read) in zip(named_tensors(params), named_tensors(loaded)):
            assert np.array_equal(saved.data, read.data), name
