import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootrank import autodiff as ad
from rootrank.aggregation import MU_SIZE, GraphPlan, attention_forward, build_plan
from rootrank.autodiff import CheckedIndex, Tensor, constant
from rootrank.graphs import CommitGraph, DepEdge, EdgeKind, LineNode, NodeKind

from naive_reference import (
    assert_plan_matches_graphs,
    assert_same_fields,
    attend_core,
    attention_logits,
    attention_weights,
    composed_attention,
    edge_messages,
    gather,
    layer_params,
    mul,
    naive_attention_forward,
    naive_build_plan,
    naive_edge_rows,
    mu_index,
    naive_typed_rows,
    project_kqv,
    random_graph,
    reduce_sum,
    segment_softmax,
)


def identity_params(dim, heads):
    """Identity projections, zero biases, identity head blocks, unit priors."""
    params = layer_params(dim, heads, np.random.default_rng(0))
    eye = np.eye(dim)
    eye_blocks = np.tile(np.eye(dim // heads), (heads, 1))
    for kind in NodeKind:
        for field in ("k", "q", "v"):
            params[f"layer0.attn.w_{field}.{kind.value}"].data = eye.copy()
            params[f"layer0.attn.b_{field}.{kind.value}"].data = np.zeros(dim)
    for kind in EdgeKind:
        params[f"layer0.attn.w_att.{kind.value}"].data = eye_blocks.copy()
        params[f"layer0.attn.w_msg.{kind.value}"].data = eye_blocks.copy()
    params["layer0.attn.mu"].data = np.ones_like(params["layer0.attn.mu"].data)
    return params


def chain_graph():
    """deleted(0) -> added(1), one data dependency."""
    return CommitGraph(
        commit_id="chain",
        nodes=(
            LineNode(0, NodeKind.DELETED, text="a", is_root_cause=True),
            LineNode(1, NodeKind.ADDED, text="b"),
        ),
        edges=(DepEdge(0, 1, EdgeKind.DATA_DEPENDENCY),),
    )


@st.composite
def plan_graphs(draw):
    """Any node kinds; edges may repeat a pair under other kinds, or be absent.  A
    line_mapping edge ends at an added line, as ``validate_graph`` requires."""
    n = draw(st.integers(0, 7))
    kinds = draw(st.lists(st.sampled_from(list(NodeKind)), min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.sampled_from(list(EdgeKind))), max_size=20)
                 if n else st.just([]))
    return CommitGraph(
        commit_id="plan",
        nodes=tuple(LineNode(i, kind) for i, kind in enumerate(kinds)),
        edges=tuple(DepEdge(s, d, k) for s, d, k in edges
                    if k is not EdgeKind.LINE_MAPPING or kinds[d] is NodeKind.ADDED),
    )


class TestPlanAgainstSortedOracle:
    @settings(max_examples=300, deadline=None)
    @given(g=plan_graphs())
    def test_builders_agree(self, g):
        assert_same_fields(build_plan(g), naive_build_plan(g))

    def test_no_edges_and_isolated_nodes(self):
        g = CommitGraph(commit_id="bare", nodes=(LineNode(0, NodeKind.ADDED),
                                                 LineNode(1, NodeKind.DELETED)), edges=())
        plan = build_plan(g)
        assert_same_fields(plan, naive_build_plan(g))
        for arr in (plan.src, plan.dst, plan.mu_idx):
            assert arr.shape == (0,)
        assert plan.edge_rows == {}

    def test_parallel_edges_of_different_kinds(self):
        kinds = [NodeKind.DELETED, NodeKind.ADDED, NodeKind.DELETED, NodeKind.ADDED]
        g = CommitGraph(
            commit_id="parallel",
            nodes=tuple(LineNode(i, kind) for i, kind in enumerate(kinds)),
            edges=(DepEdge(2, 1, EdgeKind.LINE_MAPPING), DepEdge(0, 1, EdgeKind.CALL),
                   DepEdge(2, 1, EdgeKind.CONTROL_FLOW), DepEdge(0, 1, EdgeKind.CONTROL_FLOW),
                   DepEdge(1, 0, EdgeKind.DATA_DEPENDENCY)),
        )   # node 3 is isolated
        plan = build_plan(g)
        assert_same_fields(plan, naive_build_plan(g))
        # kind-major rows: deleted nodes 0 and 2 are rows 0 and 1, added nodes 1 and 3 rows 2
        # and 3; edges in rows, by kind, then target, then source
        assert plan.node_ids.tolist() == [0, 2, 1, 3]
        assert plan.src.tolist() == [0, 1, 2, 0, 1]
        assert plan.dst.tolist() == [2, 2, 0, 2, 2]

    @pytest.mark.parametrize("edge, message", [
        (DepEdge(-1, 0, EdgeKind.CALL), r"GraphPlan src: indices must lie in \[0, 3\)$"),
        (DepEdge(3, 0, EdgeKind.CALL), r"GraphPlan src: indices must lie in \[0, 3\)$"),
        (DepEdge(0, 3, EdgeKind.CALL), r"GraphPlan dst: indices must lie in \[0, 3\)$"),
    ], ids=["src-negative", "src-past-the-end", "dst-past-the-end"])
    def test_an_endpoint_outside_the_graph_is_named_before_it_is_read(self, edge, message):
        # -1 would name the last node and 3 none; only load_dataset validates graphs first
        g = CommitGraph(commit_id="ends", nodes=tuple(LineNode(i, NodeKind.DELETED)
                                                      for i in range(3)), edges=(edge,))
        with pytest.raises(ValueError, match="^" + message):
            build_plan(g)


class TestGraphPlan:
    @settings(max_examples=300, deadline=None)
    @given(g=plan_graphs())
    def test_every_kind_is_one_run_in_kind_order(self, g):
        # node kinds interleave in the drawn ids; the plan numbers its rows kind-major, so
        # every typed group of either layer is a run of the graph's nodes or edges of its
        # kind, and the scored targets are [0, k)
        plan = build_plan(g)
        assert_plan_matches_graphs(plan, [g])
        assert plan.node_ids.tolist() == sorted(range(len(g.nodes)),
                                                key=lambda i: g.nodes[i].kind.ordinal)

    def test_arrays_are_linear_in_graph_size(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = random_graph(rng)
            plan = build_plan(g)
            n, e = len(g.nodes), len(g.edges)
            assert plan.n == n
            for arr in (plan.src, plan.dst, plan.mu_idx):
                assert arr.shape == (e,) and arr.dtype == np.intp
            for runs, size in ((plan.node_rows, n), (plan.edge_rows, e)):
                # the runs are non-empty and tile the rows in order
                assert all(rows.stop > rows.start for rows in runs.values())
                assert [i for rows in runs.values() for i in range(size)[rows]] == list(range(size))
            assert set(plan.node_rows) == {node.kind for node in g.nodes}
            assert set(plan.edge_rows) == {edge.kind for edge in g.edges}
            for kind, rows in plan.node_rows.items():
                assert all(g.nodes[i].kind is kind for i in plan.node_ids[rows])
            # the scorer reads the deleted lines from the plan's first rows, in node id order
            assert plan.node_ids[plan.node_rows[NodeKind.DELETED]].tolist() == g.deleted_ids()

    def test_edges_sorted_by_target_then_source_then_kind(self):
        g = CommitGraph(
            commit_id="order",
            nodes=tuple(LineNode(i, NodeKind.DELETED, text=str(i)) for i in range(3)),
            edges=(
                DepEdge(2, 0, EdgeKind.CALL),
                DepEdge(1, 0, EdgeKind.CALL),
                DepEdge(1, 0, EdgeKind.CONTROL_FLOW),
                DepEdge(0, 2, EdgeKind.CALL),
            ),
        )
        plan = build_plan(g)
        assert plan.dst.tolist() == [0, 0, 0, 2]
        assert plan.src.tolist() == [1, 1, 2, 0]
        assert plan.edge_rows == {EdgeKind.CONTROL_FLOW: slice(0, 1), EdgeKind.CALL: slice(1, 4)}
        assert plan.node_counts == (3, 0) and plan.node_rows == {NodeKind.DELETED: slice(0, 3)}
        expected_mu = mu_index(NodeKind.DELETED, EdgeKind.CALL, NodeKind.DELETED)
        assert plan.mu_idx.tolist()[1:] == [expected_mu] * 3


class TestProjections:
    def test_heads_are_contiguous_slices(self):
        # head 1 owns columns 2:4, so changing them leaves head 0's logit alone
        g = chain_graph()
        plan = build_plan(g)
        params = identity_params(4, 2)
        h = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0]])
        base = attention_logits(None, plan, project_kqv(None, constant(h), plan, params, 0),
                                params, 0, 2)
        h[0, 2:] = [-7.0, 9.0]
        moved = attention_logits(None, plan, project_kqv(None, constant(h), plan, params, 0),
                                 params, 0, 2)
        np.testing.assert_allclose(base.data[0], [3.0 / math.sqrt(2), 7.0 / math.sqrt(2)])
        np.testing.assert_allclose(moved.data[0], [3.0 / math.sqrt(2), 2.0 / math.sqrt(2)])

    def test_kind_specific_projection_reads_the_source_kind(self):
        # the one edge runs from a deleted line, so only the deleted lines' values reach it
        g = chain_graph()
        plan = build_plan(g)
        params = identity_params(4, 2)
        h = constant(np.ones((2, 4)))
        params["layer0.attn.w_v.added"].data = 2.0 * np.eye(4)
        np.testing.assert_array_equal(attention_forward(None, h, plan, params, 0, 2).data[1],
                                      np.ones(4))
        params["layer0.attn.w_v.deleted"].data = 3.0 * np.eye(4)
        np.testing.assert_array_equal(attention_forward(None, h, plan, params, 0, 2).data[1],
                                      3.0 * np.ones(4))


class TestAttentionLogits:
    def test_direct_substitution(self):
        # identity map, unit prior, K = Q = [1, 0] per head, head dim 2
        g = chain_graph()
        plan = build_plan(g)
        params = identity_params(4, 2)
        h = constant(np.array([[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 1.0, 0.0]]))
        kv = project_kqv(None, h, plan, params, 0)
        logits = attention_logits(None, plan, kv, params, 0, 2)
        np.testing.assert_allclose(logits.data, np.full((1, 2), 1.0 / math.sqrt(2)), atol=1e-15)

    def test_zero_prior_kills_logit(self):
        g = chain_graph()
        plan = build_plan(g)
        params = identity_params(4, 2)
        row = mu_index(NodeKind.DELETED, EdgeKind.DATA_DEPENDENCY, NodeKind.ADDED)
        params["layer0.attn.mu"].data[row, 0] = 0.0
        h = constant(np.ones((2, 4)) * 3.0)
        kv = project_kqv(None, h, plan, params, 0)
        logits = attention_logits(None, plan, kv, params, 0, 2)
        np.testing.assert_array_equal(logits.data, np.zeros((1, 2)))

    def test_orthogonal_key_query_gives_zero(self):
        g = chain_graph()
        plan = build_plan(g)
        params = identity_params(4, 2)
        h = np.zeros((2, 4))
        h[0] = [1.0, 0.0, 1.0, 0.0]   # source keys
        h[1] = [0.0, 1.0, 0.0, 1.0]   # target queries, orthogonal per head
        kv = project_kqv(None, constant(h), plan, params, 0)
        logits = attention_logits(None, plan, kv, params, 0, 2)
        np.testing.assert_allclose(logits.data, np.zeros((1, 2)), atol=1e-15)

    def test_prior_scaling_is_linear(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng)
        while not g.edges:
            g = random_graph(rng)
        params = layer_params(8, 2, rng)
        plan = build_plan(g)
        h = constant(rng.normal(size=(len(g.nodes), 8)))
        kv = project_kqv(None, h, plan, params, 0)
        base = attention_logits(None, plan, kv, params, 0, 2).data.copy()
        params["layer0.attn.mu"].data *= 3.0
        scaled = attention_logits(None, plan, kv, params, 0, 2).data
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12)


class TestAttentionWeights:
    def _three_in_edges(self):
        nodes = (
            LineNode(0, NodeKind.DELETED, text="a", is_root_cause=True),
            LineNode(1, NodeKind.DELETED, text="b"),
            LineNode(2, NodeKind.ADDED, text="c"),
            LineNode(3, NodeKind.ADDED, text="d"),
        )
        edges = (
            DepEdge(0, 3, EdgeKind.CONTROL_FLOW),
            DepEdge(1, 3, EdgeKind.DATA_DEPENDENCY),
            DepEdge(2, 3, EdgeKind.CALL),
        )
        return CommitGraph(commit_id="fan", nodes=nodes, edges=edges)

    def test_equal_logits_give_uniform_weights(self):
        g = self._three_in_edges()
        plan = build_plan(g)
        params = identity_params(4, 2)
        h = constant(np.ones((4, 4)))
        kv = project_kqv(None, h, plan, params, 0)
        logits = attention_logits(None, plan, kv, params, 0, 2)
        w = attention_weights(None, logits, plan)
        np.testing.assert_allclose(w.data, np.full((3, 2), 1 / 3), atol=1e-12)

    def test_ln2_logit_gap(self):
        # softmax([ln 2, 0]) = [2/3, 1/3], frozen from the softmax definition
        logits = constant(np.array([[math.log(2.0)], [0.0]]))
        w = segment_softmax(None, logits, np.array([0, 0]), 1)
        np.testing.assert_allclose(w.data[:, 0], [2 / 3, 1 / 3], atol=1e-15)

    def test_single_edge_weight_is_one(self):
        g = chain_graph()
        plan = build_plan(g)
        params = identity_params(4, 2)
        h = constant(np.random.default_rng(0).normal(size=(2, 4)))
        kv = project_kqv(None, h, plan, params, 0)
        logits = attention_logits(None, plan, kv, params, 0, 2)
        w = attention_weights(None, logits, plan)
        np.testing.assert_allclose(w.data, np.ones((1, 2)), atol=1e-15)

    def test_no_incoming_edges_gives_no_rows(self):
        g = chain_graph()
        plan = build_plan(g)
        params = identity_params(4, 2)
        kv = project_kqv(None, constant(np.ones((2, 4))), plan, params, 0)
        w = attention_weights(None, attention_logits(None, plan, kv, params, 0, 2), plan)
        assert plan.dst.tolist() == [1]
        assert w.data[plan.dst == 0].shape == (0, 2)

    def test_weights_sum_to_one_per_head(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            g = random_graph(rng)
            if not g.edges:
                continue
            params = layer_params(8, 4, rng)
            plan = build_plan(g)
            h = constant(rng.normal(size=(len(g.nodes), 8)))
            kv = project_kqv(None, h, plan, params, 0)
            w = attention_weights(None, attention_logits(None, plan, kv, params, 0, 4), plan)
            for t in set(plan.dst.tolist()):
                np.testing.assert_allclose(w.data[plan.dst == t].sum(axis=0), 1.0, atol=1e-9)


class TestMessagesAndAggregate:
    def test_identity_messages_pass_values(self):
        g = chain_graph()
        plan = build_plan(g)
        params = identity_params(4, 2)
        h = constant(np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]]))
        kv = project_kqv(None, h, plan, params, 0)
        msgs = edge_messages(None, plan, kv, params, 0, 2)
        np.testing.assert_array_equal(msgs.data, [[1.0, 2.0, 3.0, 4.0]])

    def test_zero_message_map_gives_zero(self):
        g = chain_graph()
        plan = build_plan(g)
        params = identity_params(4, 2)
        params["layer0.attn.w_msg.data_dependency"].data = np.zeros((4, 2))
        kv = project_kqv(None, constant(np.ones((2, 4))), plan, params, 0)
        msgs = edge_messages(None, plan, kv, params, 0, 2)
        np.testing.assert_array_equal(msgs.data, np.zeros((1, 4)))

    def test_diagonal_message_map(self):
        # V head [1, 1] through diag(2, 3) -> [2, 3]
        g = chain_graph()
        plan = build_plan(g)
        params = identity_params(2, 1)
        params["layer0.attn.w_msg.data_dependency"].data = np.diag([2.0, 3.0])
        kv = project_kqv(None, constant(np.array([[1.0, 1.0], [0.0, 0.0]])), plan, params, 0)
        msgs = edge_messages(None, plan, kv, params, 0, 1)
        np.testing.assert_array_equal(msgs.data, [[2.0, 3.0]])

    def test_single_edge_aggregation_copies_message(self):
        g = chain_graph()
        plan = build_plan(g)
        params = identity_params(4, 2)
        h = constant(np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]]))
        out = attention_forward(None, h, plan, params, 0, 2)
        np.testing.assert_allclose(out.data[1], [1.0, 2.0, 3.0, 4.0], atol=1e-15)

    def test_isolated_node_gets_zero_row(self):
        g = chain_graph()
        plan = build_plan(g)
        params = identity_params(4, 2)
        h = constant(np.ones((2, 4)))
        out = attention_forward(None, h, plan, params, 0, 2)
        np.testing.assert_array_equal(out.data[0], np.zeros(4))

    def test_two_equal_weights_average_messages(self):
        nodes = (
            LineNode(0, NodeKind.DELETED, text="a", is_root_cause=True),
            LineNode(1, NodeKind.DELETED, text="b"),
            LineNode(2, NodeKind.ADDED, text="c"),
        )
        edges = (
            DepEdge(0, 2, EdgeKind.CALL),
            DepEdge(1, 2, EdgeKind.CALL),
        )
        g = CommitGraph(commit_id="avg", nodes=nodes, edges=edges)
        plan = build_plan(g)
        params = identity_params(2, 1)
        # zero keys -> equal logits -> weights 1/2 each
        h = np.array([[2.0, 4.0], [6.0, 8.0], [0.0, 0.0]])
        kv = project_kqv(None, constant(h), plan, params, 0)
        logits = attention_logits(None, plan, kv, params, 0, 1)
        np.testing.assert_array_equal(logits.data, np.zeros((2, 1)))
        out = attention_forward(None, constant(h), plan, params, 0, 1)
        np.testing.assert_allclose(out.data[2], [(2 + 6) / 2, (4 + 8) / 2], atol=1e-15)


class TestForwardAgainstNaiveOracle:
    def test_edgeless_graph_returns_zeros(self):
        g = CommitGraph(
            commit_id="lonely",
            nodes=(LineNode(0, NodeKind.DELETED, text="x", is_root_cause=True),),
            edges=(),
        )
        plan = build_plan(g)
        params = identity_params(4, 2)
        out = attention_forward(None, constant(np.ones((1, 4))), plan, params, 0, 2)
        np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_matches_naive_on_random_graphs(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            g = random_graph(rng)
            params = layer_params(8, 2, rng)
            plan = build_plan(g)
            h0 = rng.normal(size=(len(g.nodes), 8))
            # the layer reads and writes rows in plan order, the oracle in node id order
            fast = attention_forward(None, constant(h0[plan.node_ids]), plan, params, 0, 2).data
            slow = naive_attention_forward(h0, g, params, 0, 2)[plan.node_ids]
            np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng)
        while len(g.edges) < 2:
            g = random_graph(rng)
        params = layer_params(8, 2, rng)
        h0 = rng.normal(size=(len(g.nodes), 8))

        n = len(g.nodes)
        perm = rng.permutation(n)
        inv = np.empty(n, dtype=int)
        inv[perm] = np.arange(n)

        from rootrank.graphs import DepEdge, LineNode

        nodes = tuple(
            LineNode(int(inv[node.id]), node.kind, text=node.text,
                     is_root_cause=node.is_root_cause)
            for node in g.nodes
        )
        nodes = tuple(sorted(nodes, key=lambda nd: nd.id))
        edges = tuple(DepEdge(int(inv[e.src]), int(inv[e.dst]), e.kind) for e in g.edges)
        g2 = CommitGraph(commit_id="perm", nodes=nodes, edges=edges)
        h0_perm = h0[perm]      # node perm[j] of g is node j of g2

        def by_node_id(g, h):
            """The layer's output on ``g``, vectors ``h`` given and returned in node id order."""
            plan = build_plan(g)
            out = np.empty_like(h)
            out[plan.node_ids] = attention_forward(None, constant(h[plan.node_ids]), plan,
                                                   params, 0, 2).data
            return out

        np.testing.assert_allclose(by_node_id(g2, h0_perm), by_node_id(g, h0)[perm], atol=1e-12)

    def test_gradients_flow_to_every_parameter_family(self):
        rng = np.random.default_rng(31)
        g = random_graph(rng)
        while len({e.kind for e in g.edges}) < 2:
            g = random_graph(rng)
        params = layer_params(8, 2, rng)
        plan = build_plan(g)
        h0 = Tensor(rng.normal(size=(len(g.nodes), 8)), requires_grad=True)
        tape = ad.Tape()
        out = attention_forward(tape, h0, plan, params, 0, 2)
        loss = reduce_sum(tape, mul(tape, out, out))
        grads = ad.backward(tape, loss)
        assert np.abs(grads[h0]).sum() > 0
        assert np.abs(grads[params["layer0.attn.mu"]]).sum() > 0
        present = {e.kind for e in g.edges}
        for maps in ("w_att", "w_msg"):
            assert any(np.abs(grads[params[f"layer0.attn.{maps}.{k.value}"]]).sum() > 0
                       for k in present)


def masked_attention_layer(tape, h, plan, params, heads):
    """Layer 0 with every kind's transform on every row, masked to its kind's rows and
    summed (``naive_typed_rows``, ``naive_edge_rows``), then ``attend_core``."""
    p = "layer0.attn"

    def typed(name):
        groups = [(rows, params[f"{p}.w_{name}.{kind.value}"],
                   params[f"{p}.b_{name}.{kind.value}"]) for kind, rows in plan.node_rows.items()]
        return naive_typed_rows(tape, h, groups, 1)

    k, q, v = typed("k"), typed("q"), typed("v")
    keys = naive_edge_rows(tape, plan, k, params, f"{p}.w_att", heads)
    messages = naive_edge_rows(tape, plan, v, params, f"{p}.w_msg", heads)
    return attend_core(tape, keys, gather(tape, q, plan.dst), params[f"{p}.mu"], messages,
                       plan.mu_idx, plan.dst, plan.n, heads)


class TestTypedRowsAgainstMaskedOracle:
    """Each kind's transform on its own rows equals every kind's on every row, masked."""

    @pytest.mark.parametrize("heads", [1, 4])
    def test_layer_and_gradients(self, heads):
        rng = np.random.default_rng(17 + heads)
        for _ in range(20):
            g = random_graph(rng)
            if not g.edges:
                continue
            plan = build_plan(g)
            params = layer_params(8, heads, rng)
            h = Tensor(rng.normal(size=(len(g.nodes), 8)), requires_grad=True)
            weights = rng.normal(size=h.shape)
            leaves = [h, *(t for name, t in params.items() if name.startswith("layer0.attn."))]

            def run(layer):
                tape = ad.Tape()
                out = layer(tape)
                grads = ad.backward(tape, reduce_sum(tape, mul(tape, out, constant(weights))))
                return [out.data] + [grads[t] for t in leaves]

            fused = run(lambda tape: attention_forward(tape, h, plan, params, 0, heads))
            masked = run(lambda tape: masked_attention_layer(tape, h, plan, params, heads))
            for got, want in zip(fused, masked):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestComposedStagesPinnedToAttend:
    """The composed stages that the logit and weight tests read (``naive_reference``)
    compute the layer that ``attention_forward`` runs as one ``autodiff.attend`` record."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), heads=st.sampled_from([1, 2, 4]),
           prior=st.sampled_from([1.0, 300.0]))
    def test_same_layer_and_gradients(self, seed, heads, prior):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        while not g.edges:
            g = random_graph(rng)
        params = layer_params(8, heads, rng)
        mu = params["layer0.attn.mu"]
        mu.data = prior * rng.uniform(0.5, 1.5, size=mu.shape)
        plan = build_plan(g)
        h = Tensor(rng.normal(size=(len(g.nodes), 8)), requires_grad=True)
        weights = rng.normal(size=h.shape)
        leaves = [h, *(t for name, t in params.items() if name.startswith("layer0.attn."))]

        def run(layer):
            tape = ad.Tape()
            out = layer(tape, h, plan, params, 0, heads)
            grads = ad.backward(tape, reduce_sum(tape, mul(tape, out, constant(weights))))
            return [out.data] + [grads[t] for t in leaves]

        for got, want in zip(run(attention_forward), run(composed_attention)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# the (source kind, edge kind, target kind) prior rows the plans below use
DEL, ADD = NodeKind.DELETED, NodeKind.ADDED
CONTROL, CALL, MAPPING = EdgeKind.CONTROL_FLOW, EdgeKind.CALL, EdgeKind.LINE_MAPPING


def plan_arrays(**changes):
    """The arrays of a valid 4-node, 3-edge plan, with ``changes`` applied: rows 0 and 1
    are deleted, 2 and 3 added; edges 0 -> 1 (control flow), 1 -> 0 and 2 -> 1 (call)."""
    arrays = dict(n=4, src=[0, 1, 2], dst=[1, 0, 1],
                  mu_idx=[mu_index(DEL, CONTROL, DEL), mu_index(DEL, CALL, DEL),
                          mu_index(ADD, CALL, DEL)],
                  node_counts=[2, 2], node_ids=[0, 1, 2, 3])
    arrays.update(changes)
    return arrays


def attend_plan(states, plan, **indices):
    """``autodiff.attend`` of ``states`` over ``plan``'s edges, one head, with identity maps
    over one run of every row and edge; ``indices`` replace the plan's index arrays."""
    typed = [(slice(0, 4), constant(np.eye(2)), constant(np.zeros(2)))]
    maps = [(slice(0, 3), constant(np.eye(2)))]
    arrays = {**dict(src=plan.src, dst=plan.dst, mu_idx=plan.mu_idx), **indices}
    return ad.attend(None, states, constant(np.ones((4, 2))), typed, typed, typed, maps, maps,
                     constant(np.ones((MU_SIZE, 1))), heads=1, **arrays)


def counts_message(got):
    return (rf"GraphPlan node_counts: must be 2 non-negative integers, one per NodeKind, "
            rf"got {got}$")


class TestPlanChecksItsArraysOnce:
    """A plan checks every index array when it is made and holds only checked ones."""

    def test_a_plan_holds_read_only_checked_indices(self):
        plan = GraphPlan(**plan_arrays())
        bounds = dict(src=4, dst=4, mu_idx=MU_SIZE, node_ids=4)
        for name, bound in bounds.items():
            arr = getattr(plan, name)
            assert type(arr) is CheckedIndex and arr.bound == bound, name
            assert arr.dtype == np.intp and not arr.flags.writeable, name
        # every kind's rows are one run, derived from the counts and the edges' prior rows
        assert plan.node_counts == (2, 2)
        assert plan.node_rows == {DEL: slice(0, 2), ADD: slice(2, 4)}
        assert plan.edge_rows == {CONTROL: slice(0, 1), CALL: slice(1, 3)}
        with pytest.raises(ValueError, match="read-only"):
            plan.src[0] = 3

    def test_the_scored_block_holds_checked_indices_of_the_deleted_lines(self):
        # edges 0 -> 1 (control flow), 3 -> 2 (control flow), which ends at an added line,
        # 1 -> 0 (call) and 2 -> 1 (call)
        kept_mu = [mu_index(DEL, CONTROL, DEL), mu_index(DEL, CALL, DEL), mu_index(ADD, CALL, DEL)]
        plan = GraphPlan(**plan_arrays(src=[0, 3, 1, 2], dst=[1, 2, 0, 1],
                                       mu_idx=kept_mu[:1] + [mu_index(ADD, CONTROL, ADD)]
                                       + kept_mu[1:]))
        block = plan.scored
        assert block.n == 2
        for name, bound, values in (("src", 4, [0, 1, 2]), ("dst", 2, [1, 0, 1]),
                                    ("mu_idx", MU_SIZE, kept_mu)):
            arr = getattr(block, name)
            assert type(arr) is CheckedIndex and arr.bound == bound, name
            assert arr.tolist() == values and not arr.flags.writeable, name
        assert block.node_rows == {DEL: slice(0, 2)}
        assert block.edge_rows == {CONTROL: slice(0, 1), CALL: slice(1, 3)}
        no_deleted = GraphPlan(**plan_arrays(node_counts=(0, 4), mu_idx=[
            mu_index(ADD, CONTROL, ADD), mu_index(ADD, CALL, ADD), mu_index(ADD, CALL, ADD)]))
        assert no_deleted.scored.n == 0 and len(no_deleted.scored.src) == 0
        assert not no_deleted.scored.node_rows and not no_deleted.scored.edge_rows

    @pytest.mark.parametrize("changes, node_rows, edge_rows", [
        (dict(node_counts=np.array([2, 2])), {DEL: slice(0, 2), ADD: slice(2, 4)},
         {CONTROL: slice(0, 1), CALL: slice(1, 3)}),
        (dict(node_counts=(4, 0), mu_idx=[mu_index(DEL, CONTROL, DEL), mu_index(DEL, CALL, DEL),
                                          mu_index(DEL, CALL, DEL)]),
         {DEL: slice(0, 4)}, {CONTROL: slice(0, 1), CALL: slice(1, 3)}),
        # within a kind, prior rows need not ascend: only the edge kind they name must not fall
        (dict(src=[0, 2, 1], mu_idx=[mu_index(DEL, CONTROL, DEL), mu_index(ADD, CALL, DEL),
                                     mu_index(DEL, CALL, DEL)]),
         {DEL: slice(0, 2), ADD: slice(2, 4)}, {CONTROL: slice(0, 1), CALL: slice(1, 3)}),
        (dict(src=[], dst=[], mu_idx=[]), {DEL: slice(0, 2), ADD: slice(2, 4)}, {}),
    ], ids=["numpy-counts", "one-kind", "prior-rows-fall-within-a-kind", "no-edges"])
    def test_the_runs_are_read_from_the_counts_and_the_prior_rows(self, changes, node_rows,
                                                                   edge_rows):
        plan = GraphPlan(**plan_arrays(**changes))
        assert plan.node_rows == node_rows and plan.edge_rows == edge_rows
        # int bounds, which attend and take_rows require of a run
        assert all(type(rows.start) is type(rows.stop) is int
                   for runs in (plan.node_rows, plan.edge_rows) for rows in runs.values())
        assert plan.node_counts == tuple(int(c) for c in changes.get("node_counts", (2, 2)))

    def test_the_plan_keeps_its_own_copies(self):
        arrays = plan_arrays(src=np.array([0, 1, 2]))
        plan = GraphPlan(**arrays)
        arrays["src"][0] = 99
        assert plan.src.tolist() == [0, 1, 2] and arrays["src"].flags.writeable

    @pytest.mark.parametrize("changes, message", [
        (dict(src=[0, 1, 4]), r"GraphPlan src: indices must lie in \[0, 4\)"),
        (dict(src=[0, -1, 2]), r"GraphPlan src: indices must lie in \[0, 4\)"),
        (dict(src=[[0, 1, 2]]), r"GraphPlan src: indices must be 1-D"),
        (dict(dst=[1, 4, 1]), r"GraphPlan dst: indices must lie in \[0, 4\)"),
        (dict(dst=[1, -4, 1]), r"GraphPlan dst: indices must lie in \[0, 4\)"),
        (dict(mu_idx=[5, 0, MU_SIZE]), rf"GraphPlan mu_idx: indices must lie in \[0, {MU_SIZE}\)"),
        (dict(mu_idx=[5, -1, 0]), rf"GraphPlan mu_idx: indices must lie in \[0, {MU_SIZE}\)"),
        (dict(dst=[1, 0]), r"GraphPlan src, dst, mu_idx: need one entry per edge, got 3, 2 and 3"),
        (dict(n=-1), r"GraphPlan n: must be a non-negative integer"),
        (dict(n=True), r"GraphPlan n: must be a non-negative integer, got True$"),
        (dict(n=4.0), r"GraphPlan n: must be a non-negative integer, got 4.0$"),
        (dict(node_ids=[0, 1, 1, 3]), r"GraphPlan node_ids: must be a permutation of \[0, 4\)$"),
        (dict(node_ids=[0, 1, 2]), r"GraphPlan node_ids: must be a permutation of \[0, 4\)$"),
        (dict(node_ids=[0, 1, 2, 4]), r"GraphPlan node_ids: indices must lie in \[0, 4\)"),
        (dict(node_counts=[2, 1, 1]), counts_message(r"\[2, 1, 1\]")),
        (dict(node_counts=[5, -1]), counts_message(r"\[5, -1\]")),
        (dict(node_counts=[True, 3]), counts_message(r"\[True, 3\]")),
        (dict(node_counts=[2.0, 2]), counts_message(r"\[2.0, 2\]")),
        (dict(node_counts=4), counts_message("4")),
        (dict(node_counts=None), counts_message("None")),
        (dict(node_counts=np.array([True, True])), counts_message(r"array\(\[ True,  True\]\)")),
        (dict(node_counts=[2, 1]), r"GraphPlan node_counts: must sum to n=4, got 3$"),
        (dict(mu_idx=[mu_index(DEL, CALL, DEL), mu_index(DEL, CONTROL, DEL),
                      mu_index(ADD, CALL, DEL)]),
         r"GraphPlan mu_idx: edges must come in edge-kind order$"),
        (dict(mu_idx=[mu_index(DEL, CONTROL, DEL), mu_index(DEL, MAPPING, DEL),
                      mu_index(ADD, MAPPING, DEL)], node_ids=[1, 0, 3, 2]),
         r"GraphPlan mu_idx: a line_mapping edge must end at an added line, but one ends at "
         r"deleted node 1$"),
        (dict(node_counts=(0, 4)),
         r"GraphPlan mu_idx: edge 0 names the deleted -> deleted prior, but runs from row 0 "
         r"\(added\) to row 1 \(added\)$"),
        (dict(src=[0, 1, 0]),
         r"GraphPlan mu_idx: edge 2 names the added -> deleted prior, but runs from row 0 "
         r"\(deleted\) to row 1 \(deleted\)$"),
        (dict(mu_idx=[mu_index(DEL, CONTROL, DEL), mu_index(DEL, CALL, ADD),
                      mu_index(ADD, CALL, DEL)]),
         r"GraphPlan mu_idx: edge 1 names the deleted -> added prior, but runs from row 1 "
         r"\(deleted\) to row 0 \(deleted\)$"),
        (dict(mu_idx=[mu_index(DEL, CONTROL, DEL), mu_index(DEL, CALL, DEL),
                      mu_index(DEL, CALL, DEL)]),
         r"GraphPlan mu_idx: edge 2 names the deleted -> deleted prior, but runs from row 2 "
         r"\(added\) to row 1 \(deleted\)$"),
    ], ids=["src-high", "src-negative", "src-2d", "dst-high", "dst-negative", "mu_idx-high",
            "mu_idx-negative", "edge-count", "n-negative", "n-bool", "n-float",
            "node_ids-repeated", "node_ids-short", "node_ids-high", "node_counts-length",
            "node_counts-negative", "node_counts-bool", "node_counts-float",
            "node_counts-not-a-list", "node_counts-none", "node_counts-bool-array",
            "node_counts-sum", "mu_idx-edge-kind-order", "line_mapping-into-a-deleted-line",
            "prior-kinds-of-no-row", "prior-source-kind", "prior-target-kind",
            "prior-source-kind-of-the-last-edge"])
    def test_a_bad_array_is_named_when_the_plan_is_made(self, changes, message):
        with pytest.raises(ValueError, match="^" + message):
            GraphPlan(**plan_arrays(**changes))

    @pytest.mark.parametrize("name", ["src", "dst", "mu_idx", "node_ids"])
    @pytest.mark.parametrize("dtype", [float, bool, object])
    def test_a_non_integer_array_is_named(self, name, dtype):
        change = np.array(plan_arrays()[name], dtype=dtype)
        with pytest.raises(ValueError, match=f"^GraphPlan {name}: indices must be integers, "
                                             f"got dtype {np.dtype(dtype)}$"):
            GraphPlan(**plan_arrays(**{name: change}))

    def test_arrays_derived_from_a_plan_are_rejected(self):
        plan = GraphPlan(**plan_arrays())
        shifted, head = plan.src + 2, plan.src[:2]
        assert type(shifted) is CheckedIndex and shifted.bound is None and head.bound is None
        assert attend_plan(constant(np.arange(8.0).reshape(4, 2)), plan).shape == (4, 2)
        for derived in (shifted, head, np.array(plan.src)):
            with pytest.raises(ValueError, match=r"^attend: src must be a CheckedIndex "
                                                 r"of \[0, 4\)$"):
                attend_plan(constant(np.ones((4, 2))), plan, src=derived)
        # checked against another length, an index is rejected too
        with pytest.raises(ValueError, match=r"^attend: src must be a CheckedIndex "
                                             r"of \[0, 2\)$"):
            attend_plan(constant(np.ones((2, 2))), plan)

    def test_a_pickled_plan_is_checked_again(self):
        plan = GraphPlan(**plan_arrays())
        for restored in (pickle.loads(pickle.dumps(plan)), copy.deepcopy(plan)):
            assert restored is not plan and restored.src.bound == 4
            assert restored.node_ids.bound == 4 and restored.node_ids.tolist() == [0, 1, 2, 3]
            # the runs are derived again from the counts and the prior rows
            assert restored.node_counts == (2, 2)
            assert restored.node_rows == {DEL: slice(0, 2), ADD: slice(2, 4)}
            assert restored.edge_rows == {CONTROL: slice(0, 1), CALL: slice(1, 3)}
            assert restored.scored.n == 2 and restored.scored.edge_rows == plan.scored.edge_rows
        # a pickled index alone comes back unchecked, and no op takes it
        restored = pickle.loads(pickle.dumps(plan.src))
        assert restored.bound is None
        with pytest.raises(ValueError, match="^attend: src must be a CheckedIndex"):
            attend_plan(constant(np.ones((4, 2))), plan, src=restored)
