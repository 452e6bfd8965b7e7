"""Locality: with L layers, a deleted line's score reads only its L-hop incoming ball.

Each layer refreshes a node from its own state and the states of the sources
of its incoming edges, so after L layers line v's score depends only on the
vectors of the nodes with a path of at most L edges into v (its L-hop
incoming ball), and on the edges that end within L - 1 hops of v.  These
properties catch index and offset faults in ``build_plan`` that rankings
alone can miss.  Scores stay bit-identical, as every op computes a node's
row from that row and its own incoming edges, except where a product's row
count changes between one and more (see below).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rootrank.embedding import EmbeddedGraph
from rootrank.graphs import CommitGraph, DepEdge, EdgeKind, NodeKind
from rootrank.network import Mode, ModelConfig, init_network_params
from rootrank.ranker import TrainedModel, rank_commit
from rootrank.synthetic import GenConfig, generate


def in_ball(graph: CommitGraph, v: int, hops: int) -> set[int]:
    """The nodes with a path of at most ``hops`` edges into ``v``, ``v`` included."""
    ball = frontier = {v}
    for _ in range(hops):
        frontier = {e.src for e in graph.edges if e.dst in frontier} - ball
        ball = ball | frontier
    return ball


def scores(model: TrainedModel, graph: CommitGraph, h0: np.ndarray) -> dict[int, float]:
    """Each deleted line's score, scored as a commit of its own."""
    return dict(rank_commit(model, EmbeddedGraph(graph=graph, h0=h0)))


@st.composite
def cases(draw):
    """A synthetic commit, its vectors, a random model over them and a seeded generator."""
    cfg = ModelConfig(dim=16, heads=2, layers=draw(st.integers(1, 3)),
                      mode=draw(st.sampled_from(Mode)))
    seed = draw(st.integers(0, 2**32 - 1))
    graph = generate(GenConfig(n_commits=1, deleted_per_commit=draw(st.integers(2, 8)),
                               added_per_commit=draw(st.integers(1, 5)),
                               edge_density=draw(st.sampled_from([0.05, 0.15, 0.3])),
                               seed=seed)).graphs[0]
    rng = np.random.default_rng(seed)
    params = init_network_params(cfg, rng, random_scorer=True)   # a zero scorer scores all 0
    h0 = rng.normal(size=(len(graph.nodes), cfg.dim))
    return TrainedModel(params=params, cfg=cfg, training_log=[]), graph, h0, rng


class TestLocality:
    @settings(max_examples=60, deadline=None)
    @given(case=cases())
    def test_new_vectors_outside_the_ball_leave_the_score(self, case):
        model, graph, h0, rng = case
        before = scores(model, graph, h0)
        for v in graph.deleted_ids():
            outside = sorted(set(range(len(graph.nodes))) - in_ball(graph, v, model.cfg.layers))
            h1 = h0.copy()
            h1[outside] = rng.normal(size=(len(outside), model.cfg.dim))
            assert scores(model, graph, h1)[v] == before[v], (v, outside)

    @settings(max_examples=60, deadline=None)
    @given(case=cases())
    def test_an_edge_into_a_node_beyond_l_minus_1_hops_leaves_the_score(self, case):
        model, graph, h0, rng = case
        before = scores(model, graph, h0)
        present = {(e.src, e.dst, e.kind) for e in graph.edges}
        for v in graph.deleted_ids():
            near = in_ball(graph, v, model.cfg.layers - 1)
            new = [(src, dst, kind) for src in range(len(graph.nodes))
                   for dst in range(len(graph.nodes)) for kind in EdgeKind
                   if dst not in near and src != dst and (src, dst, kind) not in present
                   and (kind is not EdgeKind.LINE_MAPPING
                        or (graph.nodes[src].kind, graph.nodes[dst].kind)
                        == (NodeKind.DELETED, NodeKind.ADDED))]
            if not new:
                continue
            edge = DepEdge(*new[int(rng.integers(len(new)))])
            grown = CommitGraph(commit_id=graph.commit_id, nodes=graph.nodes,
                                edges=graph.edges + (edge,), timestamp=graph.timestamp)
            after = scores(model, grown, h0)[v]
            # the last layer's edges: those that end at a deleted line
            scored = [e for e in graph.edges if graph.nodes[e.dst].kind is NodeKind.DELETED]
            if (sum(e.kind is edge.kind for e in graph.edges) == 1
                    or (graph.nodes[edge.dst].kind is NodeKind.DELETED
                        and sum(e.kind is edge.kind for e in scored) == 1)):
                # The edge's kind grows from one row to two, in a layer's plan or in the last
                # layer's block, and numpy multiplies a single row through BLAS's
                # matrix-vector kernel, which rounds unlike the matrix-matrix one.  Of 2,027
                # probed edges, the 33 that moved a score were all of this case, by 5.6e-15
                # relative at most.
                assert math.isclose(after, before[v], rel_tol=1e-12, abs_tol=1e-12), (v, edge)
            else:
                assert after == before[v], (v, edge)
