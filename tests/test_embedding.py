import pickle

import numpy as np
import pytest

from rootrank.embedding import (
    EmbeddedGraph,
    HashingEmbedder,
    detect_precomputed_dim,
    embed_dataset,
    embed_hash,
)
from rootrank.graphs import CommitGraph, Dataset, LineNode, NodeKind


class TestEmbedHash:
    def test_empty_text_is_zero_vector(self):
        v = embed_hash("", 8)
        assert v.shape == (8,)
        assert np.all(v == 0.0)

    def test_deterministic(self):
        a = embed_hash("int x = 0;", 16)
        b = embed_hash("int x = 0;", 16)
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        v = embed_hash("return a + b;", 32)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_norm_is_one_or_zero_across_many_lines(self):
        lines = ["", "x", "foo(bar, baz)", "if (a == b) { return; }", "###", "a b c d e f"]
        for dim in (4, 64, 768):
            for line in lines:
                n = np.linalg.norm(embed_hash(line, dim))
                assert n == 0.0 or abs(n - 1.0) < 1e-12

    def test_distinct_texts_usually_differ(self):
        a = embed_hash("open(path)", 64)
        b = embed_hash("close(handle)", 64)
        assert not np.array_equal(a, b)

    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError):
            embed_hash("x", 0)


def _dataset(nodes_per_graph):
    graphs = []
    for gi, nodes in enumerate(nodes_per_graph):
        graphs.append(
            CommitGraph(
                commit_id=f"c{gi}",
                nodes=tuple(nodes),
                edges=(),
                timestamp=None,
            )
        )
    return Dataset(graphs=tuple(graphs), name="t")


class TestEmbedDataset:
    def test_precomputed_rows_used_verbatim(self):
        rng = np.random.default_rng(0)
        vec0 = tuple(rng.normal(size=4))
        vec1 = tuple(rng.normal(size=4))
        ds = _dataset([
            [
                LineNode(0, NodeKind.DELETED, text=None, is_root_cause=True, embedding=vec0),
                LineNode(1, NodeKind.ADDED, text=None, embedding=vec1),
            ]
        ])

        class FixedDim:
            def dim(self):
                return 4

            def embed(self, text):
                raise AssertionError("must not be called for precomputed nodes")

        [eg] = embed_dataset(ds, FixedDim())
        assert np.array_equal(eg.h0[0], np.array(vec0))
        assert np.array_equal(eg.h0[1], np.array(vec1))

    def test_length_mismatch_rejected(self):
        ds = _dataset([
            [LineNode(0, NodeKind.DELETED, text=None, is_root_cause=True, embedding=(1.0,) * 767)]
        ])

        class D768:
            def dim(self):
                return 768

            def embed(self, text):
                return np.zeros(768)

        with pytest.raises(ValueError, match="767"):
            embed_dataset(ds, D768())

    def test_hashing_matches_embed_hash_per_row(self):
        texts = ["return a + b;", "int x = 0;"]
        ds = _dataset([
            [
                LineNode(0, NodeKind.DELETED, text=texts[0], is_root_cause=True),
                LineNode(1, NodeKind.ADDED, text=texts[1]),
            ]
        ])
        [eg] = embed_dataset(ds, HashingEmbedder(64))
        assert eg.h0.shape == (2, 64)
        for i, text in enumerate(texts):
            assert np.array_equal(eg.h0[i], embed_hash(text, 64))

    def test_node_missing_text_and_embedding_rejected(self):
        ds = _dataset([[LineNode(0, NodeKind.DELETED, text=None, is_root_cause=True)]])
        with pytest.raises(ValueError, match="neither text nor embedding"):
            embed_dataset(ds, HashingEmbedder(8))

    def test_permuting_graphs_permutes_outputs(self):
        a = [LineNode(0, NodeKind.DELETED, text="alpha beta", is_root_cause=True)]
        b = [LineNode(0, NodeKind.DELETED, text="gamma delta", is_root_cause=True)]
        fwd = embed_dataset(_dataset([a, b]), HashingEmbedder(32))
        rev = embed_dataset(_dataset([b, a]), HashingEmbedder(32))
        assert np.array_equal(fwd[0].h0, rev[1].h0)
        assert np.array_equal(fwd[1].h0, rev[0].h0)


class TestEmbeddedGraph:
    """An embedded graph's initial vectors are its own, checked finite once and read-only."""

    def test_writing_to_the_initial_vectors_raises(self):
        g = _dataset([[LineNode(0, NodeKind.DELETED, text="a b", is_root_cause=True),
                       LineNode(1, NodeKind.ADDED, text="c")]]).graphs[0]
        h0 = np.ones((2, 4))
        eg = EmbeddedGraph(graph=g, h0=h0)
        for restored in (eg, pickle.loads(pickle.dumps(eg))):
            assert not restored.h0.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                restored.h0[0, 0] = np.nan
            with pytest.raises(ValueError, match="read-only"):
                restored.h0 += 1.0
            assert np.array_equal(restored.h0, np.ones((2, 4)))
        # the graph takes a float64 array over, so its caller cannot write to it either,
        # and copies a view, whose base could
        assert eg.h0 is h0 and not h0.flags.writeable
        for base in (np.ones((2, 8)), np.ones((4, 2))):
            eg = EmbeddedGraph(graph=g, h0=base[:, :4] if len(base) == 2 else base.T)
            base[0, 0] = np.nan
            assert np.isfinite(eg.h0).all() and not eg.h0.flags.writeable
            assert eg.h0.flags.c_contiguous

    def test_the_forward_pass_input_is_made_once_over_the_vectors(self):
        [eg] = embed_dataset(_dataset([[LineNode(0, NodeKind.DELETED, text="x",
                                                  is_root_cause=True)]]), HashingEmbedder(8))
        assert eg.h0_tensor is eg.h0_tensor and eg.h0_tensor.data is eg.h0
        assert not eg.h0_tensor.requires_grad

    def test_non_finite_vectors_are_rejected(self):
        g = _dataset([[LineNode(0, NodeKind.DELETED, text="x", is_root_cause=True)]]).graphs[0]
        with pytest.raises(ValueError, match="non-finite embedding values"):
            EmbeddedGraph(graph=g, h0=np.array([[1.0, np.inf]]))


class TestDetectPrecomputedDim:
    def test_all_present_returns_dim(self):
        ds = _dataset([[LineNode(0, NodeKind.DELETED, embedding=(0.0,) * 12, is_root_cause=True)]])
        assert detect_precomputed_dim(ds) == 12

    def test_any_missing_returns_none(self):
        ds = _dataset([
            [
                LineNode(0, NodeKind.DELETED, text="x", is_root_cause=True),
                LineNode(1, NodeKind.ADDED, embedding=(0.0,) * 12),
            ]
        ])
        assert detect_precomputed_dim(ds) is None

    def test_inconsistent_lengths_raise(self):
        ds = _dataset([
            [
                LineNode(0, NodeKind.DELETED, embedding=(0.0,) * 8, is_root_cause=True),
                LineNode(1, NodeKind.ADDED, embedding=(0.0,) * 9),
            ]
        ])
        with pytest.raises(ValueError, match="inconsistent"):
            detect_precomputed_dim(ds)
