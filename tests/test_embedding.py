import pickle
import re

import numpy as np
import pytest

from rootrank import embedding
from rootrank.embedding import (
    EmbeddedGraph,
    HashingEmbedder,
    detect_precomputed_dim,
    embed_dataset,
    embed_lines,
)
from rootrank.graphs import CommitGraph, Dataset, LineNode, NodeKind
from rootrank.synthetic import GenConfig, generate


def embed_hash(text, dim):
    """The embedding of one line: ``embed_lines`` of a one-line list."""
    return embed_lines([text], dim)[0]


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

            def embed_lines(self, texts):
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

            def embed_lines(self, texts):
                return np.zeros((len(texts), 768))

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


def line_by_line(text, dim):
    """The per-line feature-hashing loop ``embed_lines`` replaced: one FNV-1a hash per feature."""
    tokens = re.findall(r"[A-Za-z0-9]+", text)
    vec = np.zeros(dim, dtype=np.float64)
    for feat in tokens + [f"{a}\x1f{b}" for a, b in zip(tokens, tokens[1:])]:
        h = embedding._fnv1a(feat.encode("utf-8"))
        vec[h % dim] += 1.0 if h & (1 << 63) else -1.0
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def signed_counts(text, dim):
    """(+1 count, -1 count) of each bucket of ``text``'s features."""
    tokens = re.findall(r"[A-Za-z0-9]+", text)
    counts = np.zeros((dim, 2), dtype=int)
    for feat in tokens + [f"{a}\x1f{b}" for a, b in zip(tokens, tokens[1:])]:
        h = embedding._fnv1a(feat.encode("utf-8"))
        counts[h % dim, 0 if h & (1 << 63) else 1] += 1
    return counts


# Bench-shaped synthetic datasets: 15-node, 300-node and 90-node commits.
BENCH_SHAPES = [GenConfig(n_commits=20, deleted_per_commit=10, added_per_commit=5,
                          edge_density=0.08, seed=101),
                GenConfig(n_commits=2, deleted_per_commit=200, added_per_commit=100,
                          edge_density=0.01, seed=101),
                GenConfig(n_commits=4, deleted_per_commit=60, added_per_commit=30,
                          edge_density=0.03, seed=8020)]


class TestHashOnce:
    """``embed_lines`` hashes each distinct feature once and equals the per-line loop bitwise."""

    @pytest.mark.parametrize("gen", BENCH_SHAPES, ids=["small", "large", "medium"])
    def test_dataset_rows_equal_the_per_line_loop(self, gen):
        ds = generate(gen)
        for g, eg in zip(ds.graphs, embed_dataset(ds, HashingEmbedder(64))):
            for node, row in zip(g.nodes, eg.h0):
                assert np.array_equal(row, embed_hash(node.text, 64))
                assert np.array_equal(row, line_by_line(node.text, 64))

    # in 2 buckets, one feature of each sign lands in bucket 0
    CANCELLING = "a b"

    @pytest.mark.parametrize("dim", [1, 2, 7, 64])
    def test_edge_case_lines_equal_the_per_line_loop(self, dim):
        lines = ["", "  ;;{}  ", "x", "a a a a a", "foo(foo, foo) foo", self.CANCELLING,
                 "größe = naïve_λ + 𝔘nicode", "日本語 テキスト", "return a + b;"]
        together = embed_lines(lines, dim)
        assert together.shape == (len(lines), dim)
        for text, row in zip(lines, together):
            assert np.array_equal(row, line_by_line(text, dim)), text
            assert np.array_equal(row, embed_hash(text, dim)), text
            assert np.array_equal(embed_lines([text], dim)[0], row), text
        assert embed_lines([], dim).shape == (0, dim)

    def test_a_cancelling_bucket_is_an_exact_zero(self):
        counts = signed_counts(self.CANCELLING, 2)
        cancelled = (counts[:, 0] == counts[:, 1]) & (counts[:, 0] > 0)
        assert cancelled.any()
        row = embed_hash(self.CANCELLING, 2)
        assert np.array_equal(row[cancelled], np.zeros(cancelled.sum()))
        assert not np.signbit(row[cancelled]).any()

    def test_a_graph_of_precomputed_and_text_rows(self):
        vec = (0.5, -0.25, 2.0, 0.0)
        ds = _dataset([[LineNode(0, NodeKind.DELETED, text="alpha(beta)", is_root_cause=True),
                        LineNode(1, NodeKind.DELETED, embedding=vec),
                        LineNode(2, NodeKind.ADDED, text="gamma"),
                        LineNode(3, NodeKind.ADDED, text="ignored", embedding=vec)]])
        calls = []

        class Recording(HashingEmbedder):
            def embed_lines(self, texts):
                calls.append(list(texts))
                return super().embed_lines(texts)

        [eg] = embed_dataset(ds, Recording(4))
        assert calls == [["alpha(beta)", "gamma"]]     # one call per graph, text rows only
        assert np.array_equal(eg.h0[0], line_by_line("alpha(beta)", 4))
        assert np.array_equal(eg.h0[1], np.array(vec))
        assert np.array_equal(eg.h0[2], line_by_line("gamma", 4))
        assert np.array_equal(eg.h0[3], np.array(vec))

    def test_each_distinct_feature_is_hashed_once(self, monkeypatch):
        hashed = []
        real = embedding._fnv1a

        def counting(data):
            hashed.append(data)
            return real(data)

        monkeypatch.setattr(embedding, "_fnv1a", counting)
        embedding._feature_hash.cache_clear()
        rows = embed_lines(["a b a b", "b a", "a b"], 16)
        assert sorted(hashed) == sorted([b"a", b"b", b"a\x1fb", b"b\x1fa"])
        assert 1000 <= embedding._feature_hash.cache_info().maxsize <= 10000
        embedding._feature_hash.cache_clear()
        assert np.array_equal(rows, np.array([line_by_line(t, 16) for t in
                                              ["a b a b", "b a", "a b"]]))


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
