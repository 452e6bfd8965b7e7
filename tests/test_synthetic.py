import pytest

from rootrank.graphs import EdgeKind, NodeKind, dataset_to_dict, validate_graph
from rootrank.synthetic import (
    NOISE_VOCAB,
    SIGNAL_VOCAB,
    GenConfig,
    generate,
)

from naive_reference import signal_token_count


class TestGenerate:
    def test_every_graph_validates(self):
        ds = generate(GenConfig(n_commits=30, seed=1))
        for g in ds.graphs:
            assert validate_graph(g) == [], g.commit_id

    def test_exactly_one_root_cause_and_counts(self):
        cfg = GenConfig(n_commits=12, deleted_per_commit=7, added_per_commit=4, seed=2)
        ds = generate(cfg)
        for g in ds.graphs:
            kinds = [n.kind for n in g.nodes]
            assert kinds.count(NodeKind.DELETED) == 7
            assert kinds.count(NodeKind.ADDED) == 4
            assert len(g.root_cause_ids()) == 1

    def test_full_signal_plants_tokens_and_edge(self):
        ds = generate(GenConfig(n_commits=25, signal_strength=1.0, seed=3))
        for g in ds.graphs:
            [root] = g.root_cause_ids()
            assert signal_token_count(g.nodes[root].text) > 0
            marker = [
                e for e in g.edges
                if e.dst == root
                and e.kind is EdgeKind.DATA_DEPENDENCY
                and g.nodes[e.src].kind is NodeKind.ADDED
                and signal_token_count(g.nodes[e.src].text) > 0
            ]
            assert marker, f"{g.commit_id}: no signal edge"

    def test_zero_signal_removes_tokens(self):
        ds = generate(GenConfig(n_commits=25, signal_strength=0.0, seed=4))
        for g in ds.graphs:
            for node in g.nodes:
                assert signal_token_count(node.text) == 0

    def test_deterministic_given_seed(self):
        cfg = GenConfig(n_commits=10, seed=9)
        assert dataset_to_dict(generate(cfg)) == dataset_to_dict(generate(cfg))

    def test_different_seeds_differ(self):
        a = dataset_to_dict(generate(GenConfig(n_commits=5, seed=1)))
        b = dataset_to_dict(generate(GenConfig(n_commits=5, seed=2)))
        assert a != b

    def test_vocabularies_disjoint(self):
        assert not set(SIGNAL_VOCAB) & set(NOISE_VOCAB)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(deleted_per_commit=1)
        with pytest.raises(ValueError):
            GenConfig(edge_density=1.5)
        with pytest.raises(ValueError):
            GenConfig(signal_strength=-0.1)


class TestStructureOnly:
    def test_deleted_texts_carry_no_tokens(self):
        ds = generate(GenConfig(n_commits=20, structure_only=True, seed=5))
        for g in ds.graphs:
            for node in g.nodes:
                if node.kind is NodeKind.DELETED:
                    assert signal_token_count(node.text) == 0

    def test_marker_edge_pattern_exclusive_to_root(self):
        ds = generate(GenConfig(n_commits=20, structure_only=True, seed=6))
        for g in ds.graphs:
            [root] = g.root_cause_ids()
            for e in g.edges:
                if (
                    e.kind is EdgeKind.DATA_DEPENDENCY
                    and g.nodes[e.src].kind is NodeKind.ADDED
                    and g.nodes[e.dst].kind is NodeKind.DELETED
                ):
                    assert e.dst == root


class TestTokenOracle:
    def test_token_count_ranker_is_perfect_at_full_signal(self):
        """Scoring deleted lines by signal-token count finds every root."""
        ds = generate(GenConfig(n_commits=40, signal_strength=1.0, seed=7))
        hits = 0
        for g in ds.graphs:
            deleted = g.deleted_ids()
            best = max(deleted, key=lambda nid: (signal_token_count(g.nodes[nid].text), -nid))
            if g.nodes[best].is_root_cause:
                hits += 1
        assert hits == len(ds.graphs)
