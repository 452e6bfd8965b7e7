import dataclasses
import math
import typing

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rootrank.graphs import EdgeKind, NodeKind, dataset_to_dict, validate_graph
from rootrank.network import ConfigError
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


GEN_VALUES = {
    "n_commits": st.integers(1, 3), "deleted_per_commit": st.integers(2, 5),
    "added_per_commit": st.integers(1, 4), "seed": st.integers(0, 2**70),
    "edge_density": st.floats(0, 1) | st.sampled_from([0, 1]),
    "signal_strength": st.floats(0, 1) | st.sampled_from([0, 1]), "structure_only": st.booleans(),
}
ODD_VALUES = st.sampled_from([0, 1, -1, 2, 10**400, -10**400, 0.5, -0.5, 1.5, math.nan, math.inf,
                              -math.inf, True, False, "no", "", "1", None])


@st.composite
def gen_kwargs(draw):
    kwargs = {name: draw(values) for name, values in GEN_VALUES.items() if draw(st.booleans())}
    for name in draw(st.lists(st.sampled_from(sorted(GEN_VALUES)), max_size=2, unique=True)):
        kwargs[name] = draw(ODD_VALUES)
    return kwargs


# For each field annotation: the types a wrong type's message names, and values of other types
WRONG_TYPES = {
    int: ("int", [True, 1.5, "1", None]),
    float: ("int or float", [True, "0.1", None]),
    bool: ("bool", [1, "no", None]),
}


class TestGenConfigChecksItself:
    @pytest.mark.parametrize("name, value, expected", [
        (field.name, value, expected) for field in dataclasses.fields(GenConfig)
        for expected, values in [WRONG_TYPES[typing.get_type_hints(GenConfig)[field.name]]]
        for value in values])
    def test_a_value_of_another_type_is_named(self, name, value, expected):
        with pytest.raises(ConfigError, match=rf"^{name} must be {expected}, got ") as info:
            GenConfig(**{name: value})
        assert info.value.fields == (name,)

    @pytest.mark.parametrize("name, value, message", [
        ("n_commits", 0, "n_commits must be >= 1"),
        ("deleted_per_commit", 1, "deleted_per_commit must be >= 2"),
        ("added_per_commit", 0, "added_per_commit must be >= 1"),
        ("seed", -1, "seed must be >= 0"),
        ("edge_density", 1.5, "edge_density must be in [0, 1]"),
        ("edge_density", math.nan, "edge_density must be in [0, 1]"),
        ("signal_strength", -0.1, "signal_strength must be in [0, 1]"),
    ])
    def test_a_value_out_of_range_is_named(self, name, value, message):
        with pytest.raises(ConfigError) as info:
            GenConfig(**{name: value})
        assert (str(info.value), info.value.fields) == (message, (name,))

    @settings(max_examples=150, deadline=None)
    @given(kwargs=gen_kwargs())
    def test_keywords_make_a_config_that_generates_or_a_config_error(self, kwargs):
        try:
            cfg = GenConfig(**kwargs)
        except ConfigError as exc:
            assert exc.fields
            assert set(exc.fields) <= {field.name for field in dataclasses.fields(GenConfig)}
            return
        assume(max(cfg.n_commits, cfg.deleted_per_commit, cfg.added_per_commit) <= 5)
        for g in generate(cfg).graphs:
            assert validate_graph(g) == [], g.commit_id


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
