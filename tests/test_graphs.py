import json

import pytest

from rootrank.graphs import (
    CommitGraph,
    Dataset,
    DatasetFormatError,
    DepEdge,
    EdgeKind,
    LineNode,
    NodeKind,
    dataset_to_dict,
    load_dataset,
    save_dataset,
    validate_graph,
)

from naive_reference import neighbors_in


def make_graph(commit_id="c1", nodes=None, edges=None, timestamp=None):
    if nodes is None:
        nodes = (
            LineNode(0, NodeKind.DELETED, text="int a = 0;", is_root_cause=True),
            LineNode(1, NodeKind.ADDED, text="int a = 1;"),
        )
    if edges is None:
        edges = (DepEdge(0, 1, EdgeKind.LINE_MAPPING),)
    return CommitGraph(commit_id=commit_id, nodes=tuple(nodes), edges=tuple(edges), timestamp=timestamp)


def write_dataset(tmp_path, payload, name="data.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return p


MINIMAL = {
    "name": "tiny",
    "graphs": [
        {
            "commit_id": "c1",
            "timestamp": None,
            "nodes": [
                {"id": 0, "kind": "deleted", "text": "x = 1", "is_root_cause": True, "embedding": None},
                {"id": 1, "kind": "added", "text": "x = 2", "is_root_cause": False, "embedding": None},
            ],
            "edges": [{"src": 0, "dst": 1, "kind": "line_mapping"}],
        }
    ],
}


class TestLoadDataset:
    def test_minimal_roundtrip_counts(self, tmp_path):
        ds = load_dataset(write_dataset(tmp_path, MINIMAL))
        assert len(ds) == 1
        g = ds.graphs[0]
        assert len(g.nodes) == 2
        assert len(g.edges) == 1
        assert g.nodes[0].is_root_cause

    def test_unknown_edge_kind_rejected(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["graphs"][0]["edges"][0]["kind"] = "refactor"
        with pytest.raises(DatasetFormatError, match="refactor"):
            load_dataset(write_dataset(tmp_path, payload))

    def test_root_cause_on_added_node_rejected(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["graphs"][0]["nodes"][1]["is_root_cause"] = True
        with pytest.raises(DatasetFormatError, match="is_root_cause"):
            load_dataset(write_dataset(tmp_path, payload))

    def test_unknown_field_rejected(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["graphs"][0]["nodes"][0]["color"] = "red"
        with pytest.raises(DatasetFormatError, match="color"):
            load_dataset(write_dataset(tmp_path, payload))

    def test_duplicate_commit_id_rejected(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["graphs"].append(json.loads(json.dumps(payload["graphs"][0])))
        with pytest.raises(DatasetFormatError, match="duplicate commit_id"):
            load_dataset(write_dataset(tmp_path, payload))

    def test_unlabeled_rejected_unless_inference_mode(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["graphs"][0]["nodes"][0]["is_root_cause"] = False
        path = write_dataset(tmp_path, payload)
        with pytest.raises(DatasetFormatError, match="root-cause"):
            load_dataset(path)
        ds = load_dataset(path, require_root_cause=False)
        assert len(ds) == 1

    def test_save_load_roundtrip_identical(self, tmp_path):
        ds = load_dataset(write_dataset(tmp_path, MINIMAL))
        out = tmp_path / "again.json"
        save_dataset(ds, out)
        again = load_dataset(out)
        assert dataset_to_dict(again) == dataset_to_dict(ds)


class TestValidateGraph:
    def test_dangling_edge(self):
        g = make_graph(edges=(DepEdge(0, 99, EdgeKind.CALL),))
        violations = validate_graph(g)
        assert any("missing node 99" in v for v in violations)

    def test_no_deleted_lines(self):
        g = make_graph(
            nodes=(LineNode(0, NodeKind.ADDED, text="a"),),
            edges=(),
        )
        violations = validate_graph(g, require_root_cause=False)
        assert any("no deleted lines" in v for v in violations)

    def test_well_formed_graph_passes(self):
        nodes = tuple(
            LineNode(i, NodeKind.DELETED if i < 3 else NodeKind.ADDED,
                     text=f"line {i}", is_root_cause=(i == 0))
            for i in range(5)
        )
        edges = (
            DepEdge(0, 1, EdgeKind.CONTROL_FLOW),
            DepEdge(1, 2, EdgeKind.DATA_DEPENDENCY),
            DepEdge(2, 4, EdgeKind.LINE_MAPPING),
            DepEdge(3, 0, EdgeKind.CALL),
        )
        assert validate_graph(make_graph(nodes=nodes, edges=edges)) == []

    def test_self_loop_rejected(self):
        g = make_graph(edges=(DepEdge(0, 0, EdgeKind.CALL),))
        assert any("self-reference" in v for v in validate_graph(g))

    def test_duplicate_edge_rejected(self):
        g = make_graph(edges=(DepEdge(0, 1, EdgeKind.CALL), DepEdge(0, 1, EdgeKind.CALL)))
        assert any("duplicate edge" in v for v in validate_graph(g))

    def test_parallel_edges_of_different_kinds_allowed(self):
        g = make_graph(edges=(DepEdge(0, 1, EdgeKind.CALL), DepEdge(0, 1, EdgeKind.CONTROL_FLOW)))
        assert validate_graph(g) == []

    def test_non_dense_ids_rejected(self):
        nodes = (
            LineNode(0, NodeKind.DELETED, text="a", is_root_cause=True),
            LineNode(2, NodeKind.ADDED, text="b"),
        )
        g = make_graph(nodes=nodes, edges=())
        assert any("dense" in v for v in validate_graph(g))

    def test_pure_same_input_same_output(self):
        g = make_graph(edges=(DepEdge(0, 99, EdgeKind.CALL),))
        assert validate_graph(g) == validate_graph(g)


class TestNeighborsIn:
    def _graph(self, edges):
        nodes = tuple(
            LineNode(i, NodeKind.DELETED if i % 2 == 0 else NodeKind.ADDED,
                     text=f"l{i}", is_root_cause=(i == 0))
            for i in range(5)
        )
        return make_graph(nodes=nodes, edges=edges)

    def test_collects_incoming_only(self):
        g = self._graph((
            DepEdge(0, 2, EdgeKind.CONTROL_FLOW),
            DepEdge(1, 2, EdgeKind.DATA_DEPENDENCY),
            DepEdge(2, 3, EdgeKind.CALL),
        ))
        assert neighbors_in(g, 2) == [
            (0, EdgeKind.CONTROL_FLOW),
            (1, EdgeKind.DATA_DEPENDENCY),
        ]

    def test_isolated_node_empty(self):
        g = self._graph((DepEdge(0, 2, EdgeKind.CALL),))
        assert neighbors_in(g, 4) == []

    def test_sorted_by_source_then_kind(self):
        g = self._graph((
            DepEdge(3, 1, EdgeKind.CALL),
            DepEdge(0, 1, EdgeKind.CALL),
            DepEdge(0, 1, EdgeKind.CONTROL_FLOW),
        ))
        assert neighbors_in(g, 1) == [
            (0, EdgeKind.CONTROL_FLOW),
            (0, EdgeKind.CALL),
            (3, EdgeKind.CALL),
        ]

    def test_unknown_node_raises(self):
        g = self._graph(())
        with pytest.raises(KeyError):
            neighbors_in(g, 17)

    def test_partitions_edge_list(self):
        edges = (
            DepEdge(0, 2, EdgeKind.CONTROL_FLOW),
            DepEdge(1, 2, EdgeKind.DATA_DEPENDENCY),
            DepEdge(2, 3, EdgeKind.CALL),
            DepEdge(4, 0, EdgeKind.CLASS_MEMBER_REF),
        )
        g = self._graph(edges)
        total = sum(len(neighbors_in(g, t)) for t in range(len(g.nodes)))
        assert total == len(edges)
