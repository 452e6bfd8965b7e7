import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("bad_kind", [[], {}])
    @pytest.mark.parametrize("entry", ["nodes", "edges"])
    def test_unhashable_kind_rejected(self, tmp_path, entry, bad_kind):
        payload = json.loads(json.dumps(MINIMAL))
        payload["graphs"][0][entry][0]["kind"] = bad_kind
        with pytest.raises(DatasetFormatError, match=f"{entry[:4]}\\[0\\]: field 'kind'"):
            load_dataset(write_dataset(tmp_path, payload))

    def test_non_utf8_file_names_the_path(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(MINIMAL).replace("x = 1", "x = \u00e9").encode("latin-1"))
        with pytest.raises(DatasetFormatError, match="latin1.json: not UTF-8"):
            load_dataset(path)

    def test_integer_past_the_digit_limit_names_the_path(self, tmp_path):
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(MINIMAL).replace('"id": 0', '"id": ' + "9" * 5000, 1),
                        encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="digits.json: not valid JSON: "):
            load_dataset(path)

    @pytest.mark.parametrize("value", [10 ** 400, float("nan"), float("inf")],
                             ids=["int-1e400", "nan", "inf"])
    def test_embedding_outside_float64_rejected(self, tmp_path, value):
        payload = json.loads(json.dumps(MINIMAL))
        payload["graphs"][0]["nodes"][0]["embedding"] = [0.5, value]
        with pytest.raises(DatasetFormatError, match="node\\[0\\]: field 'embedding'"):
            load_dataset(write_dataset(tmp_path, payload))

    EDGE_KINDS = "['call', 'class_member_ref', 'control_flow', 'data_dependency', 'line_mapping']"
    EMBEDDING = "field 'embedding' must be a list of finite float64 numbers or null"

    @pytest.mark.parametrize("entry,change,message", [
        ("nodes", lambda d: 5, "node[1]: node must be an object"),
        ("nodes", lambda d: {**d, "zz": 2, "color": 1},
         "node[1]: unknown field(s) ['color', 'zz']"),
        ("nodes", lambda d: {**d, "id": True}, "node[1]: field 'id' must be an integer"),
        ("nodes", lambda d: {**d, "id": 1.0}, "node[1]: field 'id' must be an integer"),
        ("nodes", lambda d: {**d, "kind": 3},
         "node[1]: field 'kind' must be one of ['added', 'deleted'], got 3"),
        ("nodes", lambda d: {**d, "kind": "refactor"},
         "node[1]: field 'kind' must be one of ['added', 'deleted'], got 'refactor'"),
        ("nodes", lambda d: {**d, "text": 3}, "node[1]: field 'text' must be a string or null"),
        ("nodes", lambda d: {**d, "is_root_cause": 1},
         "node[1]: field 'is_root_cause' must be a boolean"),
        ("nodes", lambda d: {**d, "embedding": "x"}, f"node[1]: {EMBEDDING}"),
        ("nodes", lambda d: {**d, "embedding": [1, True]}, f"node[1]: {EMBEDDING}"),
        ("nodes", lambda d: {**d, "embedding": [1, 10 ** 400]}, f"node[1]: {EMBEDDING}"),
        ("edges", lambda d: [1], "edge[0]: edge must be an object"),
        ("edges", lambda d: {**d, "weight": 2}, "edge[0]: unknown field(s) ['weight']"),
        ("edges", lambda d: {**d, "src": False}, "edge[0]: field 'src' must be an integer"),
        ("edges", lambda d: {**d, "dst": "1"}, "edge[0]: field 'dst' must be an integer"),
        ("edges", lambda d: {**d, "kind": {}},
         f"edge[0]: field 'kind' must be one of {EDGE_KINDS}, got {{}}"),
        ("edges", lambda d: {**d, "kind": "uses"},
         f"edge[0]: field 'kind' must be one of {EDGE_KINDS}, got 'uses'"),
        ("edges", lambda d: {**d, "src": -1, "dst": 9},
         ": edge references missing node -1; edge references missing node 9"),
        ("edges", lambda d: {**d, "dst": 7}, ": edge references missing node 7"),
    ])
    def test_each_message_names_the_item_exactly(self, tmp_path, entry, change, message):
        # node 1 and edge 0 are the last node and the only edge; each message names the file,
        # the commit and the item, byte for byte
        payload = json.loads(json.dumps(MINIMAL))
        items = payload["graphs"][0][entry]
        items[-1] = change(items[-1])
        path = write_dataset(tmp_path, payload)
        with pytest.raises(DatasetFormatError) as caught:
            load_dataset(path)
        sep = "" if message.startswith(":") else " "
        assert str(caught.value) == f"{path}: commit 'c1'{sep}{message}"


@st.composite
def datasets(draw):
    """Valid datasets: dense ids, a labelled deleted line per commit, legal edges."""
    graphs = []
    for c in range(draw(st.integers(0, 3))):
        n = draw(st.integers(1, 6))
        kinds = draw(st.lists(st.sampled_from(NodeKind), min_size=n, max_size=n))
        kinds[draw(st.integers(0, n - 1))] = NodeKind.DELETED
        deleted = [i for i, kind in enumerate(kinds) if kind is NodeKind.DELETED]
        roots = draw(st.sets(st.sampled_from(deleted), min_size=1))
        vectors = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3).map(tuple)
        nodes = tuple(
            LineNode(i, kinds[i], text=draw(st.none() | st.text(max_size=12)),
                     is_root_cause=i in roots, embedding=draw(st.none() | vectors))
            for i in range(n)
        )
        legal = [
            (src, dst, kind) for src in range(n) for dst in range(n) if src != dst
            for kind in EdgeKind
            if kind is not EdgeKind.LINE_MAPPING
            or (kinds[src] is NodeKind.DELETED and kinds[dst] is NodeKind.ADDED)
        ]
        triples = draw(st.lists(st.sampled_from(legal), unique=True, max_size=8)) if legal else []
        graphs.append(CommitGraph(
            commit_id=draw(st.text(min_size=1, max_size=6)) + f"#{c}",
            nodes=nodes,
            edges=tuple(DepEdge(src, dst, kind) for src, dst, kind in triples),
            timestamp=draw(st.none() | st.integers()),
        ))
    return Dataset(graphs=tuple(graphs), name=draw(st.text(max_size=8)))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10 ** 400), 10 ** 400)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def containers(obj, out=None):
    """Every dict and list inside ``obj``, ``obj`` included."""
    out = [] if out is None else out
    if isinstance(obj, (dict, list)):
        out.append(obj)
        for value in (obj.values() if isinstance(obj, dict) else obj):
            containers(value, out)
    return out


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("datasets") / "data.json"


class TestDatasetProperties:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ds=datasets())
    def test_save_load_roundtrip(self, scratch_file, ds):
        save_dataset(ds, scratch_file)
        assert load_dataset(scratch_file) == ds

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ds=datasets(), data=st.data())
    def test_mutated_json_raises_only_format_errors(self, scratch_file, ds, data):
        payload = dataset_to_dict(ds)
        target = data.draw(st.sampled_from(containers(payload)))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        action = data.draw(st.sampled_from(["replace", "delete", "add"] if keys else ["add"]))
        if action == "add":
            key = data.draw(st.text(max_size=8)) if isinstance(target, dict) else len(target)
            if isinstance(target, list):
                target.append(None)
        else:
            key = data.draw(st.sampled_from(keys))
        if action == "delete":
            del target[key]
        else:
            target[key] = data.draw(json_values)
        scratch_file.write_text(json.dumps(payload), encoding="utf-8")
        try:
            load_dataset(scratch_file)
        except DatasetFormatError:
            pass

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ds=datasets(), data=st.data())
    def test_mutated_bytes_raise_only_format_errors(self, scratch_file, ds, data):
        raw = bytearray(json.dumps(dataset_to_dict(ds)).encode("utf-8"))
        for _ in range(data.draw(st.integers(1, 4))):
            pos = data.draw(st.integers(0, len(raw)))
            raw[pos:pos + data.draw(st.integers(0, 2))] = data.draw(st.binary(max_size=3))
        scratch_file.write_bytes(bytes(raw))
        try:
            load_dataset(scratch_file)
        except DatasetFormatError:
            pass


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
