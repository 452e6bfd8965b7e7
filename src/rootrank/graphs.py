"""Heterogeneous commit-graph data model and dataset I/O.

A bug-fixing commit is modelled as a directed graph whose nodes are the
deleted and added source lines of the commit and whose edges are typed
program dependencies between those lines.  Deleted lines may be labelled
as the root cause of the bug the commit fixes; the rest of the pipeline
learns to rank them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path


class DatasetFormatError(ValueError):
    """Raised when a dataset file violates the on-disk schema or an invariant."""


class NodeKind(Enum):
    DELETED = "deleted"
    ADDED = "added"

    @property
    def ordinal(self) -> int:
        return _NODE_ORDINALS[self]


class EdgeKind(Enum):
    CONTROL_FLOW = "control_flow"
    DATA_DEPENDENCY = "data_dependency"
    CALL = "call"
    CLASS_MEMBER_REF = "class_member_ref"
    LINE_MAPPING = "line_mapping"

    @property
    def ordinal(self) -> int:
        return _EDGE_ORDINALS[self]


_NODE_ORDINALS = {k: i for i, k in enumerate(NodeKind)}
_EDGE_ORDINALS = {k: i for i, k in enumerate(EdgeKind)}

NUM_NODE_KINDS = len(NodeKind)
NUM_EDGE_KINDS = len(EdgeKind)


@dataclass(frozen=True)
class LineNode:
    """One source line of a commit.

    ``embedding`` optionally carries a precomputed semantic vector from the
    dataset file; when present it takes precedence over ``text`` during
    embedding.
    """

    id: int
    kind: NodeKind
    text: str | None = None
    is_root_cause: bool = False
    embedding: tuple[float, ...] | None = None


@dataclass(frozen=True)
class DepEdge:
    """Directed dependency edge between two line nodes."""

    src: int
    dst: int
    kind: EdgeKind


@dataclass(frozen=True)
class CommitGraph:
    commit_id: str
    nodes: tuple[LineNode, ...]
    edges: tuple[DepEdge, ...]
    timestamp: int | None = None

    def deleted_ids(self) -> list[int]:
        return [n.id for n in self.nodes if n.kind is NodeKind.DELETED]

    def root_cause_ids(self) -> list[int]:
        return [n.id for n in self.nodes if n.is_root_cause]


@dataclass(frozen=True)
class Dataset:
    graphs: tuple[CommitGraph, ...]
    name: str = ""

    def __len__(self) -> int:
        return len(self.graphs)


def validate_graph(g: CommitGraph, require_root_cause: bool = True) -> list[str]:
    """Check every structural invariant of a commit graph.

    Returns an empty list when the graph is well formed, otherwise one
    human-readable violation per problem.  Pure: never raises, never
    mutates.  ``require_root_cause=False`` admits unlabeled graphs for
    inference-only use.
    """
    violations: list[str] = []
    n = len(g.nodes)

    for i, node in enumerate(g.nodes):
        if node.id != i:
            violations.append(
                f"node ids must be dense 0..{n - 1} in order; position {i} has id {node.id}"
            )
        if node.is_root_cause and node.kind is not NodeKind.DELETED:
            violations.append(f"node {node.id} is_root_cause=true but kind is {node.kind.value}")

    if not any(node.kind is NodeKind.DELETED for node in g.nodes):
        violations.append("no deleted lines")
    if require_root_cause and not any(node.is_root_cause for node in g.nodes):
        violations.append("no root-cause label")

    seen: set[tuple[int, int, EdgeKind]] = set()
    for e in g.edges:
        if e.src == e.dst:
            violations.append(f"self-reference edge on node {e.src}")
            continue
        if not (0 <= e.src < n and 0 <= e.dst < n):
            for v in (e.src, e.dst):
                if not 0 <= v < n:
                    violations.append(f"edge references missing node {v}")
            continue
        key = (e.src, e.dst, e.kind)
        if key in seen:
            violations.append(
                f"duplicate edge ({e.src}, {e.dst}, {e.kind.value})"
            )
        seen.add(key)
        if e.kind is EdgeKind.LINE_MAPPING:
            if g.nodes[e.src].kind is not NodeKind.DELETED or g.nodes[e.dst].kind is not NodeKind.ADDED:
                violations.append(
                    f"line_mapping edge ({e.src}, {e.dst}) must run deleted -> added"
                )
    return violations


# ---------------------------------------------------------------------------
# On-disk schema


_NODE_FIELDS = {"id", "kind", "text", "is_root_cause", "embedding"}
_EDGE_FIELDS = {"src", "dst", "kind"}
_GRAPH_FIELDS = {"commit_id", "timestamp", "nodes", "edges"}
_TOP_FIELDS = {"name", "graphs"}

_NODE_KIND_BY_NAME = {k.value: k for k in NodeKind}
_EDGE_KIND_BY_NAME = {k.value: k for k in EdgeKind}


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise DatasetFormatError(f"{where}: unknown field(s) {sorted(unknown)}")


def _at(where: str, item: str, i: int) -> str:
    """Where item ``i`` of a commit's ``item`` list sits, for an error message; built only
    when one is raised, since most datasets raise none."""
    return f"{where} {item}[{i}]"


def _parse_embedding(raw: object, where: str, i: int) -> tuple[float, ...]:
    if isinstance(raw, list) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw
    ):
        try:
            values = tuple(float(x) for x in raw)
        except OverflowError:  # an integer beyond the float64 range
            pass
        else:
            if all(map(math.isfinite, values)):
                return values
    raise DatasetFormatError(f"{_at(where, 'node', i)}: field 'embedding' must be a list "
                             f"of finite float64 numbers or null")


def _parse_node(raw: object, where: str, i: int) -> LineNode:
    """Node ``i`` of the commit ``where`` names; an error names the node as ``_at`` does."""
    if not isinstance(raw, dict):
        raise DatasetFormatError(f"{_at(where, 'node', i)}: node must be an object")
    if not raw.keys() <= _NODE_FIELDS:
        _reject_unknown(raw, _NODE_FIELDS, _at(where, "node", i))
    node_id = raw.get("id")
    if type(node_id) is not int:    # JSON gives exact ints; this also rejects a bool
        raise DatasetFormatError(f"{_at(where, 'node', i)}: field 'id' must be an integer")
    kind_name = raw.get("kind")
    kind = _NODE_KIND_BY_NAME.get(kind_name) if isinstance(kind_name, str) else None
    if kind is None:
        raise DatasetFormatError(
            f"{_at(where, 'node', i)}: field 'kind' must be one of {sorted(_NODE_KIND_BY_NAME)}, "
            f"got {kind_name!r}"
        )
    text = raw.get("text")
    if text is not None and not isinstance(text, str):
        raise DatasetFormatError(f"{_at(where, 'node', i)}: field 'text' must be a string or null")
    rc = raw.get("is_root_cause", False)
    if not isinstance(rc, bool):
        raise DatasetFormatError(
            f"{_at(where, 'node', i)}: field 'is_root_cause' must be a boolean")
    emb = raw.get("embedding")
    if emb is not None:
        emb = _parse_embedding(emb, where, i)
    return LineNode(id=node_id, kind=kind, text=text, is_root_cause=rc, embedding=emb)


def _parse_edge(raw: object, where: str, i: int) -> DepEdge:
    """Edge ``i`` of the commit ``where`` names; an error names the edge as ``_at`` does."""
    if not isinstance(raw, dict):
        raise DatasetFormatError(f"{_at(where, 'edge', i)}: edge must be an object")
    if not raw.keys() <= _EDGE_FIELDS:
        _reject_unknown(raw, _EDGE_FIELDS, _at(where, "edge", i))
    src, dst = raw.get("src"), raw.get("dst")
    for f, value in (("src", src), ("dst", dst)):
        if type(value) is not int:  # JSON gives exact ints; this also rejects a bool
            raise DatasetFormatError(f"{_at(where, 'edge', i)}: field {f!r} must be an integer")
    kind_name = raw.get("kind")
    kind = _EDGE_KIND_BY_NAME.get(kind_name) if isinstance(kind_name, str) else None
    if kind is None:
        raise DatasetFormatError(
            f"{_at(where, 'edge', i)}: field 'kind' must be one of {sorted(_EDGE_KIND_BY_NAME)}, "
            f"got {kind_name!r}"
        )
    return DepEdge(src=src, dst=dst, kind=kind)


def _parse_graph(raw: object, index: int, path: Path) -> CommitGraph:
    where = f"{path}: graphs[{index}]"
    if not isinstance(raw, dict):
        raise DatasetFormatError(f"{where}: graph must be an object")
    _reject_unknown(raw, _GRAPH_FIELDS, where)
    commit_id = raw.get("commit_id")
    if not isinstance(commit_id, str) or not commit_id:
        raise DatasetFormatError(f"{where}: field 'commit_id' must be a non-empty string")
    where = f"{path}: commit {commit_id!r}"
    ts = raw.get("timestamp")
    if ts is not None and (not isinstance(ts, int) or isinstance(ts, bool)):
        raise DatasetFormatError(f"{where}: field 'timestamp' must be an integer or null")
    nodes_raw = raw.get("nodes")
    edges_raw = raw.get("edges")
    if not isinstance(nodes_raw, list) or not isinstance(edges_raw, list):
        raise DatasetFormatError(f"{where}: fields 'nodes' and 'edges' must be lists")
    nodes = tuple(_parse_node(nr, where, i) for i, nr in enumerate(nodes_raw))
    edges = tuple(_parse_edge(er, where, i) for i, er in enumerate(edges_raw))
    return CommitGraph(commit_id=commit_id, nodes=nodes, edges=edges, timestamp=ts)


def load_dataset(path: str | Path, require_root_cause: bool = True) -> Dataset:
    """Load and validate a dataset file.

    Raises :class:`DatasetFormatError` on any schema or invariant
    violation, naming ``path`` first, then the offending commit and field.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # also an integer past Python's int-from-text digit limit
        raise DatasetFormatError(f"{path}: not valid JSON: {exc}") from exc

    if not isinstance(raw, dict):
        raise DatasetFormatError(f"{path}: top level must be an object")
    _reject_unknown(raw, _TOP_FIELDS, str(path))
    name = raw.get("name")
    if not isinstance(name, str):
        raise DatasetFormatError(f"{path}: field 'name' must be a string")
    graphs_raw = raw.get("graphs")
    if not isinstance(graphs_raw, list):
        raise DatasetFormatError(f"{path}: field 'graphs' must be a list")

    graphs = tuple(_parse_graph(gr, i, path) for i, gr in enumerate(graphs_raw))

    seen_ids: set[str] = set()
    for g in graphs:
        if g.commit_id in seen_ids:
            raise DatasetFormatError(f"{path}: duplicate commit_id {g.commit_id!r}")
        seen_ids.add(g.commit_id)
        violations = validate_graph(g, require_root_cause=require_root_cause)
        if violations:
            raise DatasetFormatError(
                f"{path}: commit {g.commit_id!r}: " + "; ".join(violations)
            )
    return Dataset(graphs=graphs, name=name)


def dataset_to_dict(ds: Dataset) -> dict:
    """Serialize a dataset back to its JSON-schema dictionary form."""
    return {
        "name": ds.name,
        "graphs": [
            {
                "commit_id": g.commit_id,
                "timestamp": g.timestamp,
                "nodes": [
                    {
                        "id": n.id,
                        "kind": n.kind.value,
                        "text": n.text,
                        "is_root_cause": n.is_root_cause,
                        "embedding": list(n.embedding) if n.embedding is not None else None,
                    }
                    for n in g.nodes
                ],
                "edges": [
                    {"src": e.src, "dst": e.dst, "kind": e.kind.value} for e in g.edges
                ],
            }
            for g in ds.graphs
        ],
    }


def save_dataset(ds: Dataset, path: str | Path) -> None:
    payload = json.dumps(dataset_to_dict(ds), indent=1)
    Path(path).write_text(payload + "\n", encoding="utf-8")
