"""Typed multi-head attention over a commit graph.

One layer turns the previous node states (n x D) into a neighbor
aggregation matrix of the same shape: every node attends over its
incoming edges, with projections selected by node kind and attention /
message maps selected by edge kind, plus a learnable prior per
(source kind, edge kind, target kind) triple.

The layer reads its learnable tensors from the model's name -> tensor
dict, by their ``network.param_shapes`` names: ``layer{l}.attn.w_k.{node
kind}`` and the like.  Weights apply by right multiplication on row
vectors (state @ W + b).  All per-head structure lives in contiguous
column slices of width D/H.  Per-edge-kind maps are stored as their head
blocks only: a (D, D/H) tensor whose rows [i*D/H, (i+1)*D/H) are head
i's square block, applied with ``block_matmul`` so head i only ever sees
its own block.  Checkpoints store them in that same (D, D/H) shape.

A graph enters the layer as a :class:`GraphPlan`: per-edge integer
arrays (source, target, prior row) plus the sorted rows of each node
kind and each edge kind present, so every plan array is O(n + E).  The
plan is the one place a graph's indices are checked: its constructor
checks every array once, by arithmetic, and keeps each as a read-only
``autodiff.CheckedIndex``, the only index the ops take, so no op checks
an index again.  Edges are sorted by kind first, so each edge kind's
rows are one run; a kind whose rows are one run (every edge kind, and
each node kind of a graph that lists its kinds in turn, as synthetic
graphs list deleted lines first) is a slice, which ``block_matmul``
multiplies from a view straight into its rows of the output.
Width-D flat scatter indices are not kept: the plan stays O(n + E)
integers, and they are built per call.  Each
typed transform runs once per kind, on that kind's rows only: each of
K, Q and V is one ``block_matmul`` with a group per node kind, and the
attention and message maps are one each, with a group per edge kind,
applied to source rows gathered with ``take_rows``.  The rest of the
layer is one ``autodiff.attend`` record: per edge and head the key-query
product scaled by the edge's prior and 1/sqrt(D/H), a softmax over each
target's incoming edges, and the weighted messages added into the rows
of their targets.  A layer records nine tape ops.  Each
``EmbeddedGraph`` builds its plan once, on first use, and reuses it
across training steps and rankings.

Only the deleted lines are scored, so the last layer runs on a bipartite
block, :class:`ScoredBlock`: every node as a source, the deleted lines as
targets, and only the edges that end at a deleted line.  Each plan
derives its block when it is made (``GraphPlan.scored``), with arrays
checked like the plan's own; keys and values still come from every node,
but queries, the edge maps and ``attend`` see only the block, and the
layer gives one row per deleted line.  A plan is itself the block of a
layer whose targets are all its nodes, so one attention code path serves
both.

Several commits score as one graph through :func:`union_plan`, their
disjoint union in the way PyTorch Geometric batches graphs: node ids and
edge rows are offset and the arrays concatenated, and the union is a
``GraphPlan`` like any other, checked once when it is made.  No edge
joins two commits, so each node's attention and state see only its own
commit.  Each commit's edges stay kind-major, so the union's edge kinds
interleave and its typed groups are gathered and scattered by index.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, constant
from .graphs import (
    NUM_EDGE_KINDS,
    NUM_NODE_KINDS,
    CommitGraph,
    EdgeKind,
    NodeKind,
)

MU_SIZE = NUM_NODE_KINDS * NUM_EDGE_KINDS * NUM_NODE_KINDS


@dataclass(frozen=True)
class ScoredBlock:
    """The edges into a plan's deleted lines, indexed for the last layer, which updates them
    alone because only they are scored.

    ``targets`` holds the deleted lines' node ids, ascending (the plan's
    ``node_rows`` member, or an empty index when there is none); the kept
    edges are the plan's edges that end at one of them, in plan order, so
    a plan's kind-major edges keep each edge kind one run.  ``dst`` gives
    each kept edge's target as a position in ``targets``, so attention
    over the block yields one row per deleted line, in node id order.
    ``node_rows`` and ``edge_rows`` partition the k targets and the
    kept edges by kind, as a plan's do its nodes and edges; with ``n`` = k,
    the block reads like a plan whose nodes are the targets.  Made only by
    :class:`GraphPlan`, which derives it from its own checked arrays.
    """

    targets: ad.CheckedIndex                    # (k,) node id of each deleted line, bound n
    src: ad.CheckedIndex                        # (E_k,) source node of each kept edge, bound n
    dst: ad.CheckedIndex                        # (E_k,) position of its target in targets
    mu_idx: ad.CheckedIndex                     # (E_k,) row of the edge's prior in ``mu``
    node_rows: dict[NodeKind, ad.CheckedIndex]  # {DELETED: [0, k)}, or {} when k is 0
    edge_rows: dict[EdgeKind, ad.CheckedIndex]  # kept-edge rows of each present edge kind

    @property
    def n(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class GraphPlan:
    """Integer index arrays derived from one graph's structure, checked once.

    Edges are ordered canonically by (kind ordinal, dst, src), so each
    edge kind's rows are one contiguous run, a slice for ``block_matmul``,
    and within a kind the edges are ordered by target and then source.
    ``node_rows``/``edge_rows`` hold one sorted row array per kind present
    in the graph; together they partition the node ids and the edge rows.
    A target's incoming edges are not contiguous: ``autodiff.attend`` sums
    them by scatter, in (kind, src) order.

    Construction checks that ``src`` and ``dst`` lie in [0, n), ``mu_idx``
    in [0, MU_SIZE), that the three have one entry per edge, and that each
    kind's rows are non-empty and increasing and the kinds partition the
    nodes and the edges; a failed check raises ValueError naming the
    array.  Every array is then held as a read-only
    ``autodiff.CheckedIndex``.  It then derives ``scored``, the
    :class:`ScoredBlock` of its deleted lines, rejecting a ``line_mapping``
    edge that ends at a deleted line (``graphs.validate_graph`` makes each
    end at an added one, so the last layer holds no ``line_mapping`` maps).
    A plan pickles as its arrays and is checked again when loaded.
    """

    n: int
    src: np.ndarray                        # (E,) source node of each edge
    dst: np.ndarray                        # (E,) target node of each edge
    mu_idx: np.ndarray                     # (E,) row of the edge's prior in ``mu``
    node_rows: dict[NodeKind, np.ndarray]  # node ids of each present node kind
    edge_rows: dict[EdgeKind, np.ndarray]  # edge rows of each present edge kind
    scored: ScoredBlock = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"GraphPlan n: must be a non-negative integer, got {n!r}")
        checked = {name: _named(name, ad.checked_index, getattr(self, name), bound)
                   for name, bound in (("src", n), ("dst", n), ("mu_idx", MU_SIZE))}
        e = len(checked["src"])
        if not len(checked["dst"]) == len(checked["mu_idx"]) == e:
            raise ValueError(f"GraphPlan src, dst, mu_idx: need one entry per edge, got "
                             f"{e}, {len(checked['dst'])} and {len(checked['mu_idx'])}")
        checked["node_rows"] = _kind_partition("node_rows", self.node_rows, NodeKind, n)
        checked["edge_rows"] = _kind_partition("edge_rows", self.edge_rows, EdgeKind, e)
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "scored", _scored_block(self))

    def __reduce__(self):
        return type(self), (self.n, self.src, self.dst, self.mu_idx, self.node_rows,
                            self.edge_rows)


def _named(name: str, check, *args):
    """``check(*args)``, with a ValueError naming the plan array ``name``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ValueError(f"GraphPlan {name}: {exc}") from None


def _kind_partition(name: str, rows_by_kind: dict, kinds, bound: int) -> dict:
    """``rows_by_kind`` as members of one checked partition of range(bound)."""
    if not isinstance(rows_by_kind, dict) or not all(isinstance(k, kinds) for k in rows_by_kind):
        raise ValueError(f"GraphPlan {name}: must map {kinds.__name__} members to rows")
    members = _named(name, ad.checked_partition, list(rows_by_kind.values()), bound)
    return dict(zip(rows_by_kind, members))


def _scored_block(plan: GraphPlan) -> ScoredBlock:
    """The :class:`ScoredBlock` of ``plan``'s deleted lines, from its checked arrays."""
    n = plan.n
    targets = plan.node_rows.get(NodeKind.DELETED)
    if targets is None:
        targets = ad.checked_index(np.empty(0, np.intp), n)
    k = len(targets)
    position = np.full(n, -1)
    position[targets] = np.arange(k)
    kept = np.flatnonzero(position[plan.dst] >= 0)
    edge_kind = np.empty(len(plan.src), np.intp)
    for kind, rows in plan.edge_rows.items():
        edge_kind[rows] = kind.ordinal
    kept_kind = edge_kind[kept]
    mapped = np.flatnonzero(kept_kind == EdgeKind.LINE_MAPPING.ordinal)
    if mapped.size:
        raise ValueError(f"GraphPlan edge_rows: a line_mapping edge must end at an added line, "
                         f"but one ends at deleted node {plan.dst[kept[mapped[0]]]}")
    return ScoredBlock(
        targets=targets,
        src=ad.checked_index(plan.src[kept], n),
        dst=ad.checked_index(position[plan.dst[kept]], k),
        mu_idx=ad.checked_index(plan.mu_idx[kept], MU_SIZE),
        node_rows=_kind_partition("scored node_rows", _rows_by_kind(
            np.full(k, NodeKind.DELETED.ordinal), NodeKind), NodeKind, k),
        edge_rows=_kind_partition("scored edge_rows", _rows_by_kind(kept_kind, EdgeKind),
                                  EdgeKind, len(kept)),
    )


def _rows_by_kind(ordinals: np.ndarray, kinds) -> dict:
    """Sorted rows holding each kind's ordinal, for the kinds that occur."""
    rows = {kind: np.flatnonzero(ordinals == kind.ordinal) for kind in kinds}
    return {kind: r for kind, r in rows.items() if r.size}


def build_plan(g: CommitGraph) -> GraphPlan:
    node_kind = np.array([node.kind.ordinal for node in g.nodes], dtype=np.intp)
    src, dst, edge_kind = np.array([(e.src, e.dst, e.kind.ordinal) for e in g.edges],
                                   dtype=np.intp).reshape(-1, 3).T
    order = np.lexsort((src, dst, edge_kind))    # by kind, then dst, then src
    src, dst, edge_kind = src[order], dst[order], edge_kind[order]
    return GraphPlan(
        n=len(node_kind),
        src=src,
        dst=dst,
        mu_idx=(node_kind[src] * NUM_EDGE_KINDS + edge_kind) * NUM_NODE_KINDS + node_kind[dst],
        node_rows=_rows_by_kind(node_kind, NodeKind),
        edge_rows=_rows_by_kind(edge_kind, EdgeKind),
    )


def union_plan(plans: Sequence[GraphPlan]) -> GraphPlan:
    """The plan of the disjoint union of ``plans``' graphs, in list order.

    Each plan's node ids are offset by the node count of the plans before
    it and its edge rows by their edge count, so its nodes and edges keep
    their relative order: each plan's edges stay kind-major, but the
    union's are not, so its edge kinds with rows in two plans are index
    groups, which ``block_matmul`` gathers and scatters.  The result
    is made by the :class:`GraphPlan` constructor, which checks its arrays
    once like any plan's and derives its scored block from them, so the
    block is that of the union too.  A union of one plan is that plan.
    """
    if len(plans) == 1:
        return plans[0]
    node_base = np.cumsum([0] + [p.n for p in plans])
    edge_base = np.cumsum([0] + [len(p.src) for p in plans])

    def offset(field: str, bases) -> np.ndarray:
        return np.concatenate([getattr(p, field) + base for p, base in zip(plans, bases)])

    def kind_rows(field: str, kinds, bases) -> dict:
        """Each kind's rows of every plan that holds the kind, offset, in plan order."""
        rows = {kind: [getattr(p, field)[kind] + base for p, base in zip(plans, bases)
                       if kind in getattr(p, field)] for kind in kinds}
        return {kind: np.concatenate(parts) for kind, parts in rows.items() if parts}

    return GraphPlan(
        n=int(node_base[-1]),
        src=offset("src", node_base),
        dst=offset("dst", node_base),
        mu_idx=np.concatenate([p.mu_idx for p in plans]),
        node_rows=kind_rows("node_rows", NodeKind, node_base),
        edge_rows=kind_rows("edge_rows", EdgeKind, edge_base),
    )


def _layer_block(plan: GraphPlan, h_prev: Tensor, targets: Tensor | None):
    """The block a layer attends into, and its targets' states: the whole plan and
    ``h_prev`` without ``targets``, else ``plan.scored`` and ``targets``."""
    return (plan, h_prev) if targets is None else (plan.scored, targets)


def project_kqv(tape: Tape | None, h_prev: Tensor, plan: GraphPlan, params: dict[str, Tensor],
                layer: int, targets: Tensor | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Keys and values (n x D) of every node, and queries of the layer's targets (see
    :func:`attention_forward`): states through their own kind's projection."""
    p = f"layer{layer}.attn"
    block, h_dst = _layer_block(plan, h_prev, targets)

    def typed(name: str, states: Tensor, node_rows: dict) -> Tensor:
        groups = [(rows, params[f"{p}.w_{name}.{kind.value}"],
                   params[f"{p}.b_{name}.{kind.value}"]) for kind, rows in node_rows.items()]
        return ad.block_matmul(tape, states, groups, 1)

    return (typed("k", h_prev, plan.node_rows), typed("q", h_dst, block.node_rows),
            typed("v", h_prev, plan.node_rows))


def _edge_rows(tape: Tape | None, block, states: Tensor, params: dict[str, Tensor],
               maps: str, heads: int) -> Tensor:
    """Per edge of ``block`` (a plan or its scored block), the source state through the head
    blocks ``{maps}.{edge kind}``, shape (E, D)."""
    sources = ad.take_rows(tape, states, block.src)
    groups = [(rows, params[f"{maps}.{kind.value}"]) for kind, rows in block.edge_rows.items()]
    return ad.block_matmul(tape, sources, groups, heads)


def attention_forward(tape: Tape | None, h_prev: Tensor, plan: GraphPlan,
                      params: dict[str, Tensor], layer: int, heads: int,
                      targets: Tensor | None = None) -> Tensor:
    """Layer ``layer``: project, map each edge's key and message, then ``autodiff.attend``.

    Without ``targets`` every node attends over its incoming edges, giving
    (n, D).  With ``targets``, the (k, D) states of ``plan.scored.targets``,
    only the deleted lines attend, over the edges of ``plan.scored``: keys
    and values still come from every node of ``h_prev``, queries from
    ``targets``, and the result is (k, D), in node id order.  A block
    without edges gives zeros of its targets' shape.
    """
    block, h_dst = _layer_block(plan, h_prev, targets)
    if not block.edge_rows:
        return constant(np.zeros(h_dst.shape))
    k, q, v = project_kqv(tape, h_prev, plan, params, layer, targets)
    p = f"layer{layer}.attn"
    keys = _edge_rows(tape, block, k, params, f"{p}.w_att", heads)
    queries = ad.take_rows(tape, q, block.dst)
    messages = _edge_rows(tape, block, v, params, f"{p}.w_msg", heads)
    return ad.attend(tape, keys, queries, params[f"{p}.mu"], messages, block.mu_idx, block.dst,
                     block.n, heads)
