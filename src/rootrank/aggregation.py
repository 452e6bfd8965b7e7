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
i's square block, applied per head so head i only ever sees its own
block.  Checkpoints store them in that same (D, D/H) shape.

A graph enters the layer as a :class:`GraphPlan`: per-edge integer
arrays (source, target, prior row), the node id of each row and the
count of each node kind, so every plan array is O(n + E).  The plan is
the one place a graph's indices are checked: its constructor checks
every array once, by arithmetic, and keeps each as a read-only
``autodiff.CheckedIndex``, the only index the ops take, so no op checks
an index again.  Every plan is laid out kind-major by one function,
:func:`_kind_major`: it stable-sorts the nodes by kind, so the deleted
lines come first, and sorts the edges by (kind, dst, src), so every node
kind's and every edge kind's rows are one run.  The plan holds the
layout as counts, the way batched-graph libraries hold theirs as
offsets, and derives each run as a slice once:
node runs from ``node_counts``, edge runs from the edge kind each prior
row names.  ``node_ids`` maps each row back to its node id, so the
initial vectors are permuted into plan order once and scores map back to
node ids.  Width-D flat scatter indices are not kept: the plan stays
O(n + E) integers, and ``autodiff.attend`` builds them once per call.
A layer records one tape op, ``autodiff.attend``, handed the plan's
checked arrays, its runs and the layer's weights.  Each typed transform
runs once per kind, from a view of that kind's run straight into its
rows: K, Q and V with a group per node kind, and the attention and
message maps with a group per edge kind, on the source rows of the
edges.  Then, per edge and head, the key-query product is scaled by the
edge's prior and 1/sqrt(D/H), a softmax runs over each target's incoming
edges, and the weighted messages are added into the rows of their
targets.  Each ``EmbeddedGraph`` builds its plan once, on first use, and
reuses it across training steps and rankings.

Only the deleted lines are scored, so the last layer runs on a bipartite
block, :class:`ScoredBlock`: every node as a source, the deleted lines,
rows [0, k), as targets, and only the edges that end at a deleted line.
Each plan derives its block when it is made (``GraphPlan.scored``), with
arrays checked like the plan's own; keys and values still come from
every node, but queries, the edge maps and the softmax see only the
block, and the layer gives one row per deleted line.  A plan is itself
the block of a layer whose targets are all its nodes, so one attention
code path serves both.

Several commits score as one graph through :func:`union_plan`, their
disjoint union in the way PyTorch Geometric batches graphs: their plans'
rows, stacked in commit order, laid out by :func:`_kind_major` like any
graph's, so a union's arrays are those of :func:`build_plan` of the
stacked graph.  No edge joins two commits, so each node's attention and
state see only its own commit.
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

    Its ``n`` targets are the deleted lines, rows [0, k) of the kind-major
    plan.  The kept edges are the plan's edges that end at one of them, in
    plan order, so each edge kind stays one run.  ``dst`` gives each kept
    edge's target, which is also its plan row, so attention over the block
    yields one row per deleted line, in plan row order.  ``node_rows`` and
    ``edge_rows`` are the runs of the k targets and of the kept edges by
    kind, as slices, like a plan's; the edge runs are read from the kept
    ``mu_idx``.  So the block reads like a plan whose nodes are the
    targets.  Made only by :class:`GraphPlan`, which derives it from its
    own checked arrays.
    """

    n: int                              # k, the deleted lines
    src: ad.CheckedIndex                # (E_k,) source row of each kept edge, bound plan n
    dst: ad.CheckedIndex                # (E_k,) target row of each kept edge, bound k
    mu_idx: ad.CheckedIndex             # (E_k,) row of the edge's prior in ``mu``
    node_rows: dict[NodeKind, slice]    # {DELETED: slice(0, k)}, or {} when k is 0
    edge_rows: dict[EdgeKind, slice]    # kept-edge run of each present edge kind


@dataclass(frozen=True)
class GraphPlan:
    """Integer index arrays derived from one graph's structure, checked once.

    Rows are kind-major.  ``node_counts`` holds the rows of each node
    kind, in kind order, deleted lines first, and ``node_ids[r]`` is the
    node id of row r (for a union, its row in the stacked commits).  Edges
    come in edge-kind order too, and each edge's kind is read from its
    ``mu_idx``.  So each kind's rows and edges are one run, and
    ``node_rows``/``edge_rows`` hold those runs as slices for
    ``autodiff.attend``, one per kind present, derived once here.  ``src``
    and ``dst`` are rows, not node ids.  A target's incoming edges are not
    contiguous: ``autodiff.attend`` sums them by scatter, in (kind, src)
    order.

    Construction checks that ``src`` and ``dst`` lie in [0, n), ``mu_idx``
    in [0, MU_SIZE), that the three have one entry per edge, that
    ``node_ids`` is a permutation of [0, n), that ``node_counts`` is one
    non-negative integer per node kind summing to n, that the edges'
    kinds never decrease, and that each edge's prior row names the kinds
    of its source and target rows; a failed check raises ValueError naming
    the field.  Every array is then held as a read-only
    ``autodiff.CheckedIndex``.  It then derives ``scored``, the
    :class:`ScoredBlock` of its deleted lines, rejecting a
    ``line_mapping`` edge that ends at a deleted line
    (``graphs.validate_graph`` makes each end at an added one, so the last
    layer holds no ``line_mapping`` maps).  A plan pickles as its fields
    and is checked again when loaded.
    """

    n: int
    src: np.ndarray                 # (E,) source row of each edge
    dst: np.ndarray                 # (E,) target row of each edge
    mu_idx: np.ndarray              # (E,) row of the edge's prior in ``mu``
    node_counts: Sequence[int]      # rows of each NodeKind, in kind order
    node_ids: np.ndarray            # (n,) node id of each row
    node_rows: dict[NodeKind, slice] = field(init=False, repr=False, compare=False)
    edge_rows: dict[EdgeKind, slice] = field(init=False, repr=False, compare=False)
    scored: ScoredBlock = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if not _is_count(n):
            raise ValueError(f"GraphPlan n: must be a non-negative integer, got {n!r}")
        checked = {name: _named(name, ad.checked_index, getattr(self, name), bound)
                   for name, bound in (("src", n), ("dst", n), ("mu_idx", MU_SIZE),
                                       ("node_ids", n))}
        e = len(checked["src"])
        if not len(checked["dst"]) == len(checked["mu_idx"]) == e:
            raise ValueError(f"GraphPlan src, dst, mu_idx: need one entry per edge, got "
                             f"{e}, {len(checked['dst'])} and {len(checked['mu_idx'])}")
        node_ids = checked["node_ids"]
        if len(node_ids) != n or (np.bincount(node_ids, minlength=n) != 1).any():
            raise ValueError(f"GraphPlan node_ids: must be a permutation of [0, {n})")
        counts = self.node_counts
        if (not isinstance(counts, (tuple, list, np.ndarray)) or len(counts) != NUM_NODE_KINDS
                or not all(_is_count(c) for c in counts)):
            raise ValueError(f"GraphPlan node_counts: must be {NUM_NODE_KINDS} non-negative "
                             f"integers, one per NodeKind, got {counts!r}")
        checked["node_counts"] = counts = tuple(int(c) for c in counts)
        if sum(counts) != n:
            raise ValueError(f"GraphPlan node_counts: must sum to n={n}, got {sum(counts)}")
        edge_kind = _edge_kinds(checked["mu_idx"])
        if (np.diff(edge_kind) < 0).any():
            raise ValueError("GraphPlan mu_idx: edges must come in edge-kind order")
        _check_prior_kinds(checked["src"], checked["dst"], checked["mu_idx"], counts)
        checked["node_rows"] = _runs(counts, NodeKind)
        checked["edge_rows"] = _runs(np.bincount(edge_kind, minlength=NUM_EDGE_KINDS), EdgeKind)
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "scored", _scored_block(self, edge_kind))

    def __reduce__(self):
        return type(self), (self.n, self.src, self.dst, self.mu_idx, self.node_counts,
                            self.node_ids)


def _is_count(x) -> bool:
    """Whether ``x`` is a non-negative integer, Python's or numpy's, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 0


def _named(name: str, check, *args):
    """``check(*args)``, with a ValueError naming the plan array ``name``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ValueError(f"GraphPlan {name}: {exc}") from None


def _edge_kinds(mu_idx: np.ndarray) -> np.ndarray:
    """The edge-kind ordinal of each edge, read from its prior row (see ``_kind_major``)."""
    return np.asarray(mu_idx) // NUM_NODE_KINDS % NUM_EDGE_KINDS


def _check_prior_kinds(src: np.ndarray, dst: np.ndarray, mu_idx: np.ndarray, counts) -> None:
    """Raise ValueError naming the first edge whose prior row names other source or target
    kinds than those of its rows, read from the kind-major ``counts``."""
    row_kind = np.repeat(np.arange(NUM_NODE_KINDS), counts)
    named_src, named_dst = mu_idx // (NUM_NODE_KINDS * NUM_EDGE_KINDS), mu_idx % NUM_NODE_KINDS
    bad = np.flatnonzero((named_src != row_kind[src]) | (named_dst != row_kind[dst]))
    if bad.size:
        e = int(bad[0])
        kinds = list(NodeKind)
        raise ValueError(f"GraphPlan mu_idx: edge {e} names the {kinds[named_src[e]].value} -> "
                         f"{kinds[named_dst[e]].value} prior, but runs from row {src[e]} "
                         f"({kinds[row_kind[src[e]]].value}) to row {dst[e]} "
                         f"({kinds[row_kind[dst[e]]].value})")


def _runs(counts, kinds) -> dict:
    """Each kind's run of ``counts[kind.ordinal]`` rows, as a slice, laid end to end in kind
    order, for the kinds whose count is not zero."""
    runs, start = {}, 0
    for kind, count in zip(kinds, np.asarray(counts).tolist()):
        if count:
            runs[kind] = slice(start, start + count)
            start += count
    return runs


def _scored_block(plan: GraphPlan, edge_kind: np.ndarray) -> ScoredBlock:
    """The :class:`ScoredBlock` of ``plan``'s deleted lines, from its checked arrays and the
    kind ordinal of each of its edges."""
    # deleted is the first node kind, so its run is rows [0, k)
    k = plan.node_counts[NodeKind.DELETED.ordinal]
    kept = np.flatnonzero(plan.dst < k)
    kept_kind = edge_kind[kept]
    mapped = np.flatnonzero(kept_kind == EdgeKind.LINE_MAPPING.ordinal)
    if mapped.size:
        raise ValueError(f"GraphPlan mu_idx: a line_mapping edge must end at an added line, "
                         f"but one ends at deleted node {plan.node_ids[plan.dst[kept[mapped[0]]]]}")
    return ScoredBlock(
        n=k,
        src=ad.checked_index(plan.src[kept], plan.n),
        dst=ad.checked_index(plan.dst[kept], k),
        mu_idx=ad.checked_index(plan.mu_idx[kept], MU_SIZE),
        node_rows={NodeKind.DELETED: slice(0, k)} if k else {},
        edge_rows=_runs(np.bincount(kept_kind, minlength=NUM_EDGE_KINDS), EdgeKind),
    )


def _kind_major(node_kind: np.ndarray, ids: np.ndarray, src, dst,
                edge_kind: np.ndarray) -> GraphPlan:
    """The kind-major plan of the graph whose node i has kind ordinal ``node_kind[i]`` and
    node id ``ids[i]``, and whose edge j runs from node ``src[j]`` to node ``dst[j]`` with
    kind ordinal ``edge_kind[j]``.

    The nodes are stable-sorted by kind into rows, the edges renumbered
    into rows and sorted by (kind, dst, src), and each edge's prior row is
    read from its kinds.  ``src`` and ``dst`` are checked to lie in [0, n)
    before they are read, so a bad endpoint raises ValueError naming the
    array.  Every plan is laid out here, and made by the one
    :class:`GraphPlan` call in the package.
    """
    n = len(node_kind)
    src, dst = _named("src", ad.checked_index, src, n), _named("dst", ad.checked_index, dst, n)
    order = np.argsort(node_kind, kind="stable")    # input order within a kind
    row = np.argsort(order)                         # the plan row of each node
    kind = node_kind[order]
    src, dst = row[src], row[dst]
    edges = np.lexsort((src, dst, edge_kind))       # by kind, then dst, then src
    src, dst, edge_kind = src[edges], dst[edges], edge_kind[edges]
    return GraphPlan(
        n=n,
        src=src,
        dst=dst,
        mu_idx=(kind[src] * NUM_EDGE_KINDS + edge_kind) * NUM_NODE_KINDS + kind[dst],
        node_counts=np.bincount(node_kind, minlength=NUM_NODE_KINDS),
        node_ids=ids[order],
    )


def build_plan(g: CommitGraph) -> GraphPlan:
    """The kind-major plan of ``g``, whose rows are its node ids stable-sorted by kind."""
    src, dst, edge_kind = np.array([(e.src, e.dst, e.kind.ordinal) for e in g.edges],
                                   dtype=np.intp).reshape(-1, 3).T
    return _kind_major(np.array([node.kind.ordinal for node in g.nodes], dtype=np.intp),
                       np.arange(len(g.nodes)), src, dst, edge_kind)


def union_plan(plans: Sequence[GraphPlan]) -> GraphPlan:
    """The plan of the disjoint union of ``plans``' graphs: equal, array for array, to
    :func:`build_plan` of their graphs stacked in list order.

    The plans' rows are stacked in list order and laid out by
    :func:`_kind_major`, with each row's kind read from its plan's
    ``node_counts``, each edge's from its ``mu_idx``, and each row's node
    id offset by the nodes of the plans before.  The stable sort keeps
    each plan's rows, and every row's edges, in their relative order, so
    the deleted lines of every plan come first, in list order.
    ``node_ids`` gives each row's row in the graphs stacked in list order,
    so initial vectors stacked that way are permuted into the union by it.
    """
    sizes = [p.n for p in plans]
    node_base = np.cumsum([0] + sizes[:-1])
    edge_base = np.repeat(node_base, [len(p.src) for p in plans])

    def stacked(field: str, base=0) -> np.ndarray:
        return np.concatenate([getattr(p, field) for p in plans]) + base

    return _kind_major(
        np.repeat(np.tile(np.arange(NUM_NODE_KINDS), len(plans)),
                  [count for p in plans for count in p.node_counts]),
        stacked("node_ids", np.repeat(node_base, sizes)),
        stacked("src", edge_base),
        stacked("dst", edge_base),
        _edge_kinds(stacked("mu_idx")),
    )


def attention_forward(tape: Tape | None, h_prev: Tensor, plan: GraphPlan,
                      params: dict[str, Tensor], layer: int, heads: int,
                      targets: Tensor | None = None) -> Tensor:
    """Layer ``layer``, as one ``autodiff.attend`` record.

    Without ``targets`` every node attends over its incoming edges, giving
    (n, D).  With ``targets``, the (k, D) states of the deleted lines, rows
    [0, k) of the plan, only they attend, over the edges of
    ``plan.scored``: keys and values still come from every node of
    ``h_prev``, queries from ``targets``, and the result is (k, D), in
    plan row order.  A block without edges gives zeros of its targets'
    shape.
    """
    block, h_dst = (plan, h_prev) if targets is None else (plan.scored, targets)
    if not block.edge_rows:
        return constant(np.zeros(h_dst.shape))
    p = f"layer{layer}.attn"

    def typed(name: str, node_rows: dict) -> list:
        return [(rows, params[f"{p}.w_{name}.{kind.value}"], params[f"{p}.b_{name}.{kind.value}"])
                for kind, rows in node_rows.items()]

    def maps(name: str) -> list:
        return [(rows, params[f"{p}.{name}.{kind.value}"])
                for kind, rows in block.edge_rows.items()]

    return ad.attend(tape, h_prev, h_dst, typed("k", plan.node_rows), typed("q", block.node_rows),
                     typed("v", plan.node_rows), maps("w_att"), maps("w_msg"), params[f"{p}.mu"],
                     block.src, block.dst, block.mu_idx, heads)
