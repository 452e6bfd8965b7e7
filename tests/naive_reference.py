"""Loop-based reference implementations used as oracles in tests.

Most of what is here works on plain numpy arrays with explicit Python
loops over nodes, edges and heads, following the layer definitions
directly and never touching the tape machinery it is used to check.
The masked per-kind forms (``naive_typed_rows``, ``naive_edge_rows``),
``composed_gru``, the composed attention layer and its stages
(``composed_attention_layer``, ``attention_logits``,
``attention_weights``, ``edge_messages``, ``aggregate``,
``composed_attend``, ``composed_attention``) and ``composed_pair_loss``
are the exception: they are the tape compositions the fused ``gru``,
``attend`` and ``pair_loss`` ops replaced, kept so their values and
gradients can be checked against them.  The tape ops those compositions
need and the model no longer calls live here as well: ``block_matmul``
(one typed transform on each kind's rows), ``gather`` (a gather by an
index array, with ``flat_scatter`` for its backward), ``attend_core``
(the attention core the layer chain ended in) and the ``project_kqv``
and ``edge_rows`` stages built on them.  ``naive_backward`` and
``naive_checkpoint_text`` are likewise the earlier forms of
``autodiff.backward`` (which kept the whole tape and every gradient until
it returned) and of ``network.save_checkpoint`` (which built the whole
JSON text in memory).  The elementwise, reduction
and segment tape ops they are built from (``sub``, ``mul``,
``scalar_mul``, ``log_sigmoid``, ``reduce_sum``, ``segment_sum``,
``segment_softmax``, ``sigmoid``, ``tanh``) live here too: the model no
longer calls them, so ``autodiff`` does not hold them.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from rootrank import autodiff as ad
from rootrank.aggregation import GraphPlan
from rootrank.autodiff import Tape, Tensor, constant
from rootrank.graphs import (
    NUM_EDGE_KINDS,
    NUM_NODE_KINDS,
    CommitGraph,
    EdgeKind,
    LineNode,
    NodeKind,
)
from rootrank.network import (
    CHECKPOINT_FORMAT,
    _GRU_TENSORS,
    Mode,
    ModelConfig,
    NetworkParams,
    init_network_params,
    named_tensors,
)
from rootrank.synthetic import SIGNAL_VOCAB


def layer_params(dim: int, heads: int, rng: np.random.Generator) -> NetworkParams:
    """A freshly initialized two-layer model, whose ``layer0.*`` tensors are those of a layer
    that updates every node (the last layer updates only the deleted lines), and the head's."""
    return init_network_params(ModelConfig(dim=dim, heads=heads, layers=2), rng)


def mu_index(src_kind: NodeKind, edge_kind: EdgeKind, dst_kind: NodeKind) -> int:
    """Row of one (source kind, edge kind, target kind) prior in the layer's ``mu``."""
    return (src_kind.ordinal * NUM_EDGE_KINDS + edge_kind.ordinal) * NUM_NODE_KINDS + dst_kind.ordinal


def neighbors_in(g: CommitGraph, t: int) -> list[tuple[int, EdgeKind]]:
    """All (source, kind) pairs of edges pointing at node ``t``.

    Sorted ascending by (source id, edge kind ordinal), the order in
    which the layer's plan lists each target's incoming edges.
    """
    if not 0 <= t < len(g.nodes):
        raise KeyError(f"graph {g.commit_id!r} has no node {t}")
    incoming = [(e.src, e.kind) for e in g.edges if e.dst == t]
    incoming.sort(key=lambda item: (item[0], item[1].ordinal))
    return incoming


@dataclass(frozen=True)
class PairSample:
    commit_id: str
    i: int
    j: int
    label: float


def pair_label(node_i: LineNode, node_j: LineNode) -> float:
    """1.0 / 0.0 when exactly one of the pair is a root cause, else 0.5."""
    for node in (node_i, node_j):
        if node.kind is not NodeKind.DELETED:
            raise ValueError(f"pair labels are defined on deleted nodes, got node {node.id}")
    if node_i.is_root_cause and not node_j.is_root_cause:
        return 1.0
    if node_j.is_root_cause and not node_i.is_root_cause:
        return 0.0
    return 0.5


def naive_build_pairs(g: CommitGraph, include_ties: bool = False) -> list[PairSample]:
    """All unordered deleted-line pairs of one commit, as (i < j) node-id samples.

    Pair by pair, in the order of a double loop over the deleted ids;
    tie pairs (label 0.5) only with ``include_ties``.
    """
    deleted = g.deleted_ids()
    pairs = []
    for a in range(len(deleted)):
        for b in range(a + 1, len(deleted)):
            i, j = deleted[a], deleted[b]
            label = pair_label(g.nodes[i], g.nodes[j])
            if label == 0.5 and not include_ties:
                continue
            pairs.append(PairSample(commit_id=g.commit_id, i=i, j=j, label=label))
    return pairs


def naive_build_plan(g: CommitGraph) -> GraphPlan:
    """The graph plan from Python sorting, counting and per-edge prior lookups.

    Rows are the node ids stable-sorted by kind ordinal; edges, in rows,
    sorted by (kind ordinal, dst, src); node kinds counted in the kinds'
    declaration order.
    """
    node_ids = sorted(range(len(g.nodes)), key=lambda i: g.nodes[i].kind.ordinal)
    row = {node: r for r, node in enumerate(node_ids)}
    kinds = [g.nodes[i].kind for i in node_ids]
    order = sorted(((row[e.src], row[e.dst], e.kind) for e in g.edges),
                   key=lambda e: (e[2].ordinal, e[1], e[0]))
    return GraphPlan(
        n=len(kinds),
        src=np.array([src for src, _dst, _kind in order], dtype=np.intp),
        dst=np.array([dst for _src, dst, _kind in order], dtype=np.intp),
        mu_idx=np.array([mu_index(kinds[src], kind, kinds[dst]) for src, dst, kind in order],
                        dtype=np.intp),
        node_counts=[kinds.count(kind) for kind in NodeKind],
        node_ids=np.array(node_ids, dtype=np.intp),
    )


def assert_plan_matches_graphs(plan: GraphPlan, graphs: list[CommitGraph]) -> None:
    """``plan``'s kind runs hold what the graphs it was built from say they should.

    ``graphs`` are the commits of a union in list order, or the one graph
    of a plain plan; node ids are read in the graphs stacked in that order.
    ``node_counts`` is the count of each kind's nodes; the node runs tile
    the rows in order and each holds only nodes of its kind; the edge runs
    tile the edges in order and hold, read back as (source id, target id,
    run kind), exactly the graphs' edges.  The scored block's runs are the
    deleted lines, rows [0, k), and the edges into them.
    """
    kinds, edges, base = [], [], 0
    for g in graphs:
        kinds += [node.kind for node in g.nodes]
        edges += [(e.src + base, e.dst + base, e.kind) for e in g.edges]
        base += len(g.nodes)
    assert list(plan.node_counts) == [kinds.count(kind) for kind in NodeKind]
    k = kinds.count(NodeKind.DELETED)
    ids = plan.node_ids.tolist()
    for block, n in ((plan, plan.n), (plan.scored, k)):
        node_runs = [(kind, range(n)[rows]) for kind, rows in block.node_rows.items()]
        assert [r for _kind, rows in node_runs for r in rows] == list(range(n))
        assert all(len(rows) for _kind, rows in node_runs)
        assert all(kinds[ids[r]] is kind for kind, rows in node_runs for r in rows)
        src, dst = block.src.tolist(), block.dst.tolist()
        edge_runs = [(kind, range(len(src))[rows]) for kind, rows in block.edge_rows.items()]
        assert [e for _kind, rows in edge_runs for e in rows] == list(range(len(src)))
        assert all(len(rows) for _kind, rows in edge_runs)
        held = Counter((ids[src[e]], ids[dst[e]], kind) for kind, rows in edge_runs for e in rows)
        assert held == Counter(edge for edge in edges
                               if block is plan or kinds[edge[1]] is NodeKind.DELETED)


def assert_same_fields(got, want) -> None:
    """Every field of ``got``, a plan or a scored block, equals ``want``'s, the scored block's
    included: each index array a CheckedIndex of the same bound, dtype and entries, each run
    dict in the same order."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert type(a) is type(b) is ad.CheckedIndex and a.bound == b.bound, f.name
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        elif isinstance(b, dict):
            assert list(a.items()) == list(b.items()), f.name
        elif f.name == "scored":
            assert_same_fields(a, b)
        else:
            assert a == b, f.name


def naive_scatter(ufunc: np.ufunc, out: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """``ufunc.at`` on whole rows of ``out``: the row-scatter form, of any rank."""
    ufunc.at(out, idx, values)


def flat_scatter(ufunc: np.ufunc, out: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """``ufunc.at`` on rows ``idx`` of a C-contiguous ``out``, as ``autodiff`` runs every
    scatter: on 1-D operands, a 2-D ``out`` through its flat view (``autodiff._flat_index``)."""
    if out.ndim == 1:
        ufunc.at(out, idx, values)
    else:
        ufunc.at(out.reshape(-1), ad._flat_index(idx, out.shape[1]), values.reshape(-1))


def gather(tape: Tape | None, a: Tensor, index: ad.CheckedIndex) -> Tensor:
    """``a[index]``, rows of a matrix or entries of a vector, by a CheckedIndex of ``len(a)``
    whose indices may repeat: the gather by index ``autodiff.take_rows`` made before it took
    runs only, with the same forward and backward, bit for bit."""
    idx = ad._trusted("gather", "index", index, a.data.shape[0])
    out = a.data[idx]
    def bwd(g):
        full = np.zeros(a.data.shape)
        flat_scatter(np.add, full, idx, g)
        return (full,)
    return ad._make(tape, out, (a,), bwd)


def naive_segment_softmax(x: np.ndarray, ids: np.ndarray, num_segments: int, g: np.ndarray):
    """Row-scatter segment softmax of ``x`` and its backward for output gradient ``g``."""
    top = np.full((num_segments, x.shape[1]), -np.inf)
    naive_scatter(np.maximum, top, ids, x)
    e = np.exp(x - top[ids])
    total = np.zeros_like(top)
    naive_scatter(np.add, total, ids, e)
    p = e / total[ids]
    dot = np.zeros_like(top)
    naive_scatter(np.add, dot, ids, p * g)
    return p, p * (g - dot[ids])


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def naive_project(h_prev: np.ndarray, kinds, params: NetworkParams, layer: int,
                  field: str) -> np.ndarray:
    """Row by row, ``h_prev[i] @ w_{field} + b_{field}`` of node i's kind in layer ``layer``."""
    p = f"layer{layer}.attn"
    out = np.zeros_like(h_prev)
    for i, kind in enumerate(kinds):
        out[i] = (h_prev[i] @ params[f"{p}.w_{field}.{kind.value}"].data
                  + params[f"{p}.b_{field}.{kind.value}"].data)
    return out


def naive_attention_forward(h_prev: np.ndarray, g: CommitGraph, params: NetworkParams,
                            layer: int, heads: int, targets=None) -> np.ndarray:
    """Edge-by-edge, head-by-head attention layer ``layer``: one row per node of ``targets``,
    in that order (every node by default)."""
    n, dim = h_prev.shape
    d = dim // heads
    kinds = [node.kind for node in g.nodes]
    targets = list(range(n)) if targets is None else list(targets)
    p = f"layer{layer}.attn"

    k_full = naive_project(h_prev, kinds, params, layer, "k")
    v_full = naive_project(h_prev, kinds, params, layer, "v")
    q_rows = naive_project(h_prev[targets], [kinds[t] for t in targets], params, layer, "q")

    h_tilde = np.zeros((len(targets), dim))
    for row, t in enumerate(targets):
        incoming = neighbors_in(g, t)
        if not incoming:
            continue
        for i in range(heads):
            sl = slice(i * d, (i + 1) * d)
            logits = []
            messages = []
            for s, ekind in incoming:
                w_att_block = params[f"{p}.w_att.{ekind.value}"].data[sl]
                w_msg_block = params[f"{p}.w_msg.{ekind.value}"].data[sl]
                prior = params[f"{p}.mu"].data[mu_index(kinds[s], ekind, kinds[t]), 0]
                logit = (k_full[s, sl] @ w_att_block @ q_rows[row, sl]) * prior / math.sqrt(d)
                logits.append(logit)
                messages.append(v_full[s, sl] @ w_msg_block)
            logits = np.array(logits)
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            acc = np.zeros(d)
            for w_edge, msg in zip(weights, messages):
                acc += w_edge * msg
            h_tilde[row, sl] = acc
    return h_tilde


def _mask(rows, n: int) -> Tensor:
    """(n, 1) column holding 1.0 on ``rows`` and 0.0 elsewhere."""
    mask = np.zeros((n, 1))
    mask[rows] = 1.0
    return constant(mask)


def block_matmul(tape: Tape | None, a: Tensor, groups, heads: int) -> Tensor:
    """Per-group, per-head product (n, H*k) -> (n, H*m), the tape op that each typed
    transform of a layer was before ``autodiff.attend`` took the whole layer.

    ``groups`` lists ``(rows, w)`` or ``(rows, w, b)``: ``rows`` is a
    slice, and the groups' slices are non-empty runs that tile [0, n) in
    order; ``w`` is (H*k, m) and ``b`` is (H*m,).  Each row r becomes
    ``a[r] @ blockdiag(H row blocks of w) + b``, each group multiplied from
    a view of its rows straight into its rows of the output.
    """
    n, k = a.data.shape[0], a.data.shape[1] // heads
    m = groups[0][1].data.shape[-1]
    runs = [group[0] for group in groups]
    if (not all(ad._is_run(rows, n) and rows.stop > rows.start for rows in runs)
            or [rows.start for rows in runs] != [0, *(rows.stop for rows in runs[:-1])]
            or runs[-1].stop != n):
        raise ValueError(f"block_matmul: groups must be non-empty runs of rows, as slices, "
                         f"that tile [0, {n}) in order, got {runs}")
    inputs = [a]
    parts = []                  # (rows, weight blocks, w, b)
    for rows, w, *bias in groups:
        parts.append((rows, w.data if heads == 1 else w.data.reshape(heads, k, m), w,
                      bias[0] if bias else None))
        inputs += [w, *bias]

    def by_head(x):
        return x if heads == 1 else x.reshape(len(x), heads, -1).transpose(1, 0, 2)

    out = np.empty((n, heads * m))
    for rows, blocks, _w, b in parts:
        y = out[rows]
        np.matmul(by_head(a.data[rows]), blocks, out=by_head(y))
        if b is not None:
            y += b.data

    def bwd(g):
        da = np.empty_like(a.data, order="C") if a.requires_grad else None
        grads = [da]
        for rows, blocks, w, b in parts:
            gy = g[rows]
            if a.requires_grad:
                np.matmul(by_head(gy), blocks.swapaxes(-1, -2), out=by_head(da[rows]))
            grads.append(np.matmul(by_head(a.data[rows]).swapaxes(-1, -2), by_head(gy))
                         .reshape(heads * k, m) if w.requires_grad else None)
            if b is not None:
                grads.append(gy.sum(axis=0))
        return tuple(grads)
    return ad._make(tape, out, tuple(inputs), bwd)


def block_matmul_all_rows(tape: Tape | None, x: Tensor, w: Tensor, heads: int) -> Tensor:
    """``block_matmul`` of every row of ``x`` through ``w``; an ``x`` without rows maps to none."""
    if not x.shape[0]:      # a group is a non-empty run
        return constant(np.zeros((0, heads * w.shape[1])))
    return block_matmul(tape, x, [(slice(0, x.shape[0]), w)], heads)


def naive_typed_rows(tape: Tape | None, x: Tensor, groups, heads: int) -> Tensor:
    """sum_k mask_k * (x @ W_k + b_k): every group's transform on every row of ``x``.

    ``groups`` as for ``block_matmul``; each product is the per-head one
    of a single group over all rows.
    """
    n = x.shape[0]
    out = constant(np.zeros((n, heads * groups[0][1].shape[1])))
    for rows, w, *bias in groups:
        y = block_matmul_all_rows(tape, x, w, heads)
        if bias:
            y = ad.add(tape, y, bias[0])
        out = ad.add(tape, out, mul(tape, y, _mask(rows, n)))
    return out


def naive_edge_rows(tape: Tape | None, plan: GraphPlan, states: Tensor, params: NetworkParams,
                    maps: str, heads: int) -> Tensor:
    """Per edge kind, every node mapped, gathered at the edge sources and masked; summed."""
    out = None
    for kind, rows in plan.edge_rows.items():
        w = params[f"{maps}.{kind.value}"]
        mapped = block_matmul_all_rows(tape, states, w, heads)
        part = mul(tape, gather(tape, mapped, plan.src), _mask(rows, len(plan.src)))
        out = part if out is None else ad.add(tape, out, part)
    return out


def naive_adam_step(params: list[np.ndarray], grads: list[np.ndarray], m: list[np.ndarray],
                    v: list[np.ndarray], step_count: int, lr: float, beta1: float = 0.9,
                    beta2: float = 0.999, eps: float = 1e-8) -> list[np.ndarray]:
    """Adam step ``step_count`` (1 for the first), tensor by tensor.

    Updates ``m`` and ``v`` in place and returns the new parameter arrays.
    """
    correct1 = 1.0 - beta1 ** step_count
    correct2 = 1.0 - beta2 ** step_count
    out = []
    for p, g, m_t, v_t in zip(params, grads, m, v):
        m_t *= beta1
        m_t += (1.0 - beta1) * g
        v_t *= beta2
        v_t += (1.0 - beta2) * (g * g)
        out.append(p - lr * (m_t / correct1) / (np.sqrt(v_t / correct2) + eps))
    return out


def naive_backward(tape: Tape, loss: Tensor) -> ad.Gradients:
    """Reverse-mode gradients that read the tape without consuming it.

    Walks every record in reverse and keeps every gradient, intermediate
    ones included, until it returns; accumulation and the separation of
    leaves handed one array follow ``autodiff.backward``.  Run it before
    ``autodiff.backward``, which empties the tape.
    """
    grads = {id(loss): np.ones_like(loss.data)}
    owned = set()
    for out, inputs, bwd in reversed(tape._records):
        g_out = grads.get(id(out))
        if g_out is None:
            continue
        for inp, g_in in zip(inputs, bwd(g_out)):
            if g_in is None or not inp.requires_grad:
                continue
            key = id(inp)
            acc = grads.get(key)
            if acc is None:
                grads[key] = g_in
            elif key in owned:
                acc += g_in
            else:
                grads[key] = acc + g_in
                owned.add(key)
    buffers = set()
    for key, g in grads.items():
        if key in tape._produced or key in owned:
            continue
        buffer = id(g if g.base is None else g.base)
        if buffer in buffers:
            grads[key] = g.copy()
        else:
            buffers.add(buffer)
    return ad.Gradients(grads)


def encode_data(values) -> str:
    """A checkpoint entry's ``"data"``: base64 of ``values`` as little-endian float64, C order."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def decode_data(text: str) -> np.ndarray:
    """The flat float64 values of a checkpoint entry's ``"data"``."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").astype(np.float64)


def naive_checkpoint_text(params: NetworkParams, cfg: ModelConfig) -> str:
    """A checkpoint's whole text as one ``json.dumps`` of its payload object."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "dim": cfg.dim, "heads": cfg.heads, "layers": cfg.layers, "proj_dim": cfg.out_dim,
        "mode": cfg.mode.value, "seed": cfg.seed, "sigma": cfg.sigma,
        "tensors": [{"name": name, "shape": list(t.data.shape), "data": encode_data(t.data)}
                    for name, t in named_tensors(params)],
    }
    return json.dumps(payload)


def sub(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    def bwd(g):
        return ad._unbroadcast(g, a.data.shape), -ad._unbroadcast(g, b.data.shape)
    return ad._make(tape, out, (a, b), bwd)


def mul(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product, with numpy broadcasting."""
    out = a.data * b.data
    def bwd(g):
        return (ad._unbroadcast(g * b.data, a.data.shape),
                ad._unbroadcast(g * a.data, b.data.shape))
    return ad._make(tape, out, (a, b), bwd)


def scalar_mul(tape: Tape | None, a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = a.data * c
    def bwd(g):
        return (g * c,)
    return ad._make(tape, out, (a,), bwd)


def log_sigmoid(tape: Tape | None, a: Tensor) -> Tensor:
    """log(sigmoid(a)) = -softplus(-a), exact for saturated inputs of either sign."""
    x = a.data
    e = np.exp(-np.abs(x))
    out = np.minimum(x, 0.0) - np.log1p(e)
    def bwd(g):
        # d/da log(sigmoid(a)) = sigmoid(-a), formed without cancellation
        return (g * np.where(x >= 0, e / (1.0 + e), 1.0 / (1.0 + e)),)
    return ad._make(tape, out, (a,), bwd)


def reduce_sum(tape: Tape | None, a: Tensor) -> Tensor:
    """Sum of every element, a scalar."""
    out = a.data.sum()
    def bwd(g):
        return (np.broadcast_to(g, a.data.shape).copy(),)
    return ad._make(tape, out, (a,), bwd)


def _segment_ids(segment_ids, rows: int, num_segments: int) -> np.ndarray:
    ids = ad._indices(segment_ids, num_segments)
    if len(ids) != rows:
        raise ValueError(f"need one segment id per row: {len(ids)} ids for {rows} rows")
    return ids


def segment_sum(tape: Tape | None, a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Row ``s`` of the result is the sum of the rows of ``a`` whose id is ``s``.

    Rows are added in row order; a segment without rows is zero.
    """
    ids = _segment_ids(segment_ids, a.data.shape[0], num_segments)
    out = np.zeros((num_segments,) + a.data.shape[1:])
    flat_scatter(np.add, out, ids, a.data)
    def bwd(g):
        return (g[ids],)
    return ad._make(tape, out, (a,), bwd)


def segment_softmax(tape: Tape | None, a: Tensor, segment_ids: np.ndarray,
                    num_segments: int) -> Tensor:
    """Softmax over the rows of each segment, independently per column.

    Max subtraction per segment and column makes it shift invariant and
    keeps it from overflowing.
    """
    x = a.data
    if x.ndim != 2:
        raise ValueError(f"segment_softmax: rank-2 input required, got shape {x.shape}")
    ids = _segment_ids(segment_ids, x.shape[0], num_segments)
    flat = ad._flat_index(ids, x.shape[1])     # shared by all three scatters
    top = np.full((num_segments, x.shape[1]), -np.inf)
    flat_scatter(np.maximum, top.reshape(-1), flat, x.reshape(-1))
    e = np.exp(x - top[ids])
    total = np.zeros_like(top)
    flat_scatter(np.add, total.reshape(-1), flat, e.reshape(-1))
    p = e / total[ids]
    def bwd(g):
        dot = np.zeros_like(top)
        flat_scatter(np.add, dot.reshape(-1), flat, (p * g).reshape(-1))
        return (p * (g - dot[ids]),)
    return ad._make(tape, p, (a,), bwd)


def sigmoid(tape: Tape | None, a: Tensor) -> Tensor:
    """Elementwise logistic tape op, the one the composed GRU chain used."""
    x = a.data
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    def bwd(g):
        return (g * s * (1.0 - s),)
    return ad._make(tape, s, (a,), bwd)


def tanh(tape: Tape | None, a: Tensor) -> Tensor:
    """Elementwise tanh tape op, the one the composed GRU chain used."""
    t = np.tanh(a.data)
    def bwd(g):
        return (g * (1.0 - t * t),)
    return ad._make(tape, t, (a,), bwd)


def gru_tensors(params: NetworkParams, layer: int) -> dict[str, Tensor]:
    """Layer ``layer``'s 12 gate tensors, by their names within the layer (``w_ir`` ...)."""
    return {name: params[f"layer{layer}.gru.{name}"] for name in _GRU_TENSORS}


def composed_gru(tape: Tape | None, h_tilde: Tensor, h_prev: Tensor, params: NetworkParams,
                 layer: int) -> Tensor:
    """The gated update as 23 tape ops: matmul, add, mul, sub, sigmoid and tanh."""
    if h_tilde.shape != h_prev.shape:
        raise ValueError(f"gru_cell: shapes differ: {h_tilde.shape} vs {h_prev.shape}")
    p = SimpleNamespace(**gru_tensors(params, layer))

    def affine(x, w, b):
        return ad.add(tape, ad.matmul(tape, x, w), b)

    r = sigmoid(tape, ad.add(tape, affine(h_tilde, p.w_ir, p.b_ir), affine(h_prev, p.w_hr, p.b_hr)))
    z = sigmoid(tape, ad.add(tape, affine(h_tilde, p.w_iz, p.b_iz), affine(h_prev, p.w_hz, p.b_hz)))
    n = tanh(tape, ad.add(tape, affine(h_tilde, p.w_in, p.b_in),
                          mul(tape, r, affine(h_prev, p.w_hn, p.b_hn))))
    keep = mul(tape, z, h_prev)
    update = mul(tape, sub(tape, constant(np.ones(z.shape)), z), n)
    return ad.add(tape, update, keep)


def composed_logits(tape: Tape | None, keys: Tensor, queries: Tensor, mu: Tensor,
                    mu_idx: ad.CheckedIndex, heads: int) -> Tensor:
    """Per-edge, per-head scaled logits (E, H), as five tape ops: the sum over each
    head's columns is a product with an all-ones (D, 1) selector."""
    dim = keys.shape[1]
    head_sum = constant(np.ones((dim, 1)))
    raw = block_matmul_all_rows(tape, mul(tape, keys, queries), head_sum, heads)
    prior = gather(tape, mu, mu_idx)
    return scalar_mul(tape, mul(tape, raw, prior), 1.0 / math.sqrt(dim / heads))


def composed_aggregate(tape: Tape | None, weights: Tensor, messages: Tensor, dst: np.ndarray,
                       n: int) -> Tensor:
    """Weighted messages summed into their targets (n, D), as three tape ops: each
    head's weight is spread over its columns by an all-ones (H, D/H) selector."""
    heads = weights.shape[1]
    head_expand = constant(np.ones((heads, messages.shape[1] // heads)))
    w_full = block_matmul_all_rows(tape, weights, head_expand, heads)
    return segment_sum(tape, mul(tape, w_full, messages), dst, n)


def composed_attend(tape: Tape | None, keys: Tensor, queries: Tensor, mu: Tensor,
                    messages: Tensor, mu_idx: ad.CheckedIndex, dst: ad.CheckedIndex, n: int,
                    heads: int) -> Tensor:
    """``attend_core`` as the nine tape ops it replaced."""
    logits = composed_logits(tape, keys, queries, mu, mu_idx, heads)
    weights = segment_softmax(tape, logits, dst, n)
    return composed_aggregate(tape, weights, messages, dst, n)


def attend_core(tape: Tape | None, keys: Tensor, queries: Tensor, mu: Tensor, messages: Tensor,
                mu_idx: ad.CheckedIndex, dst: ad.CheckedIndex, n: int, heads: int) -> Tensor:
    """The last of the nine ops of a layer before ``autodiff.attend`` took the whole layer:
    from per-edge ``keys``, ``queries`` and ``messages`` (E, D), the prior-scaled logits, the
    softmax over each target's incoming edges and the scatter of the weighted messages into
    an (n, D) result, as one record with a closed-form backward."""
    kd, qd, vd = keys.data, queries.data, messages.data
    e, dim = kd.shape
    d = dim // heads
    prior_rows = ad._trusted("attend_core", "mu_idx", mu_idx, mu.data.shape[0])
    ids = ad._trusted("attend_core", "dst", dst, n)
    k3, q3, v3 = (t.reshape(e, heads, d) for t in (kd, qd, vd))
    scale = 1.0 / math.sqrt(d)
    raw = (k3 * q3).sum(axis=2)
    prior = mu.data[prior_rows]
    logits = ad._finite("attend_core", "logits", raw * prior * scale)
    flat = ad._flat_index(ids, heads)
    top = np.full((n, heads), -np.inf)
    flat_scatter(np.maximum, top.reshape(-1), flat, logits.reshape(-1))
    ex = np.exp(logits - top[ids])
    total = np.zeros((n, heads))
    flat_scatter(np.add, total.reshape(-1), flat, ex.reshape(-1))
    p = ex / total[ids]
    out = np.zeros((n, dim))
    flat_scatter(np.add, out, ids, (v3 * p[:, :, None]).reshape(e, dim))

    def bwd(g):
        g3 = g[ids].reshape(e, heads, d)
        d_messages = (g3 * p[:, :, None]).reshape(e, dim)
        d_p = (g3 * v3).sum(axis=2)
        dot = np.zeros((n, heads))
        flat_scatter(np.add, dot.reshape(-1), flat, (p * d_p).reshape(-1))
        d_scaled = p * (d_p - dot[ids]) * scale
        d_mu = np.zeros(mu.data.shape)
        flat_scatter(np.add, d_mu.reshape(-1), prior_rows, (d_scaled * raw).sum(axis=1))
        d_raw = (d_scaled * prior)[:, :, None]
        return (q3 * d_raw).reshape(e, dim), (k3 * d_raw).reshape(e, dim), d_mu, d_messages
    return ad._make(tape, out, (keys, queries, mu, messages), bwd)


def _targets_block(plan: GraphPlan, h_prev: Tensor, targets: Tensor | None):
    """The block a layer attends into, and its targets' states: the whole plan and
    ``h_prev`` without ``targets``, else ``plan.scored`` and ``targets``."""
    return (plan, h_prev) if targets is None else (plan.scored, targets)


def project_kqv(tape: Tape | None, h_prev: Tensor, plan: GraphPlan, params: NetworkParams,
                layer: int, targets: Tensor | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Keys and values (n x D) of every node, and queries of the layer's targets: states
    through their own kind's projection, one ``block_matmul`` each."""
    p = f"layer{layer}.attn"
    block, h_dst = _targets_block(plan, h_prev, targets)

    def typed(name: str, states: Tensor, node_rows: dict) -> Tensor:
        groups = [(rows, params[f"{p}.w_{name}.{kind.value}"],
                   params[f"{p}.b_{name}.{kind.value}"]) for kind, rows in node_rows.items()]
        return block_matmul(tape, states, groups, 1)

    return (typed("k", h_prev, plan.node_rows), typed("q", h_dst, block.node_rows),
            typed("v", h_prev, plan.node_rows))


def edge_rows(tape: Tape | None, block, states: Tensor, params: NetworkParams, maps: str,
              heads: int) -> Tensor:
    """Per edge of ``block`` (a plan or its scored block), the source state through the head
    blocks ``{maps}.{edge kind}``, shape (E, D): a gather, then one ``block_matmul``."""
    sources = gather(tape, states, block.src)
    groups = [(rows, params[f"{maps}.{kind.value}"]) for kind, rows in block.edge_rows.items()]
    return block_matmul(tape, sources, groups, heads)


def composed_attention_layer(tape: Tape | None, h_prev: Tensor, plan: GraphPlan,
                             params: NetworkParams, layer: int, heads: int,
                             targets: Tensor | None = None) -> Tensor:
    """``aggregation.attention_forward`` as the nine tape ops the fused ``autodiff.attend``
    replaced: three projections, the key gather and map, the query gather, the value gather
    and map, and ``attend_core``."""
    block, h_dst = _targets_block(plan, h_prev, targets)
    if not block.edge_rows:
        return constant(np.zeros(h_dst.shape))
    k, q, v = project_kqv(tape, h_prev, plan, params, layer, targets)
    p = f"layer{layer}.attn"
    keys = edge_rows(tape, block, k, params, f"{p}.w_att", heads)
    queries = gather(tape, q, block.dst)
    messages = edge_rows(tape, block, v, params, f"{p}.w_msg", heads)
    return attend_core(tape, keys, queries, params[f"{p}.mu"], messages, block.mu_idx,
                       block.dst, block.n, heads)


def attention_logits(tape: Tape | None, plan: GraphPlan, kqv: tuple[Tensor, Tensor, Tensor],
                     params: NetworkParams, layer: int, heads: int) -> Tensor:
    """Per-edge, per-head scaled attention logits, shape (E, H), in the plan's edge order.

    Each logit is K_head(src) @ W_att_block @ Q_head(dst), scaled by the
    (source kind, edge kind, target kind) prior and 1/sqrt(D/H).
    """
    k, q, _v = kqv
    keys = edge_rows(tape, plan, k, params, f"layer{layer}.attn.w_att", heads)
    queries = gather(tape, q, plan.dst)
    return composed_logits(tape, keys, queries, params[f"layer{layer}.attn.mu"], plan.mu_idx,
                           heads)


def attention_weights(tape: Tape | None, logits: Tensor, plan: GraphPlan) -> Tensor:
    """Softmax over each target's incoming edges, independently per head, shape (E, H)."""
    return segment_softmax(tape, logits, plan.dst, plan.n)


def edge_messages(tape: Tape | None, plan: GraphPlan, kqv: tuple[Tensor, Tensor, Tensor],
                  params: NetworkParams, layer: int, heads: int) -> Tensor:
    """Per-edge message content, shape (E, D): V_head(src) @ W_msg_block per head."""
    return edge_rows(tape, plan, kqv[2], params, f"layer{layer}.attn.w_msg", heads)


def aggregate(tape: Tape | None, plan: GraphPlan, weights: Tensor, messages: Tensor) -> Tensor:
    """Attention-weighted sum of messages into each target, shape (n, D)."""
    return composed_aggregate(tape, weights, messages, plan.dst, plan.n)


def composed_attention(tape: Tape | None, h_prev: Tensor, plan: GraphPlan,
                       params: NetworkParams, layer: int, heads: int) -> Tensor:
    """``aggregation.attention_forward`` through the composed stages: 17 tape ops."""
    if not plan.edge_rows:
        return constant(np.zeros(h_prev.shape))
    kqv = project_kqv(tape, h_prev, plan, params, layer)
    logits = attention_logits(tape, plan, kqv, params, layer, heads)
    weights = attention_weights(tape, logits, plan)
    return aggregate(tape, plan, weights, edge_messages(tape, plan, kqv, params, layer, heads))


def composed_pair_loss(tape: Tape | None, scores: Tensor, pair_i: ad.CheckedIndex,
                       pair_j: ad.CheckedIndex, labels: np.ndarray, sigma: float) -> Tensor:
    """``autodiff.pair_loss`` as the twelve tape ops it replaced."""
    diff = sub(tape, gather(tape, scores, pair_i), gather(tape, scores, pair_j))
    logit = scalar_mul(tape, diff, sigma)
    pos = mul(tape, log_sigmoid(tape, logit), constant(labels))
    neg = mul(tape, log_sigmoid(tape, scalar_mul(tape, logit, -1.0)), constant(1.0 - labels))
    return scalar_mul(tape, reduce_sum(tape, ad.add(tape, pos, neg)), -1.0)


def naive_gru(h_tilde: np.ndarray, h_prev: np.ndarray, params: NetworkParams,
              layer: int) -> np.ndarray:
    """Row by row, layer ``layer``'s gated update."""
    p = SimpleNamespace(**gru_tensors(params, layer))
    out = np.zeros_like(h_prev)
    for row in range(h_prev.shape[0]):
        x = h_tilde[row]
        h = h_prev[row]
        r = _sigmoid(x @ p.w_ir.data + p.b_ir.data + h @ p.w_hr.data + p.b_hr.data)
        z = _sigmoid(x @ p.w_iz.data + p.b_iz.data + h @ p.w_hz.data + p.b_hz.data)
        cand = np.tanh(x @ p.w_in.data + p.b_in.data + r * (h @ p.w_hn.data + p.b_hn.data))
        out[row] = (1.0 - z) * cand + z * h
    return out


def naive_layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                     eps: float = 1e-5) -> np.ndarray:
    out = np.zeros_like(x)
    for row in range(x.shape[0]):
        v = x[row]
        mean = v.mean()
        var = ((v - mean) ** 2).mean()
        out[row] = (v - mean) / math.sqrt(var + eps) * gain + bias
    return out


def naive_head(h: np.ndarray, params: NetworkParams) -> np.ndarray:
    """The final norm and the ReLU task projection of the last node states ``h``."""
    normed = naive_layer_norm(h, params["final_norm.gain"].data, params["final_norm.bias"].data)
    return np.maximum(normed @ params["proj.w"].data + params["proj.b"].data, 0.0)


def naive_network_forward(h0: np.ndarray, g: CommitGraph, params: NetworkParams,
                          cfg: ModelConfig, all_rows: bool = False) -> np.ndarray:
    """Task embeddings of the deleted lines, in node id order: every layer but the last
    updates every node, the last only the deleted lines.  With ``all_rows`` the last layer
    updates every node too, which reads the tensors the model does not declare (see
    ``with_unread_tensors``), and every node's embedding is returned."""
    h = h0.copy()
    for layer in range(cfg.layers):
        targets = (list(range(len(g.nodes))) if all_rows or layer < cfg.layers - 1
                   else g.deleted_ids())
        own = h[targets]
        if cfg.mode is Mode.FULL:
            h = naive_gru(naive_attention_forward(h, g, params, layer, cfg.heads, targets), own,
                          params, layer)
        elif cfg.mode is Mode.AGGREGATION_ONLY:
            h = naive_attention_forward(h, g, params, layer, cfg.heads, targets)
        else:
            h = naive_gru(own, own, params, layer)
    return naive_head(h, params)


def unread_tensor_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The last layer's tensors an attention mode does not declare, because that layer updates
    only the deleted lines: its added-line query weight and bias and its line_mapping maps."""
    if cfg.mode is Mode.RETENTION_ONLY:
        return {}
    p = f"layer{cfg.layers - 1}.attn"
    maps = (cfg.dim, cfg.dim // cfg.heads)
    return {f"{p}.w_q.added": (cfg.dim, cfg.dim), f"{p}.b_q.added": (cfg.dim,),
            f"{p}.w_att.line_mapping": maps, f"{p}.w_msg.line_mapping": maps}


def with_unread_tensors(params: NetworkParams, cfg: ModelConfig,
                        rng: np.random.Generator) -> NetworkParams:
    """``params`` plus random values for :func:`unread_tensor_shapes`, so that the last layer
    can update every node."""
    return {**params, **{name: Tensor(rng.normal(size=shape))
                         for name, shape in unread_tensor_shapes(cfg).items()}}


def signal_token_count(text: str) -> int:
    """Number of signal-vocabulary tokens in a line; a trivial oracle scorer."""
    tokens = text.split()
    return sum(1 for t in tokens if t in SIGNAL_VOCAB)


def random_graph(rng: np.random.Generator, max_nodes: int = 6,
                 require_deleted: bool = True) -> CommitGraph:
    """Random small commit graph with mixed node and edge kinds."""
    from rootrank.graphs import DepEdge, LineNode

    n = int(rng.integers(2, max_nodes + 1))
    kinds = [NodeKind.DELETED if rng.random() < 0.5 else NodeKind.ADDED for _ in range(n)]
    if require_deleted and not any(k is NodeKind.DELETED for k in kinds):
        kinds[int(rng.integers(0, n))] = NodeKind.DELETED
    deleted = [i for i, k in enumerate(kinds) if k is NodeKind.DELETED]
    root = int(rng.choice(deleted))
    nodes = tuple(
        LineNode(i, kinds[i], text=f"line {i}", is_root_cause=(i == root))
        for i in range(n)
    )
    edges = []
    seen = set()
    for src in range(n):
        for dst in range(n):
            if src == dst or rng.random() > 0.45:
                continue
            if kinds[src] is NodeKind.DELETED and kinds[dst] is NodeKind.ADDED and rng.random() < 0.2:
                kind = EdgeKind.LINE_MAPPING
            else:
                kind = list(EdgeKind)[int(rng.integers(0, 4))]
            if (src, dst, kind) in seen:
                continue
            seen.add((src, dst, kind))
            edges.append(DepEdge(src, dst, kind))
    return CommitGraph(commit_id=f"rand-{rng.integers(1 << 30)}", nodes=nodes, edges=tuple(edges))
