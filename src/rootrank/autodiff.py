"""Dense float64 tensors with reverse-mode automatic differentiation.

Every model quantity in this package is a rank-0/1/2 :class:`Tensor`.
Operations executed against a :class:`Tape` record their backward rule;
:func:`backward` replays the tape in exact reverse order to produce
gradients of a scalar loss with respect to every leaf that requires
them.  Passing ``tape=None`` runs the same forward math without
recording, for inference.

A tape is used once.  :func:`backward` releases each record as soon as
its rule has run (the op's output, its inputs and the arrays the rule
captured) and each intermediate gradient once the record that produced
that tensor has read it, so a training step's memory falls as the walk
proceeds instead of peaking at the end of it.  ``len(tape)`` keeps
counting the ops that were recorded.

The op set holds what the model calls and nothing more, eight ops:
matmul, add, relu, layer_norm, take_rows (a run of rows, gathered as a
view), and three fused ops that each record a whole model stage with a
closed-form backward: gru (the gated retention update), attend (one
whole attention layer: its typed K, Q and V projections, the gathers at
each edge's ends, the per-edge-kind head block maps, the prior-scaled
logits, the softmax over each target's incoming edges and the scatter
of weighted messages into the targets) and pair_loss (the RankNet pair
cross-entropy).  Graph- and head-shaped work runs on integer index
arrays, runs and reshapes, never on dense one-hot, block-diagonal or
all-ones selector matrices.  All ops reject non-finite results.

Index checks run where an index array is made, never where it is used.
:func:`checked_index` checks an array once and returns a read-only
:class:`CheckedIndex` that remembers the length it was checked against;
a graph's plan and ``ranker.build_pairs`` make their arrays this way.
attend and pair_loss take only a CheckedIndex of the length they
index; any other array, even one derived from a CheckedIndex, raises
ValueError naming the op and the argument.  A run of rows needs no
array: it is a slice ``start:stop``, which costs two integers to check
by arithmetic.  take_rows gathers a run as a view, and attend takes
each typed transform's groups as runs that tile its rows in order (a
plan's kind runs, derived from its counts), so each group's product is
written straight into its rows of the result: there is no gather and no
scatter.  Every scatter (the per-target reductions and gather gradients
of attend and pair_loss's backward) is a ``ufunc.at`` on 1-D operands,
a row scatter running on its array's flat view (see :func:`_flat_index`).

:func:`backward` stores an input's first gradient as the backward rule
returned it and adds further contributions into an array it allocated
itself, so no rule's output is ever written to; leaf gradients never
share memory with each other.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


class Tensor:
    """A rank <= 2 float64 array, optionally participating in gradients."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ValueError(f"tensors are rank <= 2, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise FloatingPointError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


# Backward callbacks receive the output gradient and return one gradient
# array (or None) per op input, in input order.
_Backward = Callable[[np.ndarray], tuple]


class Tape:
    """Record of executed ops, replayed once, in reverse, by backward().

    :func:`backward` empties the record list as it goes; ``len(tape)`` still
    counts every op that was recorded.
    """

    __slots__ = ("_records", "_produced", "_count")

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], _Backward]] = []
        self._produced: set[int] | None = set()   # None once backward has used the tape
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], bwd: _Backward) -> None:
        if self._produced is None:
            raise ValueError("this tape was already used by backward; record on a new one")
        self._records.append((out, inputs, bwd))
        self._produced.add(id(out))
        self._count += 1


class Gradients:
    """Gradient lookup for the leaves of one backward pass.

    Leaves that never influenced the loss map to zeros of their shape.
    """

    __slots__ = ("_by_id",)

    def __init__(self, by_id: dict[int, np.ndarray]):
        self._by_id = by_id

    def __getitem__(self, t: Tensor) -> np.ndarray:
        g = self._by_id.get(id(t))
        if g is None:
            return np.zeros_like(t.data)
        return g


def backward(tape: Tape, loss: Tensor) -> Gradients:
    """Exact reverse-mode gradients of a scalar loss over the whole tape, which it uses up.

    Each record is dropped as soon as its rule has run, and with it the
    op's output, its inputs and every array its rule captured; each
    intermediate tensor's gradient is dropped once that tensor's own
    record has used it.  So memory falls as the walk proceeds, and only
    leaf gradients are left at the end.  A tape serves one backward: a
    second call, or a new op recorded on it, raises ValueError.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    produced = tape._produced
    if produced is None:
        raise ValueError("this tape was already used by backward; record on a new one")
    if id(loss) not in produced:
        raise ValueError("loss was not produced on this tape")
    tape._produced = None
    records = tape._records
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    # A rule may hand one array to several inputs, or pass its output
    # gradient straight through, so only arrays allocated here (their
    # keys are in ``owned``) are accumulated into in place.
    owned: set[int] = set()
    while records:
        out, inputs, bwd = records.pop()
        # Every record that reads ``out`` ran earlier in this walk, so its
        # gradient is complete; the record that made it is the last user.
        g_out = grads.pop(id(out), None)
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
    # Only leaves are left.  Leaves handed the same array (add(x, y) gives
    # both the same one) each get their own.
    buffers: set[int] = set()
    for key, g in grads.items():
        if key in owned:
            continue
        buffer = id(g if g.base is None else g.base)
        if buffer in buffers:
            grads[key] = g.copy()
        else:
            buffers.add(buffer)
    return Gradients(grads)


def _finite(op: str, what: str, x: np.ndarray) -> np.ndarray:
    """``x``, once checked finite; otherwise FloatingPointError names the op and the quantity."""
    if not np.isfinite(x).all():
        raise FloatingPointError(f"{op} produced non-finite values in its {x.shape} {what}")
    return x


def _make(tape: Tape | None, data: np.ndarray, inputs: tuple[Tensor, ...], bwd: _Backward) -> Tensor:
    if not np.isfinite(data).all():
        op = bwd.__qualname__.split(".", 1)[0]  # "matmul.<locals>.bwd" -> "matmul"
        _finite(op, "output", data)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(t.requires_grad for t in inputs)
    if tape is not None and out.requires_grad:
        tape._record(out, inputs, bwd)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast operand."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Op kinds


def matmul(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: (n,k)@(k,m) -> (n,m) or (n,k)@(k,) -> (n,)."""
    if a.data.ndim != 2 or b.data.ndim not in (1, 2):
        raise ValueError(f"matmul: unsupported shapes {a.shape} @ {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dims differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    if b.data.ndim == 2:
        def bwd(g):
            return g @ b.data.T, a.data.T @ g
    else:
        def bwd(g):
            return np.outer(g, b.data), a.data.T @ g
    return _make(tape, out, (a, b), bwd)


def add(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)
    return _make(tape, out, (a, b), bwd)


def relu(tape: Tape | None, a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    mask = a.data > 0.0
    def bwd(g):
        return (g * mask,)
    return _make(tape, out, (a,), bwd)


def layer_norm(tape: Tape | None, a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-vector normalization over the last axis with learned gain and bias."""
    x = a.data
    d = x.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError(f"layer_norm: gain/bias must have shape ({d},)")
    mean = x.mean(axis=-1, keepdims=True)
    xc = x - mean
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)    # epsilon 1e-5 keeps a constant row finite
    xhat = xc * inv
    out = xhat * gain.data + bias.data
    def bwd(g):
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=axes) if axes else g * xhat
        dbias = g.sum(axis=axes) if axes else g
        return dx, dgain, dbias
    return _make(tape, out, (a, gain, bias), bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow for either sign and with no select: with e =
    exp(-|x|), the value is 1 / (1 + e) for x >= 0 and e / (1 + e) below, bit for bit."""
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def gru(tape: Tape | None, x: Tensor, h: Tensor, weights: Sequence[Tensor]) -> Tensor:
    """Gated update of row states ``h`` by inputs ``x``, both (n, D).

    ``weights`` are the (D, D) maps and (D,) biases w_ir, b_ir, w_hr,
    b_hr, w_iz, b_iz, w_hz, b_hz, w_in, b_in, w_hn, b_hn::

        r = sigmoid((x w_ir + b_ir) + (h w_hr + b_hr))
        z = sigmoid((x w_iz + b_iz) + (h w_hz + b_hz))
        n = tanh((x w_in + b_in) + r * (h w_hn + b_hn))
        out = (1 - z) * n + z * h

    One tape record with a closed-form backward.  Forward and gradients
    perform the float operations of the same update composed from
    matmul, add, mul, sub and elementwise ops, in the same order, so they
    are bit-identical to it whenever ``x`` is not ``h``.  Each gate's
    pre-activation is checked before its saturating nonlinearity, so an
    overflow in any affine map, or in a sum of two, raises.
    """
    xd, hd = x.data, h.data
    if xd.ndim != 2 or xd.shape != hd.shape:
        raise ValueError(f"gru: shapes differ: {x.shape} vs {h.shape}")
    d = xd.shape[1]
    if len(weights) != 12 or any(t.data.shape != ((d, d) if i % 2 == 0 else (d,))
                                 for i, t in enumerate(weights)):
        raise ValueError(f"gru: need 12 weights of shapes ({d}, {d}) and ({d},) in turn, got "
                         f"{[t.shape for t in weights]}")
    w_ir, b_ir, w_hr, b_hr, w_iz, b_iz, w_hz, b_hz, w_in, b_in, w_hn, b_hn = (
        t.data for t in weights)
    r = _sigmoid(_finite("gru", "reset pre-activation", (xd @ w_ir + b_ir) + (hd @ w_hr + b_hr)))
    z = _sigmoid(_finite("gru", "update pre-activation", (xd @ w_iz + b_iz) + (hd @ w_hz + b_hz)))
    h_n = hd @ w_hn + b_hn
    n = np.tanh(_finite("gru", "candidate pre-activation", (xd @ w_in + b_in) + r * h_n))
    zbar = 1.0 - z
    out = zbar * n + z * hd

    def bwd(g):
        # the composed form's backward, in reverse order of its forward ops
        d_n = g * zbar * (1.0 - n * n)
        d_hn = d_n * r
        d_z = (-(g * n) + g * hd) * z * (1.0 - z)
        d_r = d_n * h_n * r * (1.0 - r)
        dh = ((g * z + d_hn @ w_hn.T) + d_z @ w_hz.T) + d_r @ w_hr.T if h.requires_grad else None
        dx = (d_n @ w_in.T + d_z @ w_iz.T) + d_r @ w_ir.T if x.requires_grad else None
        db_r, db_z = d_r.sum(axis=0), d_z.sum(axis=0)
        return (dx, dh,
                xd.T @ d_r, db_r, hd.T @ d_r, db_r,
                xd.T @ d_z, db_z, hd.T @ d_z, db_z,
                xd.T @ d_n, d_n.sum(axis=0), hd.T @ d_hn, d_hn.sum(axis=0))
    return _make(tape, out, (x, h, *weights), bwd)


def _flat_index(idx: np.ndarray, c: int) -> np.ndarray:
    """Element indices ``idx[r] * c + j`` of rows ``idx`` of a C-ordered (n, c) array, row-major.

    Every scatter is a ``ufunc.at`` on 1-D operands, because numpy's
    ``ufunc.at`` has a fast path only for those: a row scatter into an
    (n, c) array runs on its flat view at these indices, which makes the
    same operations on each element in the same order as the 2-D call, so
    the results are bit-identical to it.
    """
    return (idx[:, None] * c + np.arange(c)).reshape(-1)


class CheckedIndex(np.ndarray):
    """A read-only 1-D intp index array, checked once to lie in [0, ``bound``).

    Made only by :func:`checked_index`.  An array derived from one (a
    view, a copy, an arithmetic result, an unpickled one) has ``bound``
    None, and no op takes it.  The array owns its data and has no
    ``__dict__``, so a checked index costs one slot more than a plain one.
    """

    __slots__ = ("bound",)

    def __array_finalize__(self, obj) -> None:
        self.bound = None


def checked_index(index, bound: int) -> CheckedIndex:
    """``index`` as a CheckedIndex, once its entries are checked to lie in [0, bound)."""
    idx = _indices(index, bound)
    out = np.ndarray.__new__(CheckedIndex, idx.shape, dtype=np.intp)
    out[...] = idx
    out.setflags(write=False)
    out.bound = bound
    return out


def _is_run(rows, n: int) -> bool:
    """Whether ``rows`` is a run of [0, n): a slice ``start:stop`` with int bounds (not bool),
    no step and 0 <= start <= stop <= n."""
    return (type(rows) is slice and type(rows.start) is type(rows.stop) is int
            and rows.step is None and 0 <= rows.start <= rows.stop <= n)


def _indices(index, bound: int) -> np.ndarray:
    """A 1-D intp index array whose entries all lie in [0, bound).

    A non-empty one needs an integer dtype (not bool); an empty one, even float64, indexes nothing.
    """
    idx = np.asarray(index)
    if idx.ndim != 1:
        raise ValueError(f"indices must be 1-D, got shape {idx.shape}")
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.intp, copy=False)
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        raise ValueError(f"indices must lie in [0, {bound})")
    return idx


def _trusted(op: str, name: str, index, bound: int) -> np.ndarray:
    """``index`` as a plain array if it is a CheckedIndex of ``bound``; else ValueError."""
    if type(index) is not CheckedIndex or index.bound != bound:
        raise ValueError(f"{op}: {name} must be a CheckedIndex of [0, {bound})")
    return index.view(np.ndarray)


def take_rows(tape: Tape | None, a: Tensor, rows: slice) -> Tensor:
    """Gather ``a[rows]``, a view of a run of ``a``'s rows: a slice ``start:stop`` with int
    bounds, no step and 0 <= start <= stop <= len(a), checked here by arithmetic."""
    n = a.data.shape[0]
    if not _is_run(rows, n):
        raise ValueError(f"take_rows: rows must be a run start:stop with int bounds, no step "
                         f"and 0 <= start <= stop <= {n}, got {rows}")
    out = a.data[rows]
    def bwd(g):
        full = np.zeros(a.data.shape)
        full[rows] += g     # distinct rows: the one addition ufunc.at would make to each
        return (full,)
    return _make(tape, out, (a,), bwd)


def _by_head(x: np.ndarray, heads: int) -> np.ndarray:
    """(r, H*c) rows as (H, r, c) head blocks, a view of a C-contiguous ``x``; with one head,
    ``x`` itself."""
    return x if heads == 1 else x.reshape(len(x), heads, -1).transpose(1, 0, 2)


def _typed_parts(name: str, groups: Sequence[tuple], n: int, heads: int, w_shape: tuple,
                 biased: bool) -> list[tuple]:
    """``groups`` of :func:`attend` as ``(rows, weight blocks, w, b)``, once checked.

    Each group is ``(rows, w, b)``, or ``(rows, w)`` when not ``biased``:
    ``rows`` a slice, the groups' slices non-empty runs that tile [0, n)
    in order, ``w`` of shape ``w_shape`` and ``b`` of ``(w_shape[1],)``.
    With several heads, the blocks are ``w`` as (H, rows/H, columns).
    """
    parts, start = [], 0
    for rows, w, *bias in groups:
        if not (_is_run(rows, n) and rows.start == start < rows.stop):
            start = -1
            break
        start = rows.stop
        if (w.data.shape != w_shape or len(bias) != biased
                or (biased and bias[0].data.shape != (w_shape[1],))):
            want = f" and b of shape ({w_shape[1]},)" if biased else " and no b"
            raise ValueError(f"attend: {name} groups need w of shape {w_shape}{want}, got "
                             f"{[t.shape for t in (w, *bias)]}")
        blocks = w.data if heads == 1 else w.data.reshape(heads, w_shape[0] // heads, -1)
        parts.append((rows, blocks, w, bias[0] if biased else None))
    if start != n:
        raise ValueError(f"attend: {name} groups must be non-empty runs of rows, as slices, "
                         f"that tile [0, {n}) in order, got {[group[0] for group in groups]}")
    return parts


def _typed(x: np.ndarray, parts: list[tuple], heads: int, width: int) -> np.ndarray:
    """Each part's rows of ``x`` through its own weights, ``x[rows] @ blockdiag(H row blocks
    of w) + b``: each product is written from a view of its rows straight into those rows of
    the (len(x), width) result, through their (H, r, m) head view."""
    out = np.empty((len(x), width))
    for rows, blocks, _w, b in parts:
        y = out[rows]
        np.matmul(_by_head(x[rows], heads), blocks, out=_by_head(y, heads))
        if b is not None:
            y += b.data
    return out


def _typed_grads(x: np.ndarray, parts: list[tuple], heads: int, g: np.ndarray,
                 need_x: bool) -> tuple[np.ndarray | None, list]:
    """The gradients of :func:`_typed` for output gradient ``g``: of ``x`` (None unless
    ``need_x``) and, in part order, of each part's ``w`` (None unless it requires grad) and
    ``b``, if it has one."""
    dx = np.empty_like(x, order="C") if need_x else None
    grads = []
    for rows, blocks, w, b in parts:
        gy = g[rows]
        if need_x:
            np.matmul(_by_head(gy, heads), blocks.swapaxes(-1, -2), out=_by_head(dx[rows], heads))
        grads.append(np.matmul(_by_head(x[rows], heads).swapaxes(-1, -2), _by_head(gy, heads))
                     .reshape(w.data.shape) if w.requires_grad else None)
        if b is not None:
            grads.append(gy.sum(axis=0))
    return dx, grads


def attend(tape: Tape | None, states: Tensor, targets: Tensor, keys: Sequence[tuple],
           queries: Sequence[tuple], values: Sequence[tuple], att: Sequence[tuple],
           msg: Sequence[tuple], mu: Tensor, src: CheckedIndex, dst: CheckedIndex,
           mu_idx: CheckedIndex, heads: int) -> Tensor:
    """One typed attention layer: each target's attention over its incoming edges, (n, D).

    ``states`` (N, D) are the sources' states and ``targets`` (n, D) the
    targets', which may be ``states`` itself; head i owns columns
    [i*D/H, (i+1)*D/H).  ``keys`` and ``values`` list ``(rows, w, b)``
    groups over the rows of ``states``, ``queries`` over the rows of
    ``targets``, with w (D, D) and b (D,); ``att`` and ``msg`` list
    ``(rows, w)`` groups over the edges, with w the (D, D/H) head blocks
    of an edge kind's map.  Each list's slices are non-empty runs that
    tile its rows in order (a plan's kind runs).  ``src``, ``dst`` and
    ``mu_idx`` give each edge's source row, target row and row of the
    (M, 1) prior column ``mu``.  Per edge e from s to t, and head i::

        K = states @ w_k + b_k, V likewise, Q = targets @ w_q + b_q, each group on its rows
        key[e] = K[s] @ blockdiag(w_att), message[e] = V[s] @ blockdiag(w_msg), of e's group
        logit[e, i] = (key[e, i] . Q[t, i]) * mu[mu_idx[e]] / sqrt(D/H)
        p[e, i] = exp(logit[e, i]) / sum of exp(logit[f, i]) over edges f into t
        out[t, i] = sum of p[e, i] * message[e, i] over edges e into t

    A target without incoming edges gets an exactly zero row.  One tape
    record with a closed-form backward.  The forward makes the numpy calls
    of the composed chain it replaced (three typed projections, the
    source and target gathers, the two edge maps and the attention core),
    in the same order, and the backward returns each input's gradient the
    way that chain delivered it: the inputs are ``mu``, the ``msg`` and
    ``att`` maps, then ``states`` and the ``values`` weights, ``targets``
    and the ``queries`` weights, and ``states`` again with the ``keys``
    weights, so a tensor fed through several of them gets one gradient per
    use, summed in that order.  Outputs and gradients are then
    bit-identical to the chain.  The gathers' scatters share their flat
    indices: one width-D index over ``dst`` serves the message scatter and
    the queries' gradient, one over ``src`` the keys' and values'.  The
    logits are checked finite before the max-subtracted softmax, which
    would otherwise turn an overflow into NaN weights, and so is the
    output; a non-finite projection surfaces at one of the two.  The (E,
    H) weights ``p`` exist only inside this op, so a probe of attention
    entropy per edge kind has to read them here.
    """
    sd, td = states.data, targets.data
    if (sd.ndim != 2 or td.ndim != 2 or sd.shape[1] != td.shape[1] or heads < 1
            or sd.shape[1] % heads or mu.data.ndim != 2 or mu.data.shape[1] != 1):
        raise ValueError(f"attend: unsupported shapes: states {states.shape}, targets "
                         f"{targets.shape} and mu {mu.shape} in {heads} heads")
    (n_src, dim), n = sd.shape, td.shape[0]
    d = dim // heads
    src_rows = _trusted("attend", "src", src, n_src)
    ids = _trusted("attend", "dst", dst, n)
    prior_rows = _trusted("attend", "mu_idx", mu_idx, mu.data.shape[0])
    e = len(src_rows)
    if len(ids) != e or len(prior_rows) != e:
        raise ValueError(f"attend: need one target and one prior row per edge: "
                         f"{len(ids)} and {len(prior_rows)} for {e} edges")
    k_parts, v_parts = (_typed_parts(name, groups, n_src, 1, (dim, dim), True)
                        for name, groups in (("keys", keys), ("values", values)))
    q_parts = _typed_parts("queries", queries, n, 1, (dim, dim), True)
    att_parts, msg_parts = (_typed_parts(name, groups, e, heads, (dim, d), False)
                            for name, groups in (("att", att), ("msg", msg)))
    inputs = [mu, *(part[2] for part in msg_parts + att_parts)]
    for x, parts in ((states, v_parts), (targets, q_parts), (states, k_parts)):
        inputs += [x, *(t for part in parts for t in part[2:])]

    k_rows = _typed(sd, k_parts, 1, dim)
    q_rows = _typed(td, q_parts, 1, dim)
    v_rows = _typed(sd, v_parts, 1, dim)
    src_k = k_rows[src_rows]
    k3 = _typed(src_k, att_parts, heads, dim).reshape(e, heads, d)
    q3 = q_rows[ids].reshape(e, heads, d)
    src_v = v_rows[src_rows]
    v3 = _typed(src_v, msg_parts, heads, dim).reshape(e, heads, d)
    del k_rows, q_rows, v_rows          # the backward reads only the edges' rows

    scale = 1.0 / math.sqrt(d)
    raw = (k3 * q3).sum(axis=2)                             # (E, H) key-query products
    prior = mu.data[prior_rows]                             # (E, 1)
    logits = _finite("attend", "logits", raw * prior * scale)

    flat = _flat_index(ids, heads)      # shared by the three (n, H) scatters
    top = np.full((n, heads), -np.inf)
    np.maximum.at(top.reshape(-1), flat, logits.reshape(-1))
    ex = np.exp(logits - top[ids])
    total = np.zeros((n, heads))
    np.add.at(total.reshape(-1), flat, ex.reshape(-1))
    p = ex / total[ids]
    flat_dst = _flat_index(ids, dim)    # shared by the message scatter and the queries' gradient
    out = np.zeros((n, dim))
    np.add.at(out.reshape(-1), flat_dst, (v3 * p[:, :, None]).reshape(-1))

    def bwd(g):
        # the chain's rules, one branch at a time, each dropping its edge-sized arrays as
        # soon as its scatter has read them
        g3 = g[ids].reshape(e, heads, d)
        d_msg = (g3 * p[:, :, None]).reshape(e, dim)
        d_p = (g3 * v3).sum(axis=2)
        del g3
        dot = np.zeros((n, heads))
        np.add.at(dot.reshape(-1), flat, (p * d_p).reshape(-1))
        d_scaled = p * (d_p - dot[ids]) * scale
        d_mu = np.zeros(mu.data.shape)
        np.add.at(d_mu.reshape(-1), prior_rows, (d_scaled * raw).sum(axis=1))
        d_raw = (d_scaled * prior)[:, :, None]
        flat_src = _flat_index(src_rows, dim)     # shared by the keys' and values' gradients

        def into_rows(count, flat_rows, d_edges):
            """A gather's gradient: the (E, D) ``d_edges`` added into zeros for ``count`` rows."""
            full = np.zeros((count, dim))
            np.add.at(full.reshape(-1), flat_rows, d_edges.reshape(-1))
            return full

        d_src_v, msg_grads = _typed_grads(src_v, msg_parts, heads, d_msg, True)
        del d_msg
        d_states_v, v_grads = _typed_grads(sd, v_parts, 1, into_rows(n_src, flat_src, d_src_v),
                                           states.requires_grad)
        del d_src_v
        d_src_k, att_grads = _typed_grads(src_k, att_parts, heads,
                                          (q3 * d_raw).reshape(e, dim), True)
        d_states_k, k_grads = _typed_grads(sd, k_parts, 1, into_rows(n_src, flat_src, d_src_k),
                                           states.requires_grad)
        del d_src_k
        d_targets, q_grads = _typed_grads(td, q_parts, 1,
                                          into_rows(n, flat_dst, (k3 * d_raw).reshape(e, dim)),
                                          targets.requires_grad)
        return (d_mu, *msg_grads, *att_grads, d_states_v, *v_grads, d_targets, *q_grads,
                d_states_k, *k_grads)
    return _make(tape, out, tuple(inputs), bwd)


def pair_loss(tape: Tape | None, scores: Tensor, pair_i: CheckedIndex, pair_j: CheckedIndex,
              labels: np.ndarray, sigma: float) -> Tensor:
    """RankNet cross-entropy summed over pairs of entries of ``scores``, a scalar.

    With logit x = sigma * (scores[pair_i] - scores[pair_j]) and label y
    in [0, 1], each pair costs -(y log sigmoid(x) + (1 - y) log sigmoid(-x)),
    with log sigmoid(x) formed as min(x, 0) - log1p(exp(-|x|)): exact, and
    with a live gradient however confidently a pair is misranked.  One tape
    record with a closed-form backward.  Forward and gradient perform the
    float operations of the same loss composed from two index gathers, sub,
    scalar_mul, log_sigmoid, mul, add and a sum, in the same order, so they
    are bit-identical to it.
    """
    s = scores.data
    if s.ndim != 1:
        raise ValueError(f"pair_loss: scores must be a vector, got shape {scores.shape}")
    rows_i = _trusted("pair_loss", "pair_i", pair_i, len(s))
    rows_j = _trusted("pair_loss", "pair_j", pair_j, len(s))
    y = np.asarray(labels, dtype=np.float64)
    if not rows_i.shape == rows_j.shape == y.shape:
        raise ValueError(f"pair_loss: need one label per pair: {len(rows_i)} and {len(rows_j)} "
                         f"rows for labels of shape {y.shape}")
    c = float(sigma)
    x = _finite("pair_loss", "logits", (s[rows_i] - s[rows_j]) * c)
    x_neg = x * -1.0
    e = np.exp(-np.abs(x))      # also exp(-|x_neg|)
    log1p_e = np.log1p(e)
    not_y = 1.0 - y
    out = ((np.minimum(x, 0.0) - log1p_e) * y
           + (np.minimum(x_neg, 0.0) - log1p_e) * not_y).sum() * -1.0

    def bwd(g):
        # d/dx log sigmoid(x) = sigmoid(-x), formed without cancellation
        high, low = e / (1.0 + e), 1.0 / (1.0 + e)
        g_pairs = np.broadcast_to(g * -1.0, x.shape)
        d_x = ((g_pairs * not_y) * np.where(x_neg >= 0, high, low) * -1.0
               + (g_pairs * y) * np.where(x >= 0, high, low))
        d_diff = d_x * c
        full_j = np.zeros(s.shape)
        np.add.at(full_j, rows_j, -d_diff)
        full_i = np.zeros(s.shape)
        np.add.at(full_i, rows_i, d_diff)
        return (full_j + full_i,)
    return _make(tape, out, (scores,), bwd)


def grad_check(f: Callable[[Tape | None, Sequence[Tensor]], Tensor],
               params: Sequence[Tensor]) -> float:
    """Max relative error between tape gradients and central differences of step 1e-5.

    ``f(tape, params)`` must build a scalar loss from scratch on each
    call.  Parameter entries are perturbed in place and restored.
    """
    h = 1e-5
    tape = Tape()
    loss = f(tape, params)
    grads = backward(tape, loss)
    worst = 0.0
    for p in params:
        analytic = grads[p].reshape(-1)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = f(None, params).item()
            flat[i] = orig - h
            f_minus = f(None, params).item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = abs(analytic[i] - numeric) / max(1.0, abs(analytic[i]), abs(numeric))
            if err > worst:
                worst = err
    return worst
