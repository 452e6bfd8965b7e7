"""Pairwise ranking of deleted lines.

Each deleted line of a commit receives a scalar score, the dot product
of its task embedding with the scorer's weights; training pulls
root-cause lines above their siblings by pushing the logistic of score
differences toward pair labels with a cross-entropy loss, one optimizer
step per commit.  The loss reads only score differences, so a score
bias would get an exactly zero gradient, and the scorer has none.

Training, evaluation and ranking share one scoring path, which reads a
graph's initial vectors, permuted into its plan's kind-major row order,
and its plan, whose first rows are the deleted lines scored: an
``EmbeddedGraph``'s own, or, in ``rank_commits``, those of a batch of
commits stacked into one disjoint-union graph.  Scores map back to node
ids through the plan's ``node_ids``.
``build_pairs`` checks a commit's pair indices as it makes them, and
``train`` builds each commit's pairs once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .aggregation import GraphPlan, union_plan
from .autodiff import Tape, Tensor, constant
from .embedding import EmbeddedGraph
from .graphs import CommitGraph, DepEdge, EdgeKind, LineNode, NodeKind
from .network import (
    ModelConfig,
    NetworkParams,
    init_network_params,
    named_tensors,
    network_forward,
)


# Every op rejects a non-finite result with an error naming it, so numpy's own
# floating-point warnings would only print ahead of that error.
_QUIET_FP_WARNINGS = dict(over="ignore", invalid="ignore", divide="ignore")


class TrainingError(RuntimeError):
    """Raised when training aborts (for example on a non-finite loss)."""


def build_pairs(g: CommitGraph, include_ties: bool = False
                ) -> tuple[ad.CheckedIndex, ad.CheckedIndex, np.ndarray]:
    """All unordered deleted-line pairs of one commit, as ``(pair_i, pair_j, labels)``.

    ``pair_i[p] < pair_j[p]`` are rows of ``g.deleted_ids()``, listed in
    row-major order, and both are CheckedIndex arrays bound to the number
    of deleted lines.  A label is 1.0 when only the first line of the pair
    is a root cause, 0.0 when only the second is, and 0.5 otherwise (a
    tie); tie pairs are kept only when ``include_ties`` is set.
    """
    root = np.array([g.nodes[i].is_root_cause for i in g.deleted_ids()], dtype=np.float64)
    pair_i, pair_j = np.triu_indices(len(root), k=1)
    labels = 0.5 + 0.5 * (root[pair_i] - root[pair_j])
    if not include_ties:
        keep = labels != 0.5
        pair_i, pair_j, labels = pair_i[keep], pair_j[keep], labels[keep]
    return ad.checked_index(pair_i, len(root)), ad.checked_index(pair_j, len(root)), labels


class AdamState:
    """Adam over named parameters held as views into one flat float64 buffer.

    Built from ``named_tensors(params)``: the constructor copies each
    tensor into ``params`` and rebinds its ``.data`` to its slice, so a
    step updates every parameter with a few whole-vector ufuncs that write
    into preallocated scratch buffers.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, named: list[tuple[str, Tensor]]):
        self.names = [name for name, _t in named]
        sizes = [t.data.size for _name, t in named]
        self.ends = np.cumsum(sizes)
        self.params = np.concatenate([t.data.reshape(-1) for _name, t in named])
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        self.step_count = 0
        self._grad = np.empty_like(self.params)
        self._update = np.empty_like(self.params)
        self._scale = np.empty_like(self.params)
        self._finite = np.empty(self.params.shape, dtype=bool)
        self._views = []
        for (_name, t), end, size in zip(named, self.ends, sizes):
            t.data = self.params[end - size:end].reshape(t.data.shape)
            self._views.append(t.data)

    def step(self, tensors: list[Tensor], grads: list[np.ndarray], lr: float) -> None:
        """Update every tensor in place.

        When any updated value is non-finite, writes nothing and raises
        FloatingPointError naming the first parameter holding one.
        """
        if len(tensors) != len(self._views) or any(
                t.data is not view for t, view in zip(tensors, self._views)):
            raise ValueError("adam_step: tensors are not the views this state was built over")
        self.step_count += 1
        correct1 = 1.0 - self.beta1 ** self.step_count
        correct2 = 1.0 - self.beta2 ** self.step_count
        g, m, v, upd, scale = self._grad, self.m, self.v, self._update, self._scale
        np.concatenate([grad.reshape(-1) for grad in grads], out=g)
        with np.errstate(over="ignore", invalid="ignore"):
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=upd)
            m += upd
            v *= self.beta2
            np.multiply(g, g, out=upd)
            upd *= 1.0 - self.beta2
            v += upd
            # params - lr * (m / correct1) / (sqrt(v / correct2) + eps)
            np.divide(m, correct1, out=upd)
            upd *= lr
            np.divide(v, correct2, out=scale)
            np.sqrt(scale, out=scale)
            scale += self.eps
            upd /= scale
            np.subtract(self.params, upd, out=upd)
        np.isfinite(upd, out=self._finite)
        if not self._finite.all():
            bad = int(np.searchsorted(self.ends, np.argmin(self._finite), side="right"))
            raise FloatingPointError(
                f"adam_step produced non-finite values in its {self._views[bad].shape} "
                f"output: {self.names[bad]}")
        self.params[...] = upd


def _deleted_scores(tape: Tape | None, h0: Tensor, plan: GraphPlan, params: NetworkParams,
                    cfg: ModelConfig) -> Tensor:
    """Scalar score of each deleted line of the graph of ``plan``, shape (k,), in plan row
    order, which is node id order for one commit's plan."""
    return ad.matmul(tape, network_forward(tape, h0, plan, params, cfg), params["scorer.w"])


def _pair_loss_from_scores(tape: Tape | None, scores: Tensor,
                           pairs: tuple[ad.CheckedIndex, ad.CheckedIndex, np.ndarray],
                           cfg: ModelConfig) -> Tensor:
    """RankNet cross-entropy summed over ``pairs``, a ``(pair_i, pair_j, labels)`` tuple.

    With logit x = sigma * (s_i - s_j) and label y, each pair costs
    -(y log sigmoid(x) + (1 - y) log sigmoid(-x)), exact and with a live
    gradient however confidently a pair is misranked; one
    ``autodiff.pair_loss`` record.
    """
    pair_i, pair_j, labels = pairs
    return ad.pair_loss(tape, scores, pair_i, pair_j, labels, cfg.sigma)


def commit_loss(tape: Tape | None, eg: EmbeddedGraph,
                pairs: tuple[ad.CheckedIndex, ad.CheckedIndex, np.ndarray],
                params: NetworkParams, cfg: ModelConfig) -> Tensor:
    """Summed pair cross-entropy of one commit over ``pairs`` (see :func:`build_pairs`)."""
    scores = _deleted_scores(tape, eg.h0_tensor, eg.plan, params, cfg)
    return _pair_loss_from_scores(tape, scores, pairs, cfg)


@dataclass
class TrainedModel:
    params: NetworkParams
    cfg: ModelConfig
    training_log: list[float]


def train(embedded: list[EmbeddedGraph], cfg: ModelConfig, on_epoch=None) -> TrainedModel:
    """Deterministic pairwise training over a list of embedded commits.

    Parameters start from ``init_network_params(cfg)``.  Commits are visited in a seeded
    shuffled order each epoch; every commit with at least one pair contributes one optimizer
    step (or one step per pair with ``cfg.step_per_pair``); each commit's pairs, and the
    pairs each of its steps reads, are built once, before the first epoch.
    ``on_epoch(epoch, loss)`` is called after each epoch with the mean per-commit loss.
    """
    for eg in embedded:
        if eg.h0.shape[1] != cfg.dim:
            raise ValueError(
                f"commit {eg.graph.commit_id!r}: embedding dim {eg.h0.shape[1]} != model dim {cfg.dim}"
            )
        if not eg.graph.root_cause_ids():
            raise ValueError(f"commit {eg.graph.commit_id!r} has no root-cause label")

    params = init_network_params(cfg)
    named = named_tensors(params)
    tensors = [t for _name, t in named]
    adam = AdamState(named)
    steps = []   # per commit, the pairs that each of its optimizer steps reads
    for eg in embedded:
        pair_i, pair_j, labels = build_pairs(eg.graph, cfg.include_tie_pairs)
        if cfg.step_per_pair:
            steps.append([(ad.checked_index(pair_i[p:p + 1], pair_i.bound),
                           ad.checked_index(pair_j[p:p + 1], pair_j.bound), labels[p:p + 1])
                          for p in range(len(labels))])
        else:
            steps.append([(pair_i, pair_j, labels)] if len(labels) else [])
    rng = np.random.default_rng(cfg.seed)

    log: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(embedded))
        losses = []
        for idx in order:
            eg = embedded[idx]
            if not steps[idx]:
                continue
            total = 0.0
            try:
                with np.errstate(**_QUIET_FP_WARNINGS):
                    for step_pairs in steps[idx]:
                        tape = Tape()
                        loss = commit_loss(tape, eg, step_pairs, params, cfg)
                        grads = ad.backward(tape, loss)
                        adam.step(tensors, [grads[t] for t in tensors], cfg.lr)
                        total += loss.item()
            except FloatingPointError as exc:
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, commit {eg.graph.commit_id!r}: {exc}"
                ) from exc
            losses.append(total)
        mean_loss = float(np.mean(losses)) if losses else 0.0
        log.append(mean_loss)
        if on_epoch is not None:
            on_epoch(epoch, mean_loss)
    return TrainedModel(params=params, cfg=cfg, training_log=log)


GRADCHECK_CONFIG = ModelConfig(dim=8, heads=2, layers=1, proj_dim=4)


def gradient_check_full_loss(cfg: ModelConfig = GRADCHECK_CONFIG) -> float:
    """Max relative error of tape gradients vs central differences.

    Runs the whole pipeline loss (attention, gating, normalization,
    projection, scoring, pair cross-entropy) of a ``cfg`` model on a fixed
    4-node graph with mixed edge kinds, with vectors and parameters drawn
    from ``cfg.seed``, checking every learnable tensor.  The default
    (:data:`GRADCHECK_CONFIG`) has dim 8, 2 heads, 1 layer, proj_dim 4, seed 42.
    """
    rng = np.random.default_rng(cfg.seed)
    graph = CommitGraph(
        commit_id="gradcheck",
        nodes=(
            LineNode(0, NodeKind.DELETED, text="a", is_root_cause=True),
            LineNode(1, NodeKind.DELETED, text="b"),
            LineNode(2, NodeKind.ADDED, text="c"),
            LineNode(3, NodeKind.ADDED, text="d"),
        ),
        edges=(
            DepEdge(0, 1, EdgeKind.CONTROL_FLOW),
            DepEdge(2, 0, EdgeKind.DATA_DEPENDENCY),
            DepEdge(3, 0, EdgeKind.CALL),
            DepEdge(1, 0, EdgeKind.CLASS_MEMBER_REF),
            DepEdge(0, 2, EdgeKind.LINE_MAPPING),
            DepEdge(3, 1, EdgeKind.DATA_DEPENDENCY),
        ),
    )
    h0 = rng.normal(size=(4, cfg.dim))
    eg = EmbeddedGraph(graph=graph, h0=h0)
    params = init_network_params(cfg, rng, random_scorer=True)
    pairs = build_pairs(graph, cfg.include_tie_pairs)
    tensors = list(params.values())

    def loss_fn(tape, _params):
        return commit_loss(tape, eg, pairs, params, cfg)

    return ad.grad_check(loss_fn, tensors)


# Node and edge rows a batch of rank_commits() is filled up to.  Per-op overhead
# favours large unions, cache misses small ones: on bench-shaped data (D=64,
# H=8, L=2) 15-node commits score about 3x faster in batches than one at a
# time, while four 300-node commits score more slowly together than apart.
# Budgets from 512 to 2048 edges, or 1024 to 2048 rows, scored alike; counting
# nodes as well as edges bounds a batch of edgeless commits.
BATCH_ROWS = 2048


def _batches(embedded: list[EmbeddedGraph]) -> list[list[EmbeddedGraph]]:
    """``embedded`` cut, in order, into runs of at most BATCH_ROWS nodes plus edges.

    A commit over the budget runs alone.
    """
    batches: list[list[EmbeddedGraph]] = []
    rows = 0
    for eg in embedded:
        size = eg.plan.n + len(eg.plan.src)
        if not batches or rows + size > BATCH_ROWS:
            batches.append([])
            rows = 0
        batches[-1].append(eg)
        rows += size
    return batches


def _rank_batch(model: TrainedModel, batch: list[EmbeddedGraph]) -> list[list[tuple[int, float]]]:
    """The rankings of ``batch``'s commits, scored as one disjoint-union graph."""
    if len(batch) == 1:
        h0, plan = batch[0].h0_tensor, batch[0].plan
    else:
        plan = union_plan([eg.plan for eg in batch])
        h0 = constant(np.concatenate([eg.h0 for eg in batch])[plan.node_ids])
    try:
        with np.errstate(**_QUIET_FP_WARNINGS):
            scores = _deleted_scores(None, h0, plan, model.params, model.cfg).data
    except FloatingPointError as exc:
        if len(batch) > 1:      # find the commit, and name it
            return [rank_commit(model, eg) for eg in batch]
        raise ValueError(f"commit {batch[0].graph.commit_id!r}: {exc}") from exc
    rankings = []
    start = 0
    for eg in batch:
        # the union's first rows are each commit's deleted lines, in its own plan's order
        k = eg.plan.scored.n
        scored = list(zip(eg.plan.node_ids[:k].tolist(), scores[start:start + k].tolist()))
        scored.sort(key=lambda item: (-item[1], item[0]))
        rankings.append(scored)
        start += k
    return rankings


def rank_commits(model: TrainedModel, embedded: list[EmbeddedGraph]
                 ) -> list[list[tuple[int, float]]]:
    """Each commit's deleted nodes, highest score first, ties by node id; in input order.

    Commits are scored in disjoint-union batches of up to BATCH_ROWS
    nodes plus edges.  A batch's scores agree with one-commit scoring to
    rounding, not bit for bit, and rank the lines alike; a batch of one
    commit is scored on that commit's own plan, so :func:`rank_commit` is
    exact.  A commit without deleted lines, or with vectors of the wrong
    width, raises ValueError naming it; so does a non-finite score, after
    its batch is scored again one commit at a time to find the commit.
    """
    for eg in embedded:
        g = eg.graph
        if eg.plan.scored.n == 0:
            raise ValueError(f"commit {g.commit_id!r} has no deleted lines")
        if eg.h0.shape[1] != model.cfg.dim:
            raise ValueError(
                f"commit {g.commit_id!r}: embedding dim {eg.h0.shape[1]} != model dim "
                f"{model.cfg.dim}"
            )
    return [ranked for batch in _batches(embedded) for ranked in _rank_batch(model, batch)]


def rank_commit(model: TrainedModel, eg: EmbeddedGraph) -> list[tuple[int, float]]:
    """Deleted nodes of one commit, highest score first, ties by node id; see rank_commits."""
    return rank_commits(model, [eg])[0]
