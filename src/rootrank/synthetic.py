"""Synthetic commit graphs with a planted, learnable root-cause signal.

Each generated commit has exactly one root-cause deleted line.  The
signal is carried two ways: the root-cause line's text draws from a
dedicated vocabulary disjoint from the noise vocabulary, and the line
always receives a data-dependency edge from an added line that shares
signal tokens.  ``signal_strength`` controls how often that evidence
survives; at 0 every trace of it is corrupted away and the task
degenerates to chance.

``structure_only`` keeps every deleted line's own text at noise and
leaves the signal reachable only through the graph: the marker edge
still points at the root cause from a signal-text added line, and
random edges never imitate that added->deleted data-dependency pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CommitGraph, Dataset, DepEdge, EdgeKind, LineNode, NodeKind
from .network import ConfigError, check_field_types

SIGNAL_VOCAB = (
    "nullcheck", "sentinel", "guardflag", "quorum", "fencepost", "watermark",
    "leasetoken", "checksum", "epochstamp", "retrybound", "lockscope", "invariant",
)

NOISE_VOCAB = (
    "buffer", "index", "count", "total", "item", "value", "result", "stream",
    "handle", "config", "status", "cursor", "window", "record", "field", "entry",
    "page", "queue", "batch", "cache", "slot", "offset", "limit", "label",
    "parser", "writer", "reader", "node", "table", "column", "row", "widget",
)

_RANDOM_EDGE_KINDS = (
    EdgeKind.CONTROL_FLOW,
    EdgeKind.DATA_DEPENDENCY,
    EdgeKind.CALL,
    EdgeKind.CLASS_MEMBER_REF,
)


@dataclass(frozen=True)
class GenConfig:
    """Settings checked when made, so one that exists is valid."""

    n_commits: int = 200
    deleted_per_commit: int = 10
    added_per_commit: int = 5
    edge_density: float = 0.08
    signal_strength: float = 1.0
    seed: int = 0
    structure_only: bool = False

    def __post_init__(self) -> None:
        check_field_types(self)
        for name, least in (("n_commits", 1), ("deleted_per_commit", 2), ("added_per_commit", 1),
                            ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}", name)
        for name in ("edge_density", "signal_strength"):
            if not 0.0 <= getattr(self, name) <= 1.0:   # also false for NaN
                raise ConfigError(f"{name} must be in [0, 1]", name)


def _noise_text(rng: np.random.Generator) -> str:
    n_tokens = int(rng.integers(3, 7))
    words = rng.choice(len(NOISE_VOCAB), size=n_tokens)
    return " ".join(NOISE_VOCAB[w] for w in words)


def _signal_text(rng: np.random.Generator) -> str:
    n_sig = int(rng.integers(3, 7))
    return " ".join(SIGNAL_VOCAB[w] for w in rng.choice(len(SIGNAL_VOCAB), size=n_sig))


def generate(cfg: GenConfig) -> Dataset:
    """Deterministic labeled dataset for the given configuration."""
    rng = np.random.default_rng(cfg.seed)
    k = cfg.deleted_per_commit
    m = cfg.added_per_commit
    n = k + m
    graphs = []
    for c in range(cfg.n_commits):
        root = int(rng.integers(0, k))
        signal_added = k + int(rng.integers(0, m))
        corrupted = rng.random() >= cfg.signal_strength

        texts = []
        for i in range(n):
            if i == root and not corrupted and not cfg.structure_only:
                texts.append(_signal_text(rng))
            elif i == signal_added and not corrupted:
                texts.append(_signal_text(rng))
            else:
                texts.append(_noise_text(rng))

        edges: dict[tuple[int, int, EdgeKind], DepEdge] = {}

        def put(src, dst, kind):
            edges.setdefault((src, dst, kind), DepEdge(src, dst, kind))

        if not corrupted:
            put(signal_added, root, EdgeKind.DATA_DEPENDENCY)
        for src in range(n):
            for dst in range(n):
                if src == dst or rng.random() >= cfg.edge_density:
                    continue
                src_deleted = src < k
                dst_deleted = dst < k
                if src_deleted and not dst_deleted and rng.random() < 0.25:
                    kind = EdgeKind.LINE_MAPPING
                else:
                    kind = _RANDOM_EDGE_KINDS[int(rng.integers(0, len(_RANDOM_EDGE_KINDS)))]
                    if (
                        cfg.structure_only
                        and kind is EdgeKind.DATA_DEPENDENCY
                        and not src_deleted
                        and dst_deleted
                    ):
                        # keep the marker pattern exclusive to root causes
                        kind = EdgeKind.CALL
                put(src, dst, kind)

        nodes = tuple(
            LineNode(
                id=i,
                kind=NodeKind.DELETED if i < k else NodeKind.ADDED,
                text=texts[i],
                is_root_cause=(i == root),
            )
            for i in range(n)
        )
        graphs.append(
            CommitGraph(
                commit_id=f"synthetic-{cfg.seed}-{c:05d}",
                nodes=nodes,
                edges=tuple(edges.values()),
                timestamp=1_600_000_000 + c * 3600,
            )
        )
    return Dataset(graphs=tuple(graphs), name=f"synthetic(seed={cfg.seed})")
