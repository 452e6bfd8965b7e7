"""Initial semantic vectors for line nodes.

Providers turn lines of source text into fixed-length float vectors, all
of one graph's lines in one call.  The default provider is a
deterministic feature-hashing embedder, which hashes each distinct
unigram or bigram once (a bounded cache) and fills a graph's rows with
one scatter; nodes that carry a precomputed ``embedding`` in the dataset
file bypass the provider entirely.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .aggregation import GraphPlan, build_plan
from .autodiff import Tensor, constant
from .graphs import CommitGraph, Dataset

# FNV-1a 64-bit, with the offset basis xored against a fixed seed so the
# hash family is ours.  Recorded here so embeddings are reproducible
# across machines and releases.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_HASH_SEED = 0x5EED1E5C0DE11AE5
_MASK64 = (1 << 64) - 1

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET ^ _HASH_SEED
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@functools.lru_cache(maxsize=4096)
def _feature_hash(feat: str) -> int:
    """FNV-1a of one unigram or bigram, computed once while the feature stays in the cache."""
    return _fnv1a(feat.encode("utf-8"))


def embed_lines(texts: list[str], dim: int) -> np.ndarray:
    """Deterministic feature-hashing embeddings of lines of code, one row per line.

    Tokenizes on non-alphanumeric boundaries, hashes token unigrams and
    adjacent bigrams into ``dim`` buckets, signed by hash bit 63, and
    scales each row to unit Euclidean norm.  A line with no tokens embeds
    to the zero vector.  Every bucket holds a small integer count, so sums
    and norms are exact in any order and a row does not depend on the
    lines embedded with it.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    hashes: list[int] = []
    per_line: list[int] = []    # features of each line
    for text in texts:
        tokens = _TOKEN_RE.findall(text)
        features = tokens + [f"{a}\x1f{b}" for a, b in zip(tokens, tokens[1:])]
        hashes.extend(map(_feature_hash, features))
        per_line.append(len(features))
    h = np.array(hashes, dtype=np.uint64)
    cells = np.repeat(np.arange(len(texts)) * dim, per_line) + (h % np.uint64(dim)).astype(np.intp)
    counts = np.bincount(cells, weights=np.where(h >> 63, 1.0, -1.0), minlength=len(texts) * dim)
    vecs = counts.astype(np.float64, copy=False).reshape(len(texts), dim)  # int64 if no features
    norms = np.sqrt((vecs * vecs).sum(axis=1))
    np.divide(vecs, norms[:, None], out=vecs, where=norms[:, None] > 0.0)
    return vecs


class EmbeddingProvider(Protocol):
    """Initial node vectors: ``embed_lines`` maps one graph's line texts to a (lines, dim) array."""

    def dim(self) -> int: ...

    def embed_lines(self, texts: list[str]) -> np.ndarray: ...


@dataclass(frozen=True)
class HashingEmbedder:
    """Feature-hashing provider; ``dimension`` defaults to desk scale."""

    dimension: int = 64

    def dim(self) -> int:
        return self.dimension

    def embed_lines(self, texts: list[str]) -> np.ndarray:
        return embed_lines(texts, self.dimension)


@dataclass(frozen=True)
class EmbeddedGraph:
    """A commit graph plus its n x D matrix of initial node vectors.

    ``h0`` is made read-only once checked finite, so the check holds for
    the graph's life: the graph takes a C-ordered float64 array it is
    given over (freezing it for its caller too), and copies anything else,
    a view included, as its base could write through it.  ``h0_tensor``
    is the constant that every forward pass starts from, made once: ``h0``
    in the plan's kind-major row order, which is ``h0`` itself when the
    graph already lists its nodes kind-major.  ``plan``, the graph's
    attention plan, is built on first use and kept, so training and every
    ranking of the same graph share one.
    """

    graph: CommitGraph
    h0: np.ndarray

    def __post_init__(self) -> None:
        h0 = np.ascontiguousarray(self.h0, dtype=np.float64)
        if h0.base is not None:
            h0 = h0.copy()
        if h0.shape[0] != len(self.graph.nodes):
            raise ValueError(
                f"commit {self.graph.commit_id!r}: {h0.shape[0]} embedding rows "
                f"for {len(self.graph.nodes)} nodes"
            )
        if not np.isfinite(h0).all():
            raise ValueError(f"commit {self.graph.commit_id!r}: non-finite embedding values")
        h0.setflags(write=False)
        object.__setattr__(self, "h0", h0)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.h0.setflags(write=False)      # numpy unpickles arrays writable

    @functools.cached_property
    def h0_tensor(self) -> Tensor:
        ids = self.plan.node_ids
        return constant(self.h0 if (ids == np.arange(len(ids))).all() else self.h0[ids])

    @functools.cached_property
    def plan(self) -> GraphPlan:
        return build_plan(self.graph)


def embed_graph(g: CommitGraph, provider: EmbeddingProvider) -> EmbeddedGraph:
    """``g`` with its precomputed vectors, and its text lines embedded in one provider call."""
    dim = provider.dim()
    h0 = np.zeros((len(g.nodes), dim), dtype=np.float64)
    text_rows, texts = [], []
    for i, node in enumerate(g.nodes):
        if node.embedding is not None:
            if len(node.embedding) != dim:
                raise ValueError(
                    f"commit {g.commit_id!r} node {node.id}: precomputed embedding has "
                    f"length {len(node.embedding)}, expected {dim}"
                )
            h0[i] = node.embedding
        elif node.text is not None:
            text_rows.append(i)
            texts.append(node.text)
        else:
            raise ValueError(
                f"commit {g.commit_id!r} node {node.id}: neither text nor embedding"
            )
    if texts:
        h0[text_rows] = provider.embed_lines(texts)
    return EmbeddedGraph(graph=g, h0=h0)


def embed_dataset(ds: Dataset, provider: EmbeddingProvider) -> list[EmbeddedGraph]:
    """Embed every graph, preserving graph and node order."""
    return [embed_graph(g, provider) for g in ds.graphs]


def detect_precomputed_dim(ds: Dataset) -> int | None:
    """Dimension of the dataset's precomputed embeddings, or None.

    Returns the shared length when every node carries one; raises if
    lengths are inconsistent.
    """
    dims = set()
    for g in ds.graphs:
        for node in g.nodes:
            if node.embedding is None:
                return None
            dims.add(len(node.embedding))
    if not dims:
        return None
    if len(dims) > 1:
        raise ValueError(f"inconsistent precomputed embedding lengths: {sorted(dims)}")
    return dims.pop()
