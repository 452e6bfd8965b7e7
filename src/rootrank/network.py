"""Network assembly: gated cross-line retention over stacked attention layers.

Each layer refreshes node states by attending over the commit graph and
then gating the aggregated neighborhood against the previous state with
a GRU cell, so line-local semantics learned early survive stacking.
Only the deleted lines are scored, so the last layer updates only their
rows (``aggregation.ScoredBlock``), which are then layer-normalized and
projected into task embeddings.

:func:`param_shapes` is the one declaration of the learnable tensors'
names, shapes and order: exactly the tensors the forward of the config's
mode reads.  The model's parameters are one dict from those names to
tensors, in that order (:data:`NetworkParams`): initialization,
checkpoints and the optimizer follow it, and the forward reads each
tensor by its name.
"""

from __future__ import annotations

import base64
import functools
import json
import math
import os
import secrets
import typing
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .aggregation import MU_SIZE, GraphPlan, attention_forward
from .autodiff import Tape, Tensor
from .graphs import EdgeKind, NodeKind


class Mode(str, Enum):
    FULL = "full"
    AGGREGATION_ONLY = "aggregation-only"
    RETENTION_ONLY = "retention-only"


class ConfigError(ValueError):
    """A config check failed; ``fields`` names the fields it read."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


# The exact types a field of each annotation accepts, so a bool is no int here; a field of any
# other annotation (``mode: Mode``) is left to its config's own checks.
_ACCEPTED = {int: (int,), float: (int, float), bool: (bool,), int | None: (int, type(None))}


@functools.cache
def _accepted_types(cls: type) -> dict[str, tuple[type, ...]]:
    """Each field of ``cls`` annotated as a key of ``_ACCEPTED`` -> the types it accepts, in
    declaration order; slow to evaluate, the annotations are read once per class."""
    hints = typing.get_type_hints(cls)
    return {name: _ACCEPTED[hint] for name, hint in hints.items() if hint in _ACCEPTED}


def check_field_types(config) -> None:
    """ConfigError naming the first field of ``config``, in declaration order, whose value's
    exact type its annotation does not accept (see ``_ACCEPTED``)."""
    for name, allowed in _accepted_types(type(config)).items():
        value = getattr(config, name)
        if type(value) not in allowed:
            raise ConfigError(f"{name} must be {' or '.join(t.__name__ for t in allowed)}, "
                              f"got {value!r}", name)


@dataclass(frozen=True)
class ModelConfig:
    """Settings checked when made, so one that exists is valid; ``mode`` may be its string value."""

    dim: int = 64
    heads: int = 8
    layers: int = 2
    proj_dim: int | None = None
    mode: Mode = Mode.FULL
    include_tie_pairs: bool = False
    lr: float = 5e-6
    epochs: int = 50
    seed: int = 42
    sigma: float = 1.0
    step_per_pair: bool = False

    @property
    def out_dim(self) -> int:
        return self.dim if self.proj_dim is None else self.proj_dim

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "mode", Mode(self.mode))
        except ValueError:
            raise ConfigError(f"unknown mode {self.mode!r}; choose from "
                              f"{', '.join(m.value for m in Mode)}", "mode") from None
        check_field_types(self)
        sizes = dict(dim=self.dim, heads=self.heads, layers=self.layers, proj_dim=self.out_dim)
        if min(sizes.values()) < 1:
            raise ConfigError("dim, heads, layers and proj_dim must be positive",
                              *[name for name, size in sizes.items() if size < 1])
        if self.dim % self.heads != 0:
            raise ConfigError(f"heads ({self.heads}) must divide dim ({self.dim})", "dim", "heads")
        for name in ("sigma", "lr"):
            try:
                value = float(getattr(self, name))
            except OverflowError:  # an integer beyond the float64 range
                value = math.inf
            if not 0 < value < math.inf:  # also false for NaN
                raise ConfigError(f"{name} must be positive and finite", name)
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0", name)


# One learnable tensor per ``param_shapes`` name, in that order.
NetworkParams = dict[str, Tensor]

_NODE_KIND_TENSORS = ("w_k", "b_k", "w_q", "b_q", "w_v", "b_v")
_QUERY_TENSORS = ("w_q", "b_q")
_EDGE_KIND_MAPS = ("w_att", "w_msg")
_GRU_TENSORS = ("w_ir", "b_ir", "w_hr", "b_hr", "w_iz", "b_iz",
                "w_hz", "b_hz", "w_in", "b_in", "w_hn", "b_hn")


def _layer_shapes(cfg: ModelConfig, li: int, last: bool
                  ) -> Iterator[tuple[str, tuple[int, ...]]]:
    """``(name, shape)`` of each tensor layer ``li`` of ``cfg.mode`` reads, in file order.

    The ``last`` layer attends into the deleted lines alone, so it reads
    no added-line query tensors and no ``line_mapping`` maps: every
    ``line_mapping`` edge ends at an added line.
    """
    dim = cfg.dim
    if cfg.mode is not Mode.RETENTION_ONLY:
        p = f"layer{li}.attn"
        yield from ((f"{p}.{field}.{kind.value}", (dim, dim) if field[0] == "w" else (dim,))
                    for kind in NodeKind for field in _NODE_KIND_TENSORS
                    if not (last and kind is NodeKind.ADDED and field in _QUERY_TENSORS))
        yield from ((f"{p}.{field}.{kind.value}", (dim, dim // cfg.heads))
                    for field in _EDGE_KIND_MAPS for kind in EdgeKind
                    if not (last and kind is EdgeKind.LINE_MAPPING))
        yield f"{p}.mu", (MU_SIZE, 1)
    if cfg.mode is not Mode.AGGREGATION_ONLY:
        yield from ((f"layer{li}.gru.{field}", (dim, dim) if field[0] == "w" else (dim,))
                    for field in _GRU_TENSORS)


def _tail_shapes(cfg: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """``(name, shape)`` of the tensors after the layers: final norm, projection, scorer."""
    yield from (("final_norm.gain", (cfg.dim,)), ("final_norm.bias", (cfg.dim,)),
                ("proj.w", (cfg.dim, cfg.out_dim)), ("proj.b", (cfg.out_dim,)),
                ("scorer.w", (cfg.out_dim,)))


def param_shapes(cfg: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """``(name, shape)`` of each tensor ``cfg.mode``'s forward reads, in checkpoint order;
    allocates nothing.

    Per layer: the key, query and value weights and biases of each node
    kind; the attention and message maps of each edge kind, each held as
    its H head blocks, a (D, D/H) tensor whose rows [i*D/H, (i+1)*D/H) are
    head i's square block; the (MU_SIZE, 1) prior ``mu`` over (source kind,
    edge kind, target kind); then the gate tensors.  The last layer, which
    updates only the deleted lines, has no added-line query weights and
    bias and no ``line_mapping`` maps.  ``retention-only`` declares no
    attention tensors and ``aggregation-only`` no gate tensors.
    Then the final norm, the projection and the scorer's weights; the
    scorer has no bias, because the pair loss reads only score
    differences.  Weights right-multiply row states.
    """
    for li in range(cfg.layers):
        yield from _layer_shapes(cfg, li, li == cfg.layers - 1)
    yield from _tail_shapes(cfg)


def _is_head_map(name: str) -> bool:
    """Whether ``name`` is a per-edge-kind head-block map."""
    return name.split(".")[-2] in _EDGE_KIND_MAPS


def named_tensors(params: NetworkParams) -> list[tuple[str, Tensor]]:
    """Every learnable tensor with its ``param_shapes`` name, in that order."""
    return list(params.items())


def init_network_params(cfg: ModelConfig, rng: np.random.Generator | None = None,
                        random_scorer: bool = False) -> NetworkParams:
    """Seeded parameter initialization, drawn in the order listed below.

    Per layer: ``w_k``, ``w_q``, ``w_v`` Xavier-uniform, each head block of
    ``w_att`` and ``w_msg`` identity plus small noise, the gates within
    1/sqrt(D); then ``proj.w``.  Biases start at 0, priors and the norm gain
    at 1.  The scorer starts at zero: ranking depends only on its direction,
    which training then sets without fighting random initial score noise.
    ``random_scorer=True`` draws it like a projection instead (gradient
    checking wants a live gradient path to every tensor).

    Every mode draws every layer's full set of tensors, the last layer's
    too, in this order, and keeps those ``param_shapes(cfg)`` declares, so
    an ablation mode's tensors hold the values they would hold in the full
    model, and each kept tensor the value it held when the last layer still
    declared its added-line queries and ``line_mapping`` maps.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    xavier = math.sqrt(6.0 / (cfg.dim + cfg.dim))
    drawn: list[tuple[str, float]] = []   # (name, bound) in draw order
    for li in range(cfg.layers):
        drawn += [(f"layer{li}.attn.{field}.{kind.value}", xavier)
                  for field in ("w_k", "w_q", "w_v") for kind in NodeKind]
        drawn += [(f"layer{li}.attn.{field}.{kind.value}", 0.01)
                  for field in _EDGE_KIND_MAPS for kind in EdgeKind]
        drawn += [(f"layer{li}.gru.{field}", 1.0 / math.sqrt(cfg.dim)) for field in _GRU_TENSORS]
    drawn.append(("proj.w", math.sqrt(6.0 / (cfg.dim + cfg.out_dim))))
    if random_scorer:
        drawn.append(("scorer.w", math.sqrt(6.0 / (cfg.out_dim + 1))))
    full = replace(cfg, mode=Mode.FULL)
    full_shapes = {name: shape for li in range(cfg.layers)
                   for name, shape in _layer_shapes(full, li, last=False)}
    full_shapes.update(_tail_shapes(cfg))
    arrays = {name: rng.uniform(-bound, bound, size=full_shapes[name]) for name, bound in drawn}
    shapes = dict(param_shapes(cfg))
    for name, shape in shapes.items():
        if _is_head_map(name):
            arrays[name] += np.tile(np.eye(cfg.dim // cfg.heads), (cfg.heads, 1))
        elif name not in arrays:
            arrays[name] = np.ones(shape) if name.endswith((".mu", ".gain")) else np.zeros(shape)
    return {name: Tensor(arrays[name], requires_grad=True) for name in shapes}


def gru_cell(tape: Tape | None, h_tilde: Tensor, h_prev: Tensor, params: NetworkParams,
             layer: int) -> Tensor:
    """Layer ``layer``'s gated update, applied row-wise per node, as one ``autodiff.gru`` record.

    r = sigma(h_tilde W_ir + b_ir + h_prev W_hr + b_hr)    (reset gate)
    z = sigma(h_tilde W_iz + b_iz + h_prev W_hz + b_hz)    (update gate)
    n = tanh(h_tilde W_in + b_in + r * (h_prev W_hn + b_hn))   (candidate state)
    out = (1 - z) * n + z * h_prev
    """
    weights = [params[f"layer{layer}.gru.{name}"] for name in _GRU_TENSORS]
    return ad.gru(tape, h_tilde, h_prev, weights)


def task_projection(tape: Tape | None, h_final: Tensor, params: NetworkParams) -> Tensor:
    """Row-wise affine map into the task space, then ReLU."""
    return ad.relu(tape, ad.add(tape, ad.matmul(tape, h_final, params["proj.w"]), params["proj.b"]))


def network_forward(tape: Tape | None, h0: Tensor, plan: GraphPlan,
                    params: NetworkParams, cfg: ModelConfig) -> Tensor:
    """Task embeddings (k x D_out) of the deleted lines of one graph, in plan row order,
    through ``cfg.mode``'s layers.

    ``h0`` holds the initial vectors in ``plan``'s row order.  Layers
    before the last update every node.  The last updates only the
    deleted lines, the rows the scorer reads: it gathers their states once,
    attends into them over ``plan.scored`` and gates them against those
    states.
    """
    h = h0
    for layer in range(cfg.layers):
        targets = (ad.take_rows(tape, h, slice(0, plan.scored.n)) if layer == cfg.layers - 1
                   else None)
        own = h if targets is None else targets     # the updated rows' previous states
        if cfg.mode is Mode.RETENTION_ONLY:
            h = gru_cell(tape, own, own, params, layer)
        elif cfg.mode is Mode.AGGREGATION_ONLY:
            h = attention_forward(tape, h, plan, params, layer, cfg.heads, targets)
        else:
            h_tilde = attention_forward(tape, h, plan, params, layer, cfg.heads, targets)
            h = gru_cell(tape, h_tilde, own, params, layer)
    normed = ad.layer_norm(tape, h, params["final_norm.gain"], params["final_norm.bias"])
    return task_projection(tape, normed, params)


# ---------------------------------------------------------------------------
# Checkpoints


CHECKPOINT_FORMAT = "rootrank-checkpoint-v4"

# The ModelConfig fields a checkpoint header holds, in file order, with their JSON types;
# ``proj_dim`` is written as ``out_dim`` and ``mode`` as its value.
_HEADER_TYPES = {
    "dim": int, "heads": int, "layers": int, "proj_dim": int,
    "mode": str, "seed": int, "sigma": (int, float),
}


class CheckpointError(ValueError):
    """Raised when a checkpoint file is malformed or inconsistent."""


def _encode(data: np.ndarray) -> str:
    """Padded base64 of ``data``'s values as little-endian float64, in C order."""
    return base64.b64encode(data.astype("<f8", copy=False).tobytes()).decode("ascii")


def save_checkpoint(path: str | Path, params: NetworkParams, cfg: ModelConfig) -> None:
    """Write params + config as JSON, each tensor in its live shape; values round-trip bit-exactly.

    The file is ``json.dumps`` of one object: the format tag, the header
    fields, then ``"tensors"``, a list of ``{"name", "shape", "data"}``
    entries in :func:`param_shapes` order, ``"data"`` as :func:`_encode`
    writes it.  It is written one tensor entry at a time, so only one
    tensor's text is held at once; the bytes are those of dumping the
    whole object at once.  It goes to a new file beside ``path`` that then
    replaces it, so a failed save leaves any checkpoint at ``path`` as it was.
    """
    header = {key: getattr(cfg, key) for key in _HEADER_TYPES}
    header.update(proj_dim=cfg.out_dim, mode=cfg.mode.value)
    opening = json.dumps({"format": CHECKPOINT_FORMAT, **header})[:-1]   # without its "}"
    path = Path(path)
    partial = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(partial, "x", encoding="utf-8") as f:
            f.write(opening + ', "tensors": [')
            for index, (name, t) in enumerate(named_tensors(params)):
                f.write((", " if index else "") + json.dumps(
                    {"name": name, "shape": list(t.data.shape), "data": _encode(t.data)}))
            f.write("]}")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _field(obj: dict, key: str, types, where: str):
    """``obj[key]`` checked against ``types``; CheckpointError names the field otherwise."""
    if key not in obj:
        raise CheckpointError(f"{where}: missing field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise CheckpointError(f"{where}: field {key!r} has invalid value {value!r}")
    return value


def _count_text(n: int, formula: str) -> str:
    """``n`` as text, or ``formula`` when ``n`` is past Python's int-to-text digit limit."""
    try:
        return str(n)
    except ValueError:
        return formula


def _decode(entry: dict, shape: tuple[int, ...], where: str) -> np.ndarray:
    """The owned, writable float64 array of shape ``shape`` that ``entry["data"]`` encodes."""
    text = _field(entry, "data", str, where)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:   # binascii.Error, or a character outside ASCII
        raise CheckpointError(f"{where}: field 'data' is not base64: {exc}") from None
    size = math.prod(shape)
    if len(raw) != 8 * size:
        expected = _count_text(size, " x ".join(map(str, shape)))
        raise CheckpointError(f"{where}: field 'data' must encode {expected} float64 values "
                              f"of 8 bytes each, found {len(raw)} bytes")
    if base64.b64encode(raw).decode("ascii") != text:
        raise CheckpointError(f"{where}: field 'data' is not canonical padded base64")
    arr = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)   # a native copy
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise CheckpointError(f"{where}: field 'data' holds the non-finite value "
                              f"{arr.flat[bad[0]]} at flat index {bad[0]}")
    return arr


def load_checkpoint(path: str | Path) -> tuple[NetworkParams, ModelConfig]:
    """Read a checkpoint that :func:`save_checkpoint` wrote.

    The tensor count and every name and shape are checked against the header before any
    value is decoded, so a header implying a huge model is rejected without allocating it.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # also an integer past Python's int-from-text digit limit
        raise CheckpointError(f"{path}: not valid JSON: {exc}") from exc
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != CHECKPOINT_FORMAT:
        named = f" (its format is {found!r})" if isinstance(found, str) else ""
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file{named}")
    header = {key: _field(payload, key, types, str(path)) for key, types in _HEADER_TYPES.items()}
    try:
        cfg = ModelConfig(**header)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    stored = _field(payload, "tensors", list, str(path))
    per_layer = sum(1 for _ in _layer_shapes(cfg, 0, last=False))
    last = sum(1 for _ in _layer_shapes(cfg, cfg.layers - 1, last=True))
    tail = sum(1 for _ in _tail_shapes(cfg))
    count = (cfg.layers - 1) * per_layer + last + tail
    if len(stored) != count:
        expected = _count_text(count, f"{cfg.layers - 1} x {per_layer} + {last} + {tail}")
        raise CheckpointError(f"{path}: expected {expected} tensors, found {len(stored)}")
    checked = []   # every name and shape, before any value is decoded
    for index, ((name, want), entry) in enumerate(zip(param_shapes(cfg), stored)):
        where = f"{path}: tensors[{index}]"
        if not isinstance(entry, dict):
            raise CheckpointError(f"{where}: entry must be an object")
        if _field(entry, "name", str, where) != name:
            raise CheckpointError(f"{path}: tensor order mismatch: {entry['name']!r} != {name!r}")
        where = f"{path}: {name}"
        shape = tuple(_field(entry, "shape", list, where))
        if shape != want:
            raise CheckpointError(f"{where}: shape {shape} != {want}")
        checked.append((name, want, entry, where))   # ints, where the file may hold 1.0 or true
    params = {name: Tensor(_decode(entry, shape, where), requires_grad=True)
              for name, shape, entry, where in checked}
    return params, cfg
