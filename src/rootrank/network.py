"""Network assembly: gated cross-line retention over stacked attention layers.

Each layer refreshes node states by attending over the commit graph and
then gating the aggregated neighborhood against the previous state with
a GRU cell, so line-local semantics learned early survive stacking.
After the last layer the states are layer-normalized and projected into
task embeddings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .aggregation import (
    AttentionParams,
    GraphPlan,
    attention_forward,
    block_diagonal,
    head_blocks,
    init_attention_params,
)
from .autodiff import Tape, Tensor
from .graphs import EdgeKind, NodeKind


class Mode(str, Enum):
    FULL = "full"
    AGGREGATION_ONLY = "aggregation-only"
    RETENTION_ONLY = "retention-only"


@dataclass
class ModelConfig:
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

    def validate(self) -> None:
        if self.dim < 1 or self.heads < 1 or self.layers < 1 or self.out_dim < 1:
            raise ValueError("dim, heads, layers and proj_dim must be positive")
        if self.dim % self.heads != 0:
            raise ValueError(f"heads ({self.heads}) must divide dim ({self.dim})")
        for name in ("sigma", "lr"):
            try:
                value = float(getattr(self, name))
            except OverflowError:  # an integer beyond the float64 range
                value = math.inf
            if not 0 < value < math.inf:  # also false for NaN
                raise ValueError(f"{name} must be positive and finite")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class GruParams:
    """Gate tensors; each weight right-multiplies row states, biases broadcast.

    ``*_r``: reset gate (how much history feeds the candidate state),
    ``*_z``: update gate (how much history survives unchanged),
    ``*_n``: candidate state.
    """

    w_ir: Tensor
    b_ir: Tensor
    w_hr: Tensor
    b_hr: Tensor
    w_iz: Tensor
    b_iz: Tensor
    w_hz: Tensor
    b_hz: Tensor
    w_in: Tensor
    b_in: Tensor
    w_hn: Tensor
    b_hn: Tensor


def init_gru_params(dim: int, rng: np.random.Generator) -> GruParams:
    bound = 1.0 / math.sqrt(dim)

    def w():
        return Tensor(rng.uniform(-bound, bound, size=(dim, dim)), requires_grad=True)

    def b():
        return Tensor(rng.uniform(-bound, bound, size=dim), requires_grad=True)

    return GruParams(
        w_ir=w(), b_ir=b(), w_hr=w(), b_hr=b(),
        w_iz=w(), b_iz=b(), w_hz=w(), b_hz=b(),
        w_in=w(), b_in=b(), w_hn=w(), b_hn=b(),
    )


@dataclass
class NetworkParams:
    layers: list[tuple[AttentionParams, GruParams]]
    norm_gain: Tensor
    norm_bias: Tensor
    w_proj: Tensor   # (D, D_out), right-multiplies row states
    b_proj: Tensor   # (D_out,)
    scorer_w: Tensor  # (D_out,)
    scorer_b: Tensor  # scalar


def init_network_params(cfg: ModelConfig, rng: np.random.Generator | None = None,
                        random_scorer: bool = False) -> NetworkParams:
    """Seeded parameter initialization.

    The scorer starts at zero by default: ranking only depends on the
    scorer's direction, and a zero start lets training set that
    direction without fighting random initial score noise.
    ``random_scorer=True`` draws it like any projection instead (used by
    gradient checking so every tensor gets a live gradient path).
    """
    cfg.validate()
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    layers = [
        (init_attention_params(cfg.dim, cfg.heads, rng), init_gru_params(cfg.dim, rng))
        for _ in range(cfg.layers)
    ]
    out_dim = cfg.out_dim
    proj_bound = math.sqrt(6.0 / (cfg.dim + out_dim))
    w_proj = Tensor(rng.uniform(-proj_bound, proj_bound, size=(cfg.dim, out_dim)), requires_grad=True)
    if random_scorer:
        scorer_bound = math.sqrt(6.0 / (out_dim + 1))
        scorer_w = Tensor(rng.uniform(-scorer_bound, scorer_bound, size=out_dim), requires_grad=True)
    else:
        scorer_w = Tensor(np.zeros(out_dim), requires_grad=True)
    return NetworkParams(
        layers=layers,
        norm_gain=Tensor(np.ones(cfg.dim), requires_grad=True),
        norm_bias=Tensor(np.zeros(cfg.dim), requires_grad=True),
        w_proj=w_proj,
        b_proj=Tensor(np.zeros(out_dim), requires_grad=True),
        scorer_w=scorer_w,
        scorer_b=Tensor(0.0, requires_grad=True),
    )


def gru_cell(tape: Tape | None, h_tilde: Tensor, h_prev: Tensor, p: GruParams) -> Tensor:
    """One gated update, applied row-wise per node, as one ``autodiff.gru`` record.

    r = sigma(h_tilde W_ir + b_ir + h_prev W_hr + b_hr)
    z = sigma(h_tilde W_iz + b_iz + h_prev W_hz + b_hz)
    n = tanh(h_tilde W_in + b_in + r * (h_prev W_hn + b_hn))
    out = (1 - z) * n + z * h_prev
    """
    return ad.gru(tape, h_tilde, h_prev, [getattr(p, name) for name in _GRU_TENSORS])


def task_projection(tape: Tape | None, h_final: Tensor, params: NetworkParams) -> Tensor:
    """Row-wise affine map into the task space, then ReLU."""
    return ad.relu(tape, ad.add(tape, ad.matmul(tape, h_final, params.w_proj), params.b_proj))


def forward_states(tape: Tape | None, h0: Tensor, plan: GraphPlan,
                   params: NetworkParams, mode: Mode) -> list[Tensor]:
    """Node states H^0 .. H^L, before the final normalization."""
    states = [h0]
    h = h0
    for attn, gru in params.layers:
        if mode is Mode.FULL:
            h_tilde = attention_forward(tape, h, plan, attn)
            h = gru_cell(tape, h_tilde, h, gru)
        elif mode is Mode.AGGREGATION_ONLY:
            h = attention_forward(tape, h, plan, attn)
        elif mode is Mode.RETENTION_ONLY:
            h = gru_cell(tape, h, h, gru)
        else:  # pragma: no cover
            raise ValueError(f"unknown mode {mode}")
        states.append(h)
    return states


def network_forward(tape: Tape | None, h0: Tensor, plan: GraphPlan,
                    params: NetworkParams, mode: Mode = Mode.FULL) -> Tensor:
    """Task embeddings (n x D_out) for every node of one graph."""
    h_last = forward_states(tape, h0, plan, params, mode)[-1]
    normed = ad.layer_norm(tape, h_last, params.norm_gain, params.norm_bias)
    return task_projection(tape, normed, params)


# ---------------------------------------------------------------------------
# Named parameter traversal and checkpoints


_NODE_KIND_TENSORS = ("w_k", "b_k", "w_q", "b_q", "w_v", "b_v")
_GRU_TENSORS = ("w_ir", "b_ir", "w_hr", "b_hr", "w_iz", "b_iz",
                "w_hz", "b_hz", "w_in", "b_in", "w_hn", "b_hn")


def named_tensors(params: NetworkParams) -> list[tuple[str, Tensor]]:
    """Every learnable tensor with a stable name, in a fixed order."""
    out: list[tuple[str, Tensor]] = []
    for li, (attn, gru) in enumerate(params.layers):
        p = f"layer{li}.attn"
        out += [(f"{p}.{field}.{kind.value}", getattr(attn, field)[kind])
                for kind in NodeKind for field in _NODE_KIND_TENSORS]
        out += [(f"{p}.{field}.{kind.value}", getattr(attn, field)[kind])
                for field in ("w_att", "w_msg") for kind in EdgeKind]
        out.append((f"{p}.mu", attn.mu))
        out += [(f"layer{li}.gru.{field}", getattr(gru, field)) for field in _GRU_TENSORS]
    out += [("final_norm.gain", params.norm_gain), ("final_norm.bias", params.norm_bias),
            ("proj.w", params.w_proj), ("proj.b", params.b_proj),
            ("scorer.w", params.scorer_w), ("scorer.b", params.scorer_b)]
    return out


CHECKPOINT_FORMAT = "rootrank-checkpoint-v1"

# The ModelConfig fields a checkpoint header holds, in file order, with their JSON types;
# ``proj_dim`` is written as ``out_dim`` and ``mode`` as its value.
_HEADER_TYPES = {
    "dim": int, "heads": int, "layers": int, "proj_dim": int,
    "mode": str, "seed": int, "sigma": (int, float),
}


class CheckpointError(ValueError):
    """Raised when a checkpoint file is malformed or inconsistent."""


def _head_map_ids(params: NetworkParams) -> set[int]:
    """Identities of the per-edge-kind head-block maps, stored block-diagonal in checkpoints."""
    return {id(t) for attn, _gru in params.layers
            for t in (*attn.w_att.values(), *attn.w_msg.values())}


def save_checkpoint(path: str | Path, params: NetworkParams, cfg: ModelConfig) -> None:
    """Write params + config as JSON, maps block-diagonal; float64 values round-trip bit-exactly."""
    maps = _head_map_ids(params)
    header = {key: getattr(cfg, key) for key in _HEADER_TYPES}
    header.update(proj_dim=cfg.out_dim, mode=cfg.mode.value)
    payload = {
        "format": CHECKPOINT_FORMAT,
        **header,
        "tensors": [
            {"name": name, "shape": list(data.shape), "data": data.reshape(-1).tolist()}
            for name, data in ((name, block_diagonal(t.data) if id(t) in maps else t.data)
                               for name, t in named_tensors(params))
        ],
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _field(obj: dict, key: str, types, where: str):
    """``obj[key]`` checked against ``types``; CheckpointError names the field otherwise."""
    if key not in obj:
        raise CheckpointError(f"{where}: missing field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise CheckpointError(f"{where}: field {key!r} has invalid value {value!r}")
    return value


def load_checkpoint(path: str | Path) -> tuple[NetworkParams, ModelConfig]:
    """Read a checkpoint; each map must be D x D with zeros outside its head blocks."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    header = {key: _field(payload, key, types, str(path)) for key, types in _HEADER_TYPES.items()}
    modes = {m.value: m for m in Mode}
    if header["mode"] not in modes:
        raise CheckpointError(f"{path}: field 'mode' must be one of {sorted(modes)}")
    cfg = ModelConfig(**{**header, "mode": modes[header["mode"]]})
    try:
        cfg.validate()
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    params = init_network_params(cfg, np.random.default_rng(0))
    maps = _head_map_ids(params)
    expected = named_tensors(params)
    stored = _field(payload, "tensors", list, str(path))
    if len(stored) != len(expected):
        raise CheckpointError(f"{path}: expected {len(expected)} tensors, found {len(stored)}")
    for index, ((name, tensor), entry) in enumerate(zip(expected, stored)):
        where = f"{path}: tensors[{index}]"
        if not isinstance(entry, dict):
            raise CheckpointError(f"{where}: entry must be an object")
        if _field(entry, "name", str, where) != name:
            raise CheckpointError(f"{path}: tensor order mismatch: {entry['name']!r} != {name!r}")
        where = f"{path}: {name}"
        shape = tuple(_field(entry, "shape", list, where))
        want = (cfg.dim, cfg.dim) if id(tensor) in maps else tensor.data.shape
        if shape != want:
            raise CheckpointError(f"{where}: shape {shape} != {want}")
        data = _field(entry, "data", list, where)
        problem = f"{where}: field 'data' must hold {math.prod(shape)} finite float64 numbers"
        # JSON numbers only: no bools, strings or nested lists
        if len(data) != math.prod(shape) or not set(map(type, data)) <= {int, float}:
            raise CheckpointError(problem)
        try:
            arr = np.asarray(data, dtype=np.float64)
        except OverflowError:  # an integer beyond the float64 range
            raise CheckpointError(problem) from None
        if not np.isfinite(arr).all():
            raise CheckpointError(problem)
        tensor.data = arr.reshape(shape)
        if id(tensor) in maps:
            tensor.data = head_blocks(tensor.data, cfg.heads)
            if not np.array_equal(block_diagonal(tensor.data), arr.reshape(shape)):
                raise CheckpointError(f"{where}: nonzero entries outside the head blocks")
    return params, cfg
