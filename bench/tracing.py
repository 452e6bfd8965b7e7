"""In-memory span recorder that wraps rootrank's public functions from outside.

The recorder patches module attributes, so the program itself carries no
tracing code.  A function imported with ``from module import name`` is
bound in several modules; :meth:`Recorder.install` replaces every such
binding (module globals and module-level dicts such as op tables), not
only the defining one, and :meth:`Recorder.restore` puts the originals
back.

Spans nest through a call stack: a span's parent is the innermost span
still open when it starts.  A span's self time is its duration minus the
part of it that its child spans cover.  autodiff ops are counted, not
spanned, because there are hundreds per commit.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np


@dataclasses.dataclass
class Span:
    name: str
    parent: int     # index of the parent span, -1 at the top
    start: float
    end: float = 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals within it."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo_cur = hi_cur = None
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if hi_cur is None or lo > hi_cur:
                if hi_cur is not None:
                    covered += hi_cur - lo_cur
                lo_cur, hi_cur = lo, hi
            else:
                hi_cur = max(hi_cur, hi)
        if hi_cur is not None:
            covered += hi_cur - lo_cur
        out.append(s.end - s.start - covered)
    return out


def nbytes(obj, _seen=None) -> int:
    """Bytes of every numpy array reachable from ``obj`` through fields and containers."""
    if _seen is None:
        _seen = set()
    if id(obj) in _seen:
        return 0
    _seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(nbytes(v, _seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(nbytes(v, _seen) for v in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(nbytes(getattr(obj, f.name), _seen) for f in dataclasses.fields(obj))
    slots = getattr(type(obj), "__slots__", ())
    if slots:
        return sum(nbytes(getattr(obj, name, None), _seen) for name in slots)
    return 0


# Spanned functions: span name -> (module, attribute path).  The names are
# what the per-layer metrics are built from.
SPANNED = {
    "graphs.load_dataset": ("rootrank.graphs", "load_dataset"),
    "embedding.embed_dataset": ("rootrank.embedding", "embed_dataset"),
    "network.save_checkpoint": ("rootrank.network", "save_checkpoint"),
    "network.load_checkpoint": ("rootrank.network", "load_checkpoint"),
    "aggregation.build_plan": ("rootrank.aggregation", "build_plan"),
    "aggregation.attention_forward": ("rootrank.aggregation", "attention_forward"),
    "network.gru_cell": ("rootrank.network", "gru_cell"),
    "network.network_forward": ("rootrank.network", "network_forward"),
    "autodiff.backward": ("rootrank.autodiff", "backward"),
    "ranker.adam_step": ("rootrank.ranker", "AdamState.step"),
    "ranker.build_pairs": ("rootrank.ranker", "build_pairs"),
    "ranker.pair_loss": ("rootrank.ranker", "_pair_loss_from_scores"),
    "ranker.train": ("rootrank.ranker", "train"),
    "ranker.rank_commit": ("rootrank.ranker", "rank_commit"),
    "evaluation.evaluate_model": ("rootrank.evaluation", "evaluate_model"),
    "evaluation.fold": ("rootrank.evaluation", "train_test_report"),
    "evaluation.cross_validate": ("rootrank.evaluation", "cross_validate"),
}

# Per-layer self-time metrics: metric name -> span name.
SELF_TIME_METRICS = {
    "graphs.load_dataset_s": "graphs.load_dataset",
    "embedding.embed_dataset_s": "embedding.embed_dataset",
    "network.save_checkpoint_s": "network.save_checkpoint",
    "network.load_checkpoint_s": "network.load_checkpoint",
    "aggregation.build_plan_s": "aggregation.build_plan",
    "aggregation.attention_forward_s": "aggregation.attention_forward",
    "network.gru_cell_s": "network.gru_cell",
    "network.network_forward_s": "network.network_forward",
    "autodiff.backward_s": "autodiff.backward",
    "ranker.adam_step_s": "ranker.adam_step",
    "ranker.build_pairs_s": "ranker.build_pairs",
    "ranker.pair_loss_s": "ranker.pair_loss",
    "ranker.train_s": "ranker.train",
    "ranker.rank_commit_s": "ranker.rank_commit",
    "evaluation.evaluate_model_s": "evaluation.evaluate_model",
}

_MIB = float(1 << 20)


def _autodiff_ops(module) -> list[str]:
    """Public functions of rootrank.autodiff whose first parameter is the tape."""
    names = []
    for name, fn in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            continue
        params = list(inspect.signature(fn).parameters)
        if params and params[0] == "tape":
            names.append(name)
    return sorted(names)


class Recorder:
    """Spans and counters of one traced run; install() patches, restore() undoes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._plan_bytes_by_train: dict[int, int] = defaultdict(int)
        self._clock = time.perf_counter

    # -- recording ---------------------------------------------------------

    def _spanned(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, stack[-1] if stack else -1, clock()))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counted(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["autodiff.op_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_matmul(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(tape, a, b):
            out = fn(tape, a, b)
            counts["autodiff.op_calls"] += 1
            counts["autodiff.matmul_calls"] += 1
            counts["autodiff.matmul_flop"] += 2 * a.data.shape[1] * out.data.size
            return out

        return wrapper

    def _observe_backward(self, args, _result) -> None:
        self.counts["autodiff.backward_calls"] += 1
        self.counts["autodiff.tape_ops"] += len(args[0])

    def _observe_adam(self, args, _result) -> None:
        self.counts["ranker.adam_steps"] += 1
        tensors = args[1] if len(args) > 1 else ()
        self.counts["ranker.adam_tensors"] += len(tensors) if hasattr(tensors, "__len__") else 0

    def _observe_plan(self, _args, plan) -> None:
        # Plans built inside one train() call are all held until it returns.
        owner = -1
        for index in reversed(self._stack):
            if self.spans[index].name == "ranker.train":
                owner = index
                break
        self._plan_bytes_by_train[owner] += nbytes(plan)

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every rootrank module global and module-level dict entry bound to ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rootrank" or mod_name.startswith("rootrank.")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((namespace, key, original))
                    namespace[key] = replacement
                elif type(value) is dict:
                    for k2, v2 in list(value.items()):
                        if v2 is original:
                            self._patches.append((value, k2, original))
                            value[k2] = replacement

    def install(self) -> "Recorder":
        observers = {
            "autodiff.backward": self._observe_backward,
            "ranker.adam_step": self._observe_adam,
            "aggregation.build_plan": self._observe_plan,
        }
        for span_name, (mod_name, path) in SPANNED.items():
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            wrapper = self._spanned(span_name, original, observers.get(span_name))
            if outer:  # a method: the class attribute is its only binding
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        autodiff = importlib.import_module("rootrank.autodiff")
        for name in _autodiff_ops(autodiff):
            if name == "backward":
                continue
            original = getattr(autodiff, name)
            wrapper = self._counted_matmul(original) if name == "matmul" else self._counted(original)
            self._replace_everywhere(original, wrapper)
        return self

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded run (without the process and trace ratios)."""
        selfs = self_times(self.spans)
        by_name: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        folds = []
        for span, own in zip(self.spans, selfs):
            by_name[span.name] += own
            calls[span.name] += 1
            if span.name == "evaluation.fold":
                folds.append(span.end - span.start)
        out = {metric: by_name[span] for metric, span in SELF_TIME_METRICS.items()}
        c = self.counts
        forwards = max(calls["network.network_forward"], 1)
        out["aggregation.build_plan_calls"] = float(calls["aggregation.build_plan"])
        out["aggregation.plan_mb"] = max(
            (b for owner, b in self._plan_bytes_by_train.items() if owner >= 0), default=0) / _MIB
        out["autodiff.tape_ops_per_commit"] = c["autodiff.tape_ops"] / max(c["autodiff.backward_calls"], 1)
        out["autodiff.op_calls_per_commit"] = c["autodiff.op_calls"] / forwards
        out["autodiff.matmul_calls_per_commit"] = c["autodiff.matmul_calls"] / forwards
        out["autodiff.matmul_gflop_per_commit"] = c["autodiff.matmul_flop"] / 1e9 / forwards
        out["ranker.adam_tensors_per_step"] = c["ranker.adam_tensors"] / max(c["ranker.adam_steps"], 1)
        out["evaluation.fold_s_max"] = max(folds, default=0.0)
        out["evaluation.fold_s_sum"] = sum(folds)
        return out

    def span_records(self) -> list[dict]:
        selfs = self_times(self.spans)
        return [
            {"id": i, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end, "self": own}
            for i, (s, own) in enumerate(zip(self.spans, selfs))
        ]
