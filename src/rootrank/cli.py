"""Command-line entry point.

Subcommands cover the whole pipeline: generate synthetic data, train,
evaluate (single split or cross-validation), rank commits, and run the
gradient self-check.  Every command is deterministic given its flags;
all randomness flows from --seed.

Hyperparameters resolve in three layers: ``ModelConfig``'s defaults, then
a flat key=value config file (--config, keys named like ModelConfig's fields
and the flags), then explicit flags.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import sys
import typing
from dataclasses import replace
from pathlib import Path

from .embedding import HashingEmbedder, detect_precomputed_dim, embed_dataset
from .evaluation import (
    cross_validate,
    evaluate_model,
    multi_report_table,
    report_json,
)
from .graphs import load_dataset, save_dataset
from .network import ConfigError, Mode, ModelConfig, load_checkpoint, save_checkpoint
from .ranker import (
    GRADCHECK_CONFIG,
    TrainedModel,
    TrainingError,
    gradient_check_full_loss,
    rank_commits,
    train,
)
from .synthetic import GenConfig, generate


class CliError(ValueError):
    pass


def _parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value overlay; blank lines and # comments ignored, and no key set twice."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc}") from None
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}   # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in set_on:
            raise CliError(f"{path}:{lineno}: key {key!r} repeats line {set_on[key]}")
        set_on[key] = lineno
        values[key] = value
    return values


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise CliError(f"not a boolean: {raw!r}")


# How a config-file value is read for each ModelConfig annotation; any other (mode) as text.
_PARSERS = {int: int, float: float, bool: _parse_bool, int | None: int}

# config key (and flag dest) -> (ModelConfig field, parser of a config-file value); a key is
# its field's name, except ``ties``.
_CONFIG_KEYS = {("ties" if name == "include_tie_pairs" else name): (name, _PARSERS.get(hint, str))
                for name, hint in typing.get_type_hints(ModelConfig).items()}

# generate flag dest -> GenConfig field
_GEN_FIELDS = {
    "commits": "n_commits",
    "deleted": "deleted_per_commit",
    "added": "added_per_commit",
    "density": "edge_density",
    "signal": "signal_strength",
    "seed": "seed",
    "structure_only": "structure_only",
}

# The size flags' dests, each the name of the ModelConfig field its flag sets
_SIZE_FIELDS = ("dim", "heads", "layers", "proj_dim", "seed")


def _given(args: argparse.Namespace, fields: dict[str, str]) -> dict:
    """``{field: value}`` for each flag dest in ``fields`` that was given."""
    return {field: getattr(args, dest) for dest, field in fields.items()
            if getattr(args, dest) is not None}


def _model_config(args: argparse.Namespace, dataset_dim: int | None = None) -> ModelConfig:
    """One ``ModelConfig``: its defaults, then ``dataset_dim``, then --config, then the flags.

    ``dataset_dim``, a dataset's own vector width, is the default dim and must equal a given
    one.  A failing check that read --config values names the file, and the key if it read one;
    one that read a dim taken from the dataset's vectors names the dataset in -d.
    """
    overlay = _parse_config_file(args.config) if args.config else {}
    unknown = set(overlay) - set(_CONFIG_KEYS)
    if unknown:
        raise CliError(f"{args.config}: unknown config key(s) {sorted(unknown)}")
    values, file_keys = {}, {}
    for key, (field, parse) in _CONFIG_KEYS.items():
        if getattr(args, key) is not None:
            values[field] = getattr(args, key)
        elif key in overlay:
            try:
                values[field] = parse(overlay[key])
            except ValueError as exc:
                raise CliError(f"{args.config}: key {key!r}: {exc}") from None
            file_keys[field] = key
    dataset_default = {} if dataset_dim is None else {"dim": dataset_dim}
    try:
        cfg = ModelConfig(**{**dataset_default, **values})
    except ConfigError as exc:
        keys = [file_keys[field] for field in exc.fields if field in file_keys]
        if keys:
            where = f"{args.config}: key {keys[0]!r}" if len(keys) == 1 else args.config
            raise CliError(f"{where}: {exc}") from None
        if "dim" in exc.fields and dataset_dim is not None and "dim" not in values:
            raise CliError(f"{args.dataset}: {exc}; dim {dataset_dim} is the length of the "
                           "dataset's precomputed embeddings") from None
        raise
    if dataset_dim is not None and cfg.dim != dataset_dim:
        where = f"{args.config}: key 'dim': " if "dim" in file_keys else ""
        raise CliError(f"{where}dimension mismatch: model expects dim {cfg.dim}, "
                       f"dataset embeddings have dim {dataset_dim}")
    return cfg


@contextlib.contextmanager
def _blaming(dataset: str):
    """Report a ValueError about a loaded dataset's contents against its file."""
    try:
        yield
    except ValueError as exc:
        raise CliError(f"{dataset}: {exc}") from None


def _checkpoint_inputs(args: argparse.Namespace, require_root_cause: bool):
    """The model in -m and the dataset in -d, embedded at the model's width."""
    params, cfg = load_checkpoint(args.model)
    ds = load_dataset(args.dataset, require_root_cause=require_root_cause)
    with _blaming(args.dataset):
        precomputed = detect_precomputed_dim(ds)
        if precomputed is not None and precomputed != cfg.dim:
            raise ValueError(f"dimension mismatch: checkpoint {args.model} expects dim "
                             f"{cfg.dim}, dataset embeddings have dim {precomputed}")
        embedded = embed_dataset(ds, HashingEmbedder(cfg.dim))
    return TrainedModel(params=params, cfg=cfg, training_log=[]), embedded


def _training_inputs(args: argparse.Namespace):
    """Config and dataset to train on; a dataset's own vectors set dim unless it was given."""
    ds = load_dataset(args.dataset)
    with _blaming(args.dataset):
        precomputed = detect_precomputed_dim(ds)
    return _model_config(args, precomputed), ds


def cmd_generate(args: argparse.Namespace) -> int:
    ds = generate(GenConfig(**_given(args, _GEN_FIELDS)))
    save_dataset(ds, args.output)
    print(f"wrote {len(ds)} commits to {args.output}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg, ds = _training_inputs(args)
    with _blaming(args.dataset):
        embedded = embed_dataset(ds, HashingEmbedder(cfg.dim))

    log_lines: list[str] = []

    def on_epoch(epoch: int, loss: float) -> None:
        line = f"{epoch},{loss!r}"
        log_lines.append(line)
        print(line)

    print("epoch,mean_loss")
    model = train(embedded, cfg, on_epoch=on_epoch)
    save_checkpoint(args.output, model.params, cfg)
    if args.log:
        Path(args.log).write_text("epoch,mean_loss\n" + "\n".join(log_lines) + "\n",
                                  encoding="utf-8")
    print(f"wrote checkpoint to {args.output}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.cv is not None:
        if args.cv < 2:   # a flag's value, so reported without the dataset's path
            raise CliError("k must be >= 2")
        if args.model is not None:   # each fold trains its own model
            raise CliError("-m/--model applies only without --cv")
        cfg, ds = _training_inputs(args)
        with _blaming(args.dataset):   # the folds' embedding, split and training checks
            mean, folds = cross_validate(
                ds, cfg, HashingEmbedder(cfg.dim), k=args.cv,
                chronological=bool(args.chronological),
                with_classification=args.classification,
                mfr_first_only=not args.mfr_all,
            )
        labels = [f"fold{i}" for i in range(len(folds))] + ["mean"]
        print(multi_report_table(labels, folds + [mean]))
        if args.output:
            Path(args.output).write_text(report_json(mean, per_fold=folds) + "\n",
                                         encoding="utf-8")
        return 0

    if not args.model:
        raise CliError("evaluate needs -m/--model (or --cv N to cross-validate)")
    for dest in ("config", *_CONFIG_KEYS, "chronological"):   # the checkpoint sets them
        if getattr(args, dest) is not None:
            raise CliError(f"--{dest.replace('_', '-')} applies only with --cv")
    model, embedded = _checkpoint_inputs(args, require_root_cause=True)
    report = evaluate_model(model, embedded,
                            with_classification=args.classification,
                            mfr_first_only=not args.mfr_all)
    print(multi_report_table(["model"], [report]))
    if args.output:
        Path(args.output).write_text(report_json(report) + "\n", encoding="utf-8")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    model, embedded = _checkpoint_inputs(args, require_root_cause=False)

    body = io.StringIO()
    writer = csv.writer(body, lineterminator="\n")
    header = ["commit_id", "rank", "node_id", "score", "text"]
    if args.show_truth:
        header.append("is_root_cause")
    writer.writerow(header)
    for eg, ranked in zip(embedded, rank_commits(model, embedded)):
        for position, (node_id, node_score) in enumerate(ranked, start=1):
            node = eg.graph.nodes[node_id]
            row = [eg.graph.commit_id, position, node_id, repr(node_score), node.text or ""]
            if args.show_truth:
                row.append(int(node.is_root_cause))
            writer.writerow(row)

    if args.output:
        Path(args.output).write_text(body.getvalue(), encoding="utf-8")
    else:
        sys.stdout.write(body.getvalue())
    print(f"{len(embedded)} commits ranked", file=sys.stderr)
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if not 0.0 < args.tolerance < float("inf"):     # NaN fails both comparisons
        raise CliError("tolerance must be positive and finite")
    sizes = _given(args, {field: field for field in _SIZE_FIELDS})
    err = gradient_check_full_loss(replace(GRADCHECK_CONFIG, **sizes))
    ok = err < args.tolerance
    print(f"max_rel_err={err:.3e} {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootrank",
        description="Rank the deleted lines of bug-fixing commits by root-cause likelihood.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic labeled dataset")
    # unset flags stay None, leaving each field at its GenConfig default
    p_gen.add_argument("--commits", type=int)
    p_gen.add_argument("--deleted", type=int)
    p_gen.add_argument("--added", type=int)
    p_gen.add_argument("--density", type=float)
    p_gen.add_argument("--signal", type=float,
                       help="0 disables the planted signal (baseline-difficulty data)")
    p_gen.add_argument("--structure-only", action="store_true", default=None,
                       help="carry the signal only in graph structure")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_generate)

    def add_size_flags(p):
        for dest in _SIZE_FIELDS:
            p.add_argument(f"--{dest.replace('_', '-')}", type=int)

    def add_hyper_flags(p):
        add_size_flags(p)
        p.add_argument("--config", default=None, help="key=value overlay file")
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--sigma", type=float, default=None)
        p.add_argument("--mode", choices=[m.value for m in Mode], default=None)
        p.add_argument("--ties", action="store_true", default=None,
                       help="include tie pairs (label 0.5) in training")
        p.add_argument("--step-per-pair", dest="step_per_pair",
                       action="store_true", default=None)

    p_train = sub.add_parser("train", help="train a model on a labeled dataset")
    p_train.add_argument("-d", "--dataset", required=True)
    p_train.add_argument("-o", "--output", required=True)
    p_train.add_argument("--log", default=None, help="also write the loss CSV here")
    add_hyper_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="compute ranking metrics")
    p_eval.add_argument("-d", "--dataset", required=True)
    p_eval.add_argument("-m", "--model", default=None)
    p_eval.add_argument("-o", "--output", default=None, help="write the JSON report here")
    p_eval.add_argument("--cv", type=int, default=None,
                        help="k-fold cross-validation (trains a model per fold)")
    p_eval.add_argument("--chronological", action="store_true", default=None)
    p_eval.add_argument("--classification", action="store_true",
                        help="include precision/recall/F1 at k in {1,2,3}")
    p_eval.add_argument("--mfr-all", dest="mfr_all", action="store_true",
                        help="average the positions of all truth lines, not the first")
    add_hyper_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_rank = sub.add_parser("rank", help="rank each commit's deleted lines")
    p_rank.add_argument("-d", "--dataset", required=True)
    p_rank.add_argument("-m", "--model", required=True)
    p_rank.add_argument("-o", "--output", default=None)
    p_rank.add_argument("--show-truth", dest="show_truth", action="store_true")
    p_rank.set_defaults(func=cmd_rank)

    p_check = sub.add_parser("gradcheck", help="verify gradients on a small random instance")
    # unset flags stay None, leaving each field at its GRADCHECK_CONFIG value
    add_size_flags(p_check)
    p_check.add_argument("--tolerance", type=float, default=1e-5)
    p_check.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrainingError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
