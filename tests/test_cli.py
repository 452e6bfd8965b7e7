import base64
import contextlib
import copy
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rootrank
from rootrank import cli, ranker
from rootrank.cli import build_parser, main
from rootrank.embedding import HashingEmbedder, embed_dataset
from rootrank.evaluation import cross_validate, kfold_split, report_json, train_test_report
from rootrank.graphs import load_dataset, save_dataset
from rootrank.network import CheckpointError, Mode, ModelConfig, load_checkpoint, param_shapes
from rootrank.synthetic import GenConfig, generate

from naive_reference import decode_data, encode_data

DATA = Path(__file__).parent / "data"
V4_CHECKPOINT = json.loads((DATA / "v4_model.ckpt").read_text(encoding="utf-8"))
V1_DATASET = json.loads((DATA / "v1_dataset.json").read_text(encoding="utf-8"))
CV_FLAGS = ("--dim", "16", "--heads", "2", "--layers", "1", "--epochs", "1", "--seed", "42")
CV_CONFIG = ModelConfig(dim=16, heads=2, layers=1, epochs=1, seed=42)


# config key, ModelConfig field, value in a --config file, its parse, flag argv, its parse
HYPER_CASES = [
    ("dim", "dim", "16", 16, ["--dim", "32"], 32),
    ("heads", "heads", "4", 4, ["--heads", "2"], 2),
    ("layers", "layers", "3", 3, ["--layers", "1"], 1),
    ("proj_dim", "proj_dim", "5", 5, ["--proj-dim", "7"], 7),
    ("epochs", "epochs", "3", 3, ["--epochs", "0"], 0),
    ("lr", "lr", "0.01", 0.01, ["--lr", "0.5"], 0.5),
    ("sigma", "sigma", "2.5", 2.5, ["--sigma", "0.5"], 0.5),
    ("mode", "mode", "retention-only", Mode.RETENTION_ONLY,
     ["--mode", "aggregation-only"], Mode.AGGREGATION_ONLY),
    ("seed", "seed", "7", 7, ["--seed", "9"], 9),
    ("ties", "include_tie_pairs", "yes", True, ["--ties"], True),
    ("step_per_pair", "step_per_pair", "on", True, ["--step-per-pair"], True),
]


def parsed_config(*argv):
    """``cli._model_config`` of ``train`` with the given extra argv."""
    return cli._model_config(build_parser().parse_args(["train", "-d", "d.json", "-o", "m.ckpt",
                                                        *argv]))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def small_data(tmp_path, capsys):
    path = tmp_path / "data.json"
    code, _out, _err = run(
        capsys, "generate", "--commits", "6", "--deleted", "3", "--added", "2",
        "--seed", "7", "-o", str(path),
    )
    assert code == 0
    return path


@pytest.fixture()
def trained(tmp_path, small_data, capsys):
    ckpt = tmp_path / "model.ckpt"
    code, _out, _err = run(
        capsys, "train", "-d", str(small_data), "-o", str(ckpt),
        "--dim", "16", "--heads", "2", "--layers", "1", "--epochs", "1",
    )
    assert code == 0
    return ckpt


class TestGenerate:
    def test_writes_valid_dataset(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code, stdout, _ = run(capsys, "generate", "--commits", "4", "--deleted", "3",
                              "--added", "2", "--seed", "1", "-o", str(out))
        assert code == 0
        assert "4 commits" in stdout
        ds = load_dataset(out)
        assert len(ds) == 4

    def test_missing_output_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--commits", "4"])
        assert exc.value.code == 2

    def test_negative_seed_is_named(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code, stdout, err = run(capsys, "generate", "--seed", "-1", "-o", str(out))
        assert (code, stdout, err) == (1, "", "error: seed must be >= 0\n")
        assert not out.exists()

    def test_zero_signal_accepted(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code, _, _ = run(capsys, "generate", "--commits", "3", "--deleted", "3",
                         "--added", "1", "--signal", "0.0", "--seed", "2", "-o", str(out))
        assert code == 0

    def test_no_flags_write_gen_config_defaults(self, tmp_path, capsys):
        out, want = tmp_path / "out.json", tmp_path / "want.json"
        code, _stdout, _err = run(capsys, "generate", "-o", str(out))
        assert code == 0
        save_dataset(generate(GenConfig()), want)
        assert out.read_bytes() == want.read_bytes()

    def test_every_flag_reaches_its_field(self, tmp_path, capsys):
        out, want = tmp_path / "out.json", tmp_path / "want.json"
        code, _stdout, _err = run(capsys, "generate", "--commits", "3", "--deleted", "4",
                                  "--added", "3", "--density", "0.2", "--signal", "0.5",
                                  "--structure-only", "--seed", "3", "-o", str(out))
        assert code == 0
        save_dataset(generate(GenConfig(n_commits=3, deleted_per_commit=4, added_per_commit=3,
                                        edge_density=0.2, signal_strength=0.5, seed=3,
                                        structure_only=True)), want)
        assert out.read_bytes() == want.read_bytes()

    def test_rerun_identical_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["generate", "--commits", "5", "--deleted", "4", "--added", "2",
                "--seed", "3"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_writes_checkpoint_and_streams_log(self, tmp_path, small_data, capsys):
        ckpt = tmp_path / "m.ckpt"
        log = tmp_path / "loss.csv"
        code, stdout, _ = run(
            capsys, "train", "-d", str(small_data), "-o", str(ckpt), "--log", str(log),
            "--dim", "16", "--heads", "2", "--layers", "1", "--epochs", "2",
        )
        assert code == 0
        assert ckpt.exists()
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 3
        assert "epoch,mean_loss" in stdout

    def test_a_model_too_large_to_allocate_exits_1_without_a_traceback(self, small_data, tmp_path,
                                                                       capsys, monkeypatch):
        message = ("Unable to allocate 298. GiB for an array with shape (200000, 200000) and "
                   "data type float64")

        def too_large(*_args, **_kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(ranker, "init_network_params", too_large)
        code, _out, err = run(capsys, "train", "-d", str(small_data), "-o",
                              str(tmp_path / "m.ckpt"), "--dim", "16", "--heads", "1")
        assert (code, err) == (1, f"error: {message}\n")
        assert not (tmp_path / "m.ckpt").exists()

    def test_heads_must_divide_dim(self, small_data, tmp_path, capsys):
        code, _out, err = run(
            capsys, "train", "-d", str(small_data), "-o", str(tmp_path / "m.ckpt"),
            "--dim", "64", "--heads", "7",
        )
        assert code == 1
        assert "divide" in err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_a_dim_read_from_the_dataset_names_the_dataset(self, tmp_path, capsys, command):
        ds = copy.deepcopy(V1_DATASET)
        for g in ds["graphs"]:
            for node in g["nodes"]:
                node["embedding"] = [0.1]
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(ds), encoding="utf-8")
        rest = ["-o", str(tmp_path / "m.ckpt")] if command == "train" else ["--cv", "2"]
        code, _out, err = run(capsys, command, "-d", str(path), *rest)
        assert (code, err) == (1, f"error: {path}: heads (8) must divide dim (1); dim 1 is the "
                                  "length of the dataset's precomputed embeddings\n")
        assert not (tmp_path / "m.ckpt").exists()

    def test_mode_flag_accepts_variants(self, small_data, tmp_path, capsys):
        for mode in ("full", "aggregation-only", "retention-only"):
            code, _out, _err = run(
                capsys, "train", "-d", str(small_data), "-o", str(tmp_path / f"{mode}.ckpt"),
                "--dim", "16", "--heads", "2", "--layers", "1", "--epochs", "1",
                "--mode", mode,
            )
            assert code == 0

    def test_config_file_overlay_and_flag_precedence(self, small_data, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("dim=16\nheads=4\nepochs=1\nlayers=1\n", encoding="utf-8")
        ckpt = tmp_path / "m.ckpt"
        code, _out, _err = run(
            capsys, "train", "-d", str(small_data), "-o", str(ckpt),
            "--config", str(cfg_file), "--heads", "2",
        )
        assert code == 0
        payload = json.loads(ckpt.read_text())
        assert payload["dim"] == 16    # from config file
        assert payload["heads"] == 2   # flag wins over config

    def test_unknown_config_key_rejected(self, small_data, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("learning=fast\n", encoding="utf-8")
        code, _out, err = run(
            capsys, "train", "-d", str(small_data), "-o", str(tmp_path / "m.ckpt"),
            "--config", str(cfg_file),
        )
        assert code == 1
        assert "unknown config key" in err

    def test_repeated_config_key_names_both_lines(self, small_data, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("dim = 16\n# smaller\nheads = 2\ndim = 8\n", encoding="utf-8")
        code, out, err = run(
            capsys, "train", "-d", str(small_data), "-o", str(tmp_path / "m.ckpt"),
            "--config", str(cfg_file),
        )
        assert (code, out, err) == (1, "", f"error: {cfg_file}:4: key 'dim' repeats line 1\n")
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("line, problem", [
        ("epochs=abc", "invalid literal for int()"),
        ("ties=maybe", "not a boolean"),
    ])
    def test_bad_config_value_names_file_and_key(self, small_data, tmp_path, capsys,
                                                  line, problem):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(line + "\n", encoding="utf-8")
        code, _out, err = run(
            capsys, "train", "-d", str(small_data), "-o", str(tmp_path / "m.ckpt"),
            "--config", str(cfg_file),
        )
        assert code == 1
        key = line.partition("=")[0]
        assert err.startswith(f"error: {cfg_file}: key '{key}': ")
        assert problem in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_no_hyperparameter_flags_give_model_config_defaults(self, small_data):
        assert parsed_config() == ModelConfig()
        args = build_parser().parse_args(["evaluate", "-d", str(small_data), "--cv", "2"])
        assert cli._model_config(args) == ModelConfig()

    def test_hyper_cases_list_every_model_config_field_once(self):
        # so a new setting cannot go untested through the config file and its flag
        assert sorted(case[1] for case in HYPER_CASES) == sorted(
            field.name for field in fields(ModelConfig))

    @pytest.mark.parametrize("key, field, in_file, from_file, flag, from_flag", HYPER_CASES,
                             ids=[case[0] for case in HYPER_CASES])
    def test_every_config_key_reaches_its_field_and_a_flag_beats_it(
            self, tmp_path, key, field, in_file, from_file, flag, from_flag):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key}={in_file}\n", encoding="utf-8")
        assert parsed_config("--config", str(cfg_file)) == replace(ModelConfig(),
                                                                  **{field: from_file})
        # a boolean flag can only set True, so the file it beats says off
        beaten = "off" if from_flag is True else in_file
        cfg_file.write_text(f"{key}={beaten}\n", encoding="utf-8")
        assert parsed_config("--config", str(cfg_file), *flag) == replace(ModelConfig(),
                                                                         **{field: from_flag})

    @pytest.fixture()
    def precomputed_data(self, small_data, tmp_path):
        ds = json.loads(small_data.read_text())
        for g in ds["graphs"]:
            for node in g["nodes"]:
                node["embedding"] = [0.1 * node["id"]] * 8
        pre = tmp_path / "pre.json"
        pre.write_text(json.dumps(ds), encoding="utf-8")
        return pre

    def test_precomputed_embeddings_set_dim(self, precomputed_data, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        code, _out, err = run(capsys, "train", "-d", str(precomputed_data), "-o", str(ckpt),
                              "--heads", "2", "--layers", "1", "--epochs", "1")
        assert code == 0, err
        assert json.loads(ckpt.read_text())["dim"] == 8

    @pytest.mark.parametrize("via_config", [False, True])
    def test_given_dim_must_match_precomputed_embeddings(self, precomputed_data, tmp_path,
                                                         capsys, via_config):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("dim=16\n", encoding="utf-8")
        dim_args = ("--config", str(cfg_file)) if via_config else ("--dim", "16")
        ckpt = tmp_path / "m.ckpt"
        code, _out, err = run(capsys, "train", "-d", str(precomputed_data), "-o", str(ckpt),
                              "--heads", "2", "--layers", "1", "--epochs", "1", *dim_args)
        assert code == 1
        where = f"{cfg_file}: key 'dim': " if via_config else ""
        assert err == (f"error: {where}dimension mismatch: model expects dim 16, "
                       "dataset embeddings have dim 8\n")
        assert not ckpt.exists()

    @pytest.mark.parametrize("via_config", [False, True])
    @pytest.mark.parametrize("key, value", [
        ("sigma", "nan"), ("sigma", "inf"), ("sigma", "-inf"), ("lr", "nan"), ("lr", "inf"),
    ])
    def test_non_finite_sigma_or_lr_is_named(self, small_data, tmp_path, capsys,
                                             key, value, via_config):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key}={value}\n", encoding="utf-8")
        setting = ("--config", str(cfg_file)) if via_config else (f"--{key}={value}",)
        ckpt = tmp_path / "m.ckpt"
        code, _out, err = run(capsys, "train", "-d", str(small_data), "-o", str(ckpt),
                              "--dim", "16", "--heads", "2", "--layers", "1", "--epochs", "0",
                              *setting)
        assert code == 1
        where = f"{cfg_file}: key '{key}': " if via_config else ""
        assert err == f"error: {where}{key} must be positive and finite\n"
        assert not ckpt.exists()

    def test_determinism_bitwise_identical_checkpoints(self, small_data, tmp_path, capsys):
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        argv = ["train", "-d", str(small_data), "--dim", "16", "--heads", "2",
                "--layers", "1", "--epochs", "2", "--seed", "11"]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestEvaluate:
    def test_report_and_table(self, small_data, trained, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "evaluate", "-d", str(small_data), "-m", str(trained),
            "-o", str(report), "--classification",
        )
        assert code == 0
        assert "Recall@1" in stdout and "MFR" in stdout
        payload = json.loads(report.read_text())
        assert set(payload) >= {"recall@1", "recall@2", "recall@3", "mfr"}
        assert "f1@1" in payload

    def test_cross_validation_rows(self, small_data, capsys):
        code, stdout, _ = run(
            capsys, "evaluate", "-d", str(small_data), "--cv", "2",
            "--dim", "16", "--heads", "2", "--layers", "1", "--epochs", "1",
            "--seed", "42",
        )
        assert code == 0
        assert "fold0" in stdout and "fold1" in stdout and "mean" in stdout

    def test_cross_validation_training_error_exits_1(self, small_data, capsys):
        code, _stdout, err = run(
            capsys, "evaluate", "-d", str(small_data), "--cv", "2", "--lr", "1e300",
            "--dim", "16", "--heads", "2", "--layers", "1", "--epochs", "1",
        )
        assert code == 1
        assert re.search(r"^error: non-finite loss at epoch 0, commit '[^']+': "
                         r"adam_step produced non-finite values in its \(\d+(, \d+)?\) output: "
                         r"\w+(\.\w+)+$",
                         err, re.MULTILINE)

    def test_dimension_mismatch_names_both_dims(self, small_data, tmp_path, capsys):
        ckpt = tmp_path / "wide.ckpt"
        code, _out, _err = run(
            capsys, "train", "-d", str(small_data), "-o", str(ckpt),
            "--dim", "32", "--heads", "2", "--layers", "1", "--epochs", "0",
        )
        assert code == 0
        # dataset with precomputed 8-dim embeddings
        ds = json.loads(small_data.read_text())
        for g in ds["graphs"]:
            for node in g["nodes"]:
                node["embedding"] = [0.1] * 8
        pre = tmp_path / "pre.json"
        pre.write_text(json.dumps(ds), encoding="utf-8")
        code, _out, err = run(capsys, "evaluate", "-d", str(pre), "-m", str(ckpt))
        assert code == 1
        assert "32" in err and "8" in err

    def test_cross_validation_names_the_dataset_of_a_bad_embedding(self, tmp_path, capsys):
        ds = copy.deepcopy(V1_DATASET)
        ds["graphs"][0]["nodes"][0]["embedding"] = [1.5]
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(ds), encoding="utf-8")
        code, _out, err = run(capsys, "evaluate", "-d", str(path), "--cv", "2", "--dim", "8",
                              "--heads", "2")
        assert (code, err) == (1, f"error: {path}: commit 'synthetic-5-00000' node 0: "
                                  "precomputed embedding has length 1, expected 8\n")

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_cross_validation_with_fewer_than_two_folds_exits_1(self, small_data, k, capsys):
        code, _out, err = run(capsys, "evaluate", "-d", str(small_data), "--cv", k)
        assert code == 1
        assert err == "error: k must be >= 2\n"

    def test_cross_validation_mfr_all_reaches_every_fold(self, small_data, tmp_path, capsys):
        ds = json.loads(small_data.read_text())
        for g in ds["graphs"]:
            extra = next(n for n in g["nodes"]
                         if n["kind"] == "deleted" and not n["is_root_cause"])
            extra["is_root_cause"] = True
        two_roots = tmp_path / "two_roots.json"
        two_roots.write_text(json.dumps(ds), encoding="utf-8")
        first_out, all_out = tmp_path / "first.json", tmp_path / "all.json"
        for out, extra_flags in ((first_out, ()), (all_out, ("--mfr-all",))):
            code, _stdout, _err = run(capsys, "evaluate", "-d", str(two_roots), "--cv", "3",
                                      "-o", str(out), *CV_FLAGS, *extra_flags)
            assert code == 0
        first, every = json.loads(first_out.read_text()), json.loads(all_out.read_text())

        loaded = load_dataset(two_roots)
        embedded = {eg.graph.commit_id: eg for eg in embed_dataset(loaded, HashingEmbedder(16))}
        expected = []
        for fold in kfold_split(loaded, k=3, seed=42):
            train_part = [eg for cid, eg in embedded.items() if cid not in fold]
            test_part = [embedded[cid] for cid in fold]
            expected.append(train_test_report(train_part, test_part, CV_CONFIG,
                                              mfr_first_only=False).mfr)
        assert [fold["mfr"] for fold in every["per_fold"]] == expected
        assert all(a > f for a, f in zip(expected, (fold["mfr"] for fold in first["per_fold"])))
        assert every["recall@1"] == first["recall@1"]

    def test_a_model_with_cv_is_named(self, small_data, tmp_path, capsys):
        # each fold trains its own model, so a checkpoint in -m would go unread
        code, stdout, err = run(capsys, "evaluate", "-d", str(small_data), "--cv", "2",
                                "-m", str(tmp_path / "absent.ckpt"), *CV_FLAGS)
        assert (code, stdout, err) == (1, "", "error: -m/--model applies only without --cv\n")

    def test_evaluate_without_model_or_cv_fails(self, small_data, capsys):
        code, _out, err = run(capsys, "evaluate", "-d", str(small_data))
        assert code == 1
        assert "--model" in err or "--cv" in err

    @pytest.mark.parametrize("argv", [["--config", "absent.cfg"], ["--chronological"]]
                             + [case[4] for case in HYPER_CASES],
                             ids=lambda argv: argv[0])
    def test_a_training_flag_without_cv_is_named(self, small_data, trained, argv, capsys):
        # the checkpoint in -m fixes the model; only --cv trains, so only it reads these
        code, stdout, err = run(capsys, "evaluate", "-d", str(small_data), "-m", str(trained),
                                *argv)
        assert (code, stdout, err) == (1, "", f"error: {argv[0]} applies only with --cv\n")


class TestRank:
    def test_ranked_csv_with_truth(self, small_data, trained, capsys):
        code, stdout, err = run(
            capsys, "rank", "-d", str(small_data), "-m", str(trained), "--show-truth",
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "commit_id,rank,node_id,score,text,is_root_cause"
        assert len(lines) == 1 + 6 * 3  # 6 commits x 3 deleted lines
        assert "6 commits ranked" in err

    def test_unlabeled_dataset_ranks_without_truth(self, small_data, trained, tmp_path, capsys):
        ds = json.loads(small_data.read_text())
        for g in ds["graphs"]:
            for node in g["nodes"]:
                node["is_root_cause"] = False
        unlabeled = tmp_path / "unlabeled.json"
        unlabeled.write_text(json.dumps(ds), encoding="utf-8")
        code, stdout, _err = run(capsys, "rank", "-d", str(unlabeled), "-m", str(trained))
        assert code == 0
        assert stdout.splitlines()[0] == "commit_id,rank,node_id,score,text"

    def test_empty_dataset_notice(self, trained, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"name": "none", "graphs": []}), encoding="utf-8")
        code, _stdout, err = run(capsys, "rank", "-d", str(empty), "-m", str(trained))
        assert code == 0
        assert "0 commits ranked" in err

    def test_commit_without_deleted_lines_exits_1_and_is_named(self, small_data, trained,
                                                                tmp_path, capsys):
        ds = json.loads(small_data.read_text())
        graph = ds["graphs"][2]
        for node in graph["nodes"]:
            node.update(kind="added", is_root_cause=False)
        added_only = tmp_path / "added_only.json"
        added_only.write_text(json.dumps(ds), encoding="utf-8")
        code, stdout, err = run(capsys, "rank", "-d", str(added_only), "-m", str(trained))
        assert code == 1
        assert stdout == ""
        assert err.startswith(f"error: {added_only}: commit {graph['commit_id']!r}: "
                              "no deleted lines")

    def test_output_file(self, small_data, trained, tmp_path, capsys):
        out = tmp_path / "ranked.csv"
        code, _stdout, _err = run(
            capsys, "rank", "-d", str(small_data), "-m", str(trained), "-o", str(out))
        assert code == 0
        assert out.read_text().startswith("commit_id,rank,node_id,score,text")

    def test_csv_fields_survive_commas_quotes_and_newlines(self, trained, tmp_path, capsys):
        graph = {
            "commit_id": "a,b",
            "timestamp": None,
            "nodes": [
                {"id": 0, "kind": "deleted", "text": 'say "hi",\nthen stop'},
                {"id": 1, "kind": "deleted", "text": "plain"},
                {"id": 2, "kind": "added", "text": "x"},
            ],
            "edges": [{"src": 0, "dst": 2, "kind": "line_mapping"}],
        }
        data = tmp_path / "odd.json"
        data.write_text(json.dumps({"name": "odd", "graphs": [graph]}), encoding="utf-8")
        code, stdout, _err = run(capsys, "rank", "-d", str(data), "-m", str(trained),
                                 "--show-truth")
        assert code == 0
        rows = list(csv.reader(io.StringIO(stdout)))
        assert rows[0] == ["commit_id", "rank", "node_id", "score", "text", "is_root_cause"]
        assert len(rows) == 3 and all(len(row) == 6 for row in rows)
        by_node = {row[2]: row for row in rows[1:]}
        assert by_node["0"][0] == "a,b"
        assert by_node["0"][4] == 'say "hi",\nthen stop'
        assert by_node["1"][4] == "plain"
        assert sorted(row[1] for row in rows[1:]) == ["1", "2"]
        assert all(repr(float(row[3])) == row[3] for row in rows[1:])


class TestCheckpointHeader:
    @pytest.mark.parametrize(
        "key", ["format", "dim", "heads", "layers", "proj_dim", "mode", "seed", "sigma", "tensors"])
    def test_missing_field_exits_1_and_names_it(self, small_data, trained, tmp_path, key, capsys):
        payload = json.loads(trained.read_text())
        del payload[key]
        broken = tmp_path / "broken.ckpt"
        broken.write_text(json.dumps(payload), encoding="utf-8")
        code, _out, err = run(capsys, "rank", "-d", str(small_data), "-m", str(broken))
        assert code == 1
        assert err.startswith("error: ")
        assert (key if key != "format" else "rootrank-checkpoint-v4") in err


    def test_nan_sigma_names_the_file(self, small_data, trained, tmp_path, capsys):
        payload = json.loads(trained.read_text())
        payload["sigma"] = math.nan
        broken = tmp_path / "nan_sigma.ckpt"
        broken.write_text(json.dumps(payload), encoding="utf-8")   # writes NaN
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(broken))}: sigma must be"):
            load_checkpoint(broken)
        code, _out, err = run(capsys, "rank", "-d", str(small_data), "-m", str(broken))
        assert code == 1
        assert err == f"error: {broken}: sigma must be positive and finite\n"


class TestCheckpointValues:
    """Mutants of the fixture checkpoint: each exits 1 naming the file and the tensor."""

    data = Path(__file__).parent / "data"

    def _rank_mutant(self, tmp_path, capsys, mutate):
        payload = json.loads((self.data / "v4_model.ckpt").read_text(encoding="utf-8"))
        mutate(payload)
        broken = tmp_path / "mutant.ckpt"
        broken.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, "rank", "-d", str(self.data / "v1_dataset.json"),
                             "-m", str(broken))
        assert (code, out) == (1, "")
        assert "Traceback" not in err and err.count("\n") == 1
        return broken, err

    def _rank_data_mutant(self, tmp_path, capsys, data):
        """Exit 1 with ``data`` as the 8 values of ``layer0.attn.b_k.deleted``: the message."""
        def mutate(payload):
            entry = payload["tensors"][1]
            assert entry["name"] == "layer0.attn.b_k.deleted" and entry["shape"] == [8]
            entry["data"] = data

        broken, err = self._rank_mutant(tmp_path, capsys, mutate)
        prefix = f"error: {broken}: layer0.attn.b_k.deleted: field 'data' "
        assert err.startswith(prefix)
        return err[len(prefix):-1]

    @pytest.mark.parametrize("value", [[1.5] * 8, 1.5, True, None, {}],
                             ids=["json-numbers", "number", "bool", "null", "object"])
    def test_data_must_be_a_string(self, tmp_path, capsys, value):
        assert self._rank_data_mutant(tmp_path, capsys, value) == f"has invalid value {value!r}"

    @pytest.mark.parametrize("text, problem", [
        ("\u00e9" + encode_data([0.5] * 8)[1:], "string argument should contain only ASCII "
                                                 "characters"),
        ("*" + encode_data([0.5] * 8)[1:], "Only base64 data is allowed"),
        (encode_data([0.5] * 8)[:-1], "Incorrect padding"),
        (encode_data([0.5] * 8) + "=", "Excess data after padding"),
        (encode_data([0.5] * 8)[:20] + " " + encode_data([0.5] * 8)[20:],
         "Only base64 data is allowed"),
    ], ids=["non-ascii", "bad-alphabet", "short-padding", "excess-padding", "space"])
    def test_data_must_be_base64(self, tmp_path, capsys, text, problem):
        message = self._rank_data_mutant(tmp_path, capsys, text)
        assert message.startswith("is not base64: ") and problem in message, message

    @pytest.mark.parametrize("raw", [bytes(63), bytes(65), bytes(0), bytes(128)],
                             ids=["one-byte-short", "one-byte-long", "empty", "twice-as-long"])
    def test_data_must_hold_8_bytes_per_value(self, tmp_path, capsys, raw):
        text = base64.b64encode(raw).decode("ascii")
        assert self._rank_data_mutant(tmp_path, capsys, text) == (
            f"must encode 8 float64 values of 8 bytes each, found {len(raw)} bytes")

    def test_data_must_be_canonical(self, tmp_path, capsys):
        # 64 bytes: the last quantum "Pw==" holds one byte in 12 bits, the low 4 of them zero
        text = encode_data([0.5] * 8)
        assert text.endswith("Pw==")
        message = self._rank_data_mutant(tmp_path, capsys, text[:-3] + "x==")   # a low bit set
        assert message == "is not canonical padded base64"

    @pytest.mark.parametrize("value, shown", [(math.nan, "nan"), (math.inf, "inf"),
                                              (-math.inf, "-inf")])
    def test_data_must_be_finite(self, tmp_path, capsys, value, shown):
        values = [0.5] * 8
        values[2] = value
        message = self._rank_data_mutant(tmp_path, capsys, encode_data(values))
        assert message == f"holds the non-finite value {shown} at flat index 2"

    def test_header_sigma_past_float64_is_named(self, tmp_path, capsys):
        def mutate(payload):
            payload["sigma"] = 10**400

        broken, err = self._rank_mutant(tmp_path, capsys, mutate)
        assert err == f"error: {broken}: sigma must be positive and finite\n"

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_file_exits_1_naming_its_format(self, capsys, version):
        old = self.data / f"v{version}_model.ckpt"
        code, out, err = run(capsys, "rank", "-d", str(self.data / "v1_dataset.json"),
                             "-m", str(old))
        assert (code, out) == (1, "")
        assert err == (f"error: {old}: not a rootrank-checkpoint-v4 file "
                       f"(its format is 'rootrank-checkpoint-v{version}')\n")


class TestNonUtf8Files:
    def test_checkpoint_is_named(self, small_data, tmp_path, capsys):
        broken = tmp_path / "latin1.ckpt"
        broken.write_bytes(b"\xff{}")
        code, _out, err = run(capsys, "rank", "-d", str(small_data), "-m", str(broken))
        assert code == 1
        assert err.startswith(f"error: {broken}: not UTF-8 text: ")
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(broken))}: not UTF-8"):
            load_checkpoint(broken)

    def test_config_file_is_named(self, small_data, tmp_path, capsys):
        cfg_file = tmp_path / "latin1.cfg"
        cfg_file.write_bytes(b"dim=16\n# caf\xe9\n")
        code, _out, err = run(capsys, "train", "-d", str(small_data), "-o",
                              str(tmp_path / "m.ckpt"), "--config", str(cfg_file))
        assert code == 1
        assert err.startswith(f"error: {cfg_file}: not UTF-8 text: ")


def mode_checkpoint(mode):
    """The fixture checkpoint as a ``mode`` file: its header's mode set, and only the tensors
    that mode declares (dim 8, heads 2, layers 1)."""
    cfg = ModelConfig(dim=8, heads=2, layers=1, proj_dim=8, mode=mode)
    names = {name for name, _shape in param_shapes(cfg)}
    return {**V4_CHECKPOINT, "mode": mode.value,
            "tensors": [entry for entry in V4_CHECKPOINT["tensors"] if entry["name"] in names]}


# mode -> (tensors per layer but the last, tensors of the last layer, name of the first
# tensor); every mode adds 5 after the layers, so a full-mode header with 3,000 layers implies
# 2,999 x 35 + 31 + 5 = 105,001 tensors
MODE_LAYOUTS = {Mode.FULL: (35, 31, "layer0.attn.w_k.deleted"),
                Mode.AGGREGATION_ONLY: (23, 19, "layer0.attn.w_k.deleted"),
                Mode.RETENTION_ONLY: (12, 12, "layer0.gru.w_ir")}


class TestCheckpointHeaderSizes:
    """Header sizes are checked by arithmetic against the stored tensors, so a header implying
    a huge model is rejected at once, without allocating or drawing it."""

    @pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
    @pytest.mark.parametrize("key, value, problem", [
        ("dim", 10**12, "{first}: shape (8, 8) != (1000000000000, 1000000000000)"),
        ("dim", 10**400, f"{{first}}: shape (8, 8) != ({10**400}, {10**400})"),
        ("proj_dim", 10**12, "proj.w: shape (8, 8) != (8, 1000000000000)"),
        ("proj_dim", 10**400, f"proj.w: shape (8, 8) != (8, {10**400})"),
        ("layers", 3000, "expected {count} tensors, found {found}"),
        ("layers", 10**9, "expected {count} tensors, found {found}"),
        # the count has one digit more than Python turns into text
        ("layers", 10**4299,
         f"expected {10**4299 - 1} x {{per_layer}} + {{last}} + 5 tensors, found {{found}}"),
    ], ids=["dim-1e12", "dim-1e400", "proj_dim-1e12", "proj_dim-1e400", "layers-3000",
            "layers-1e9", "layers-at-the-digit-limit"])
    def test_huge_size_exits_1_naming_the_tensor_or_count(self, tmp_path, capsys, key, value,
                                                          problem, mode):
        per_layer, last, first = MODE_LAYOUTS[mode]
        problem = problem.format(first=first, per_layer=per_layer, last=last, found=last + 5,
                                 count=(value - 1) * per_layer + last + 5)
        broken = tmp_path / "huge.ckpt"
        broken.write_text(json.dumps({**mode_checkpoint(mode), key: value}), encoding="utf-8")
        code, out, err = run(capsys, "rank", "-d", str(DATA / "v1_dataset.json"),
                             "-m", str(broken))
        assert (code, out, err) == (1, "", f"error: {broken}: {problem}\n")

    @pytest.mark.parametrize("mode, extra", [
        (Mode.FULL, "scorer.b"), (Mode.AGGREGATION_ONLY, "layer0.gru.w_ir"),
        (Mode.RETENTION_ONLY, "layer0.attn.mu"),
    ], ids=["full-scorer-bias", "aggregation-only-gate", "retention-only-prior"])
    def test_one_undeclared_tensor_exits_1_naming_the_count(self, tmp_path, capsys, mode,
                                                            extra):
        payload = mode_checkpoint(mode)
        v2_entries = json.loads((DATA / "v2_model.ckpt").read_text(encoding="utf-8"))["tensors"]
        payload["tensors"].append(next(e for e in v2_entries if e["name"] == extra))
        broken = tmp_path / "extra.ckpt"
        broken.write_text(json.dumps(payload), encoding="utf-8")
        _per_layer, last, _first = MODE_LAYOUTS[mode]
        code, out, err = run(capsys, "rank", "-d", str(DATA / "v1_dataset.json"),
                             "-m", str(broken))
        assert (code, out, err) == (1, "", f"error: {broken}: expected {last + 5} tensors, "
                                           f"found {last + 6}\n")

    @pytest.mark.parametrize("mode", [Mode.AGGREGATION_ONLY, Mode.RETENTION_ONLY],
                             ids=["aggregation-only", "retention-only"])
    def test_ablation_file_ranks(self, tmp_path, capsys, mode):
        path = tmp_path / "ablation.ckpt"
        path.write_text(json.dumps(mode_checkpoint(mode)), encoding="utf-8")
        params, cfg = load_checkpoint(path)
        assert cfg.mode is mode and list(params) == [name for name, _ in param_shapes(cfg)]
        code, _out, err = run(capsys, "rank", "-d", str(DATA / "v1_dataset.json"),
                              "-m", str(path))
        assert (code, err) == (0, "8 commits ranked\n")

    def test_tensor_size_past_the_digit_limit_is_named(self, tmp_path, capsys):
        # shapes that match a dim at json's digit limit, whose square Python cannot print
        dim = 10**4299
        mutant = copy.deepcopy({**V4_CHECKPOINT, "dim": dim, "proj_dim": dim})
        wide = ModelConfig(dim=dim, heads=2, layers=1, proj_dim=dim)
        for entry, (name, shape) in zip(mutant["tensors"], param_shapes(wide)):
            assert entry["name"] == name
            entry["shape"] = list(shape)
        broken = tmp_path / "wide.ckpt"
        broken.write_text(json.dumps(mutant), encoding="utf-8")
        code, out, err = run(capsys, "rank", "-d", str(DATA / "v1_dataset.json"),
                             "-m", str(broken))
        assert (code, out, err) == (1, "", f"error: {broken}: layer0.attn.w_k.deleted: field "
                                           f"'data' must encode {dim} x {dim} float64 values "
                                           "of 8 bytes each, found 512 bytes\n")

    @pytest.mark.parametrize("value", [1.0, True], ids=["float", "bool"])
    def test_shape_entry_equal_to_an_int_is_read_as_that_int(self, tmp_path, value):
        mutant = mutated(V4_CHECKPOINT, (("tensors", 18, "shape"), "replace", 1, value))
        assert mutant["tensors"][18]["name"] == "layer0.attn.mu"
        path = tmp_path / "odd_shape.ckpt"
        path.write_text(json.dumps(mutant), encoding="utf-8")
        params, _cfg = load_checkpoint(path)
        assert params["layer0.attn.mu"].data.shape == (20, 1)

    def test_integer_past_the_digit_limit_is_named(self, tmp_path, capsys):
        text = (DATA / "v4_model.ckpt").read_text(encoding="utf-8")
        broken = tmp_path / "digits.ckpt"
        broken.write_text(text.replace('"seed": 9', '"seed": ' + "9" * 5000), encoding="utf-8")
        code, _out, err = run(capsys, "rank", "-d", str(DATA / "v1_dataset.json"),
                              "-m", str(broken))
        assert code == 1
        assert err.startswith(f"error: {broken}: not valid JSON: ")
        assert err.count("\n") == 1


# Values a mutated checkpoint entry takes: huge ints, 0, negatives, bools, strings, null,
# nested lists and objects.
ODD_JSON = st.sampled_from([10**12, 10**400, -10**400, 2**63, 0, -1, 1.0, True, False, "",
                            "x", "full", None, [], [1.5], [[1.0]], {}]) | st.integers(-3, 20)


def _container_paths(node, path=()):
    """The key path of every dict and list inside a JSON value, the value's own ``()`` first."""
    if not isinstance(node, (dict, list)):
        return []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    return [path] + [p for key, child in items for p in _container_paths(child, path + (key,))]


@st.composite
def json_mutations(draw, doc):
    """``(container path, action, key, value)``: replace, delete or add one value of ``doc``.

    The top level is drawn half the time, so header fields are mutated as often as tensors.
    """
    path = draw(st.just(()) | st.sampled_from(_container_paths(doc)))
    target = doc
    for key in path:
        target = target[key]
    keys = list(target) if isinstance(target, dict) else list(range(len(target)))
    action = draw(st.sampled_from(["replace", "delete", "add"] if keys else ["add"]))
    if action == "add":
        key = draw(st.text(max_size=8)) if isinstance(target, dict) else len(target)
    else:
        key = draw(st.sampled_from(keys))
    return path, action, key, None if action == "delete" else draw(ODD_JSON)


def mutated(doc, mutation):
    """A deep copy of ``doc`` with one ``json_mutations`` change applied."""
    path, action, key, value = mutation
    doc = copy.deepcopy(doc)
    target = doc
    for step in path:
        target = target[step]
    if action == "delete":
        del target[key]
    elif action == "add" and isinstance(target, list):
        target.append(value)
    else:
        target[key] = value
    return doc


def main_quietly(argv):
    """``cli.main(argv)`` with stdout and stderr captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture()
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


class TestCheckpointProperty:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutation=json_mutations(V4_CHECKPOINT))
    # header sizes that escaped or hung before the loader checked shapes by arithmetic
    @example(mutation=((), "replace", "dim", 10**12))
    @example(mutation=((), "replace", "dim", 10**400))
    @example(mutation=((), "replace", "proj_dim", 10**400))
    @example(mutation=((), "replace", "proj_dim", 10**12))
    @example(mutation=((), "replace", "layers", 3000))
    @example(mutation=((), "replace", "layers", 10**9))
    @example(mutation=((), "replace", "layers", 10**4299))
    # the v2 data faults: not base64, a value short, a NaN and an inf pattern, a v1 number list
    @example(mutation=(("tensors", 1), "replace", "data", "x"))
    @example(mutation=(("tensors", 1), "replace", "data", encode_data([0.5] * 7)))
    @example(mutation=(("tensors", 1), "replace", "data", encode_data([math.nan] * 8)))
    @example(mutation=(("tensors", 35), "replace", "data", encode_data([math.inf] * 8)))
    @example(mutation=(("tensors", 1), "replace", "data", [0.5] * 8))
    @example(mutation=((), "replace", "format", "rootrank-checkpoint-v1"))
    @example(mutation=((), "replace", "format", "rootrank-checkpoint-v2"))
    @example(mutation=((), "replace", "format", "rootrank-checkpoint-v3"))
    def test_mutated_checkpoint_exits_0_or_1_naming_the_file(self, scratch_dir, mutation):
        path = scratch_dir / "mutant.ckpt"
        path.write_text(json.dumps(mutated(V4_CHECKPOINT, mutation)), encoding="utf-8")
        code, err = main_quietly(["rank", "-d", str(DATA / "v1_dataset.json"), "-m", str(path)])
        assert code in (0, 1)
        if code == 1:
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err


class TestDatasetProperty:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutation=json_mutations(V1_DATASET))
    # the loader's node kind, edge target and commit id checks, and the embedder's width check
    @example(mutation=(("graphs", 0, "nodes", 0), "replace", "kind", "x"))
    @example(mutation=(("graphs", 0, "edges"), "add", 0,
                       {"src": 0, "dst": 99, "kind": "data_dependency"}))
    @example(mutation=(("graphs", 1), "replace", "commit_id", "synthetic-5-00000"))
    @example(mutation=(("graphs", 0, "nodes", 0), "replace", "embedding", [1.5]))
    def test_mutated_dataset_exits_0_or_1_naming_the_file(self, scratch_dir, mutation):
        path = scratch_dir / "mutant.json"
        path.write_text(json.dumps(mutated(V1_DATASET, mutation)), encoding="utf-8")
        code, err = main_quietly(["rank", "-d", str(path), "-m", str(DATA / "v4_model.ckpt")])
        assert code in (0, 1)
        if code == 1:
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err


class TestConfigValuesNameTheFile:
    """A --config value that parses but that ``ModelConfig`` rejects when it is made."""

    @pytest.mark.parametrize("line, problem", [
        ("heads = 3", "key 'heads': heads (3) must divide dim (64)"),
        ("epochs = -1", "key 'epochs': epochs must be >= 0"),
        ("sigma = 0", "key 'sigma': sigma must be positive and finite"),
        ("lr = nan", "key 'lr': lr must be positive and finite"),
        ("dim = 0", "key 'dim': dim, heads, layers and proj_dim must be positive"),
        ("mode = bogus", "key 'mode': unknown mode 'bogus'; "
                         "choose from full, aggregation-only, retention-only"),
        ("seed = -1", "key 'seed': seed must be >= 0"),
        ("dim = 12\nheads = 5", "heads (5) must divide dim (12)"),
    ], ids=["heads", "epochs", "sigma", "lr", "dim", "mode", "seed", "dim-and-heads"])
    def test_names_the_file_and_key(self, small_data, tmp_path, capsys, line, problem):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(line + "\n", encoding="utf-8")
        ckpt = tmp_path / "m.ckpt"
        code, _out, err = run(capsys, "train", "-d", str(small_data), "-o", str(ckpt),
                              "--config", str(cfg_file))
        assert (code, err) == (1, f"error: {cfg_file}: {problem}\n")
        assert not ckpt.exists()

    @pytest.mark.parametrize("flags, problem", [
        (["--heads", "3"], "heads (3) must divide dim (64)"),
        (["--epochs", "-1"], "epochs must be >= 0"),
        (["--seed", "-1"], "seed must be >= 0"),
    ], ids=["heads", "epochs", "seed"])
    def test_a_flag_value_does_not_blame_the_file(self, small_data, tmp_path, capsys, flags,
                                                  problem):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("layers = 1\nsigma = 2\n", encoding="utf-8")
        code, _out, err = run(capsys, "train", "-d", str(small_data), "-o",
                              str(tmp_path / "m.ckpt"), "--config", str(cfg_file), *flags)
        assert (code, err) == (1, f"error: {problem}\n")

    def test_a_flag_beats_a_bad_file_value(self, small_data, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("heads = 3\ndim = 16\nlayers = 1\nepochs = 0\n", encoding="utf-8")
        code, _out, err = run(capsys, "train", "-d", str(small_data), "-o",
                              str(tmp_path / "m.ckpt"), "--config", str(cfg_file), "--heads", "2")
        assert code == 0, err

    def test_a_check_of_a_flag_and_one_file_value_names_that_key(self, small_data, tmp_path,
                                                                  capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("dim = 12\n", encoding="utf-8")
        code, _out, err = run(capsys, "train", "-d", str(small_data), "-o",
                              str(tmp_path / "m.ckpt"), "--config", str(cfg_file), "--heads", "5")
        assert (code, err) == (1, f"error: {cfg_file}: key 'dim': heads (5) must divide dim (12)\n")


# --config values: the size keys only as non-numbers or ints <= 16 (a valid large config
# really allocates), epochs <= 2 so each example trains for moments
NON_INTS = st.sampled_from(["", "x", "1.5", "nan", "inf", "true", "0x10", "1e3", "--"])
SMALL_INTS = st.integers(-3, 16).map(str)
CONFIG_VALUES = {
    "dim": NON_INTS | SMALL_INTS,
    "heads": NON_INTS | SMALL_INTS,
    "layers": NON_INTS | SMALL_INTS,
    "proj_dim": NON_INTS | SMALL_INTS,
    "epochs": NON_INTS | st.integers(-3, 2).map(str),
    "lr": st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-1", "1e-3", "0.5", "x", ""]),
    "sigma": st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-1", "1", "2.5", "x", ""]),
    "mode": st.sampled_from(["full", "aggregation-only", "retention-only", "bogus", "", "FULL"]),
    "seed": NON_INTS | st.integers(-3, 2**70).map(str),
    "ties": st.sampled_from(["yes", "off", "1", "maybe", ""]),
    "step_per_pair": st.sampled_from(["on", "no", "0", "2", ""]),
}
CONFIG_LINES = (
    st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
        lambda key: CONFIG_VALUES[key].map(lambda value: f"{key} = {value}"))
    | st.sampled_from(["", "# comment", "no equals sign", "learning = fast", "= 3"])
)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "data.json"
    save_dataset(generate(GenConfig(n_commits=2, deleted_per_commit=3, added_per_commit=2,
                                    seed=5)), path)
    return path


class TestConfigProperty:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(CONFIG_LINES, max_size=6))
    # a validate error, a mode lookup error and numpy's 'expected non-negative integer',
    # none of which named the file
    @example(lines=["heads = 3"])
    @example(lines=["mode = bogus"])
    @example(lines=["seed = -1"])
    @example(lines=["seed = 1", "seed = 1"])
    def test_config_file_exits_0_or_1_naming_the_file(self, scratch_dir, tiny_dataset, lines):
        cfg_file = scratch_dir / "run.cfg"
        drawn = {line.partition("=")[0].strip() for line in lines}
        small = [f"{key} = {value}" for key, value in (("epochs", 1), ("dim", 4), ("heads", 2))
                 if key not in drawn]   # a key is set twice only where the draw repeats it
        cfg_file.write_text("\n".join([*small, *lines]) + "\n", encoding="utf-8")
        code, err = main_quietly(["train", "-d", str(tiny_dataset), "-o",
                                  str(scratch_dir / "m.ckpt"), "--config", str(cfg_file)])
        assert code in (0, 1)
        if code == 1:
            assert err.startswith(f"error: {cfg_file}:") and err.count("\n") == 1, err


class TestForwardOverflow:
    @pytest.mark.parametrize("command", ["rank", "evaluate"])
    def test_names_commit_and_op_without_traceback(self, small_data, trained, tmp_path, capsys,
                                                   command):
        payload = json.loads(trained.read_text())
        for entry in payload["tensors"]:
            if entry["name"] in ("proj.w", "scorer.w"):
                entry["data"] = encode_data(np.full(math.prod(entry["shape"]), 1e200))
        huge = tmp_path / "huge.ckpt"
        huge.write_text(json.dumps(payload), encoding="utf-8")
        code, stdout, err = run(capsys, command, "-d", str(small_data), "-m", str(huge))
        assert code == 1
        assert stdout == ""
        first = json.loads(small_data.read_text())["graphs"][0]["commit_id"]
        assert re.fullmatch(rf"error: commit {re.escape(repr(first))}: matmul produced "
                            r"non-finite values in its \(3,\) output\n", err)
        assert "Traceback" not in err


    def test_stderr_holds_only_the_error_line(self, tmp_path):
        # numpy's RuntimeWarning (and its source line) used to print ahead of the error
        data = Path(__file__).parent / "data"
        payload = json.loads((data / "v4_model.ckpt").read_text(encoding="utf-8"))
        for entry in payload["tensors"]:
            if entry["name"] in ("proj.w", "scorer.w"):
                entry["data"] = encode_data(np.full(math.prod(entry["shape"]), 1e200))
        huge = tmp_path / "huge.ckpt"
        huge.write_text(json.dumps(payload), encoding="utf-8")
        proc = fresh_process(["-m", "rootrank.cli", "rank", "-d", str(data / "v1_dataset.json"),
                              "-m", str(huge)], cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("error: commit 'synthetic-5-00005': matmul produced non-finite "
                               "values in its (10,) output\n")


    @pytest.mark.parametrize("command", ["rank", "evaluate"])
    def test_attention_overflow_names_commit_and_op(self, small_data, trained, tmp_path, capsys,
                                                    command):
        payload = json.loads(trained.read_text())
        for entry in payload["tensors"]:
            if entry["name"] == "layer0.attn.mu":
                entry["data"] = encode_data(np.full(math.prod(entry["shape"]), 1.5e308))
            elif entry["name"].startswith(("layer0.attn.w_k.", "layer0.attn.w_q.")):
                entry["data"] = encode_data(decode_data(entry["data"]) * 1e3)
        huge = tmp_path / "huge.ckpt"
        huge.write_text(json.dumps(payload), encoding="utf-8")
        code, stdout, err = run(capsys, command, "-d", str(small_data), "-m", str(huge))
        assert (code, stdout) == (1, "")
        first = json.loads(small_data.read_text())["graphs"][0]["commit_id"]
        assert re.fullmatch(rf"error: commit {re.escape(repr(first))}: attend produced "
                            r"non-finite values in its \(\d+, 2\) logits\n", err)

    def test_attention_overflow_stderr_holds_only_the_error_line(self, tmp_path):
        data = Path(__file__).parent / "data"
        payload = json.loads((data / "v4_model.ckpt").read_text(encoding="utf-8"))
        for entry in payload["tensors"]:
            if entry["name"] == "layer0.attn.mu":
                entry["data"] = encode_data(np.full(math.prod(entry["shape"]), 1.5e308))
            elif entry["name"].startswith(("layer0.attn.w_k.", "layer0.attn.w_q.")):
                entry["data"] = encode_data(decode_data(entry["data"]) * 1e3)
        huge = tmp_path / "huge.ckpt"
        huge.write_text(json.dumps(payload), encoding="utf-8")
        proc = fresh_process(["-m", "rootrank.cli", "rank", "-d", str(data / "v1_dataset.json"),
                              "-m", str(huge)], cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == ("error: commit 'synthetic-5-00000': attend produced non-finite "
                               "values in its (11, 2) logits\n")


class TestConvertedCheckpoint:
    """The v4 fixture: the checkpoint that was written as v1 while the per-edge-kind maps
    were held as dense D x D tensors (dim 8, heads 2, layers 1), converted once to v2, once
    to v3, which dropped its scorer bias, and once to v4, which dropped the last layer's
    added-line queries and line_mapping maps."""

    data = Path(__file__).parent / "data"

    def test_ranks_as_recorded(self, tmp_path, capsys):
        out = tmp_path / "ranking.csv"
        code, _out, _err = run(capsys, "rank", "-d", str(self.data / "v1_dataset.json"),
                               "-m", str(self.data / "v4_model.ckpt"), "-o", str(out))
        assert code == 0
        got, want = (list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
                     for path in (out, self.data / "v1_ranking.csv"))
        assert len(got) == len(want) == 1 + 8 * 10
        assert got[0] == want[0]
        for row, ref in zip(got[1:], want[1:]):
            assert row[:3] + row[4:] == ref[:3] + ref[4:]
            assert abs(float(row[3]) - float(ref[3])) <= 1e-12

    def test_map_in_the_v1_dense_layout_exits_1(self, tmp_path, capsys):
        payload = json.loads((self.data / "v4_model.ckpt").read_text(encoding="utf-8"))
        entry = payload["tensors"][11]
        assert entry["name"] == "layer0.attn.w_att.data_dependency"
        dense = np.zeros((8, 8))
        dense[:4, :4], dense[4:, 4:] = np.split(decode_data(entry["data"]).reshape(8, 4), 2)
        dense[5, 1] = 0.5                              # row 5 (head 1), column 1 (head 0)
        entry.update(shape=[8, 8], data=encode_data(dense))
        broken = tmp_path / "broken.ckpt"
        broken.write_text(json.dumps(payload), encoding="utf-8")
        code, _out, err = run(capsys, "rank", "-d", str(self.data / "v1_dataset.json"),
                              "-m", str(broken))
        assert code == 1
        assert err == (f"error: {broken}: layer0.attn.w_att.data_dependency: "
                       "shape (8, 8) != (8, 4)\n")


class TestGradcheck:
    def test_default_passes(self, capsys):
        code, stdout, _ = run(capsys, "gradcheck")
        assert code == 0
        assert "PASS" in stdout
        assert stdout.startswith("max_rel_err=")

    def test_minimal_size_flags(self, capsys):
        code, stdout, _ = run(capsys, "gradcheck", "--dim", "8", "--heads", "2",
                              "--layers", "1")
        assert code == 0
        assert "PASS" in stdout

    def test_flags_reach_gradient_check_and_unset_ones_keep_its_defaults(self, capsys,
                                                                         monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "gradient_check_full_loss",
                            lambda cfg: calls.append(cfg) or 0.0)
        assert run(capsys, "gradcheck")[0] == 0
        assert run(capsys, "gradcheck", "--heads", "1", "--seed", "5")[0] == 0
        assert run(capsys, "gradcheck", "--dim", "4", "--heads", "1", "--layers", "2",
                   "--proj-dim", "3", "--seed", "5")[0] == 0
        assert calls == [ModelConfig(dim=8, heads=2, layers=1, proj_dim=4, seed=42),
                         ModelConfig(dim=8, heads=1, layers=1, proj_dim=4, seed=5),
                         ModelConfig(dim=4, heads=1, layers=2, proj_dim=3, seed=5)]
        assert calls[0] == ranker.GRADCHECK_CONFIG

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf", "-inf"])
    def test_a_tolerance_that_is_not_positive_and_finite_is_rejected(self, tolerance, capsys,
                                                                     monkeypatch):
        monkeypatch.setattr(cli, "gradient_check_full_loss",
                            lambda cfg: pytest.fail("gradcheck ran"))
        code, stdout, err = run(capsys, "gradcheck", f"--tolerance={tolerance}")
        assert (code, stdout, err) == (1, "", "error: tolerance must be positive and finite\n")

    def test_tolerance_below_noise_floor_fails_with_exit_1(self, capsys):
        # central differences in float64 cannot certify 1e-12
        code, stdout, _ = run(capsys, "gradcheck", "--tolerance", "1e-12")
        assert code == 1
        assert "FAIL" in stdout


def fresh_process(args, cwd):
    """Run ``python *args`` in a new interpreter that imports this rootrank."""
    src = str(Path(rootrank.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, timeout=300,
                          capture_output=True, text=True)


class TestFreshProcess:
    """Cross-validation from a new interpreter, whose main module the fold workers import."""

    def _expected_report(self, dataset):
        mean, folds = cross_validate(load_dataset(dataset), CV_CONFIG, HashingEmbedder(16), k=2)
        return report_json(mean, per_fold=folds) + "\n"

    def test_module_cli_writes_in_process_report(self, small_data, tmp_path):
        out = tmp_path / "out.json"
        proc = fresh_process(["-m", "rootrank.cli", "evaluate", "-d", str(small_data),
                              "--cv", "2", "-o", str(out), *CV_FLAGS], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert out.read_text(encoding="utf-8") == self._expected_report(small_data)

    def test_guarded_script_prints_in_process_report(self, small_data, tmp_path):
        script = tmp_path / "cv_script.py"
        script.write_text(
            "import sys\n"
            "from rootrank.embedding import HashingEmbedder\n"
            "from rootrank.evaluation import cross_validate, report_json\n"
            "from rootrank.graphs import load_dataset\n"
            "from rootrank.network import ModelConfig\n"
            "\n"
            "if __name__ == '__main__':\n"
            "    cfg = ModelConfig(dim=16, heads=2, layers=1, epochs=1, seed=42)\n"
            "    mean, folds = cross_validate(load_dataset(sys.argv[1]), cfg, HashingEmbedder(16),\n"
            "                                 k=2)\n"
            "    print(report_json(mean, per_fold=folds))\n",
            encoding="utf-8")
        proc = fresh_process([str(script), str(small_data)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == self._expected_report(small_data)
