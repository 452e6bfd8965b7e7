"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Each test prints a single pass line (run with ``pytest -s`` to see them
as they complete).  The learnability and ablation criteria train real
models and dominate the runtime (a few minutes total on a desktop CPU).
"""

import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from rootrank import autodiff as ad
from rootrank.aggregation import attention_forward, build_plan
from rootrank.autodiff import constant
from rootrank.cli import main
from rootrank.embedding import HashingEmbedder, embed_dataset
from rootrank.evaluation import (
    CommitRanking,
    classification_at_k,
    evaluate_model,
    mfr,
    recall_at_n,
)
from rootrank.graphs import EdgeKind, NodeKind
from rootrank.network import (
    Mode,
    ModelConfig,
    init_network_params,
    gru_cell,
    named_tensors,
    network_forward,
)
from rootrank.ranker import (
    _pair_loss_from_scores,
    gradient_check_full_loss,
    train,
)
from rootrank.synthetic import GenConfig, generate

from naive_reference import (
    gru_tensors,
    layer_params,
    naive_attention_forward,
    naive_gru,
    naive_head,
    neighbors_in,
    random_graph,
)


def pair_loss(s_i, s_j, label, sigma=1.0):
    """The training loss of one pair with scores (s_i, s_j)."""
    pairs = (ad.checked_index([0], 2), ad.checked_index([1], 2), np.array([label]))
    scores = constant(np.array([s_i, s_j]))
    return _pair_loss_from_scores(None, scores, pairs, ModelConfig(sigma=sigma)).item()


def pair_probability(s_i, s_j, sigma=1.0):
    """P(i outranks j) implied by the loss: exp(-loss at label 1)."""
    return math.exp(-pair_loss(s_i, s_j, 1.0, sigma))


def ok(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


class TestCriterion1Gradients:
    def test_full_loss_gradient_check(self, capsys):
        # A one-layer model's only layer is the last, which updates only the deleted lines and
        # so has no added-line queries and no line_mapping maps; the first layer of a
        # two-layer model has them.
        configs = [ModelConfig(dim=8, heads=2, layers=layers, proj_dim=4, seed=42)
                   for layers in (1, 2)]
        start = time.monotonic()
        err = max(gradient_check_full_loss(cfg) for cfg in configs)
        elapsed = time.monotonic() - start
        assert err < 1e-5, f"max relative error {err}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"

        # the checks must cover every parameter family
        names = [name for cfg in configs for name, _t in named_tensors(init_network_params(cfg))]
        for fragment in ("w_k.deleted", "w_q.added", "w_v.deleted", "b_k.added",
                         "w_att.control_flow", "w_msg.line_mapping", "mu",
                         "w_ir", "b_ir", "w_hr", "b_hr", "w_iz", "b_iz",
                         "w_hz", "b_hz", "w_in", "b_in", "w_hn", "b_hn",
                         "final_norm.gain", "final_norm.bias",
                         "proj.w", "proj.b", "scorer.w"):
            assert any(fragment in n for n in names), fragment
        with capsys.disabled():
            ok(1, f"max_rel_err={err:.2e} in {elapsed:.1f}s over {len(names)} tensors")


class TestCriterion2AttentionNormalization:
    def test_weights_sum_to_one_and_isolated_rows_zero(self, capsys):
        rng = np.random.default_rng(2024)
        graphs_checked = 0
        targets_checked = 0
        zero_rows_checked = 0
        for _ in range(200):
            g = random_graph(rng)
            plan = build_plan(g)
            params = layer_params(8, 4, rng)
            h0 = rng.normal(size=(len(g.nodes), 8))
            if len(plan.dst):
                # the layer's own weights, read through the layer: with all-ones values and
                # identity message blocks every message is all ones, so every column of head
                # i in a target's row is the sum of its head-i weights
                ones = dict(params)
                for kind in NodeKind:
                    ones[f"layer0.attn.w_v.{kind.value}"] = constant(np.zeros((8, 8)))
                    ones[f"layer0.attn.b_v.{kind.value}"] = constant(np.ones(8))
                for kind in EdgeKind:
                    ones[f"layer0.attn.w_msg.{kind.value}"] = constant(np.tile(np.eye(2), (4, 1)))
                sums = attention_forward(None, constant(h0), plan, ones, 0, 4).data
                assert sums.shape == (len(g.nodes), 8)
                assert not sums[np.setdiff1d(np.arange(len(g.nodes)), plan.dst)].any()
                for t in np.unique(plan.dst):
                    assert np.all(np.abs(sums[t] - 1.0) <= 1e-9)
                    targets_checked += 1
            h_tilde = attention_forward(None, constant(h0[plan.node_ids]), plan, params, 0, 4)
            row = np.argsort(plan.node_ids)         # the plan row of each node id
            for node in range(len(g.nodes)):
                if not neighbors_in(g, node):
                    assert np.all(h_tilde.data[row[node]] == 0.0)
                    zero_rows_checked += 1
            graphs_checked += 1
        assert graphs_checked == 200 and targets_checked > 200 and zero_rows_checked > 50
        with capsys.disabled():
            ok(2, f"{targets_checked} softmax targets, {zero_rows_checked} isolated rows")


class TestCriterion3OracleEquivalence:
    def test_attention_and_gru_match_naive(self, capsys):
        rng = np.random.default_rng(77)
        for _ in range(100):
            g = random_graph(rng, max_nodes=6)
            params = layer_params(8, 2, rng)
            plan = build_plan(g)
            h0 = rng.normal(size=(len(g.nodes), 8))
            # the layer reads and writes rows in plan order, the oracle in node id order
            fast = attention_forward(None, constant(h0[plan.node_ids]), plan, params, 0, 2).data
            slow = naive_attention_forward(h0, g, params, 0, 2)[plan.node_ids]
            np.testing.assert_allclose(fast, slow, atol=1e-12)

            gru = layer_params(8, 1, rng)
            h_tilde = rng.normal(size=(len(g.nodes), 8))
            fast_g = gru_cell(None, constant(h_tilde), constant(h0), gru, 0).data
            np.testing.assert_allclose(fast_g, naive_gru(h_tilde, h0, gru, 0), atol=1e-12)
        with capsys.disabled():
            ok(3, "100 random graphs <= 6 nodes, both layers, 1e-12")


class TestCriterion4RankNetIdentities:
    def test_probability_and_loss_identities(self, capsys):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            s_i, s_j = rng.uniform(-30, 30, size=2)
            sigma = float(rng.uniform(0.1, 5.0))
            assert abs(pair_probability(s_i, s_j, sigma)
                       + pair_probability(s_j, s_i, sigma) - 1.0) <= 1e-12
        for _ in range(100):
            s = float(rng.uniform(-50, 50))
            assert abs(pair_probability(s, s) - 0.5) <= 1e-12
        assert abs(pair_loss(0.0, 0.0, 1.0) - math.log(2.0)) <= 1e-12
        with capsys.disabled():
            ok(4, "1000 complement pairs, tie point, ln2 loss")


class TestCriterion5GateLimits:
    def test_saturated_reinforcement_gate_preserves_input_through_depth(self, capsys):
        rng = np.random.default_rng(5)
        g = random_graph(rng)
        cfg = ModelConfig(dim=8, heads=2, layers=3, proj_dim=4)
        params = init_network_params(cfg, rng, random_scorer=True)
        for layer in range(cfg.layers):
            gru = gru_tensors(params, layer)
            gru["w_iz"].data = np.zeros((8, 8))
            gru["w_hz"].data = np.zeros((8, 8))
            gru["b_iz"].data = np.full(8, 30.0)
            gru["b_hz"].data = np.zeros(8)
        plan = build_plan(g)
        h0 = rng.normal(size=(len(g.nodes), 8))
        out = network_forward(None, constant(h0[plan.node_ids]), plan, params, cfg)
        deviation = np.abs(out.data - naive_head(h0, params)[g.deleted_ids()]).max()
        assert deviation <= 1e-9
        with capsys.disabled():
            ok(5, f"L=3 saturated gate, max deviation {deviation:.1e}")


class TestCriterion6MetricOracles:
    """Five-commit fixture with every value enumerated by hand."""

    RANKINGS = [
        CommitRanking("c1", (0, 1, 2), frozenset({0})),
        CommitRanking("c2", (3, 1, 2, 4), frozenset({1, 2})),
        CommitRanking("c3", tuple(range(10, 20)), frozenset({16})),  # truth at position 7
        CommitRanking("c4", (1, 2), frozenset({1, 2})),
        CommitRanking("c5", (4, 3), frozenset({3})),
    ]

    def test_hand_enumerated_values(self, capsys):
        rs = self.RANKINGS
        # 7 truth lines; hits in top-1: c1, c4 -> 2; top-2: 1+1+0+2+1 = 5; top-3: 1+2+0+2+1 = 6
        assert recall_at_n(rs, 1) == 2 / 7
        assert recall_at_n(rs, 2) == 5 / 7
        assert recall_at_n(rs, 3) == 6 / 7
        # first ranks: 1, 2, 7, 1, 2 -> mean 13/5
        assert mfr(rs) == 13 / 5
        # all truth positions: 1; 2,3; 7; 1,2; 2 -> mean 18/7
        assert mfr(rs, first_only=False) == 18 / 7
        # top-1: TP=2 FP=3 FN=5; top-2: TP=5 FP=5 FN=2; top-3: TP=6 FP=7 FN=1
        p1, r1, f1 = classification_at_k(rs, 1)
        assert (p1, r1) == (2 / 5, 2 / 7) and abs(f1 - 1 / 3) < 1e-15
        p2, r2, f2 = classification_at_k(rs, 2)
        assert (p2, r2) == (1 / 2, 5 / 7) and abs(f2 - 10 / 17) < 1e-15
        p3, r3, f3 = classification_at_k(rs, 3)
        assert (p3, r3) == (6 / 13, 6 / 7) and abs(f3 - 3 / 5) < 1e-15

        # spec'd single-commit examples
        assert recall_at_n([CommitRanking("a", (0, 2, 1), frozenset({0, 1}))], 2) == 0.5
        assert mfr([CommitRanking("a", (9, 4, 8, 7, 2, 1), frozenset({4, 2}))]) == 2.0
        pk, rk, fk = classification_at_k([CommitRanking("a", (0, 1), frozenset({0}))], 2)
        assert (pk, rk) == (0.5, 1.0) and abs(fk - 2 / 3) < 1e-15
        with capsys.disabled():
            ok(6, "recall@n, mfr (both readings), precision/recall/f1 all exact")


@pytest.fixture(scope="module")
def learnability_runs():
    """Shared criterion-7 experiments (trained once, asserted by two tests)."""
    results = {}
    for label, strength in (("signal", 1.0), ("nosignal", 0.0)):
        ds = generate(GenConfig(n_commits=200, deleted_per_commit=10, added_per_commit=5,
                                signal_strength=strength, seed=42))
        embedded = embed_dataset(ds, HashingEmbedder(64))
        split = int(len(embedded) * 0.8)
        cfg = ModelConfig(dim=64, heads=8, layers=2, epochs=50, lr=5e-6, seed=42)
        start = time.monotonic()
        model = train(embedded[:split], cfg)
        elapsed = time.monotonic() - start
        report = evaluate_model(model, embedded[split:])
        results[label] = (report, elapsed)
    return results


class TestCriterion7Learnability:
    def test_planted_signal_is_learned(self, learnability_runs, capsys):
        report, elapsed = learnability_runs["signal"]
        assert report.recall_at[1] >= 0.8, f"recall@1 = {report.recall_at[1]}"
        assert report.mfr <= 1.5, f"mfr = {report.mfr}"
        assert elapsed < 600.0, f"training took {elapsed:.0f}s"
        with capsys.disabled():
            ok(7, f"signal=1: recall@1={report.recall_at[1]:.3f} mfr={report.mfr:.3f} "
                  f"({elapsed:.0f}s)")

    def test_no_signal_stays_at_chance(self, learnability_runs, capsys):
        report, _elapsed = learnability_runs["nosignal"]
        assert 0.05 <= report.recall_at[1] <= 0.20, f"recall@1 = {report.recall_at[1]}"
        with capsys.disabled():
            ok(7, f"signal=0: recall@1={report.recall_at[1]:.3f} in [0.05, 0.20]")


class TestCriterion8AblationDirection:
    def test_full_beats_retention_only_on_structural_signal(self, capsys):
        margins = []
        per_seed = []
        for seed in (1, 2, 3):
            ds = generate(GenConfig(n_commits=120, deleted_per_commit=8, added_per_commit=4,
                                    signal_strength=1.0, seed=seed, structure_only=True))
            embedded = embed_dataset(ds, HashingEmbedder(64))
            split = int(len(embedded) * 0.8)
            recalls = {}
            for mode in (Mode.FULL, Mode.RETENTION_ONLY, Mode.AGGREGATION_ONLY):
                cfg = ModelConfig(dim=64, heads=8, layers=2, epochs=30, lr=5e-6,
                                  seed=seed, mode=mode)
                model = train(embedded[:split], cfg)
                recalls[mode] = evaluate_model(model, embedded[split:]).recall_at[1]
            margins.append(recalls[Mode.FULL] - recalls[Mode.RETENTION_ONLY])
            per_seed.append(f"seed{seed}: full={recalls[Mode.FULL]:.3f} "
                            f"retention={recalls[Mode.RETENTION_ONLY]:.3f} "
                            f"aggregation={recalls[Mode.AGGREGATION_ONLY]:.3f}")
            # Aggregation-only replaces each line's state by its neighbours' messages, so it
            # also drops the line's own state: beating it shows that keeping that state
            # matters, not that the gate beats a plain residual.
            assert recalls[Mode.FULL] > recalls[Mode.AGGREGATION_ONLY], per_seed
        mean_margin = float(np.mean(margins))
        assert mean_margin > 0.0, per_seed
        with capsys.disabled():
            ok(8, f"mean margin over retention-only {mean_margin:+.3f} over 3 seeds "
                  f"({'; '.join(per_seed)})")


class TestCriterion9Determinism:
    def test_train_and_evaluate_reproduce_bitwise(self, tmp_path, capsys):
        data = tmp_path / "data.json"
        assert main(["generate", "--commits", "8", "--deleted", "4", "--added", "2",
                     "--seed", "5", "-o", str(data)]) == 0
        ckpt_a, ckpt_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        train_flags = ["train", "-d", str(data), "--dim", "16", "--heads", "2",
                       "--layers", "1", "--epochs", "3", "--seed", "42"]
        assert main(train_flags + ["-o", str(ckpt_a)]) == 0
        assert main(train_flags + ["-o", str(ckpt_b)]) == 0
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()

        rep_a, rep_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["evaluate", "-d", str(data), "-m", str(ckpt_a), "-o", str(rep_a)]) == 0
        assert main(["evaluate", "-d", str(data), "-m", str(ckpt_a), "-o", str(rep_b)]) == 0
        assert rep_a.read_bytes() == rep_b.read_bytes()

        payload = json.loads(rep_a.read_text())
        digits = f"{payload['recall@1']:.15f}"
        assert len(digits.split(".")[1]) == 15
        with capsys.disabled():
            ok(9, "checkpoints and reports byte-identical across reruns")


class TestCriterion10ExternalEmbeddingPath:
    def test_precomputed_vectors_flow_end_to_end(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        graphs = []
        for c in range(4):
            nodes = []
            root = int(rng.integers(0, 3))
            for i in range(4):
                nodes.append({
                    "id": i,
                    "kind": "deleted" if i < 3 else "added",
                    "text": None,
                    "is_root_cause": i == root,
                    "embedding": rng.normal(size=768).tolist(),
                })
            graphs.append({
                "commit_id": f"ext-{c}",
                "timestamp": None,
                "nodes": nodes,
                "edges": [{"src": 0, "dst": 3, "kind": "line_mapping"},
                          {"src": 3, "dst": root, "kind": "data_dependency"}],
            })
        data = tmp_path / "external.json"
        data.write_text(json.dumps({"name": "external-768", "graphs": graphs}),
                        encoding="utf-8")
        ckpt = tmp_path / "model.ckpt"
        # dim auto-adopted from the 768-wide embeddings shipped in the file
        assert main(["train", "-d", str(data), "-o", str(ckpt),
                     "--heads", "8", "--layers", "1", "--epochs", "1"]) == 0
        assert json.loads(ckpt.read_text())["dim"] == 768
        report = tmp_path / "report.json"
        assert main(["evaluate", "-d", str(data), "-m", str(ckpt), "-o", str(report)]) == 0
        assert "recall@1" in json.loads(report.read_text())

        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        assert "0.813" in text and "1.799" in text, "reference-context numbers missing"
        assert "embedding" in text.lower()
        with capsys.disabled():
            ok(10, "768-dim precomputed embeddings train/evaluate; docs carry reference context")
