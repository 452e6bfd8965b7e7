import ast
import contextlib
import gc
import inspect
import math
import pickle
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootrank import autodiff as ad
from rootrank.autodiff import CheckedIndex, Tape, Tensor, backward, constant, grad_check

from rootrank.embedding import EmbeddedGraph, HashingEmbedder, embed_graph
from rootrank.network import Mode, ModelConfig, init_network_params, named_tensors
from rootrank.ranker import TrainedModel, build_pairs, commit_loss, rank_commit
from rootrank.synthetic import GenConfig, generate

from rootrank.aggregation import attention_forward, build_plan
from rootrank.graphs import CommitGraph, DepEdge, EdgeKind, LineNode, NodeKind

from naive_reference import (
    composed_attention_layer,
    composed_gru,
    composed_pair_loss,
    gather,
    gru_tensors,
    layer_params,
    log_sigmoid,
    mul,
    naive_backward,
    naive_scatter,
    naive_segment_softmax,
    reduce_sum,
    random_graph,
    scalar_mul,
    segment_softmax,
    segment_sum,
    sub,
)


def column_softmax(tape, a):
    """Softmax down each column of a matrix: one segment holding every row (test-side op)."""
    return segment_softmax(tape, a, np.zeros(a.data.shape[0], dtype=int), 1)


def scalarize(tape, t, weights):
    """Weighted sum so the loss is sensitive to every output entry (test-side ops)."""
    return reduce_sum(tape, mul(tape, t, constant(weights)))


@contextlib.contextmanager
def traced_allocations():
    """tracemalloc on, with no garbage collection to free earlier tests' objects meanwhile."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
        gc.enable()


def check_op(build, params, tol=1e-7):
    err = grad_check(build, params)
    assert err < tol, f"max relative error {err}"


class TestForwardExamples:
    def test_matmul_basic(self):
        out = ad.matmul(None, constant([[1.0, 2.0]]), constant([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_softmax_uniform(self):
        out = column_softmax(None, constant([[0.0], [0.0], [0.0]]))
        np.testing.assert_allclose(out.data[:, 0], [1 / 3] * 3, atol=1e-15)

    def test_relu_clips(self):
        out = ad.relu(None, constant([-1.0, 2.0]))
        assert out.data.tolist() == [0.0, 2.0]

    def test_layer_norm_zero_row_maps_to_bias(self):
        gain = constant(np.ones(4))
        bias = constant(np.full(4, 0.25))
        out = ad.layer_norm(None, constant(np.zeros((2, 4))), gain, bias)
        np.testing.assert_allclose(out.data, 0.25)

    def test_take_rows_takes_a_run_in_order(self):
        a = constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = ad.take_rows(None, a, slice(1, 3))
        assert out.data.tolist() == [[3.0, 4.0], [5.0, 6.0]]

    def test_segment_sum_adds_rows_per_segment(self):
        a = constant([[1.0], [2.0], [4.0]])
        out = segment_sum(None, a, np.array([2, 0, 2]), 4)
        assert out.data.tolist() == [[2.0], [0.0], [5.0], [0.0]]


class TestBackwardExamples:
    def test_square_sum_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        tape = Tape()
        loss = reduce_sum(tape, mul(tape, x, x))
        grads = backward(tape, loss)
        np.testing.assert_allclose(grads[x], [2.0, 4.0, 6.0])

    def test_dead_relu_gradient_is_zero(self):
        x = Tensor(-5.0, requires_grad=True)
        tape = Tape()
        loss = ad.relu(tape, x)
        grads = backward(tape, loss)
        assert grads[x] == 0.0

    def test_log_sigmoid_gradient_matches_central_difference(self):
        # independent oracle: (f(w+h) - f(w-h)) / 2h at w=0
        def f(w):
            return math.log(1.0 / (1.0 + math.exp(-w)))

        h = 1e-6
        numeric = (f(h) - f(-h)) / (2 * h)

        w = Tensor(0.0, requires_grad=True)
        tape = Tape()
        loss = log_sigmoid(tape, w)
        grads = backward(tape, loss)
        assert abs(grads[w] - 0.5) < 1e-9
        assert abs(grads[w] - numeric) < 1e-9

    def test_unreachable_leaf_gets_zero_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        tape = Tape()
        loss = reduce_sum(tape, mul(tape, x, x))
        grads = backward(tape, loss)
        np.testing.assert_allclose(grads[y], [0.0, 0.0])

    def test_loss_must_be_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        tape = Tape()
        out = mul(tape, x, x)
        with pytest.raises(ValueError, match="scalar"):
            backward(tape, out)

    def test_loss_must_be_on_tape(self):
        tape = Tape()
        with pytest.raises(ValueError, match="not produced on this tape"):
            backward(tape, Tensor(1.0, requires_grad=True))

    def test_backward_does_not_mutate_forward_values(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(-2, 2, size=(3, 4)), requires_grad=True)
        w = constant(rng.uniform(-1, 1, size=(3, 4)))
        tape = Tape()
        mid = log_sigmoid(tape, x)
        loss = scalarize(tape, mid, w.data)
        before = mid.data.copy()
        backward(tape, loss)
        assert np.array_equal(mid.data, before)
        tape2 = Tape()
        mid2 = log_sigmoid(tape2, x)
        assert np.array_equal(mid2.data, before)


class TestSharedGradientArrays:
    """Rules hand one array to several inputs; accumulation must not write into it."""

    def assert_no_shared_leaf_memory(self, grads, leaves):
        for i, a in enumerate(leaves):
            for b in leaves[i + 1:]:
                assert not np.shares_memory(grads[a], grads[b])

    def test_add_of_a_tensor_to_itself(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        w = np.array([0.5, 2.0, -1.0])
        tape = Tape()
        loss = scalarize(tape, ad.add(tape, x, x), w)
        np.testing.assert_array_equal(backward(tape, loss)[x], 2.0 * w)

    def test_mul_of_a_tensor_by_itself(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        w = np.array([0.5, 2.0, -1.0])
        tape = Tape()
        loss = scalarize(tape, mul(tape, x, x), w)
        np.testing.assert_array_equal(backward(tape, loss)[x], 2.0 * w * x.data)

    def test_sub_gradient_reused_by_a_later_accumulation(self):
        # add() hands one array to m and r and then to p and q; sub() passes
        # it on to x unchanged, so adding r's and q's parts to x in place
        # would change the gradient q still has to propagate.
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True)
        y = Tensor(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True)
        w = rng.uniform(-1, 1, size=(2, 3))
        tape = Tape()
        q = log_sigmoid(tape, x)
        r = scalar_mul(tape, x, 2.0)
        p = sub(tape, x, y)
        m = ad.add(tape, p, q)
        loss = scalarize(tape, ad.add(tape, m, r), w)
        grads = backward(tape, loss)
        slope = 1.0 / (1.0 + np.exp(x.data))        # d/dx log sigmoid(x) = sigmoid(-x)
        np.testing.assert_allclose(grads[x], w * (1.0 + slope + 2.0), rtol=1e-15, atol=0)
        np.testing.assert_array_equal(grads[y], -w)
        self.assert_no_shared_leaf_memory(grads, [x, y])

    def test_leaf_reached_by_two_paths(self):
        x = Tensor([[1.0, 2.0], [3.0, -4.0]], requires_grad=True)
        y = Tensor([[0.5, 0.5], [-1.0, 2.0]], requires_grad=True)
        z = Tensor([[2.0, 0.0], [1.0, 1.0]], requires_grad=True)
        c = np.array([[3.0, -1.0], [0.5, 2.0]])
        w = np.array([[1.0, -2.0], [0.25, 4.0]])
        v = np.array([[-1.0, 1.0], [2.0, 0.5]])
        tape = Tape()
        # add(x, y) gives x, y and z's add the same gradient array
        first = scalarize(tape, ad.add(tape, ad.add(tape, x, y), z), w)
        second = scalarize(tape, mul(tape, x, constant(c)), v)
        grads = backward(tape, ad.add(tape, first, second))
        np.testing.assert_array_equal(grads[x], w + v * c)
        np.testing.assert_array_equal(grads[y], w)
        np.testing.assert_array_equal(grads[z], w)
        self.assert_no_shared_leaf_memory(grads, [x, y, z])
        grads[y][0, 0] = 99.0
        np.testing.assert_array_equal(grads[z], w)


def shared_gradient_losses(tape):
    """Losses whose rules hand one gradient array to several inputs, and their leaves."""
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True)
    y = Tensor(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True)
    z = Tensor(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True)
    w, v = rng.uniform(-1, 1, size=(2, 2, 3))
    p = sub(tape, x, y)
    m = ad.add(tape, p, log_sigmoid(tape, x))
    first = scalarize(tape, ad.add(tape, ad.add(tape, m, scalar_mul(tape, x, 2.0)), z), w)
    second = scalarize(tape, ad.add(tape, mul(tape, y, y), ad.add(tape, x, x)), v)
    return ad.add(tape, first, second), [x, y, z]


class TestBackwardUsesUpTheTape:
    """``backward`` frees the tape as it walks it; its leaf gradients are those of the walk
    that kept every record and every gradient (``naive_reference.naive_backward``)."""

    @staticmethod
    def both_backwards(tape, loss, leaves):
        recorded = len(tape)
        assert recorded == len(tape._records)
        kept = naive_backward(tape, loss)
        expected = [kept[t].copy() for t in leaves]
        grads = backward(tape, loss)
        assert len(tape) == recorded and not tape._records
        for t, want in zip(leaves, expected):
            assert_same_bits(grads[t], want)
        return grads

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(Mode)),
           ties=st.booleans())
    def test_random_commit_loss_matches_the_oracle_bit_for_bit(self, seed, mode, ties):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, max_nodes=8)
        cfg = ModelConfig(dim=8, heads=2, layers=2, proj_dim=4, mode=mode, include_tie_pairs=ties)
        params = init_network_params(cfg, rng, random_scorer=True)
        eg = EmbeddedGraph(graph=g, h0=rng.normal(size=(len(g.nodes), 8)))
        tape = Tape()
        loss = commit_loss(tape, eg, build_pairs(g, ties), params, cfg)
        self.both_backwards(tape, loss, [t for _name, t in named_tensors(params)])

    def test_shared_gradient_arrays_match_the_oracle(self):
        tape = Tape()
        loss, leaves = shared_gradient_losses(tape)
        grads = self.both_backwards(tape, loss, leaves)
        for i, a in enumerate(leaves):
            for b in leaves[i + 1:]:
                assert not np.shares_memory(grads[a], grads[b])

    def test_a_used_tape_refuses_a_second_backward(self):
        tape = Tape()
        loss, leaves = shared_gradient_losses(tape)
        recorded = len(tape)
        backward(tape, loss)
        with pytest.raises(ValueError, match="^this tape was already used by backward"):
            backward(tape, loss)
        assert len(tape) == recorded

    def test_a_used_tape_refuses_new_records(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        tape = Tape()
        backward(tape, reduce_sum(tape, mul(tape, x, x)))
        with pytest.raises(ValueError, match="^this tape was already used by backward"):
            mul(tape, x, x)
        assert len(tape) == 2

    def test_backward_peak_stays_near_the_forward_live_memory(self):
        # one training step on a 300-node, 871-edge commit; a walk that kept the tape and
        # every intermediate gradient until it returned peaked at about 1.7x
        g = generate(GenConfig(n_commits=1, deleted_per_commit=200, added_per_commit=100,
                               edge_density=0.01, seed=101)).graphs[0]
        cfg = ModelConfig(dim=64, heads=8, layers=2)
        params = init_network_params(cfg, np.random.default_rng(101))
        eg = embed_graph(g, HashingEmbedder(64))
        pairs = build_pairs(g)
        assert (len(g.nodes), len(g.edges)) == (300, 871)
        with traced_allocations():
            base = tracemalloc.get_traced_memory()[0]
            tape = Tape()
            loss = commit_loss(tape, eg, pairs, params, cfg)
            live = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            grads = backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        assert np.abs(grads[params["scorer.w"]]).sum() > 0
        assert peak <= 1.25 * live, f"backward peaked at {peak / live:.2f}x the forward's memory"


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


@st.composite
def scatter_cases(draw):
    """(segments, ids, values, grads, shift): repeated ids, empty segments, 1-D or (r, c) values."""
    segments = draw(st.integers(1, 6))
    rows = draw(st.integers(0, 10))
    cols = draw(st.sampled_from([None, 1, 2, 3]))
    ids = np.array(draw(st.lists(st.integers(0, segments - 1), min_size=rows, max_size=rows)),
                   dtype=np.intp)
    shape = (rows,) if cols is None else (rows, cols)
    entries = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0]))

    def array():
        return np.array(draw(st.lists(entries, min_size=rows * (cols or 1),
                                      max_size=rows * (cols or 1))),
                        dtype=np.float64).reshape(shape)

    return segments, ids, array(), array(), draw(st.sampled_from([-1e3, 0.0, 1e3]))


EMPTY_INDEX = (3, np.zeros(0, dtype=np.intp), np.zeros((0, 2)), np.zeros((0, 2)), 0.0)
NEGATIVE_ZEROS = (4, np.array([2, 0, 2, 2]), np.array([[-0.0], [1.0], [-0.0], [-0.0]]),
                  np.array([[-0.0], [-0.0], [2.0], [-0.0]]), 1e3)


class TestScatterAgainstRowOracle:
    """The flattened 1-D scatters are bit-identical to the row-scatter forms."""

    @settings(max_examples=300, deadline=None)
    @given(case=scatter_cases(), start=st.integers(0, 6))
    @example(case=EMPTY_INDEX, start=0)
    @example(case=NEGATIVE_ZEROS, start=1)
    def test_take_rows_backward(self, case, start):
        # the run's rows are distinct, so the row scatter of g into zeros at them is the
        # addition take_rows' backward makes, -0.0 into +0.0 included
        segments, _ids, _values, g, _shift = case
        rows = slice(start, start + len(g))
        a = Tensor(np.ones((start + len(g) + segments,) + g.shape[1:]), requires_grad=True)
        tape = Tape()
        loss = scalarize(tape, ad.take_rows(tape, a, rows), g)
        expected = np.zeros(a.shape)
        naive_scatter(np.add, expected, np.arange(rows.start, rows.stop), g)
        assert_same_bits(backward(tape, loss)[a], expected)

    @settings(max_examples=300, deadline=None)
    @given(case=scatter_cases())
    @example(case=EMPTY_INDEX)
    @example(case=NEGATIVE_ZEROS)
    def test_segment_sum(self, case):
        segments, ids, values, _g, _shift = case
        expected = np.zeros((segments,) + values.shape[1:])
        naive_scatter(np.add, expected, ids, values)
        assert_same_bits(segment_sum(None, constant(values), ids, segments).data, expected)

    @settings(max_examples=300, deadline=None)
    @given(case=scatter_cases())
    @example(case=EMPTY_INDEX)
    @example(case=NEGATIVE_ZEROS)
    def test_segment_softmax_forward_and_backward(self, case):
        segments, ids, values, g, shift = case
        if values.ndim == 1:
            values, g = values[:, None], g[:, None]
        x = Tensor(values + shift, requires_grad=True)
        tape = Tape()
        p = segment_softmax(tape, x, ids, segments)
        grads = backward(tape, scalarize(tape, p, g))
        expected_p, expected_dx = naive_segment_softmax(x.data, ids, segments, g)
        assert_same_bits(p.data, expected_p)
        assert_same_bits(grads[x], expected_dx)


class TestPerOpGradients:
    """Single-op gradient checks: relative error < 1e-7 on inputs in [-2, 2]."""

    rng = np.random.default_rng(42)

    def _rand(self, *shape, low=-2.0, high=2.0):
        return self.rng.uniform(low, high, size=shape)

    def test_matmul(self):
        a = Tensor(self._rand(3, 4), requires_grad=True)
        b = Tensor(self._rand(4, 2), requires_grad=True)
        w = self._rand(3, 2)
        check_op(lambda tape, _: scalarize(tape, ad.matmul(tape, a, b), w), [a, b])

    def test_matmul_matrix_vector(self):
        a = Tensor(self._rand(3, 4), requires_grad=True)
        b = Tensor(self._rand(4), requires_grad=True)
        w = self._rand(3)
        check_op(lambda tape, _: scalarize(tape, ad.matmul(tape, a, b), w), [a, b])

    def test_add_same_shape(self):
        a = Tensor(self._rand(3, 4), requires_grad=True)
        b = Tensor(self._rand(3, 4), requires_grad=True)
        w = self._rand(3, 4)
        check_op(lambda tape, _: scalarize(tape, ad.add(tape, a, b), w), [a, b])

    def test_add_broadcast_row(self):
        a = Tensor(self._rand(3, 4), requires_grad=True)
        b = Tensor(self._rand(4), requires_grad=True)
        w = self._rand(3, 4)
        check_op(lambda tape, _: scalarize(tape, ad.add(tape, a, b), w), [a, b])

    def test_sub(self):
        a = Tensor(self._rand(2, 5), requires_grad=True)
        b = Tensor(self._rand(2, 5), requires_grad=True)
        w = self._rand(2, 5)
        check_op(lambda tape, _: scalarize(tape, sub(tape, a, b), w), [a, b])

    def test_mul(self):
        a = Tensor(self._rand(4, 3), requires_grad=True)
        b = Tensor(self._rand(4, 3), requires_grad=True)
        w = self._rand(4, 3)
        check_op(lambda tape, _: scalarize(tape, mul(tape, a, b), w), [a, b])

    def test_scalar_mul(self):
        a = Tensor(self._rand(4), requires_grad=True)
        w = self._rand(4)
        check_op(lambda tape, _: scalarize(tape, scalar_mul(tape, a, -1.7), w), [a])

    def test_relu_away_from_kink(self):
        vals = self._rand(8)
        vals[np.abs(vals) < 0.2] += 0.5
        a = Tensor(vals, requires_grad=True)
        w = self._rand(8)
        check_op(lambda tape, _: scalarize(tape, ad.relu(tape, a), w), [a])

    def test_softmax_vector(self):
        a = Tensor(self._rand(5, 1), requires_grad=True)
        w = self._rand(5, 1)
        check_op(lambda tape, _: scalarize(tape, column_softmax(tape, a), w), [a])

    def test_softmax_matrix_columns(self):
        a = Tensor(self._rand(4, 3), requires_grad=True)
        w = self._rand(4, 3)
        check_op(lambda tape, _: scalarize(tape, column_softmax(tape, a), w), [a])

    def test_take_rows_of_a_run(self):
        a = Tensor(self._rand(5, 3), requires_grad=True)
        w = self._rand(3, 3)
        check_op(lambda tape, _: scalarize(tape, ad.take_rows(tape, a, slice(1, 4)), w), [a])

    def test_take_rows_of_a_vector(self):
        a = Tensor(self._rand(4), requires_grad=True)
        w = self._rand(2)
        check_op(lambda tape, _: scalarize(tape, ad.take_rows(tape, a, slice(2, 4)), w), [a])

    def test_segment_sum_with_empty_segments(self):
        # segments 0, 2 and 5 receive no rows
        a = Tensor(self._rand(5, 3), requires_grad=True)
        ids = np.array([4, 1, 4, 3, 1])
        w = self._rand(6, 3)

        def build(tape, _):
            out = segment_sum(tape, a, ids, 6)
            assert np.all(out.data[[0, 2, 5]] == 0.0)
            return scalarize(tape, out, w)

        check_op(build, [a])

    @pytest.mark.parametrize("shift", [0.0, 1e3, -1e3])
    def test_segment_softmax_with_empty_segments(self, shift):
        # segments 0 and 3 receive no rows; shifted logits must not overflow
        a = Tensor(self._rand(6, 2) + shift, requires_grad=True)
        ids = np.array([2, 1, 2, 4, 2, 1])
        w = self._rand(6, 2)
        check_op(lambda tape, _: scalarize(tape, segment_softmax(tape, a, ids, 5), w),
                 [a], tol=1e-6)

    def test_stable_log_sigmoid(self):
        a = Tensor(self._rand(5), requires_grad=True)
        w = self._rand(5)
        check_op(lambda tape, _: scalarize(tape, log_sigmoid(tape, a), w), [a])

    @pytest.mark.parametrize("x", [30.0, -30.0, 1e3, -1e3])
    def test_stable_log_sigmoid_saturated(self, x):
        a = Tensor(np.array([x]), requires_grad=True)
        check_op(lambda tape, _: reduce_sum(tape, log_sigmoid(tape, a)), [a])

    def test_layer_norm(self):
        a = Tensor(self._rand(3, 6), requires_grad=True)
        gain = Tensor(self._rand(6, low=0.5, high=1.5), requires_grad=True)
        bias = Tensor(self._rand(6), requires_grad=True)
        w = self._rand(3, 6)
        check_op(
            lambda tape, _: scalarize(tape, ad.layer_norm(tape, a, gain, bias), w),
            [a, gain, bias],
            tol=1e-6,
        )

    def test_stable_log_sigmoid_saturated_values_and_slopes(self):
        # log sigmoid(x) = -log1p(exp(-x)); slope sigmoid(-x) = 1 / (1 + exp(x))
        x = Tensor(np.array([30.0, -30.0, 1e3, -1e3]), requires_grad=True)
        tape = Tape()
        out = log_sigmoid(tape, x)
        expected = [-math.log1p(math.exp(-30.0)), -30.0 - math.log1p(math.exp(-30.0)), 0.0, -1e3]
        np.testing.assert_allclose(out.data, expected, rtol=1e-15, atol=0.0)
        grads = backward(tape, reduce_sum(tape, out))
        slopes = [1.0 / (1.0 + math.exp(30.0)), 1.0 / (1.0 + math.exp(-30.0)), 0.0, 1.0]
        np.testing.assert_allclose(grads[x], slopes, rtol=1e-15, atol=0.0)


class TestSoftmaxProperties:
    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rows = int(rng.integers(1, 9))
            x = constant(rng.uniform(-10, 10, size=(rows, 3)))
            ids = rng.integers(0, 4, size=rows)
            p = segment_softmax(None, x, ids, 4).data
            for seg in set(ids.tolist()):
                assert np.all(np.abs(p[ids == seg].sum(axis=0) - 1.0) < 1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        ids = np.array([0, 1, 0, 0, 1, 2])
        for _ in range(50):
            x = rng.uniform(-5, 5, size=(6, 2))
            c = rng.uniform(-100, 100)
            p1 = segment_softmax(None, constant(x), ids, 3).data
            p2 = segment_softmax(None, constant(x + c), ids, 3).data
            np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_segments_are_independent(self):
        # the same logits give the same weights whatever other segments hold
        x = np.array([[1.0], [2.0], [50.0], [3.0]])
        p = segment_softmax(None, constant(x), np.array([0, 0, 1, 1]), 2).data
        alone = segment_softmax(None, constant(x[:2]), np.array([0, 0]), 1).data
        np.testing.assert_array_equal(p[:2], alone)


def gru_weights(p):
    """Layer 0's 12 gate tensors of ``p`` in the order ``autodiff.gru`` takes them."""
    return list(gru_tensors(p, 0).values())


def saturate(p, value=30.0):
    """Pre-activations near +-value: biases alternate in sign, weights shrink."""
    gru = gru_tensors(p, 0)
    d = gru["b_ir"].shape[0]
    signs = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    for name in ("b_ir", "b_iz", "b_in"):
        gru[name].data = value * signs
    for name in ("w_ir", "w_hr", "w_iz", "w_hz", "w_in", "w_hn"):
        gru[name].data *= 0.1


def where_sigmoid(x):
    """The logistic function as ``autodiff._sigmoid`` formed it with a branch select."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class TestSigmoid:
    EDGES = [0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 750.0, -750.0, 5e-324, -5e-324,
             1.7976931348623157e308, -1.7976931348623157e308]

    def test_edge_values_equal_the_select_form_bit_for_bit(self):
        x = np.array(self.EDGES)
        assert ad._sigmoid(x).tobytes() == where_sigmoid(x).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 30.0, 800.0]),
           shape=st.sampled_from([(1,), (7,), (300, 64)]))
    def test_random_values_equal_the_select_form_bit_for_bit(self, seed, scale, shape):
        x = np.random.default_rng(seed).normal(scale=scale, size=shape)
        assert ad._sigmoid(x).tobytes() == where_sigmoid(x).tobytes()


class TestGru:
    """The fused gate against the 23-op chain it replaced (``composed_gru``)."""

    def _inputs(self, rng, n, d, same, h_grad=True):
        x = Tensor(rng.uniform(-2, 2, size=(n, d)), requires_grad=True)
        h = x if same else Tensor(rng.uniform(-2, 2, size=(n, d)), requires_grad=h_grad)
        return x, h

    @pytest.mark.parametrize("case", ["distinct", "x_is_h", "saturated"])
    def test_gradcheck_every_input(self, case):
        rng = np.random.default_rng(21)
        p = layer_params(4, 1, rng)
        if case == "saturated":
            saturate(p)
        x, h = self._inputs(rng, 3, 4, same=case == "x_is_h")
        weights = gru_weights(p)
        g = rng.uniform(-2, 2, size=(3, 4))
        inputs = [x, *weights] if x is h else [x, h, *weights]
        assert len(inputs) == (13 if x is h else 14)
        check_op(lambda tape, _: scalarize(tape, ad.gru(tape, x, h, weights), g), inputs)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 6), d=st.integers(1, 6), same=st.booleans(), h_grad=st.booleans(),
           scale=st.sampled_from([0.5, 3.0, 40.0]), seed=st.integers(0, 2**32 - 1))
    def test_equals_composed_chain(self, n, d, same, h_grad, scale, seed):
        rng = np.random.default_rng(seed)
        p = layer_params(d, 1, rng)
        for t in gru_weights(p):
            t.data = t.data * scale
        x, h = self._inputs(rng, n, d, same, h_grad)
        g = rng.uniform(-2, 2, size=(n, d))
        leaves = [x, h, *gru_weights(p)]

        def run(f):
            tape = Tape()
            out = f(tape, x, h, p, 0)
            grads = backward(tape, scalarize(tape, out, g))
            return [out.data] + [grads[t] for t in leaves]

        fused = run(lambda tape, x, h, p, _layer: ad.gru(tape, x, h, gru_weights(p)))
        for got, want in zip(fused, run(composed_gru)):
            if same:  # x's and h's parts are summed in another order
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            else:
                assert np.array_equal(got, want)

    def test_one_tape_record(self):
        rng = np.random.default_rng(23)
        p = layer_params(3, 1, rng)
        x, h = self._inputs(rng, 2, 3, same=False)
        tape = Tape()
        ad.gru(tape, x, h, gru_weights(p))
        assert len(tape) == 1
        tape = Tape()
        composed_gru(tape, x, h, p, 0)
        assert len(tape) == 23

    @pytest.mark.parametrize("gate,names", [
        ("reset", ("b_ir", "b_hr")),
        ("update", ("b_iz", "b_hz")),
        ("candidate", ("b_in", "b_hn")),
    ])
    def test_overflowing_sum_of_affine_maps_is_named(self, gate, names):
        # each affine map is finite; their sum overflows, and the gate would saturate it
        p = layer_params(3, 1, np.random.default_rng(24))
        for t in gru_weights(p):
            t.data = np.zeros_like(t.data)
        for name in names:
            p[f"layer0.gru.{name}"].data = np.full(3, 1.5e308)
        x = h = constant(np.ones((2, 3)))
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError, match=rf"^gru produced non-finite values in "
                                                         rf"its \(2, 3\) {gate} pre-activation$"):
                ad.gru(None, x, h, gru_weights(p))
            with pytest.raises(FloatingPointError, match="^add produced non-finite values"):
                composed_gru(None, x, h, p, 0)

    def test_overflowing_affine_map_is_named(self):
        p = layer_params(3, 1, np.random.default_rng(25))
        p["layer0.gru.w_in"].data = np.full((3, 3), 1e200)
        x = constant(np.full((2, 3), 1e200))
        h = constant(np.zeros((2, 3)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"^gru .* candidate pre-activation$"):
                ad.gru(None, x, h, gru_weights(p))
            with pytest.raises(FloatingPointError, match="^matmul produced non-finite values"):
                composed_gru(None, x, h, p, 0)

    def test_shape_checks(self):
        p = layer_params(4, 1, np.random.default_rng(0))
        weights = gru_weights(p)
        with pytest.raises(ValueError, match="shapes differ"):
            ad.gru(None, constant(np.zeros((2, 4))), constant(np.zeros((3, 4))), weights)
        with pytest.raises(ValueError, match="shapes differ"):
            ad.gru(None, constant(np.zeros(4)), constant(np.zeros(4)), weights)
        x = constant(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="need 12 weights"):
            ad.gru(None, x, x, weights[:11])
        with pytest.raises(ValueError, match="need 12 weights"):
            ad.gru(None, x, x, [weights[1], weights[0], *weights[2:]])
        with pytest.raises(ValueError, match="need 12 weights"):
            ad.gru(None, constant(np.zeros((2, 3))), constant(np.zeros((2, 3))), weights)


@st.composite
def layer_cases(draw):
    """A layer's inputs on a random commit: heads 1 or 8 (dim 8), with or without the scored
    block's targets, some node or edge kinds absent, the layer's input read again after the
    layer (as the next gate reads it) or not, requiring grad or not, priors of scale 1 or 300."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    heads = draw(st.sampled_from([1, 8]))
    node_kinds = draw(st.sampled_from([[NodeKind.DELETED, NodeKind.ADDED], [NodeKind.DELETED],
                                       [NodeKind.ADDED]]))
    edge_kinds = draw(st.lists(st.sampled_from(list(EdgeKind)[:4]), min_size=1, max_size=4,
                               unique=True))
    n = draw(st.integers(1, 8))
    kinds = [node_kinds[int(rng.integers(len(node_kinds)))] for _ in range(n)]
    nodes = tuple(LineNode(i, kind, text=f"line {i}", is_root_cause=False)
                  for i, kind in enumerate(kinds))
    edges = []
    for s in range(n):
        for t in range(n):
            if s != t and rng.random() < 0.5:
                mapped = (kinds[s], kinds[t]) == (NodeKind.DELETED, NodeKind.ADDED)
                kind = (EdgeKind.LINE_MAPPING if mapped and rng.random() < 0.3
                        else edge_kinds[int(rng.integers(len(edge_kinds)))])
                edges.append(DepEdge(s, t, kind))
    plan = build_plan(CommitGraph(commit_id="layer", nodes=nodes, edges=tuple(edges)))
    params = layer_params(8, heads, rng)
    params["layer0.attn.mu"].data *= draw(st.sampled_from([1.0, 300.0]))
    h = Tensor(rng.normal(size=(n, 8)), requires_grad=draw(st.booleans()))
    return (plan, params, h, heads, draw(st.booleans()), draw(st.booleans()),
            rng.normal(size=(n, 8)), rng.normal(size=(n, 8)))


def run_layer(layer, case):
    """Output, tape length and the gradients of every leaf of one layer ``layer`` run on a
    ``layer_cases`` case, through a loss that also reads the layer's input after it."""
    plan, params, h, heads, scored, shared, g_out, g_in = case
    tape = Tape()
    targets = ad.take_rows(tape, h, slice(0, plan.scored.n)) if scored else None
    before = len(tape)
    out = layer(tape, h, plan, params, 0, heads, targets)
    length = len(tape) - before
    loss = scalarize(tape, out, g_out[:out.shape[0]])
    if shared:      # recorded after the layer, so its gradient reaches h first, as the gate's does
        again = h if targets is None else targets
        loss = ad.add(tape, loss, scalarize(tape, again, g_in[:again.shape[0]]))
    if not loss.requires_grad:
        return out.data, length, []
    grads = backward(tape, loss)
    return out.data, length, [grads[t] for t in (h, *params.values())]


def attend_case(rng, shared: bool):
    """The fused op's inputs on a fixed graph: 5 sources in kind runs [0, 2) and [2, 5), 4
    targets in runs [0, 1) and [1, 4) (or the sources themselves when ``shared``), and 7
    edges in runs [0, 3) and [3, 7), into targets 0 (twice), 1 (once) and 2 (four times),
    so target 3 has none; two heads of width 2."""
    def leaf(*shape):
        return Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)

    states = leaf(5, 4)
    targets = states if shared else leaf(4, 4)
    node_runs, target_runs = [slice(0, 2), slice(2, 5)], [slice(0, 1), slice(1, 4)]
    if shared:
        target_runs = node_runs
    keys, values = ([(rows, leaf(4, 4), leaf(4)) for rows in node_runs] for _ in range(2))
    queries = [(rows, leaf(4, 4), leaf(4)) for rows in target_runs]
    att, msg = ([(rows, leaf(4, 2)) for rows in (slice(0, 3), slice(3, 7))] for _ in range(2))
    mu = Tensor(rng.uniform(0.5, 1.5, size=(3, 1)), requires_grad=True)
    indices = (ad.checked_index([0, 1, 4, 2, 3, 4, 0], 5),
               ad.checked_index([1, 2, 2, 0, 2, 2, 0], len(targets.data)),
               ad.checked_index([0, 2, 1, 1, 0, 2, 2], 3))
    args = (states, targets, keys, queries, values, att, msg, mu, *indices, 2)
    leaves = list(dict.fromkeys([states, targets, mu, *(t for groups in (keys, queries, values,
                                                                          att, msg)
                                                      for group in groups for t in group[1:])]))
    return args, leaves


class TestAttend:
    """The fused attention layer against the nine-op chain it replaced
    (``composed_attention_layer``)."""

    @pytest.mark.parametrize("shared", [False, True], ids=["own-targets", "targets-are-states"])
    def test_gradcheck_every_input(self, shared):
        args, leaves = attend_case(np.random.default_rng(31), shared)
        g = np.random.default_rng(32).uniform(-2, 2, size=(len(args[1].data), 4))
        check_op(lambda tape, _: scalarize(tape, ad.attend(tape, *args), g), leaves)

    @settings(max_examples=200, deadline=None)
    @given(case=layer_cases())
    def test_equals_composed_layer_bit_for_bit(self, case):
        (fused, fused_ops, fused_grads), (composed, composed_ops, composed_grads) = (
            run_layer(layer, case) for layer in (attention_forward, composed_attention_layer))
        assert np.array_equal(fused, composed)
        assert len(fused_grads) == len(composed_grads)
        for got, want in zip(fused_grads, composed_grads):
            assert np.array_equal(got, want)
        plan, scored = case[0], case[4]
        block = plan.scored if scored else plan
        if block.edge_rows:
            assert (fused_ops, composed_ops) == (1, 9)
            assert not fused[np.setdiff1d(np.arange(len(fused)), block.dst)].any()

    def test_one_tape_record(self):
        rng = np.random.default_rng(33)
        g = random_graph(rng)
        while not g.edges:
            g = random_graph(rng)
        plan, params = build_plan(g), layer_params(8, 2, rng)
        h = Tensor(rng.normal(size=(plan.n, 8)), requires_grad=True)
        lengths = []
        for layer in (attention_forward, composed_attention_layer):
            tape = Tape()
            layer(tape, h, plan, params, 0, 2)
            lengths.append(len(tape))
        assert lengths == [1, 9]

    def test_overflowing_logits_are_named(self):
        args, _leaves = attend_case(np.random.default_rng(34), False)
        args[7].data = np.full((3, 1), 1.7e308)                 # mu
        for _rows, w, _b in args[2]:                             # the key projections
            w.data = np.full(w.shape, 10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"^attend produced non-finite values in "
                                                         r"its \(7, 2\) logits$"):
                ad.attend(None, *args)

    @pytest.mark.parametrize("field", [2, 3])
    def test_a_non_finite_key_or_query_projection_surfaces_at_the_logits(self, field):
        args, _leaves = attend_case(np.random.default_rng(35), False)
        args[field][0][2].data = np.full(4, np.inf)             # a bias of the first kind
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"^attend produced non-finite values in "
                                                         r"its \(7, 2\) logits$"):
                ad.attend(None, *args)

    def test_a_non_finite_value_projection_surfaces_at_the_output(self):
        args, _leaves = attend_case(np.random.default_rng(36), False)
        args[4][1][2].data = np.full(4, np.inf)                 # sources 2-4 hold infinite values
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"^attend produced non-finite values in "
                                                         r"its \(4, 4\) output$"):
                ad.attend(None, *args)

    def test_shape_checks(self):
        args, _leaves = attend_case(np.random.default_rng(37), False)
        states, targets, keys, queries, values, att, msg, mu, src, dst, mu_idx, heads = args

        def call(**changes):
            named = dict(states=states, targets=targets, keys=keys, queries=queries, values=values,
                         att=att, msg=msg, mu=mu, src=src, dst=dst, mu_idx=mu_idx, heads=heads)
            return ad.attend(None, **{**named, **changes})

        call()
        for changes in (dict(heads=3), dict(targets=constant(np.zeros((4, 2)))),
                        dict(states=constant(np.zeros(5))), dict(mu=constant(np.ones(3)))):
            with pytest.raises(ValueError, match="^attend: unsupported shapes"):
                call(**changes)
        with pytest.raises(ValueError, match="^attend: need one target and one prior row per "
                                             "edge: 7 and 2 for 7 edges$"):
            call(mu_idx=ad.checked_index([0, 0], 3))
        wide = [(rows, constant(np.zeros((4, 3)))) for rows, _w in att]
        with pytest.raises(ValueError, match=r"^attend: att groups need w of shape \(4, 2\) and "
                                             r"no b, got \[\(4, 3\)\]$"):
            call(att=wide)
        with pytest.raises(ValueError, match=r"^attend: keys groups need w of shape \(4, 4\) and "
                                             r"b of shape \(4,\), got \[\(4, 4\)\]$"):
            call(keys=[(rows, w) for rows, w, _b in keys])
        with pytest.raises(ValueError, match=r"^attend: msg groups need w of shape \(4, 2\) and "
                                             r"no b, got \[\(4, 2\), \(2,\)\]$"):
            call(msg=[(rows, w, constant(np.zeros(2))) for rows, w in msg])

    @pytest.mark.parametrize("rows", [
        pytest.param([slice(0, 1), slice(1, 5)], id="two-runs"),
        pytest.param([slice(0, 5)], id="one-run"),
        pytest.param([slice(0, 1), slice(1, 2), slice(2, 3), slice(3, 4), slice(4, 5)],
                     id="single-rows"),
    ])
    def test_runs_that_tile_the_rows_in_order_are_taken(self, rows):
        args, _leaves = attend_case(np.random.default_rng(38), False)
        whole = [(slice(0, 5), *args[2][0][1:])]
        split = [(r, *args[2][0][1:]) for r in rows]
        assert np.array_equal(ad.attend(None, *args[:2], split, *args[3:]).data,
                              ad.attend(None, *args[:2], whole, *args[3:]).data)

    @pytest.mark.parametrize("rows", [
        pytest.param([slice(0, 2), slice(1, 5)], id="overlap"),
        pytest.param([slice(0, 1), slice(2, 5)], id="gap"),
        pytest.param([slice(2, 5), slice(0, 2)], id="out-of-order"),
        pytest.param([slice(0, 0), slice(0, 5)], id="empty"),
        pytest.param([slice(0, 2), slice(2, 2), slice(2, 5)], id="empty-inside"),
        pytest.param([slice(0, 4)], id="short"),
        pytest.param([], id="none"),
        pytest.param([slice(0, 2), slice(2, 6)], id="past-the-end"),
        pytest.param([slice(0, 2), slice(0, 2)], id="repeated"),
        pytest.param([slice(None, 2), slice(2, 5)], id="open-start"),
        pytest.param([slice(0, 2), slice(2, None)], id="open-stop"),
        pytest.param([slice(0, 5, 1)], id="step"),
        pytest.param([slice(0, 2), slice(2.0, 5.0)], id="float-bounds"),
        pytest.param([slice(False, 2), slice(2, 5)], id="bool-bound"),
        pytest.param([np.arange(5)], id="array"),
    ])
    def test_groups_that_do_not_tile_the_rows_in_order_are_rejected(self, rows):
        args, _leaves = attend_case(np.random.default_rng(39), False)
        groups = [(r, *args[4][0][1:]) for r in rows]
        with pytest.raises(ValueError, match=r"^attend: values groups must be non-empty runs of "
                                             r"rows, as slices, that tile \[0, 5\) in order"):
            ad.attend(None, *args[:4], groups, *args[5:])


@st.composite
def pair_loss_cases(draw):
    """Scores with ties and saturating gaps, random pairs, labels 0, 1/2 or 1, sigma != 1."""
    k = draw(st.integers(1, 6))
    scores = draw(st.lists(st.one_of(st.floats(-50, 50), st.sampled_from([0.0, 1.0, 1e3, -1e3])),
                           min_size=k, max_size=k))
    rows = st.lists(st.integers(0, k - 1), min_size=0, max_size=8)
    pair_i = draw(rows)
    p = len(pair_i)
    pair_j = draw(st.lists(st.integers(0, k - 1), min_size=p, max_size=p))
    labels = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=p, max_size=p))
    sigma = draw(st.sampled_from([1.0, 0.25, 2.0, 3.7]))
    g = draw(st.sampled_from([1.0, -0.5, 3.0]))
    return (np.array(scores), np.array(pair_i, dtype=np.intp), np.array(pair_j, dtype=np.intp),
            np.array(labels), sigma, g)


SATURATED_PAIRS = (np.array([1e3, -1e3, 0.0]), np.array([0, 1, 2, 0]), np.array([1, 0, 0, 0]),
                   np.array([1.0, 1.0, 0.5, 0.0]), 1.0, 1.0)


class TestPairLoss:
    """The fused RankNet loss against the twelve-op chain it replaced (``composed_pair_loss``)."""

    @settings(max_examples=300, deadline=None)
    @given(case=pair_loss_cases())
    @example(case=SATURATED_PAIRS)
    def test_bit_identical_to_composed_chain(self, case):
        scores, pair_i, pair_j, labels, sigma, g = case

        rows_i, rows_j = (ad.checked_index(rows, len(scores)) for rows in (pair_i, pair_j))

        def run(op):
            s = Tensor(scores, requires_grad=True)
            tape = Tape()
            loss = op(tape, s, rows_i, rows_j, labels, sigma)
            # scale the output gradient through a test-side op, so g != 1 reaches the rule
            grads = backward(tape, scalar_mul(tape, loss, g))
            return loss.data, grads[s]

        (loss, grad), (want_loss, want_grad) = run(ad.pair_loss), run(composed_pair_loss)
        assert_same_bits(np.asarray(loss), np.asarray(want_loss))
        assert_same_bits(grad, want_grad)

    @settings(max_examples=300, deadline=None)
    @given(case=pair_loss_cases(),
           shift=st.floats(-1e3, 1e3) | st.sampled_from([917.25, 1234.5, -1e6]))
    @example(case=SATURATED_PAIRS, shift=917.25)
    def test_a_global_score_shift_moves_nothing_but_rounding(self, case, shift):
        # the loss reads only score differences, so no score bias could be learned
        scores, pair_i, pair_j, labels, sigma, _g = case
        rows_i, rows_j = (ad.checked_index(rows, len(scores)) for rows in (pair_i, pair_j))
        eps, p = np.finfo(np.float64).eps, len(labels)

        def run(values):
            s = Tensor(values, requires_grad=True)
            tape = Tape()
            loss = ad.pair_loss(tape, s, rows_i, rows_j, labels, sigma)
            return loss.item(), backward(tape, loss)[s]

        loss, grad = run(scores)
        shifted, shifted_grad = run(scores + shift)
        # each logit moves by at most sigma * 2 ulp of |score| + |shift|, at slope <= 1
        spread = abs(shift) + np.abs(scores).max()
        assert abs(shifted - loss) <= 4 * p * eps * (sigma * spread + loss)
        # every pair adds d and -d; each entry and the sum round at most n + p times
        bound = 4 * (len(scores) + p) * p * sigma * eps
        assert abs(grad.sum()) <= bound and abs(shifted_grad.sum()) <= bound

    @pytest.mark.parametrize("sigma", [1.0, 2.5])
    @pytest.mark.parametrize("gap", [0.0, 3.0, 1e3, -1e3])
    def test_gradcheck(self, sigma, gap):
        s = Tensor(np.array([gap, 0.0, 0.5]), requires_grad=True)
        pair_i, pair_j = ad.checked_index([0, 1, 0, 2], 3), ad.checked_index([1, 0, 2, 1], 3)
        labels = np.array([1.0, 0.5, 0.0, 1.0])
        check_op(lambda tape, _: ad.pair_loss(tape, s, pair_i, pair_j, labels, sigma), [s])

    def test_one_tape_record(self):
        s = Tensor(np.array([0.3, -0.2]), requires_grad=True)
        args = (ad.checked_index([0], 2), ad.checked_index([1], 2), np.array([1.0]), 1.0)
        tape = Tape()
        ad.pair_loss(tape, s, *args)
        assert len(tape) == 1
        tape = Tape()
        composed_pair_loss(tape, s, *args)
        assert len(tape) == 12

    def test_overflowing_logits_are_named(self):
        s = constant(np.array([1.5e308, -1.5e308]))
        args = (ad.checked_index([0], 2), ad.checked_index([1], 2), np.array([1.0]), 1.0)
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError, match=r"^pair_loss produced non-finite values "
                                                         r"in its \(1,\) logits$"):
                ad.pair_loss(None, s, *args)
            with pytest.raises(FloatingPointError, match="^sub produced non-finite values"):
                composed_pair_loss(None, s, *args)

    def test_shape_checks(self):
        s = constant(np.zeros(3))
        zero, one, both = (ad.checked_index(rows, 3) for rows in ([0], [1], [0, 1]))
        with pytest.raises(ValueError, match="^pair_loss: scores must be a vector"):
            ad.pair_loss(None, constant(np.zeros((3, 1))), zero, one, np.array([1.0]), 1.0)
        with pytest.raises(ValueError, match="^pair_loss: need one label per pair"):
            ad.pair_loss(None, s, both, one, np.array([1.0]), 1.0)
        with pytest.raises(ValueError, match="^pair_loss: need one label per pair"):
            ad.pair_loss(None, s, zero, one, np.array([1.0, 0.0]), 1.0)
        with pytest.raises(ValueError, match=r"^indices must lie in \[0, 3\)"):
            ad.checked_index([3], 3)


class TestGradCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(11)
        a_mat = rng.uniform(-1, 1, size=(4, 4))
        x = Tensor(rng.uniform(-2, 2, size=(1, 4)), requires_grad=True)

        def build(tape, _):
            xa = ad.matmul(tape, x, constant(a_mat))
            return reduce_sum(tape, mul(tape, xa, x))

        assert grad_check(build, [x]) < 1e-7

    def test_constant_function(self):
        x = Tensor([1.0, 2.0], requires_grad=True)

        def build(tape, _):
            y = mul(tape, x, constant([0.0, 0.0]))
            return reduce_sum(tape, y)

        assert grad_check(build, [x]) < 1e-9


class TestErrors:
    def test_shape_mismatch_matmul(self):
        with pytest.raises(ValueError, match="matmul"):
            ad.matmul(None, constant([[1.0, 2.0]]), constant([[1.0, 2.0]]))

    def test_overflow_is_nonfinite(self):
        with np.errstate(over="ignore"), pytest.raises(
                FloatingPointError, match=r"^matmul produced non-finite values in its \(1, 1\) output$"):
            ad.matmul(None, constant([[1e200]]), constant([[1e200]]))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="^scalar_mul "):
            scalar_mul(None, constant([1e200, 1.0]), 1e200)

    def test_rank3_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            Tensor(np.zeros((2, 2, 2)))

    def test_nonfinite_input_rejected(self):
        with pytest.raises(FloatingPointError):
            Tensor([np.nan])

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"^indices must lie in \[0, 3\)$"):
            ad.checked_index(np.array([0, 3]), 3)
        with pytest.raises(ValueError, match=r"^indices must lie in \[0, 3\)$"):
            ad.checked_index(np.array([-1]), 3)

    def test_one_segment_id_per_row(self):
        with pytest.raises(ValueError, match="one segment id per row"):
            segment_sum(None, constant(np.zeros((3, 2))), np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="one segment id per row"):
            segment_softmax(None, constant(np.zeros((3, 2))), np.array([0, 1]), 2)


# Index arrays of non-integer dtypes; cast to intp, each would name rows in [0, 3).
NON_INTEGER_INDICES = [
    pytest.param(np.array([0.9, 2.2]), "float64", id="float"),
    pytest.param(np.array([True, False]), "bool", id="bool"),
    pytest.param(np.array([1, 0], dtype=object), "object", id="object"),
]


class TestNonIntegerIndices:
    """A non-empty index array must have an integer dtype; an empty one indexes nothing."""

    @pytest.mark.parametrize("index, dtype", NON_INTEGER_INDICES)
    def test_checked_index(self, index, dtype):
        with pytest.raises(ValueError, match=f"^indices must be integers, got dtype {dtype}$"):
            ad.checked_index(index, 3)

    @pytest.mark.parametrize("index, dtype", NON_INTEGER_INDICES)
    def test_take_rows(self, index, dtype):
        with pytest.raises(ValueError, match=r"^take_rows: rows must be a run start:stop "):
            ad.take_rows(None, constant(np.zeros((3, 2))), index)

    @pytest.mark.parametrize("index, dtype", NON_INTEGER_INDICES)
    @pytest.mark.parametrize("side", ["pair_i", "pair_j"])
    def test_pair_loss(self, index, dtype, side):
        both = ad.checked_index([2, 2], 3)
        pairs = {"pair_i": both, "pair_j": both, side: index}
        with pytest.raises(ValueError, match=rf"^pair_loss: {side} must be a CheckedIndex of \[0, 3\)$"):
            ad.pair_loss(None, constant([0.0, 1.0, 2.0]), pairs["pair_i"], pairs["pair_j"],
                         np.ones(2), 1.0)

    def test_unsigned_and_empty_indices_are_accepted(self):
        assert ad.checked_index(np.array([2, 0], dtype=np.uint8), 3).tolist() == [2, 0]
        assert ad.checked_index(np.asarray([]), 3).shape == (0,)
        empty, no_pairs = np.asarray([]), ad.checked_index(np.asarray([]), 2)
        assert ad.pair_loss(None, constant([0.0, 1.0]), no_pairs, no_pairs, empty, 1.0).item() == 0.0


class TestDeterminism:
    def test_same_inputs_bitwise_identical(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-2, 2, size=(6, 6))
        b = rng.uniform(-2, 2, size=(6, 6))

        def run():
            tape = Tape()
            ta = Tensor(a.copy(), requires_grad=True)
            out = ad.matmul(tape, ta, constant(b.copy()))
            loss = reduce_sum(tape, mul(tape, out, out))
            grads = backward(tape, loss)
            return loss.item(), grads[ta].copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)


class TestOpSetIsClosed:
    @staticmethod
    def public_ops():
        """The public functions of autodiff taking the tape first."""
        return {
            name for name, fn in vars(ad).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == ad.__name__
            and list(inspect.signature(fn).parameters)[:1] == ["tape"]
            and name != "backward"
        }

    def test_every_public_op_has_a_caller_in_src(self):
        ops = self.public_ops()
        called = set()
        package = Path(ad.__file__).parent
        for path in package.glob("*.py"):
            if path.name == "autodiff.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Name):
                    called.add(node.func.id)
                elif isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
                    called.add(node.func.attr)
        assert ops, "no tape ops found"
        assert ops <= called, f"tape ops without a caller in src: {sorted(ops - called)}"

    def test_op_set_is_exactly_the_eight(self):
        assert self.public_ops() == {"matmul", "add", "relu", "layer_norm", "gru", "take_rows",
                                     "attend", "pair_loss"}

    def test_every_scatter_runs_on_1d_operands(self):
        # ufunc.at is fast only on 1-D operands, so autodiff runs each row scatter on its
        # array's flat view, and no other module scatters
        package = Path(ad.__file__).parent
        elsewhere = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
                     if path.name != "autodiff.py"
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "at"]
        assert not elsewhere, f"ufunc.at calls outside autodiff: {elsewhere}"
        ranks = []

        class Recorded:
            """A ufunc whose ``at`` records the rank of each operand."""
            def __init__(self, ufunc):
                self.ufunc = ufunc

            def __call__(self, *args, **kwargs):
                return self.ufunc(*args, **kwargs)

            def at(self, *operands):
                ranks.append(tuple(np.ndim(x) for x in operands))
                self.ufunc.at(*operands)

        class Numpy:
            add, maximum = Recorded(np.add), Recorded(np.maximum)

            def __getattr__(self, name):
                return getattr(np, name)

        rng = np.random.default_rng(7)
        g = random_graph(rng, max_nodes=8)
        cfg = ModelConfig(dim=8, heads=2, layers=2, proj_dim=4)
        model = TrainedModel(params=init_network_params(cfg, rng, random_scorer=True), cfg=cfg,
                             training_log=[])
        eg = EmbeddedGraph(graph=g, h0=rng.normal(size=(len(g.nodes), 8)))
        with mock.patch.object(ad, "np", Numpy()):
            tape = Tape()
            backward(tape, commit_loss(tape, eg, build_pairs(g, True), model.params, cfg))
            rank_commit(model, eg)
        assert ranks and set(ranks) == {(1, 1, 1)}, ranks


def index_calls():
    """Per index argument of each op that indexes: (its checked index, a call of the op with
    ``index`` in its place and valid other inputs, the message that rejects any other index)."""
    x, mu = constant(np.ones((4, 2))), constant(np.ones((2, 1)))
    src, mu_idx = ad.checked_index([1, 3, 0], 4), ad.checked_index([0, 1, 1], 2)
    dst = ad.checked_index([0, 2, 2], 4)
    typed = [(slice(0, 4), constant(np.eye(2)), constant(np.zeros(2)))]
    maps = [(slice(0, 3), constant(np.eye(2)))]
    scores, labels = constant([0.0, 1.0, 2.0]), np.ones(2)
    pair_i, pair_j = ad.checked_index([0, 1], 3), ad.checked_index([2, 2], 3)

    def rejects(op, name, bound):
        return rf"^{op}: {name} must be a CheckedIndex of \[0, {bound}\)$"

    def attend(**index):
        indices = {**dict(src=src, dst=dst, mu_idx=mu_idx), **index}
        return ad.attend(None, x, x, typed, typed, typed, maps, maps, mu, heads=1, **indices)

    return {
        "attend-src": (src, lambda index: attend(src=index), rejects("attend", "src", 4)),
        "attend-dst": (dst, lambda index: attend(dst=index), rejects("attend", "dst", 4)),
        "attend-mu_idx": (mu_idx, lambda index: attend(mu_idx=index),
                          rejects("attend", "mu_idx", 2)),
        "pair_loss-pair_i": (pair_i, lambda index: ad.pair_loss(None, scores, index, pair_j,
                                                                labels, 1.0),
                             rejects("pair_loss", "pair_i", 3)),
        "pair_loss-pair_j": (pair_j, lambda index: ad.pair_loss(None, scores, pair_i, index,
                                                                labels, 1.0),
                             rejects("pair_loss", "pair_j", 3)),
    }


# Arrays made from a checked index, none of them checked themselves.
DERIVED_INDICES = {
    "list": lambda index: index.tolist(),
    "ndarray": lambda index: np.array(index),
    "view": lambda index: index[:],
    "copy": lambda index: index.copy(),
    "plus-zero": lambda index: index + 0,
    "unpickled": lambda index: pickle.loads(pickle.dumps(index)),
    "other-bound": lambda index: ad.checked_index(index, index.bound + 1),
}


class TestOneIndexPath:
    """Each op that indexes takes only the checked index of the length it indexes."""

    @pytest.mark.parametrize("target", list(index_calls()))
    def test_the_checked_index_is_taken(self, target):
        index, call, _message = index_calls()[target]
        call(index)

    @pytest.mark.parametrize("derive", list(DERIVED_INDICES))
    @pytest.mark.parametrize("target", list(index_calls()))
    def test_any_other_index_is_rejected_naming_the_op(self, target, derive):
        index, call, message = index_calls()[target]
        derived = DERIVED_INDICES[derive](index)
        assert np.array_equal(derived, index)
        with pytest.raises(ValueError, match=message):
            call(derived)



class TestCheckedIndices:
    """Ops take only indices checked once, where they are made (a plan's arrays,
    ``build_pairs``' pairs), or runs of rows as slices, checked by arithmetic; a run gathers
    the rows an index array of them does."""

    def test_a_checked_index_of_another_length_is_rejected(self):
        x = constant(np.ones((3, 2)))
        index = ad.checked_index([0, 3], 4)
        assert type(index) is CheckedIndex and index.bound == 4 and not index.flags.writeable
        typed = [(slice(0, 3), constant(np.eye(2)), constant(np.zeros(2)))]
        with pytest.raises(ValueError, match=r"^attend: src must be a CheckedIndex of \[0, 3\)$"):
            ad.attend(None, x, x, typed, typed, typed, [], [], constant(np.ones((1, 1))), index,
                      ad.checked_index([0, 1], 3), ad.checked_index([0, 0], 1), 1)
        with pytest.raises(ValueError, match=r"^pair_loss: pair_i must be a CheckedIndex of \[0, 3\)$"):
            ad.pair_loss(None, constant(np.ones(3)), index, index, np.ones(2), 1.0)
        with pytest.raises(ValueError, match=r"^indices must lie in \[0, 4\)$"):
            ad.checked_index([0, 4], 4)

    def test_a_slice_gather_equals_an_array_gather(self):
        # forward equal; the backward of a gather through a slice adds into zeros, as
        # ufunc.at does: a -0.0 output gradient leaves +0.0
        a = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        g = np.array([[-0.0, 2.0], [3.0, -0.0]])
        runs = []
        for take, index in ((ad.take_rows, slice(1, 3)), (gather, ad.checked_index([1, 2], 4))):
            tape = Tape()
            picked = take(tape, a, index)
            runs.append((picked.data, backward(tape, scalarize(tape, picked, g))[a]))
        for got, want in zip(*runs):
            assert_same_bits(got, want)
        assert not np.signbit(runs[0][1]).any()

    @pytest.mark.parametrize("rows", [slice(0, 0), slice(4, 4), slice(0, 4), slice(3, 4)],
                             ids=["empty-at-the-start", "empty-at-the-end", "all", "last"])
    def test_runs_within_the_rows_are_taken(self, rows):
        a = constant(np.arange(8.0).reshape(4, 2))
        assert np.array_equal(ad.take_rows(None, a, rows).data, a.data[rows])

    @pytest.mark.parametrize("index", [
        pytest.param(slice(None, 2), id="open-start"),
        pytest.param(slice(1, None), id="open-stop"),
        pytest.param(slice(0, 4, 1), id="step"),
        pytest.param(slice(0.0, 2.0), id="float-bounds"),
        pytest.param(slice(False, 2), id="bool-start"),
        pytest.param(slice(0, True), id="bool-stop"),
        pytest.param(slice(2, 5), id="past-the-end"),
        pytest.param(slice(-1, 2), id="negative-start"),
        pytest.param(slice(3, 1), id="start-after-stop"),
        pytest.param(ad.checked_index([0, 1, 2, 3], 4)[1:3], id="checked-index-view"),
        pytest.param(ad.checked_index([1, 2], 4), id="checked-index"),
    ])
    def test_gathers_by_anything_but_a_run_within_the_rows_are_rejected(self, index):
        a = constant(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="^take_rows: "):
            ad.take_rows(None, a, index)

    def test_a_used_plan_keeps_only_its_index_arrays(self):
        # the plan of a 300-node, 871-edge commit, after a training step and a ranking, holds
        # O(n + E) integers; one width-64 flat scatter index over its edges would be
        # 8 * 64 * E = 446,000 bytes
        g = generate(GenConfig(n_commits=1, deleted_per_commit=200, added_per_commit=100,
                               edge_density=0.01, seed=101)).graphs[0]
        n, e = len(g.nodes), len(g.edges)
        assert (n, e) == (300, 871)
        cfg = ModelConfig(dim=64, heads=8, layers=2)
        model = TrainedModel(params=init_network_params(cfg, np.random.default_rng(101)),
                             cfg=cfg, training_log=[])
        eg = embed_graph(g, HashingEmbedder(64))
        pairs = build_pairs(g)
        # numpy's own tracemalloc domain holds array buffers only, not Python objects that
        # interpreter free lists keep
        arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        with traced_allocations():
            before = tracemalloc.take_snapshot().filter_traces(arrays)
            plan = eg.plan
            tape = Tape()
            backward(tape, commit_loss(tape, eg, pairs, model.params, cfg))
            ranked = rank_commit(model, eg)
            del tape, ranked
            after = tracemalloc.take_snapshot().filter_traces(arrays)
        retained = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        held = sum(arr.nbytes for arr in (plan.src, plan.dst, plan.mu_idx, plan.node_ids))
        assert held == 8 * (n + 3 * e)
        bound = 8 * 8 * (n + e)             # eight integers per node and per edge
        assert held <= retained < bound < 8 * 64 * e, f"{retained} bytes retained, over {bound}"
        assert plan is eg.plan
