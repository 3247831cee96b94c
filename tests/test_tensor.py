import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from scriptsum.errors import ConfigError, NumericsError, ShapeError, StateError
from scriptsum.tensor import (
    Tensor,
    add,
    attention,
    backward,
    concat,
    cross_entropy,
    dropout,
    embed,
    gather,
    grad_check,
    layernorm,
    matmul,
    mean_all,
    mul,
    no_grad,
    relu,
    reshape,
    scale,
    sigmoid,
    softmax_masked,
    sum_all,
    transpose,
)

from oracles import composed_attention, relative_scores, relative_values

NEG_INF = -1e9


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        out = sigmoid(Tensor(np.zeros((3,))))
        assert np.allclose(out.data, 0.5)

    def test_sigmoid_saturation_is_finite(self):
        out = sigmoid(Tensor(np.array([-1e4, 1e4])))
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, [0.0, 1.0])

    def test_softmax_uniform(self):
        out = softmax_masked(Tensor(np.zeros((1, 4))))
        assert np.allclose(out.data, 0.25)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax_masked(Tensor(rng.standard_normal((5, 7))))
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_softmax_additive_mask_drops_keys(self):
        logits = Tensor(np.zeros((2, 3)))
        mask = np.array([[0.0, NEG_INF, NEG_INF], [0.0, 0.0, NEG_INF]])
        out = softmax_masked(logits, additive_mask=mask)
        assert np.allclose(out.data[0], [1.0, 0.0, 0.0])
        assert np.allclose(out.data[1], [0.5, 0.5, 0.0])

    def test_softmax_fully_masked_row(self):
        logits = Tensor(np.zeros((2, 3)))
        mask = np.array([[0.0, 0.0, 0.0], [NEG_INF, NEG_INF, NEG_INF]])
        with pytest.raises(NumericsError):
            softmax_masked(logits, additive_mask=mask)

    def test_softmax_3d_is_2d_per_head_with_shared_gate_and_mask(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((3, 4, 5))
        mask = np.zeros((4, 5))
        mask[1, 2:] = NEG_INF
        gate = np.abs(rng.standard_normal((4, 5))) + 0.5
        out = softmax_masked(Tensor(logits), additive_mask=mask, scale_matrix=gate)
        for h in range(3):
            per_head = softmax_masked(Tensor(logits[h]), additive_mask=mask, scale_matrix=gate)
            assert np.array_equal(out.data[h], per_head.data)

    @pytest.mark.parametrize("bad", [(3, 4, 5), (5, 4), (4,)])
    def test_softmax_3d_mask_must_be_rows_by_cols(self, bad):
        logits = Tensor(np.zeros((3, 4, 5)))
        with pytest.raises(ShapeError):
            softmax_masked(logits, additive_mask=np.zeros(bad))
        with pytest.raises(ShapeError):
            softmax_masked(logits, scale_matrix=np.ones(bad))

    def test_softmax_scale_matrix_gates_logits(self):
        logits = Tensor(np.array([[1.0, 2.0, 3.0]]))
        gate = np.array([[1.0, 0.0, 1.0]])
        out = softmax_masked(logits, scale_matrix=gate)
        manual = np.exp([1.0, 0.0, 3.0])
        assert np.allclose(out.data[0], manual / manual.sum())

    def test_matmul_identity(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((4, 4)))
        out = matmul(x, Tensor(np.eye(4)))
        assert np.allclose(out.data, x.data)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_cross_entropy_uniform_two_way(self):
        loss = cross_entropy(Tensor(np.zeros((1, 2))), np.array([0]))
        assert np.isclose(float(loss.data), np.log(2.0))

    def test_cross_entropy_validation(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 5]))
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0.5, 1.5]))

    def test_layernorm_standardizes(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((6, 8)) * 3.0 + 5.0)
        out = layernorm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-3)

    def test_embed_lookup(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = embed(table, np.array([2, 0]))
        assert np.allclose(out.data, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]])

    def test_embed_rejects_bad_ids(self):
        table = Tensor(np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            embed(table, np.array([4]))
        with pytest.raises(ShapeError):
            embed(table, np.array([-1]))
        with pytest.raises(ShapeError):
            embed(table, np.array([0.5]))

    def test_gather_pairwise(self):
        table = Tensor(np.arange(6.0).reshape(3, 2))
        idx = np.array([[0, 1], [2, 0]])
        out = gather(table, idx)
        assert out.shape == (2, 2, 2)
        assert np.allclose(out.data[1, 0], [4.0, 5.0])

    def test_relative_scores_and_values_by_hand(self):
        # 1 query, 2 groups, 3 keys over a 2-row table; keys 0 and 2 share row 1
        table = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
        idx = np.array([[1, 0, 1]])
        q = Tensor(np.array([[[3.0, 5.0], [-1.0, 1.0]]]))
        assert np.array_equal(relative_scores(q, table, idx).data, [[[10.0, 3.0, 10.0]], [[2.0, -1.0, 2.0]]])
        alpha = Tensor(np.array([[[0.5, 0.25, 0.25]], [[0.0, 1.0, 0.0]]]))
        assert np.array_equal(relative_values(alpha, table, idx).data, [[[0.25, 1.5], [1.0, 0.0]]])

    @pytest.mark.parametrize("bad", [np.array([[0, 2]]), np.array([[-1, 0]]), np.array([[0.0, 1.0]])])
    def test_relative_ops_reject_bad_ids(self, bad):
        table = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            relative_scores(Tensor(np.zeros((1, 4, 3))), table, bad)
        with pytest.raises(ShapeError):
            relative_values(Tensor(np.zeros((4, 1, 2))), table, bad)

    def test_relative_ops_reject_bad_shapes(self):
        table = Tensor(np.zeros((2, 3)))
        idx = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ShapeError):  # query rows != index rows
            relative_scores(Tensor(np.zeros((3, 1, 3))), table, idx)
        with pytest.raises(ShapeError):  # query width != table width
            relative_scores(Tensor(np.zeros((2, 1, 4))), table, idx)
        with pytest.raises(ShapeError):  # weights (1, 2, 3) over a (2, 2) index
            relative_values(Tensor(np.zeros((1, 2, 3))), table, idx)
        with pytest.raises(ShapeError):
            relative_values(Tensor(np.zeros((2, 2))), table, idx)


class TestHandGradients:
    def test_sum_of_matmul_outer_product(self):
        # f(W) = sum(W @ x) has dW = 1 x^T replicated down the rows
        w = Tensor(np.zeros((2, 2)), requires_grad=True)
        x = Tensor(np.array([[3.0], [5.0]]))
        loss = sum_all(matmul(w, x))
        backward(loss)
        assert np.allclose(w.grad, [[3.0, 5.0], [3.0, 5.0]])

    def test_constant_operands_get_no_gradient(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        c = Tensor(np.array([[2.0], [-1.0]]))
        backward(sum_all(matmul(matmul(x, w), c)))
        assert x.grad is None and c.grad is None
        assert np.array_equal(w.grad, x.data.T @ np.ones((2, 1)) @ c.data.T)

    def test_sigmoid_grad_at_zero(self):
        x = Tensor(np.zeros((1,)), requires_grad=True)
        backward(sum_all(sigmoid(x)))
        assert np.allclose(x.grad, 0.25)

    def test_relu_gate(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        backward(sum_all(relu(x)))
        assert np.allclose(x.grad, [0.0, 1.0])

    def test_add_broadcast_bias(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        b = Tensor(np.zeros((2,)), requires_grad=True)
        backward(sum_all(add(x, b)))
        assert np.allclose(x.grad, 1.0)
        assert np.allclose(b.grad, [3.0, 3.0])

    def test_scale_constant(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        backward(sum_all(scale(x, -2.5)))
        assert np.allclose(x.grad, -2.5)

    def test_embed_accumulates_repeated_ids(self):
        table = Tensor(np.zeros((3, 2)), requires_grad=True)
        backward(sum_all(embed(table, np.array([1, 1, 2]))))
        assert np.allclose(table.grad, [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        backward(sum_all(mul(x, x)))
        assert np.allclose(x.grad, 4.0)


class TestFiniteDifferences:
    def test_primitive_suite(self):
        rng = np.random.default_rng(7)
        cases = [
            lambda a, b: sum_all(matmul(a, b)),
            lambda a, b: sum_all(add(a, b)),
            lambda a, b: sum_all(mul(a, b)),
        ]
        for f in cases:
            a = rand(rng, 3, 3)
            b = rand(rng, 3, 3)
            report = grad_check(f, [a, b])
            assert report.passed, report

    def test_unary_suite(self):
        rng = np.random.default_rng(8)
        for f in (
            lambda a: sum_all(sigmoid(a)),
            lambda a: sum_all(relu(a)),
            lambda a: mean_all(a),
            lambda a: sum_all(softmax_masked(a)),
            lambda a: sum_all(reshape(a, (9,))),
            lambda a: sum_all(transpose(a, (1, 0))),
        ):
            report = grad_check(f, rand(rng, 3, 3))
            assert report.passed, report

    def test_softmax_weighted_readout(self):
        # uniform upstream grad makes softmax grads vanish; weight the output
        rng = np.random.default_rng(12)
        w = rng.standard_normal((3, 4))

        def f(a):
            return sum_all(mul(softmax_masked(a), Tensor(w)))

        assert grad_check(f, rand(rng, 3, 4)).passed

    def test_layernorm_grads(self):
        rng = np.random.default_rng(9)
        x = rand(rng, 4, 6)
        gain = Tensor(rng.standard_normal(6), requires_grad=True)
        bias = Tensor(rng.standard_normal(6), requires_grad=True)
        w = rng.standard_normal((4, 6))

        def f(x_, g_, b_):
            return sum_all(mul(layernorm(x_, g_, b_), Tensor(w)))

        assert grad_check(f, [x, gain, bias]).passed

    def test_cross_entropy_grads(self):
        rng = np.random.default_rng(10)
        targets = np.array([1, 0, 2])

        def f(a):
            return cross_entropy(a, targets)

        assert grad_check(f, rand(rng, 3, 4)).passed

    def test_concat_and_embed_grads(self):
        rng = np.random.default_rng(11)
        ids = np.array([0, 2, 1])
        w = rng.standard_normal((3, 3 + 2))

        def f(a, b):
            joined = concat([embed(a, ids), b], axis=1)
            return sum_all(mul(joined, Tensor(w)))

        table = rand(rng, 4, 3)
        other = rand(rng, 3, 2)
        assert grad_check(f, [table, other]).passed

    def test_masked_softmax_grads(self):
        rng = np.random.default_rng(13)
        mask = np.zeros((3, 4))
        mask[0, 3] = NEG_INF
        gate = np.abs(rng.standard_normal((3, 4))) + 0.5
        w = rng.standard_normal((3, 4))

        def f(a):
            out = softmax_masked(a, additive_mask=mask, scale_matrix=gate)
            return sum_all(mul(out, Tensor(w)))

        assert grad_check(f, rand(rng, 3, 4)).passed

    def test_masked_softmax_3d_grads_with_shared_gate_and_mask(self):
        rng = np.random.default_rng(14)
        mask = np.zeros((3, 4))
        mask[0, 3] = NEG_INF
        gate = np.abs(rng.standard_normal((3, 4))) + 0.5
        w = rng.standard_normal((2, 3, 4))

        def f(a):
            out = softmax_masked(a, additive_mask=mask, scale_matrix=gate)
            return sum_all(mul(out, Tensor(w)))

        assert grad_check(f, rand(rng, 2, 3, 4)).passed

    def test_relative_scores_grads(self):
        rng = np.random.default_rng(15)
        idx = rng.integers(0, 3, (4, 5))  # 20 pairs over 3 rows: rows repeat
        w = rng.standard_normal((2, 4, 5))

        def f(q_, table_):
            return sum_all(mul(relative_scores(q_, table_, idx), Tensor(w)))

        report = grad_check(f, [rand(rng, 4, 2, 3), rand(rng, 3, 3)])
        assert report.passed, report

    def test_relative_values_grads(self):
        rng = np.random.default_rng(16)
        idx = rng.integers(0, 3, (4, 5))
        w = rng.standard_normal((4, 2, 3))

        def f(alpha_, table_):
            return sum_all(mul(relative_values(alpha_, table_, idx), Tensor(w)))

        report = grad_check(f, [rand(rng, 2, 4, 5), rand(rng, 3, 3)])
        assert report.passed, report


class TestGraphMechanics:
    def test_double_backward_rejected(self):
        x = Tensor(np.ones((2,)), requires_grad=True)
        loss = sum_all(x)
        backward(loss)
        with pytest.raises(StateError):
            backward(loss)

    def test_backward_frees_the_graph_without_the_cycle_collector(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        gc.disable()
        try:
            hidden = sigmoid(matmul(x, x))
            freed = weakref.ref(hidden.data)
            loss = sum_all(relu(hidden))
            del hidden
            assert freed() is not None
            backward(loss)
            assert freed() is None
        finally:
            gc.enable()
        assert x.grad is not None

    def test_backward_through_consumed_graph_rejected(self):
        x = Tensor(np.ones((2,)), requires_grad=True)
        hidden = sigmoid(x)
        backward(sum_all(hidden))
        first = x.grad.copy()
        with pytest.raises(StateError):
            backward(sum_all(scale(hidden, 2.0)))
        assert np.array_equal(x.grad, first)
        # leaves are never consumed: a fresh graph over x runs again
        backward(sum_all(x))
        assert np.array_equal(x.grad, first + 1.0)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2,)), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(add(x, x))

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones((2,)), requires_grad=True)
        with no_grad():
            out = sum_all(sigmoid(x))
        assert out._parents == ()
        backward(out)
        assert x.grad is None

    def test_no_grad_restores_state(self):
        x = Tensor(np.ones((2,)), requires_grad=True)
        with no_grad():
            pass
        backward(sum_all(x))
        assert np.allclose(x.grad, 1.0)

    def test_shared_subexpression_counted_once_per_path(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = sigmoid(x)
        loss = sum_all(add(y, y))
        backward(loss)
        s = 1.0 / (1.0 + np.exp(-3.0))
        assert np.allclose(x.grad, 2.0 * s * (1.0 - s))


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = dropout(x, 0.5, None, training=False)
        assert out is x

    def test_zero_probability_is_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert dropout(x, 0.0, np.random.default_rng(0), training=True) is x

    def test_invalid_probability(self):
        x = Tensor(np.ones((2,)))
        with pytest.raises(ConfigError):
            dropout(x, 1.0, np.random.default_rng(0), training=True)
        with pytest.raises(ConfigError):
            dropout(x, -0.1, np.random.default_rng(0), training=True)

    def test_training_requires_rng(self):
        x = Tensor(np.ones((2,)))
        with pytest.raises(ConfigError):
            dropout(x, 0.5, None, training=True)

    def test_inverted_scaling_preserves_expectation(self):
        rng = np.random.default_rng(42)
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.3, rng, training=True)
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 1.0 / 0.7)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_mask_reused_in_backward(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones((8, 8)), requires_grad=True)
        out = dropout(x, 0.5, rng, training=True)
        backward(sum_all(out))
        assert np.array_equal((x.grad > 0), (out.data > 0))


ATTENTION_CASES = (
    "no_tables",
    "one_table",
    "two_tables",
    "groups_of_beams",
    "multiply_gate",
    "neg_inf_gate",
    "causal",
    "dropout",
)


def _attention_case(case, rng):
    """(q, k, v, tables, keyword arguments) of one tensor.attention call;
    tables hold (table_k, table_v, idx) with 5- and 3-row tables."""
    n_q, n_k, groups, d = 4, 5, 2, 3
    if case == "groups_of_beams":  # a decoder step: 3 beams of 2 heads, one new position
        n_q, groups = 1, 6
    if case == "causal":
        n_k = n_q
    n_tables = {"no_tables": 0, "one_table": 1}.get(case, 2)
    q, k, v = (rng.standard_normal((n, groups, d)) for n in (n_q, n_k, n_k))
    tables = [
        (rng.standard_normal((rows, d)), rng.standard_normal((rows, d)), rng.integers(0, rows, (n_q, n_k)))
        for rows in (5, 3)[:n_tables]
    ]
    gate = rng.uniform(0.5, 2.0, (n_q, n_k)) * (rng.random((n_q, n_k)) < 0.6)
    gate[:, 0] = 1.0
    kwargs = {
        "multiply_gate": dict(scale_matrix=gate),
        "neg_inf_gate": dict(additive_mask=np.where(gate > 0, 0.0, NEG_INF)),
        "causal": dict(additive_mask=np.triu(np.full((n_q, n_k), NEG_INF), k=1)),
        "dropout": dict(dropout_p=0.3, training=True),
    }.get(case, {})
    return q, k, v, tables, kwargs


class TestAttention:
    @staticmethod
    def _run(op, q0, k0, v0, tables0, kwargs, w):
        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in (q0, k0, v0))
        tables = [(Tensor(tk.copy(), requires_grad=True), Tensor(tv.copy(), requires_grad=True), idx)
                  for tk, tv, idx in tables0]
        captured = []
        rng = np.random.default_rng(7) if kwargs.get("training") else None
        out = op(q, k, v, tables, rng=rng, capture=captured, **kwargs)
        backward(sum_all(mul(out, Tensor(w))))
        grads = [q.grad, k.grad, v.grad] + [t.grad for tk, tv, _ in tables for t in (tk, tv)]
        return out.data, grads, captured

    @pytest.mark.parametrize("case", ATTENTION_CASES)
    def test_equals_composed_ops_bit_for_bit(self, case):
        """Output, captured weights and the gradient of q, k, v and every
        table equal the composition of one op per step exactly."""
        rng = np.random.default_rng(ATTENTION_CASES.index(case))
        q0, k0, v0, tables0, kwargs = _attention_case(case, rng)
        w = rng.standard_normal(q0.shape)
        out, grads, captured = self._run(attention, q0, k0, v0, tables0, kwargs, w)
        ref_out, ref_grads, ref_captured = self._run(composed_attention, q0, k0, v0, tables0, kwargs, w)
        assert np.array_equal(out, ref_out)
        assert len(grads) == 3 + 2 * len(tables0)
        for mine, ref in zip(grads, ref_grads):
            assert np.array_equal(mine, ref)
        assert len(captured) == q0.shape[1]
        assert all(np.array_equal(a, b) for a, b in zip(captured, ref_captured))

    def test_grad_check(self):
        rng = np.random.default_rng(20)
        q0, k0, v0, tables0, _ = _attention_case("two_tables", rng)
        gate = rng.uniform(0.5, 2.0, (4, 5))
        mask = np.zeros((4, 5))
        mask[1, 2] = NEG_INF
        w = rng.standard_normal(q0.shape)

        def f(q, k, v, sk, sv, tk, tv):
            tables = [(sk, sv, tables0[0][2]), (tk, tv, tables0[1][2])]
            out = attention(q, k, v, tables, additive_mask=mask, scale_matrix=gate,
                            dropout_p=0.25, rng=np.random.default_rng(3), training=True)
            return sum_all(mul(out, Tensor(w)))

        points = [Tensor(a) for a in (q0, k0, v0) + tuple(t for tk, tv, _ in tables0 for t in (tk, tv))]
        report = grad_check(f, points)
        assert report.passed, report

    def test_per_group_mask_equals_each_group_alone(self):
        """A (groups, n_q, n_k) mask masks each group on its own: the output
        and the q, k, v gradients equal attention over each group alone with
        its own (n_q, n_k) mask, and one fully masked row in any group
        raises."""
        rng = np.random.default_rng(21)
        n_q, n_k, groups, d = 3, 6, 4, 5
        q0, k0, v0 = (rng.standard_normal((n, groups, d)) for n in (n_q, n_k, n_k))
        mask = np.where(rng.random((groups, n_q, n_k)) < 0.4, NEG_INF, 0.0)
        mask[:, :, 0] = 0.0
        w = rng.standard_normal(q0.shape)
        out, grads, _ = self._run(attention, q0, k0, v0, [], dict(additive_mask=mask), w)
        for g in range(groups):
            one = np.s_[:, g:g + 1]
            out_g, grads_g, _ = self._run(attention, q0[one], k0[one], v0[one], [], {"additive_mask": mask[g]}, w[one])
            assert np.array_equal(out[one], out_g)
            for mine, ref in zip(grads, grads_g):
                assert np.array_equal(mine[one], ref)
        mask[2, 1] = NEG_INF
        with pytest.raises(NumericsError):
            attention(Tensor(q0), Tensor(k0), Tensor(v0), additive_mask=mask)

    @staticmethod
    def _large_case(rng, n=300, groups=4, d=8):
        """A call at the size where in-place work matters: groups 4, n_q =
        n_k = 300, a 33-row and a 9-row table, a scale matrix and a
        per-group additive mask."""
        q, k, v = (rng.standard_normal((n, groups, d)) for _ in range(3))
        tables = [(rng.standard_normal((rows, d)), rng.standard_normal((rows, d)), rng.integers(0, rows, (n, n)))
                  for rows in (33, 9)]
        gate = rng.uniform(0.5, 2.0, (n, n)) * (rng.random((n, n)) < 0.7)
        mask = np.where(rng.random((groups, n, n)) < 0.2, NEG_INF, 0.0)
        mask[:, :, 0] = 0.0
        return q, k, v, tables, dict(scale_matrix=gate, additive_mask=mask)

    def test_large_call_equals_composed_ops_bit_for_bit(self):
        """In-place arithmetic keeps every bit at (groups 4, n 300), with
        both tables, the gate, a per-group mask and dropout in training."""
        rng = np.random.default_rng(22)
        q0, k0, v0, tables0, kwargs = self._large_case(rng)
        kwargs.update(dropout_p=0.2, training=True)
        w = rng.standard_normal(q0.shape)
        out, grads, captured = self._run(attention, q0, k0, v0, tables0, kwargs, w)
        ref_out, ref_grads, ref_captured = self._run(composed_attention, q0, k0, v0, tables0, kwargs, w)
        assert np.array_equal(out, ref_out)
        assert len(grads) == 7 and all(np.array_equal(a, b) for a, b in zip(grads, ref_grads))
        assert all(np.array_equal(a, b) for a, b in zip(captured, ref_captured))

    def test_inputs_are_only_read(self):
        """attention and softmax_masked write in place only into arrays of
        their own: the inputs, tables, ids, masks, gate and the incoming
        gradient keep their bytes through forward and backward."""
        rng = np.random.default_rng(23)
        q0, k0, v0, tables0, kwargs = self._large_case(rng, n=40)
        logits0 = rng.standard_normal((4, 40, 40))
        arrays = [q0, k0, v0, logits0, *(a for table in tables0 for a in table), *kwargs.values()]
        before = [a.copy() for a in arrays]
        q, k, v = (Tensor(a, requires_grad=True) for a in (q0, k0, v0))  # Tensor shares float64 data
        tables = [(Tensor(tk, requires_grad=True), Tensor(tv, requires_grad=True), idx) for tk, tv, idx in tables0]
        out = attention(q, k, v, tables, dropout_p=0.2, rng=np.random.default_rng(7), training=True, **kwargs)
        gate, mask = kwargs["scale_matrix"], kwargs["additive_mask"][0]
        weights = softmax_masked(Tensor(logits0, requires_grad=True), additive_mask=mask, scale_matrix=gate)
        w_out, w_weights = rng.standard_normal(out.shape), rng.standard_normal(weights.shape)
        backward(add(sum_all(mul(out, Tensor(w_out))), sum_all(mul(weights, Tensor(w_weights)))))
        assert q.data is q0 and np.array_equal(out.grad, w_out) and np.array_equal(weights.grad, w_weights)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))

    def test_peak_allocation_of_a_large_call(self):
        """One no-grad call with two tables and a scale matrix at (groups
        4, n 300) peaks at 2.82 score-sized arrays: the scores, one
        scratch array and each table's flat index (a quarter each), plus
        the small per-table products. A copy per elementwise pass, as
        before the passes ran in place, peaked at 4.03."""
        rng = np.random.default_rng(24)
        q0, k0, v0, tables0, kwargs = self._large_case(rng, d=16)
        q, k, v = Tensor(q0), Tensor(k0), Tensor(v0)
        tables = [(Tensor(tk), Tensor(tv), idx) for tk, tv, idx in tables0]
        score_bytes = 4 * 300 * 300 * 8
        with no_grad():
            attention(q, k, v, tables, scale_matrix=kwargs["scale_matrix"])
            tracemalloc.start()
            try:
                attention(q, k, v, tables, scale_matrix=kwargs["scale_matrix"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 2.85 * score_bytes, f"peak {peak / score_bytes:.3f} score arrays"

    def test_rejects_bad_inputs(self):
        q, kv = Tensor(np.zeros((2, 1, 3))), Tensor(np.zeros((4, 1, 3)))
        table = Tensor(np.zeros((5, 3)))
        ok_idx = np.zeros((2, 4), dtype=np.int64)
        for bad_idx in (np.full((2, 4), 5), np.full((2, 4), -1), np.zeros((2, 4)), np.zeros((2, 3), dtype=np.int64)):
            with pytest.raises(ShapeError):
                attention(q, kv, kv, [(table, table, bad_idx)])
        with pytest.raises(ShapeError):  # table width != query width
            attention(q, kv, kv, [(Tensor(np.zeros((5, 2))), Tensor(np.zeros((5, 2))), ok_idx)])
        with pytest.raises(ShapeError):  # keys and values differ
            attention(q, kv, Tensor(np.zeros((3, 1, 3))))
        with pytest.raises(ShapeError):  # groups differ
            attention(q, Tensor(np.zeros((4, 2, 3))), Tensor(np.zeros((4, 2, 3))))
        with pytest.raises(ShapeError):  # a mask for two groups
            attention(q, kv, kv, additive_mask=np.zeros((2, 2, 4)))
        with pytest.raises(NumericsError):
            attention(q, kv, kv, additive_mask=np.full((2, 4), NEG_INF))
        with pytest.raises(ConfigError):
            attention(q, kv, kv, dropout_p=0.5, training=True)


class TestGradCheckHarness:
    def test_detects_inconsistent_gradient(self):
        # the graph pass sees sum(a*a) but difference probes see sum(2*a*a),
        # so the autodiff gradient is off by 2x and the check must fail
        calls = {"n": 0}

        def f(a):
            calls["n"] += 1
            factor = 1.0 if calls["n"] == 1 else 2.0
            return sum_all(mul(scale(a, factor), a))

        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        report = grad_check(f, x)
        assert not report.passed
        assert report.max_rel_error > 0.4

    def test_epsilon_and_tolerance_are_configurable(self):
        x = Tensor(np.array([0.3]), requires_grad=True)
        report = grad_check(lambda a: sum_all(sigmoid(a)), x, tolerance=1e-6, epsilon=1e-6)
        assert report.tolerance == 1e-6
