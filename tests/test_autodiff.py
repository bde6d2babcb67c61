"""Unit tests for the reverse-mode engine and every primitive."""

import contextlib
import itertools
import weakref

import numpy as np
import pytest

from bijepa import autodiff as ad
from bijepa.autodiff import (
    DegenerateEmbeddingError, GraphConsumedError, ShapeError,
    Tensor, add, backward, batch_norm2d, conv2d, flatten, layer_norm, linear,
    mse_loss, mul, relu, scale, softmax_cross_entropy, sphere_project,
    stop_gradient, sum_all,
)

from helpers import check_grads, garbage_cycles_after, naive_conv2d, numeric_grad, rel_err


class TestLinear:
    def test_identity(self):
        y = linear(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        assert np.array_equal(y.values, np.eye(2))

    def test_affine_values(self):
        # [1,2] @ I + [3,4]
        y = linear(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([3.0, 4.0]))
        assert np.array_equal(y.values, [[4.0, 6.0]])

    def test_w_grad_is_x(self):
        x = Tensor([[2.0]])
        w = Tensor([[5.0]], requires_grad=True)
        loss = sum_all(linear(x, w, Tensor([0.0])))
        loss.backward()
        assert np.allclose(w.grad, [[2.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            linear(Tensor([[1.0, 2.0]]), Tensor(np.eye(3)), Tensor(np.zeros(3)))

    def test_gradcheck(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.standard_normal((3, 4))
            w = rng.standard_normal((4, 2))
            b = rng.standard_normal(2)
            check_grads(linear, [x, w, b], rng)


class TestRelu:
    def test_sign_cases(self):
        y = relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(y.values, [0.0, 0.0, 2.0])

    def test_positive_passthrough(self):
        x = np.array([0.5, 3.0, 1e6])
        assert np.array_equal(relu(Tensor(x)).values, x)

    def test_grad_mask(self):
        x = Tensor([-3.0, 4.0], requires_grad=True)
        sum_all(relu(x)).backward()
        assert np.array_equal(x.grad, [0.0, 1.0])


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        y = layer_norm(Tensor([[5.0, 5.0, 5.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(y.values, 0.0)

    def test_two_point_row(self):
        # mean 2, biased variance 1, eps 1e-5
        y = layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(y.values, np.array([[-1.0, 1.0]]) / np.sqrt(1.0 + 1e-5))

    def test_gamma_zero_gives_beta(self):
        beta = np.array([7.0, 8.0])
        y = layer_norm(Tensor([[1.0, 2.0]]), Tensor(np.zeros(2)), Tensor(beta))
        assert np.allclose(y.values, [beta])

    def test_row_statistics(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((16, 8)) * 5.0 + 2.0
        y = layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        var = x.var(axis=1)
        assert np.abs(y.values.mean(axis=1)).max() < 1e-9
        assert np.abs(y.values.var(axis=1) - var / (var + 1e-5)).max() < 1e-6

    def test_gradcheck(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = rng.standard_normal((4, 6))
            g = rng.standard_normal(6)
            b = rng.standard_normal(6)
            check_grads(layer_norm, [x, g, b], rng)


class TestConv2d:
    def test_half_image_shape(self):
        x = Tensor(np.zeros((1, 1, 28, 14)))
        k = Tensor(np.zeros((32, 1, 3, 3)))
        y = conv2d(x, k, Tensor(np.zeros(32)))
        assert y.shape == (1, 32, 14, 7)

    def test_chained_shapes_flatten_to_1792(self):
        x = Tensor(np.zeros((2, 1, 28, 14)))
        y1 = conv2d(x, Tensor(np.zeros((32, 1, 3, 3))), Tensor(np.zeros(32)))
        y2 = conv2d(y1, Tensor(np.zeros((64, 32, 3, 3))), Tensor(np.zeros(64)))
        assert y2.shape == (2, 64, 7, 4)
        assert flatten(y2).shape == (2, 1792)

    def test_zero_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        y = conv2d(x, Tensor(np.zeros((4, 3, 3, 3))), Tensor(np.zeros(4)))
        assert np.array_equal(y.values, np.zeros((2, 4, 4, 4)))

    def test_single_pixel_center_weight(self):
        # pixel at (2,2) seen by the kernel center at output (1,1) with stride 2
        x = np.zeros((1, 1, 5, 5))
        x[0, 0, 2, 2] = 3.0
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 0.5
        y = conv2d(Tensor(x), Tensor(k), Tensor(np.zeros(1)))
        expected = np.zeros((1, 1, 3, 3))
        expected[0, 0, 1, 1] = 1.5
        assert np.allclose(y.values, expected)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            x = rng.standard_normal((2, 3, 7, 6))
            k = rng.standard_normal((4, 3, 3, 3))
            b = rng.standard_normal(4)
            fast = conv2d(Tensor(x), Tensor(k), Tensor(b)).values
            assert np.allclose(fast, naive_conv2d(x, k, b), atol=1e-12)

    def test_non4d_rejected(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((3, 3))), Tensor(np.zeros((1, 1, 3, 3))),
                   Tensor(np.zeros(1)))

    def test_gradcheck(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            x = rng.standard_normal((2, 2, 5, 4))
            k = rng.standard_normal((3, 2, 3, 3))
            b = rng.standard_normal(3)
            check_grads(conv2d, [x, k, b], rng)


class TestBatchNorm2d:
    def test_constant_channel_train(self):
        x = np.full((4, 1, 2, 2), 3.7)
        y = batch_norm2d(Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                         np.zeros(1), np.ones(1), training=True)
        assert np.abs(y.values).max() < 1e-3  # eps-guarded zero

    def test_eval_identity_stats(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4, 4))
        y = batch_norm2d(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                         np.zeros(3), np.ones(3), training=False)
        assert np.allclose(y.values, x, atol=1e-4)

    def test_two_sample_channel(self):
        # values 0 and 2: mean 1, biased variance 1, eps 1e-5
        x = np.array([0.0, 2.0]).reshape(2, 1, 1, 1)
        y = batch_norm2d(Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                         np.zeros(1), np.ones(1), training=True)
        assert np.allclose(y.values.reshape(-1), np.array([-1.0, 1.0]) / np.sqrt(1.0 + 1e-5))

    def test_running_stats_update(self):
        x = np.array([0.0, 2.0]).reshape(2, 1, 1, 1)
        mean, var = np.zeros(1), np.ones(1)
        batch_norm2d(Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                     mean, var, training=True)
        # 0.9*0 + 0.1*1 and 0.9*1 + 0.1*1
        assert np.allclose(mean, [0.1])
        assert np.allclose(var, [1.0])

    def test_batch_of_one_rejected(self):
        with pytest.raises(ShapeError):
            batch_norm2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.ones(1)),
                         Tensor(np.zeros(1)), np.zeros(1), np.ones(1), training=True)

    def test_gradcheck_train(self):
        rng = np.random.default_rng(14)
        for _ in range(3):
            x = rng.standard_normal((3, 2, 3, 2))
            g = rng.standard_normal(2)
            b = rng.standard_normal(2)

            def op(xt, gt, bt):
                return batch_norm2d(xt, gt, bt, np.zeros(2), np.ones(2), training=True)

            check_grads(op, [x, g, b], rng)


class TestMseLoss:
    def test_zero_on_equal(self):
        x = np.array([1.0, 2.0, 3.0])
        assert mse_loss(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_mean_of_squares(self):
        loss = mse_loss(Tensor([0.0, 0.0]), Tensor([1.0, 1.0]))
        assert loss.item() == 1.0

    def test_gradient_value(self):
        # 2*(3-1)/1 = 4
        p = Tensor([3.0], requires_grad=True)
        mse_loss(p, Tensor([1.0])).backward()
        assert np.allclose(p.grad, [4.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_gradcheck(self):
        rng = np.random.default_rng(15)
        p = rng.standard_normal((4, 3))
        t = rng.standard_normal((4, 3))
        pt = Tensor(p, requires_grad=True)
        mse_loss(pt, Tensor(t)).backward()
        num = numeric_grad(lambda x: float(((x - t) ** 2).mean()), p)
        assert rel_err(pt.grad, num) < 1e-4


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((4, 10))), np.arange(4))
        assert abs(loss.item() - 2.302585092994046) < 1e-12

    def test_confident_true_class(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1e4
        loss = softmax_cross_entropy(Tensor(logits), np.array([2]))
        assert loss.item() < 1e-10

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(6)
        logits = Tensor(rng.standard_normal((8, 10)), requires_grad=True)
        softmax_cross_entropy(logits, rng.integers(0, 10, 8)).backward()
        assert np.abs(logits.grad.sum(axis=1)).max() < 1e-12

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_gradcheck(self):
        rng = np.random.default_rng(16)
        logits = rng.standard_normal((5, 7))
        labels = rng.integers(0, 7, 5)
        t = Tensor(logits, requires_grad=True)
        softmax_cross_entropy(t, labels).backward()

        def f(x):
            z = x - x.max(axis=1, keepdims=True)
            lp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return float(-lp[np.arange(5), labels].mean())

        assert rel_err(t.grad, numeric_grad(f, logits)) < 1e-4


class TestBackwardSemantics:
    def test_square_at_three(self):
        x = Tensor([3.0], requires_grad=True)
        sum_all(mul(x, x)).backward()
        assert np.allclose(x.grad, [6.0])

    def test_off_path_tensor_gets_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        z = Tensor([2.0], requires_grad=True)
        sum_all(mul(x, x)).backward()
        assert z.grad is None

    def test_fanout_accumulates(self):
        x = Tensor([5.0], requires_grad=True)
        sum_all(add(x, x)).backward()
        assert np.allclose(x.grad, [2.0])

    def test_three_way_fanout(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = add(add(x, x), x)
        sum_all(y).backward()
        assert np.allclose(x.grad, [3.0, 3.0])

    def test_leaf_loss_gets_unit_grad(self):
        x = Tensor([4.0], requires_grad=True)
        x.backward()
        assert np.array_equal(x.grad, [1.0])
        x.backward()
        assert np.array_equal(x.grad, [2.0])

    def test_consumed_graph_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        loss = sum_all(mul(x, x))
        loss.backward()
        with pytest.raises(GraphConsumedError):
            loss.backward()

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(relu(x))

    def test_grad_accumulates_across_graphs(self):
        x = Tensor([2.0], requires_grad=True)
        sum_all(mul(x, x)).backward()
        sum_all(mul(x, x)).backward()
        assert np.allclose(x.grad, [8.0])

    def test_scale_and_flatten(self):
        x = Tensor(np.arange(6.0).reshape(2, 3, 1), requires_grad=True)
        y = scale(flatten(x), 2.0)
        sum_all(y).backward()
        assert y.shape == (2, 3)
        assert np.array_equal(x.grad, np.full((2, 3, 1), 2.0))


def _bn_train(x, gamma, beta):
    return batch_norm2d(x, gamma, beta, np.zeros(2), np.ones(2), training=True)


def _bn_eval(x, gamma, beta):
    return batch_norm2d(x, gamma, beta, np.array([0.5, -1.0]), np.array([2.0, 0.25]),
                        training=False)


# every primitive, as (op over tensors, input shapes)
_PRIMITIVES = {
    "linear": (linear, [(5, 3), (3, 2), (2,)]),
    "layer_norm": (layer_norm, [(4, 6), (6,), (6,)]),
    "relu": (relu, [(3, 4)]),
    "conv2d": (conv2d, [(2, 1, 6, 4), (2, 1, 3, 3), (2,)]),
    "batch_norm2d_train": (_bn_train, [(3, 2, 4, 4), (2,), (2,)]),
    "batch_norm2d_eval": (_bn_eval, [(3, 2, 4, 4), (2,), (2,)]),
    "mse_loss": (mse_loss, [(4, 3), (4, 3)]),
    "softmax_cross_entropy": (
        lambda z: softmax_cross_entropy(z, np.array([0, 2, 1, 2])), [(4, 3)]),
    "sphere_project": (sphere_project, [(4, 3)]),
    "add": (add, [(2, 3), (2, 3)]),
    "mul": (mul, [(2, 3), (2, 3)]),
    "scale": (lambda x: scale(x, -1.5), [(2, 3)]),
    "sum_all": (sum_all, [(2, 3)]),
    "flatten": (flatten, [(2, 3, 4)]),
}


class TestGradientHandover:
    """backward gives each leaf the gradient array the pass built, without
    a copy: no vjp returns one buffer for two inputs, so no two leaves
    share one."""

    @staticmethod
    def upstream(shape=(2, 3)):
        return np.random.default_rng(45).standard_normal(shape)

    def test_add_of_two_leaves_gives_unshared_arrays(self):
        g = self.upstream()
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        sum_all(mul(add(a, b), Tensor(g))).backward()
        assert same_bits(a.grad, g) and same_bits(b.grad, g)
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
        a.grad *= 3.0
        assert same_bits(b.grad, g)

    def test_flattened_leaf_and_plain_leaf_share_nothing(self):
        # flatten's vjp returns a view of the buffer add hands to both inputs
        g = self.upstream()
        a = Tensor(np.ones((2, 3, 1)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        sum_all(mul(add(flatten(a), b), Tensor(g))).backward()
        assert same_bits(a.grad, g.reshape(2, 3, 1)) and same_bits(b.grad, g)
        assert not np.shares_memory(a.grad, b.grad)

    def test_add_of_one_leaf_twice_gives_twice_the_gradient(self):
        g = self.upstream()
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        sum_all(mul(add(a, a), Tensor(g))).backward()
        assert same_bits(a.grad, g + g)

    def test_second_pass_accumulates_out_of_place(self):
        g = self.upstream()
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        sum_all(mul(a, Tensor(g))).backward()
        first = a.grad
        sum_all(mul(a, Tensor(g))).backward()
        assert a.grad is not first and not np.shares_memory(a.grad, first)
        assert same_bits(first, g) and same_bits(a.grad, g + g)


class TestVjpOutputsShareNothing:
    """The rule the handover relies on: with every input requiring a
    gradient, no two arrays one vjp returns share memory."""

    @pytest.mark.parametrize("name", list(_PRIMITIVES))
    def test_vjp_outputs_unshared(self, name):
        op, shapes = _PRIMITIVES[name]
        rng = np.random.default_rng(46)
        y = op(*[Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes])
        grads = [g for g in y.node.vjp(rng.standard_normal(y.shape)) if g is not None]
        assert len(grads) == len(shapes)
        for a, b in itertools.combinations(grads, 2):
            assert not np.shares_memory(a, b)


class TestGraphLifetime:
    def test_unbackwarded_graph_freed_by_refcount(self):
        def run():
            x = Tensor(np.ones((3, 2)), requires_grad=True)
            h = relu(scale(x, 2.0))
            probe = weakref.ref(h)
            out = sum_all(h)
            del h
            assert probe() is not None  # held by out's graph
            del out
            assert probe() is None

        assert garbage_cycles_after(run) == 0

    def test_backwarded_graph_keeps_only_root(self):
        x = Tensor(np.ones(3), requires_grad=True)
        h = relu(x)
        probe = weakref.ref(h)
        loss = sum_all(h)
        del h
        loss.backward()
        assert probe() is None
        assert loss.node.inputs == () and loss.node.vjp is None

    def test_node_without_gradient_released(self):
        # "block" passes no gradient to h, so h's node receives none;
        # backward must still drop its saved context
        x = Tensor([1.0, -2.0], requires_grad=True)
        h = relu(x)
        blocked = ad._make("block", (h,), h.values.copy(), lambda g: (None,))
        add(sum_all(blocked), sum_all(x)).backward()
        assert h.node.vjp is None and h.node.inputs == ()
        assert np.array_equal(x.grad, [1.0, 1.0])

    def test_output_is_weak(self):
        y = relu(Tensor([1.0], requires_grad=True))
        node = y.node
        assert node.output is y
        del y
        assert node.output is None


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        np.frombuffer(a.tobytes(), np.uint8), np.frombuffer(b.tobytes(), np.uint8))


def forward_and_grads(op, g, *arrays):
    """``op`` over fresh leaf tensors, and the gradient of every input
    for the upstream gradient ``g`` (sum(op(...) * g) passes g exactly)."""
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    y = op(*ts)
    sum_all(mul(y, Tensor(g))).backward()
    return y.values, [t.grad for t in ts]


class TestNoGrad:
    @staticmethod
    def leaves(shapes, seed=50):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]

    @staticmethod
    def records() -> bool:
        return relu(Tensor([1.0], requires_grad=True)).node is not None

    @pytest.mark.parametrize("name", list(_PRIMITIVES))
    def test_forward_bits_without_a_graph(self, name):
        op, shapes = _PRIMITIVES[name]
        recorded = op(*self.leaves(shapes))
        assert recorded.node is not None
        with ad.no_grad():
            out = op(*self.leaves(shapes))
        assert same_bits(out.values, recorded.values)
        assert out.node is None and not out.requires_grad

    def test_modes_unchanged(self):
        x, gamma, beta = self.leaves([(3, 2, 4, 4), (2,), (2,)])
        recorded, free = (np.zeros(2), np.ones(2)), (np.zeros(2), np.ones(2))
        batch_norm2d(x, gamma, beta, *recorded, training=True)
        with ad.no_grad():
            batch_norm2d(x, gamma, beta, *free, training=True)
        assert not np.array_equal(free[0], np.zeros(2))
        assert same_bits(free[0], recorded[0]) and same_bits(free[1], recorded[1])

    def test_state_restored(self):
        assert self.records()
        with ad.no_grad():
            with ad.no_grad():
                assert not self.records()
            assert not self.records()
        assert self.records()
        with pytest.raises(ZeroDivisionError):
            with ad.no_grad():
                1 / 0
        assert self.records()

    def test_graph_after_block_backpropagates(self):
        def grads():
            x, w, b = self.leaves([(5, 3), (3, 2), (2,)])
            sum_all(relu(linear(x, w, b))).backward()
            return [t.grad for t in (x, w, b)]

        before = grads()
        with ad.no_grad():
            x, w, b = self.leaves([(5, 3), (3, 2), (2,)])
            relu(linear(x, w, b))
        assert all(same_bits(g, ref) for g, ref in zip(grads(), before))


# every primitive, plus flatten of a conv output (the conv encoder's tail)
_WRAPPED = {**_PRIMITIVES,
            "flatten_conv2d": (lambda x, k, b: flatten(conv2d(x, k, b)),
                               [(2, 1, 6, 4), (2, 1, 3, 3), (2,)])}
_SCALAR_OUTPUTS = ("mse_loss", "softmax_cross_entropy", "sum_all")
# every slot but __weakref__, which Python fills in itself
_SLOTS = [s for s in Tensor.__slots__ if s != "__weakref__"]


class TestOutputsAreWhatTensorMakes:
    """``_make`` wraps a primitive's array without converting it, so every
    primitive must return what ``Tensor()`` would make of it: C-contiguous
    float64 with at least one axis, shape (1,) for the scalar losses."""

    @pytest.mark.parametrize("recording", [True, False])
    @pytest.mark.parametrize("name", list(_WRAPPED))
    def test_values_and_recording(self, name, recording):
        op, shapes = _WRAPPED[name]
        rng = np.random.default_rng(61)
        arrays = [rng.standard_normal(s) for s in shapes]
        for needs in itertools.product([False, True], repeat=len(shapes)):
            leaves = [Tensor(a, requires_grad=r) for a, r in zip(arrays, needs)]
            with contextlib.nullcontext() if recording else ad.no_grad():
                out = op(*leaves)
            v = out.values
            assert v.dtype == np.float64 and v.flags.c_contiguous and v.ndim >= 1
            if name in _SCALAR_OUTPUTS:
                assert v.shape == (1,)
            records = recording and any(needs)
            assert out.requires_grad is records
            assert (out.node is not None) is records
            assert out.grad is None
            assert all(hasattr(out, s) for s in _SLOTS)

    def test_wrap_sets_what_init_sets(self):
        a = np.arange(3.0)
        made, wrapped = Tensor(a), Tensor._wrap(a)
        assert wrapped.values is a
        for s in _SLOTS:
            if s != "values":
                assert getattr(wrapped, s) == getattr(made, s)


class TestBitExactForms:
    """The primitives' in-place forms give the bits of the textbook numpy
    expressions, computed here in the same process (a golden hash could
    differ across BLAS kernels)."""

    @staticmethod
    def textbook_layer_norm(x, gamma, beta, g):
        d = x.shape[1]
        mu = np.mean(x, axis=1, keepdims=True)
        var = np.var(x, axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        xhat = (x - mu) * inv_std
        dxhat = g * gamma
        dx = (inv_std / d) * (d * dxhat - dxhat.sum(axis=1, keepdims=True)
                              - xhat * (dxhat * xhat).sum(axis=1, keepdims=True))
        return gamma * xhat + beta, [dx, (g * xhat).sum(axis=0), g.sum(axis=0)]

    @pytest.mark.parametrize("shape", [(64, 64), (64, 128), (256, 128), (7, 130), (3, 1)])
    @pytest.mark.parametrize("case", ["normal", "constant_rows", "large", "tiny"])
    def test_layer_norm(self, shape, case):
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape)
        if case == "constant_rows":
            x[::2] = 5.0
        elif case == "large":
            x = x * 1e8 + 3e9
        elif case == "tiny":
            x = x * 1e-160
        gamma, beta = rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
        g = rng.standard_normal(shape)
        y, grads = forward_and_grads(layer_norm, g, x, gamma, beta)
        y_ref, grads_ref = self.textbook_layer_norm(x, gamma, beta, g)
        assert same_bits(y, y_ref)
        assert all(same_bits(a, b) for a, b in zip(grads, grads_ref))

    @staticmethod
    def textbook_batch_norm2d(x, gamma, beta, g, running_mean, running_var, training):
        """Output, gradients and new running statistics, with broadcast
        temporaries and ``np.mean``/``np.var`` over (B,H,W)."""
        axes, m = (0, 2, 3), 0.1
        gamma4, beta4 = gamma[None, :, None, None], beta[None, :, None, None]
        if training:
            mu, var = np.mean(x, axis=axes), np.var(x, axis=axes)
            running_mean = (1.0 - m) * running_mean + m * mu
            running_var = (1.0 - m) * running_var + m * var
        else:
            mu, var = running_mean, running_var
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        xhat = (x - mu[None, :, None, None]) * inv_std[None, :, None, None]
        if training:
            n = x.size // x.shape[1]
            dxhat = g * gamma4
            s1 = dxhat.sum(axis=axes)
            s2 = (dxhat * xhat).sum(axis=axes)
            dx = (inv_std[None, :, None, None] / n) * (
                n * dxhat - s1[None, :, None, None] - xhat * s2[None, :, None, None])
        else:
            dx = g * (gamma * inv_std)[None, :, None, None]
        grads = [dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)]
        return gamma4 * xhat + beta4, grads, running_mean, running_var

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(2, 1, 1, 1), (3, 2, 4, 4), (256, 32, 14, 7),
                                       (256, 64, 7, 4)])
    @pytest.mark.parametrize("case", ["normal", "constant_channels", "large", "tiny"])
    def test_batch_norm2d(self, shape, case, training):
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape)
        if case == "constant_channels":
            x[:, ::2] = 5.0
        elif case == "large":
            x = x * 1e8 + 3e9
        elif case == "tiny":
            x = x * 1e-160
        c = shape[1]
        gamma, beta = rng.standard_normal(c), rng.standard_normal(c)
        running = rng.standard_normal(c), rng.uniform(0.5, 2.0, c)
        g = rng.standard_normal(shape)
        mean, var = running[0].copy(), running[1].copy()
        y, grads = forward_and_grads(
            lambda *ts: batch_norm2d(*ts, mean, var, training), g, x, gamma, beta)
        y_ref, grads_ref, mean_ref, var_ref = self.textbook_batch_norm2d(
            x, gamma, beta, g, *running, training)
        assert same_bits(y, y_ref)
        assert all(same_bits(a, b) for a, b in zip(grads, grads_ref))
        assert same_bits(mean, mean_ref) and same_bits(var, var_ref)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (64, 64), (7, 130)])
    def test_relu_special_values(self, shape):
        # a cycle of odd length puts every value at every SIMD lane and in
        # the scalar tail, whose -0.0 handling differs
        tiny = np.finfo(np.float64).tiny
        specials = [-0.0, np.nan, -np.nan, 0.0, np.inf, -np.inf, 5e-324, -5e-324,
                    tiny, -tiny, tiny / 2, -tiny / 2, 1.0, -1.0, 1e308, -1e308]
        rng = np.random.default_rng(40)
        x = np.resize(np.concatenate([specials, rng.standard_normal(3)]), shape)
        # g cycles through the same specials with a period one longer, so
        # the larger shapes pair every special x with every special g
        g = np.resize(np.concatenate([specials, rng.standard_normal(4)]), shape)
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0, in the loss and in g * mask
            y, (gx,) = forward_and_grads(relu, g, x)
            want = g * (x > 0)
        assert same_bits(y, np.where(x > 0, x, 0.0))
        assert same_bits(gx, want)

    @pytest.mark.parametrize("dims", [(64, 10, 64), (64, 128, 128), (64, 128, 32), (5, 3, 1)])
    def test_linear(self, dims):
        b_, i, o = dims
        rng = np.random.default_rng(b_ + i + o)
        x, w, b = rng.standard_normal((b_, i)), rng.standard_normal((i, o)), rng.standard_normal(o)
        y = linear(Tensor(x), Tensor(w), Tensor(b))
        assert same_bits(y.values, x @ w + b)


class TestUnusedInputGradients:
    """A vjp returns None for an input that needs no gradient."""

    @staticmethod
    def vjp_grads(out):
        return out.node.vjp(np.ones_like(out.values))

    def test_linear_data_input(self):
        rng = np.random.default_rng(30)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        gx, gw, gb = self.vjp_grads(linear(Tensor(rng.standard_normal((4, 3))), w, b))
        assert gx is None and gw.shape == (3, 2) and gb.shape == (2,)
        gx, _, _ = self.vjp_grads(linear(relu(Tensor(np.ones((4, 3)), requires_grad=True)), w, b))
        assert gx.shape == (4, 3)

    def test_mse_target(self):
        pred = Tensor(np.ones(3), requires_grad=True)
        assert self.vjp_grads(mse_loss(pred, Tensor(np.zeros(3))))[1] is None
        target = Tensor(np.zeros(3), requires_grad=True)
        assert np.array_equal(self.vjp_grads(mse_loss(pred, target))[1], np.full(3, -2.0 / 3))

    def test_conv2d_image_input(self):
        rng = np.random.default_rng(31)
        k = Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        gx, gk, gb = self.vjp_grads(conv2d(Tensor(rng.standard_normal((2, 1, 6, 4))), k, b))
        assert gx is None and gk.shape == (2, 1, 3, 3) and gb.shape == (2,)


class TestStopGradient:
    def test_value_unchanged(self):
        x = Tensor([1.5, -2.0])
        assert np.array_equal(stop_gradient(x).values, x.values)

    def test_blocks_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        w = Tensor([4.0], requires_grad=True)
        sum_all(mul(stop_gradient(x), w)).backward()
        assert x.grad is None
        assert np.allclose(w.grad, [3.0])

    def test_downstream_grad_matches_value(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(4)
        w = rng.standard_normal(4)
        wt = Tensor(w, requires_grad=True)
        sum_all(mul(stop_gradient(Tensor(x)), wt)).backward()
        num = numeric_grad(lambda v: float((x * v).sum()), w)
        assert rel_err(wt.grad, num) < 1e-4


class TestSphereProject:
    def test_three_four_five(self):
        y = sphere_project(Tensor([[3.0, 4.0]]))
        assert np.allclose(y.values, [[0.6, 0.8]])

    def test_unit_vector_unchanged(self):
        v = np.array([[1.0, 0.0, 0.0]])
        assert np.allclose(sphere_project(Tensor(v)).values, v)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((5, 6))
        base = sphere_project(Tensor(v)).values
        for c in (1e-3, 1.0, 1e3):
            assert np.allclose(sphere_project(Tensor(c * v)).values, base,
                               atol=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateEmbeddingError):
            sphere_project(Tensor(np.zeros((1, 4))))

    def test_gradcheck(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            v = rng.standard_normal((3, 5)) + 0.1
            check_grads(sphere_project, [v], rng)


class TestTensor:
    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_float64_storage(self):
        t = Tensor(np.arange(3, dtype=np.int32))
        assert t.values.dtype == np.float64
