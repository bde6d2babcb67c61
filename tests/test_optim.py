"""Optimizer update rule and the target-network momentum update."""

import tracemalloc

import numpy as np
import pytest

from bijepa.autodiff import Tensor
from bijepa.nn import Layer, Network, SpecMismatchError, build_conv_encoder, build_mlp
from bijepa.optim import AdamW, ema_update

from helpers import fingerprint


def scalar_param(value: float) -> Tensor:
    return Tensor(np.array([value]), requires_grad=True)


class Holder(Layer):
    """A layer that only holds the given tensors as its parameters."""

    def __init__(self, *tensors):
        self.tensors = tensors

    def params(self):
        return list(self.tensors)


def net_of(*params: Tensor) -> Network:
    return Network([Holder(*params)])


class ReferenceAdamW:
    """Per-tensor AdamW loop with a temporary per operation: the
    arithmetic the flat optimizer must reproduce bit for bit."""

    def __init__(self, values, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.values = [np.array(v, dtype=np.float64) for v in values]
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(v) for v in self.values]
        self.v = [np.zeros_like(v) for v in self.values]
        self.step_count = 0

    def step(self, grads) -> bool:
        grads = [np.zeros_like(p) if g is None else g for p, g in zip(self.values, grads)]
        if not all(np.all(np.isfinite(g)) for g in grads):
            return False
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for p, g, m, v in zip(self.values, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay != 0.0:
                update = update + self.weight_decay * p
            p -= self.lr * update
        return True


class TestFlatAdamWMatchesReference:
    SHAPES = [(5, 3), (3,), (7,), (2, 4), (1,)]

    def random_steps(self, groups, weight_decay, steps=50):
        """``steps`` steps over SHAPES cut into networks of ``groups``
        tensors each, against the per-tensor reference."""
        rng = np.random.default_rng(11)
        params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in self.SHAPES]
        ref = ReferenceAdamW([p.values for p in params], lr=3e-3, weight_decay=weight_decay)
        bounds = np.cumsum([0, *groups])
        nets = [net_of(*params[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        opt = AdamW(nets, lr=3e-3, weight_decay=weight_decay)
        for step in range(steps):
            grads = [None if (step + i) % 4 == 0 else rng.standard_normal(s) * 10.0 ** (i - 2)
                     for i, s in enumerate(self.SHAPES)]
            for p, g in zip(params, grads):
                p.grad = None if g is None else g.copy()
            assert opt.step() and ref.step(grads)
            opt.zero_grad()
        assert opt.step_count == ref.step_count == steps
        for p, want in zip(params, ref.values):
            assert np.array_equal(p.values, want)
        offsets = np.cumsum([0] + [int(np.prod(s)) for s in self.SHAPES])
        for i, (m, v) in enumerate(zip(ref.m, ref.v)):
            assert np.array_equal(opt.m[offsets[i]:offsets[i + 1]], m.reshape(-1))
            assert np.array_equal(opt.v[offsets[i]:offsets[i + 1]], v.reshape(-1))

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_fifty_random_steps_bit_equal(self, weight_decay):
        self.random_steps([len(self.SHAPES)], weight_decay)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_four_hundred_random_steps_bit_equal(self, weight_decay):
        # from step 356 on, 1 - 0.9**t is exactly 1.0 and the flat step
        # no longer divides m by it; the reference always does
        assert 1.0 - 0.9 ** 355 != 1.0 and 1.0 - 0.9 ** 356 == 1.0
        self.random_steps([2, 3], weight_decay, steps=400)

    @pytest.mark.parametrize("groups", [[2, 3], [1, 2, 1, 1]])
    def test_several_networks_bit_equal(self, groups):
        # weight decay and the final subtraction run once per network
        self.random_steps(groups, weight_decay=1e-2)

    def test_nan_step_leaves_state_untouched(self):
        rng = np.random.default_rng(12)
        params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in self.SHAPES]
        net = net_of(*params)
        opt = AdamW([net], lr=1e-3, weight_decay=1e-4)
        for p in params:
            p.grad = rng.standard_normal(p.shape)
        assert opt.step()
        before = (net.flat.copy(), opt.m.copy(), opt.v.copy(), opt.step_count)
        for p in params:
            p.grad = rng.standard_normal(p.shape)
        params[-1].grad[0] = np.nan  # the last tensor: everything before it is gathered
        assert not opt.step()
        assert np.array_equal(net.flat, before[0])
        assert np.array_equal(opt.m, before[1]) and np.array_equal(opt.v, before[2])
        assert opt.step_count == before[3]

    def test_finite_gradient_whose_sum_overflows_steps(self):
        params = [Tensor(np.zeros(s), requires_grad=True) for s in self.SHAPES]
        ref = ReferenceAdamW([p.values for p in params], lr=1e-3, weight_decay=1e-4)
        opt = AdamW([net_of(*params)], lr=1e-3, weight_decay=1e-4)
        grads = [np.full(s, 0.5) for s in self.SHAPES]
        grads[0][0, 0] = grads[0][1, 0] = 1e308  # their sum is inf, each is finite
        for p, g in zip(params, grads):
            p.grad = g.copy()
        with np.errstate(over="ignore"):  # g*g overflows in v, in both
            assert opt.step() and ref.step(grads)
        assert opt.step_count == 1
        for p, want in zip(params, ref.values):
            assert np.array_equal(p.values, want)
        # v is inf at the two huge entries, which therefore do not move
        assert np.all(params[1].values < 0.0) and np.isfinite(params[0].values).all()

    def test_opposite_infinities_abort(self):
        # inf + -inf sums to NaN: the step must abort, not read it as finite
        params = [Tensor(np.ones(s), requires_grad=True) for s in self.SHAPES]
        net = net_of(*params)
        opt = AdamW([net], lr=1e-3, weight_decay=1e-4)
        for p in params:
            p.grad = np.full(p.shape, 0.25)
        assert opt.step()
        before = (net.flat.copy(), opt.m.copy(), opt.v.copy(), opt.step_count)
        for p in params:
            p.grad = np.full(p.shape, 0.25)
        params[0].grad[0, 0], params[2].grad[3] = np.inf, -np.inf
        assert not opt.step()
        assert np.array_equal(net.flat, before[0])
        assert np.array_equal(opt.m, before[1]) and np.array_equal(opt.v, before[2])
        assert opt.step_count == before[3]


class TestParameterStorage:
    """Parameters' values are views into their network's buffer, which
    AdamW updates in place: whatever writes parameters writes the storage
    step() updates."""

    @staticmethod
    def registered_net():
        net = build_mlp((4, 8, 4), True, 0)
        opt = AdamW([net], lr=1e-2)
        return net, opt

    @staticmethod
    def assert_step_moves(net, opt):
        before = fingerprint(net)
        for p in net.parameters():
            p.grad = np.ones_like(p.values)
        assert opt.step()
        assert fingerprint(net) != before
        assert all(p.values.base is net.flat for p in net.parameters())

    def test_values_are_views_of_flat_buffer(self):
        net, _ = self.registered_net()
        offset = 0
        for p in net.parameters():
            assert p.values.base is net.flat
            assert np.array_equal(p.values.reshape(-1), net.flat[offset:offset + p.size])
            offset += p.size
        assert offset == net.flat.size

    def test_registration_keeps_values(self):
        net = build_mlp((4, 8, 4), True, 0)
        before = fingerprint(net)
        AdamW([net], lr=1e-2)
        assert fingerprint(net) == before

    def test_clone_into_writes_optimizer_storage(self):
        net, opt = self.registered_net()
        other = build_mlp((4, 8, 4), True, 2)
        net.flat[...] = other.flat
        assert fingerprint(net) == fingerprint(other)
        assert np.array_equal(net.flat, np.concatenate(
            [p.values.reshape(-1) for p in other.parameters()]))
        self.assert_step_moves(net, opt)

    def test_four_flat_buffers_and_a_step_allocates_none(self):
        # m, v, one scratch buffer and the gathered gradient, which the
        # update overwrites once both moments have read it
        net = build_mlp((32, 128, 32), True, 0)
        nbytes = net.flat.nbytes
        tracemalloc.start()
        try:
            opt = AdamW([net], lr=1e-3, weight_decay=1e-4)
            held = tracemalloc.get_traced_memory()[0]
            for p in net.parameters():
                p.grad = np.ones_like(p.values)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert opt.step()
            step_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert held < 4.5 * nbytes
        assert step_peak < nbytes // 4

    def test_duplicate_parameter_rejected(self):
        net = net_of(scalar_param(1.0))
        with pytest.raises(ValueError, match="more than once"):
            AdamW([net, net], lr=1e-3)

    def test_updates_never_rebind_values(self):
        online = build_mlp((4, 8, 8, 3), True, 0)
        target = build_mlp((4, 8, 8, 3), True, 1)
        p_fwd = build_mlp((3, 8, 3), True, 2)
        nets = (online, target, p_fwd)
        storage = [p.values for net in nets for p in net.parameters()]
        opt = AdamW([online, p_fwd], lr=1e-2, weight_decay=1e-4)
        for p in opt.params:
            p.grad = np.ones_like(p.values)
        assert opt.step()
        ema_update(target, online, 0.9)
        target.flat[...] = online.flat
        assert fingerprint(target) == fingerprint(online)
        assert all(p.values is s for p, s in
                   zip([p for net in nets for p in net.parameters()], storage))


class TestAdamWStep:
    def test_first_step_closed_form(self):
        # bias correction makes m_hat = g, v_hat = g^2 on step one, so the
        # update is sign(g)/(1+eps) regardless of magnitude
        p = scalar_param(1.0)
        opt = AdamW([net_of(p)], lr=1e-3)
        p.grad = np.array([1.0])
        assert opt.step()
        expected = 1.0 - 1e-3 * (1.0 / (1.0 + 1e-8))
        assert abs(p.values[0] - expected) < 1e-18

    def test_first_step_sign_only(self):
        # update is g/(|g| + eps), so the size of g barely matters
        for g in (0.5, 2.0, 100.0):
            p = scalar_param(0.0)
            opt = AdamW([net_of(p)], lr=1e-3)
            p.grad = np.array([g])
            opt.step()
            assert abs(p.values[0] + 1e-3 * g / (g + 1e-8)) < 1e-18

    def test_zero_grad_zero_decay_is_identity(self):
        p = scalar_param(3.0)
        opt = AdamW([net_of(p)], lr=1e-3)
        p.grad = np.array([0.0])
        opt.step()
        assert p.values[0] == 3.0

    def test_decay_is_decoupled(self):
        # zero gradient isolates the decay term: theta *= (1 - lr*wd)
        p = scalar_param(1.0)
        opt = AdamW([net_of(p)], lr=1e-3, weight_decay=1e-4)
        p.grad = np.array([0.0])
        opt.step()
        assert abs(p.values[0] - (1.0 - 1e-7)) < 1e-18

    def test_missing_grad_treated_as_zero(self):
        p = scalar_param(2.0)
        opt = AdamW([net_of(p)], lr=1e-3)
        opt.step()
        assert p.values[0] == 2.0

    def test_quadratic_descent(self):
        p = scalar_param(5.0)
        opt = AdamW([net_of(p)], lr=1e-2)
        seen = []
        for _ in range(1000):
            opt.zero_grad()
            p.grad = 2.0 * p.values
            opt.step()
            seen.append(abs(p.values[0]))
        assert seen[-1] < 0.2
        assert seen[-1] == min(seen)  # no late oscillation blow-up

    def test_nan_grad_aborts(self):
        p = scalar_param(1.0)
        q = scalar_param(2.0)
        opt = AdamW([net_of(p, q)], lr=1e-3)
        p.grad = np.array([1.0])
        q.grad = np.array([np.nan])
        assert not opt.step()
        assert p.values[0] == 1.0 and q.values[0] == 2.0
        assert opt.step_count == 0

    def test_inf_grad_aborts(self):
        p = scalar_param(1.0)
        opt = AdamW([net_of(p)], lr=1e-3)
        p.grad = np.array([np.inf])
        assert not opt.step()

    def test_zero_grad_clears_slots(self):
        p = scalar_param(1.0)
        opt = AdamW([net_of(p)], lr=1e-3)
        p.grad = np.array([4.0])
        opt.zero_grad()
        assert p.grad is None

    def test_negative_decay_rejected(self):
        p = scalar_param(1.0)
        with pytest.raises(ValueError):
            AdamW([net_of(p)], lr=1e-3, weight_decay=-1e-4)

    def test_two_step_moments(self):
        # hand-rolled two iterations with g = 1 then g = -1
        p = scalar_param(0.0)
        opt = AdamW([net_of(p)], lr=1e-3)
        theta, m, v = 0.0, 0.0, 0.0
        for t, g in ((1, 1.0), (2, -1.0)):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1.0 - 0.9 ** t)
            v_hat = v / (1.0 - 0.999 ** t)
            theta -= 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
            p.grad = np.array([g])
            opt.step()
        assert abs(p.values[0] - theta) < 1e-18


class TestEma:
    @staticmethod
    def pair(seed_online=0, seed_target=1):
        online = build_mlp((4, 8, 4), False, seed_online)
        target = build_mlp((4, 8, 4), False, seed_target)
        return online, target

    def test_single_step_convex_combination(self):
        online, target = self.pair()
        tau = 0.995
        before = [p.values.copy() for p in target.parameters()]
        ema_update(target, online, tau)
        for p_t, p_o, old in zip(target.parameters(), online.parameters(), before):
            assert np.array_equal(p_t.values, tau * old + (1.0 - tau) * p_o.values)

    def test_in_place_update_allocates_no_arrays(self):
        # 32x64 weights (16 KiB): a temporary of any of them would show
        online, target = build_mlp((32, 64, 32), True, 0), build_mlp((32, 64, 32), True, 1)
        ema_update(target, online, 0.9)  # first call sizes the scratch
        storage = [p.values for p in target.parameters()]
        tracemalloc.start()
        try:
            ema_update(target, online, 0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < max(p.values.nbytes for p in online.parameters()) // 4
        assert all(p.values is s for p, s in zip(target.parameters(), storage))

    def test_tau_zero_copies_online(self):
        online, target = self.pair()
        ema_update(target, online, 0.0)
        assert fingerprint(target) == fingerprint(online)

    def test_tau_one_freezes_target(self):
        online, target = self.pair()
        before = fingerprint(target)
        ema_update(target, online, 1.0)
        assert fingerprint(target) == before

    def test_fixed_point(self):
        online, target = self.pair()
        target.flat[...] = online.flat
        ema_update(target, online, 0.995)
        assert fingerprint(target) == fingerprint(online)

    def test_geometric_contraction(self):
        # ||target_t - online|| = tau^t * ||target_0 - online|| for frozen online
        online, target = self.pair()
        tau = 0.9
        gap0 = max(np.abs(pt.values - po.values).max()
                   for pt, po in zip(target.parameters(), online.parameters()))
        for _ in range(100):
            ema_update(target, online, tau)
        gap = max(np.abs(pt.values - po.values).max()
                  for pt, po in zip(target.parameters(), online.parameters()))
        assert gap < gap0 * tau ** 100 * (1.0 + 1e-9) + 1e-15

    def test_spec_mismatch_rejected(self):
        online = build_mlp((4, 8, 8, 2), True, 0)
        target = build_mlp((4, 8, 8, 2), False, 1)
        with pytest.raises(SpecMismatchError):
            ema_update(target, online, 0.5)

    def test_target_never_registered(self):
        # optimizing the online net leaves the target bit-identical
        online, target = self.pair()
        before = fingerprint(target)
        opt = AdamW([online], lr=1e-2)
        for p in online.parameters():
            p.grad = np.ones_like(p.values)
        opt.step()
        assert fingerprint(target) == before

    def test_conv_encoder_convex_combination(self):
        online, target = build_conv_encoder(64, 0), build_conv_encoder(64, 1)
        tau = 0.99
        want = [tau * p_t.values + (1.0 - tau) * p_o.values
                for p_t, p_o in zip(target.parameters(), online.parameters())]
        ema_update(target, online, tau)
        assert all(np.array_equal(p.values, w) for p, w in zip(target.parameters(), want))


class TestEmaArena:
    """The EMA updates the target's and reads the online network's own
    buffers in place; neither storage is ever moved."""

    @staticmethod
    def pair():
        online = build_mlp((4, 8, 8, 3), True, 0)
        target = build_mlp((4, 8, 8, 3), True, 1)
        return online, target

    @staticmethod
    def expected(target, online, tau):
        return [tau * p_t.values + (1.0 - tau) * p_o.values
                for p_t, p_o in zip(target.parameters(), online.parameters())]

    @staticmethod
    def assert_values(net, arrays):
        assert all(np.array_equal(p.values, a) for p, a in zip(net.parameters(), arrays))

    def test_target_parameters_view_one_buffer(self):
        online, target = self.pair()
        before = fingerprint(target)
        ema_update(target, online, 1.0)
        assert fingerprint(target) == before
        offset = 0
        for p in target.parameters():
            assert p.values.base is target.flat
            assert np.shares_memory(p.values, target.flat[offset:offset + p.size])
            offset += p.size
        assert offset == target.flat.size

    def test_registered_online_keeps_optimizer_storage(self):
        online, target = self.pair()
        p_fwd = build_mlp((3, 8, 3), True, 2)
        opt = AdamW([online, p_fwd], lr=1e-2)
        for step in range(3):
            for p in online.parameters() + p_fwd.parameters():
                p.grad = np.full_like(p.values, step + 1.0)
            assert opt.step()
            want = self.expected(target, online, 0.9)
            ema_update(target, online, 0.9)
            self.assert_values(target, want)
            assert all(p.values.base is online.flat for p in online.parameters())

    def test_unregistered_online_can_register_after_ema(self):
        online, target = self.pair()
        want = self.expected(target, online, 0.9)
        ema_update(target, online, 0.9)
        self.assert_values(target, want)
        opt = AdamW([online], lr=1e-2)
        for p in online.parameters():
            p.grad = np.ones_like(p.values)
        assert opt.step()
        want = self.expected(target, online, 0.9)
        ema_update(target, online, 0.9)
        self.assert_values(target, want)

    def test_new_online_network_rechecked(self):
        online, target = self.pair()
        ema_update(target, online, 0.9)
        other = build_mlp((4, 8, 4), True, 2)
        with pytest.raises(SpecMismatchError):
            ema_update(target, other, 0.9)
        online2 = build_mlp((4, 8, 8, 3), True, 5)
        want = self.expected(target, online2, 0.5)
        ema_update(target, online2, 0.5)
        self.assert_values(target, want)
