"""Network construction, initialization, copies, and buffers."""

import numpy as np
import pytest

from bijepa.autodiff import BN_MOMENTUM, Tensor, sum_all
from bijepa.cli import RunConfig, _build_model, effective_hyper
from bijepa.eval import ProbeConfig, _ProbeStatistics, _train_regression_probe
from bijepa.nn import (
    BatchNorm2d, Linear, Network, ReLU, build_conv_encoder, build_mlp_encoder,
    build_predictor, init_parameters,
)

from helpers import fingerprint


def param_count(net: Network) -> int:
    return sum(p.size for p in net.parameters())


class TestBuilders:
    def test_mlp_encoder_param_count(self):
        # 704 + 128 + 4160 + 128 + 1040
        net = build_mlp_encoder(10, 64, 16, with_ln=True)
        assert param_count(net) == 6160

    def test_mlp_encoder_without_ln(self):
        net = build_mlp_encoder(10, 64, 16, with_ln=False)
        assert param_count(net) == 5904
        assert all(kind != "layer_norm" for kind, *_ in net.spec())

    def test_predictor_param_count(self):
        # 1088 + 128 + 1040
        net = build_predictor(16, 64, with_ln=True)
        assert param_count(net) == 2256

    def test_conv_encoder_param_count(self):
        # 320 + 64 + 18496 + 128 + 229504 + 256 + 8256
        net = build_conv_encoder()
        assert param_count(net) == 257024

    def test_mlp_output_shape(self):
        net = build_mlp_encoder(10, 64, 16, with_ln=True)
        init_parameters(net, 0)
        y = net(Tensor(np.zeros((5, 10))))
        assert y.shape == (5, 16)

    def test_conv_output_shape(self):
        net = build_conv_encoder()
        init_parameters(net, 0)
        net.eval()
        y = net(Tensor(np.zeros((2, 1, 28, 14))))
        assert y.shape == (2, 64)

    def test_predictor_preserves_dim(self):
        net = build_predictor(32, 128, with_ln=True)
        init_parameters(net, 1)
        assert net(Tensor(np.zeros((3, 32)))).shape == (3, 32)


class TestInit:
    def test_deterministic(self):
        a = build_mlp_encoder(10, 64, 16, with_ln=True)
        b = build_mlp_encoder(10, 64, 16, with_ln=True)
        init_parameters(a, 42)
        init_parameters(b, 42)
        for (_, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(ta.values, tb.values)

    def test_seed_changes_weights(self):
        a = build_mlp_encoder(10, 64, 16, with_ln=True)
        b = build_mlp_encoder(10, 64, 16, with_ln=True)
        init_parameters(a, 0)
        init_parameters(b, 1)
        d = dict(b.named_parameters())
        assert any(not np.array_equal(t.values, d[n].values)
                   for n, t in a.named_parameters())

    def test_weight_bounds_and_zero_bias(self):
        net = build_mlp_encoder(10, 64, 16, with_ln=True)
        init_parameters(net, 7)
        params = dict(net.named_parameters())
        w0 = params["0.w"].values
        assert np.abs(w0).max() <= 1.0 / np.sqrt(10.0)
        assert np.abs(w0).max() > 0.0
        assert np.array_equal(params["0.b"].values, np.zeros(64))
        assert np.array_equal(params["1.gamma"].values, np.ones(64))
        assert np.array_equal(params["1.beta"].values, np.zeros(64))

    def test_conv_fan_in_bound(self):
        net = build_conv_encoder()
        init_parameters(net, 7)
        k = dict(net.named_parameters())["3.k"].values  # 32 -> 64 conv
        assert np.abs(k).max() <= 1.0 / np.sqrt(32.0 * 9.0)


class TestNetworkCopy:
    """``Network.copy`` gives an independent network: the same spec,
    values, buffers and mode, held in arrays of its own."""

    @staticmethod
    def sources() -> list[Network]:
        """MLP encoders with and without LayerNorm, and the conv encoder
        after one train-mode forward has moved its running statistics."""
        nets = [build_mlp_encoder(10, 64, 16, with_ln=True),
                build_mlp_encoder(10, 64, 16, with_ln=False),
                build_conv_encoder()]
        for seed, net in enumerate(nets):
            init_parameters(net, seed)
        nets[-1](Tensor(np.random.default_rng(3).standard_normal((4, 1, 28, 14))))
        return nets

    @staticmethod
    def arrays(net: Network) -> list[np.ndarray]:
        return [net.flat] + [arr for layer in net.layers for _, arr in layer.buffers()]

    def test_same_spec_fingerprint_and_mode(self):
        for src in self.sources():
            for mode in ("train", "eval"):
                getattr(src, mode)()
                dst = src.copy()
                assert dst.spec() == src.spec()
                assert fingerprint(dst) == fingerprint(src)
                assert dst.mode == mode

    def test_owns_its_arrays(self):
        for src in self.sources():
            dst = src.copy()
            TestStorage.assert_owned(dst)
            assert all(p.grad is None for p in dst.parameters())
            assert len(self.arrays(dst)) == len(self.arrays(src))
            for a in self.arrays(src):
                for b in self.arrays(dst):
                    assert not np.shares_memory(a, b)

    def test_source_writes_leave_copy(self):
        for src in self.sources():
            dst = src.copy()
            before = fingerprint(dst)
            src.flat += 1.0
            for layer in src.layers:
                if isinstance(layer, BatchNorm2d):
                    layer.running_mean += 1.0
            assert fingerprint(src) != before
            assert fingerprint(dst) == before


class TestCloneAndFingerprint:
    def test_fingerprint_sensitive_to_single_entry(self):
        net = build_mlp_encoder(10, 64, 16, with_ln=True)
        init_parameters(net, 0)
        before = fingerprint(net)
        net.parameters()[-1].values[0] += 1e-9
        assert fingerprint(net) != before

        conv = build_conv_encoder()
        init_parameters(conv, 0)
        before = fingerprint(conv)
        bn = next(layer for layer in conv.layers if isinstance(layer, BatchNorm2d))
        dict(bn.buffers())["running_mean"][0] += 1e-9
        assert fingerprint(conv) != before

    def test_forward_ignores_grad_state(self):
        net = build_mlp_encoder(10, 64, 16, with_ln=True)
        init_parameters(net, 0)
        x = np.ones((2, 10))
        y1 = net(Tensor(x)).values.copy()
        loss = sum_all(net(Tensor(x)))
        loss.backward()
        assert np.array_equal(net(Tensor(x)).values, y1)


class TestStorage:
    """Each network owns one flat buffer from construction, and every
    parameter's values is a view of it, in parameter order."""

    @staticmethod
    def assert_owned(net: Network) -> None:
        offset = 0
        for p in net.parameters():
            assert p.values.base is net.flat
            assert np.shares_memory(p.values, net.flat[offset:offset + p.size])
            assert np.array_equal(p.values.reshape(-1), net.flat[offset:offset + p.size])
            offset += p.size
        assert offset == net.flat.size

    def test_construction_packs_values(self):
        first, second = Linear(3, 2), Linear(2, 1)
        first.w.values[...] = np.arange(6.0).reshape(3, 2)
        second.b.values[...] = 7.0
        net = Network([first, ReLU(), second])
        self.assert_owned(net)
        assert np.array_equal(net.flat, [0, 1, 2, 3, 4, 5, 0, 0, 0, 0, 7])

    @pytest.mark.parametrize("experiment", ["sine", "lorenz", "mnist"])
    @pytest.mark.parametrize("variant", ["bijepa-expressive", "classic"])
    def test_experiment_networks_view_their_buffer(self, experiment, variant):
        cfg = RunConfig(experiment, variant)
        hyper, mode = effective_hyper(cfg)
        model = _build_model(cfg, hyper, mode)
        nets = [model.online_encoder, model.target_encoder, model.p_fwd, model.p_bwd]
        assert (model.p_bwd is None) == (variant == "classic")
        for net in filter(None, nets):
            self.assert_owned(net)

    def test_probe_network_views_its_buffer(self):
        rng = np.random.default_rng(0)
        stats = _ProbeStatistics.of(rng.standard_normal((16, 4)),
                                    rng.standard_normal((16, 3)))
        probe = _train_regression_probe(stats, ProbeConfig(steps=3))
        self.assert_owned(probe)

    def test_layer_in_second_network_refused_not_repacked(self):
        first = build_predictor(4, 8, with_ln=True)
        init_parameters(first, 0)
        before = fingerprint(first)
        with pytest.raises(ValueError, match="views another array"):
            Network(first.layers)
        self.assert_owned(first)
        assert fingerprint(first) == before

    def test_layer_listed_twice_refused(self):
        layer = Linear(3, 3)
        with pytest.raises(ValueError, match="views another array"):
            Network([layer, layer])


class TestBuffers:
    def test_bn_stats_are_buffers_not_params(self):
        net = build_conv_encoder()
        pnames = {n for n, _ in net.named_parameters()}
        bnames = {f"{i}.{n}" for i, layer in enumerate(net.layers)
                  for n, _ in layer.buffers()}
        assert "1.running_mean" in bnames and "1.running_var" in bnames
        assert not pnames & bnames

    @staticmethod
    def moved_bn(rng) -> BatchNorm2d:
        bn = BatchNorm2d(3)
        bn.running_mean[...] = rng.standard_normal(3)
        bn.running_var[...] = rng.uniform(0.5, 2.0, 3)
        return bn

    def test_train_forward_folds_batch_statistics_in_place(self):
        rng = np.random.default_rng(4)
        bn = self.moved_bn(rng)
        mean, var = bn.running_mean, bn.running_var
        old_mean, old_var = mean.copy(), var.copy()
        x = rng.standard_normal((5, 3, 4, 2))
        bn.forward(Tensor(x), training=True)
        assert bn.running_mean is mean and bn.running_var is var
        m = BN_MOMENTUM
        want_mean = (1.0 - m) * old_mean + m * x.mean(axis=(0, 2, 3))
        want_var = (1.0 - m) * old_var + m * x.var(axis=(0, 2, 3))
        assert mean.tobytes() == want_mean.tobytes()
        assert var.tobytes() == want_var.tobytes()

    def test_eval_forward_leaves_running_statistics(self):
        rng = np.random.default_rng(5)
        bn = self.moved_bn(rng)
        mean, var = bn.running_mean, bn.running_var
        old_mean, old_var = mean.copy(), var.copy()
        bn.forward(Tensor(rng.standard_normal((5, 3, 4, 2))), training=False)
        assert bn.running_mean is mean and bn.running_var is var
        assert mean.tobytes() == old_mean.tobytes() and var.tobytes() == old_var.tobytes()


class TestMode:
    def test_default_train_and_switch(self):
        net = Network([])
        assert net.mode == "train"
        assert net.eval().mode == "eval"
        assert net.train().mode == "train"

    def test_bn_eval_uses_running_stats(self):
        net = build_conv_encoder()
        init_parameters(net, 0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 1, 28, 14))
        net.train()
        net(Tensor(x))
        net.eval()
        y1 = net(Tensor(x)).values
        y2 = net(Tensor(x)).values  # eval passes must not drift stats
        assert np.array_equal(y1, y2)
