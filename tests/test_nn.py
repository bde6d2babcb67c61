"""Network construction and its seeded draws, copies, and buffers."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from bijepa import eval as ev
from bijepa.autodiff import BN_MOMENTUM, Tensor, sum_all
from bijepa.cli import _EXPERIMENTS, RunConfig, _build_model, _features, effective_hyper
from bijepa.data import ViewBatch
from bijepa.eval import _ProbeStatistics, _train_regression_probe
from bijepa.jepa import encode_for_inference, predict_forward_for_inference
from bijepa.nn import (
    BatchNorm2d, LayerNorm, Linear, Network, ReLU, build_conv_encoder, build_mlp,
)
from bijepa.seeding import derive_seed

from helpers import fingerprint


def param_count(net: Network) -> int:
    return sum(p.size for p in net.parameters())


class TestBuilders:
    def test_mlp_encoder_param_count(self):
        # 704 + 128 + 4160 + 128 + 1040
        net = build_mlp((10, 64, 64, 16), True, 0)
        assert param_count(net) == 6160

    def test_mlp_encoder_without_ln(self):
        net = build_mlp((10, 64, 64, 16), False, 0)
        assert param_count(net) == 5904
        assert all(kind != "LayerNorm" for kind, *_ in net.spec())
        with_ln = build_mlp((10, 64, 64, 16), True, 0)
        assert sum(kind == "LayerNorm" for kind, *_ in with_ln.spec()) == 2

    def test_predictor_param_count(self):
        # 1088 + 128 + 1040
        net = build_mlp((16, 64, 16), True, 0)
        assert param_count(net) == 2256

    def test_conv_encoder_param_count(self):
        # 320 + 64 + 18496 + 128 + 229504 + 256 + 8256
        net = build_conv_encoder(64, 0)
        assert param_count(net) == 257024

    def test_mlp_output_shape(self):
        net = build_mlp((10, 64, 64, 16), True, 0)
        y = net(Tensor(np.zeros((5, 10))))
        assert y.shape == (5, 16)

    def test_conv_output_shape(self):
        net = build_conv_encoder(64, 0)
        net.eval()
        y = net(Tensor(np.zeros((2, 1, 28, 14))))
        assert y.shape == (2, 64)

    def test_predictor_preserves_dim(self):
        net = build_mlp((32, 128, 32), True, 1)
        assert net(Tensor(np.zeros((3, 32)))).shape == (3, 32)


# Every MLP the experiments build, by its build_mlp widths and LN flag,
# with its layer list written out by hand as a function of a generator.
REFERENCE_MLPS = {
    "sine encoder": ((10, 64, 64, 16), True, lambda rng: [
        Linear(10, 64, rng), LayerNorm(64), ReLU(),
        Linear(64, 64, rng), LayerNorm(64), ReLU(), Linear(64, 16, rng)]),
    "sine encoder, no LN": ((10, 64, 64, 16), False, lambda rng: [
        Linear(10, 64, rng), ReLU(), Linear(64, 64, rng), ReLU(), Linear(64, 16, rng)]),
    "lorenz encoder": ((60, 128, 128, 32), True, lambda rng: [
        Linear(60, 128, rng), LayerNorm(128), ReLU(),
        Linear(128, 128, rng), LayerNorm(128), ReLU(), Linear(128, 32, rng)]),
    "lorenz encoder, no LN": ((60, 128, 128, 32), False, lambda rng: [
        Linear(60, 128, rng), ReLU(),
        Linear(128, 128, rng), ReLU(), Linear(128, 32, rng)]),
    "sine predictor": ((16, 64, 16), True, lambda rng: [
        Linear(16, 64, rng), LayerNorm(64), ReLU(), Linear(64, 16, rng)]),
    "sine predictor, no LN": ((16, 64, 16), False, lambda rng: [
        Linear(16, 64, rng), ReLU(), Linear(64, 16, rng)]),
    "lorenz predictor": ((32, 128, 32), True, lambda rng: [
        Linear(32, 128, rng), LayerNorm(128), ReLU(), Linear(128, 32, rng)]),
    "mnist predictor": ((64, 128, 64), True, lambda rng: [
        Linear(64, 128, rng), LayerNorm(128), ReLU(), Linear(128, 64, rng)]),
    "sine regression probe": ((16, 10), False, lambda rng: [Linear(16, 10, rng)]),
    "lorenz regression probe": ((32, 60), False, lambda rng: [Linear(32, 60, rng)]),
    "classifier": ((64, 10), False, lambda rng: [Linear(64, 10, rng)]),
    "decoder": ((64, 256, 392), False, lambda rng: [
        Linear(64, 256, rng), ReLU(), Linear(256, 392, rng)]),
}


def reference_spec(name: str) -> tuple:
    return Network(REFERENCE_MLPS[name][2](np.random.default_rng(0))).spec()


class TestArchitectures:
    """``build_mlp`` makes each experiment MLP as its hand-written layer
    list, and the program builds exactly those MLPs."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_MLPS))
    def test_build_mlp_matches_reference(self, name):
        widths, with_ln, layers = REFERENCE_MLPS[name]
        net = build_mlp(widths, with_ln, 11)
        ref = Network(layers(np.random.default_rng(11)))
        assert net.spec() == ref.spec()
        assert fingerprint(net) == fingerprint(ref)

    @pytest.mark.parametrize("experiment, variant, encoder, predictor", [
        ("sine", "bijepa-expressive", "sine encoder", "sine predictor"),
        ("sine", "bijepa-unconstrained", "sine encoder, no LN", "sine predictor, no LN"),
        ("sine", "classic", "sine encoder", "sine predictor"),
        ("lorenz", "bijepa-expressive", "lorenz encoder", "lorenz predictor"),
        ("lorenz", "classic", "lorenz encoder", "lorenz predictor"),
        ("mnist", "bijepa-expressive", None, "mnist predictor"),
    ])
    def test_experiment_models(self, experiment, variant, encoder, predictor):
        cfg = RunConfig(experiment, variant)
        hyper, mode = effective_hyper(cfg)
        model = _build_model(cfg, hyper, mode)
        want = build_conv_encoder(64, 0).spec() if encoder is None else reference_spec(encoder)
        assert model.online_encoder.spec() == want
        for p in filter(None, (model.p_fwd, model.p_bwd)):
            assert p.spec() == reference_spec(predictor)

    @pytest.fixture
    def built_probes(self, monkeypatch) -> list:
        """Every network ``eval`` builds through ``build_mlp``, in order."""
        built = []

        def recording(widths, with_ln, seed):
            built.append(build_mlp(widths, with_ln, seed))
            return built[-1]

        monkeypatch.setattr(ev, "build_mlp", recording)
        return built

    @pytest.mark.parametrize("experiment, probe", [
        ("sine", "sine regression probe"), ("lorenz", "lorenz regression probe")])
    def test_regression_probes(self, built_probes, experiment, probe):
        cfg = RunConfig(experiment, "classic")
        hyper, mode = effective_hyper(cfg)
        model = _build_model(cfg, hyper, mode)
        _, held_out = _EXPERIMENTS[experiment].data(cfg, hyper)
        context = _features(encode_for_inference, model, (held_out.probe.x, held_out.test.x))
        predicted = _features(predict_forward_for_inference, model, context)
        ev.protocol_a(*context, held_out, lr=1e-3, steps=1, seed=0)
        ev.protocol_b(*predicted, held_out, lr=1e-3, steps=1, seed=0)
        assert [net.spec() for net in built_probes] == [reference_spec(probe)] * 2

    def test_image_probes(self, built_probes):
        cfg = RunConfig("mnist", "bijepa-expressive")
        hyper, mode = effective_hyper(cfg)
        model = _build_model(cfg, hyper, mode)
        rng = np.random.default_rng(1)
        halves = rng.standard_normal((2, 4, 1, 28, 14))
        views = ViewBatch(halves[0], halves[1], np.arange(4))
        mnist = SimpleNamespace(train=views, test=views)
        settings = {"lr": 1e-3, "epochs": 1, "seed": 0}
        (feats,) = _features(encode_for_inference, model, (views.x,))
        ev.linear_probe_classify(feats, feats, mnist, **settings)
        ev.generative_decoder(feats, feats, mnist, **settings)
        assert [net.spec() for net in built_probes] == [reference_spec("classifier"),
                                                        reference_spec("decoder")]


class TestInit:
    """Builders draw every network from their seed."""

    def test_deterministic(self):
        a = build_mlp((10, 64, 64, 16), True, 42)
        b = build_mlp((10, 64, 64, 16), True, 42)
        for ta, tb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(ta.values, tb.values)

    def test_seed_changes_weights(self):
        a = build_mlp((10, 64, 64, 16), True, 0)
        b = build_mlp((10, 64, 64, 16), True, 1)
        assert any(not np.array_equal(ta.values, tb.values)
                   for ta, tb in zip(a.parameters(), b.parameters()))

    def test_weight_bounds_and_zero_bias(self):
        net = build_mlp((10, 64, 64, 16), True, 7)
        lin, ln = net.layers[0], net.layers[1]
        w0 = lin.w.values
        assert np.abs(w0).max() <= 1.0 / np.sqrt(10.0)
        assert np.abs(w0).max() > 0.0
        assert np.array_equal(lin.b.values, np.zeros(64))
        assert np.array_equal(ln.gamma.values, np.ones(64))
        assert np.array_equal(ln.beta.values, np.zeros(64))

    def test_conv_fan_in_bound(self):
        net = build_conv_encoder(64, 7)
        k = net.layers[3].k.values  # 32 -> 64 conv
        assert np.abs(k).max() <= 1.0 / np.sqrt(32.0 * 9.0)
        assert np.array_equal(net.layers[3].b.values, np.zeros(64))
        bn = net.layers[4]
        assert np.array_equal(bn.gamma.values, np.ones(64))
        assert np.array_equal(bn.beta.values, np.zeros(64))
        assert np.array_equal(bn.running_mean, np.zeros(64))
        assert np.array_equal(bn.running_var, np.ones(64))


class _Captured(Exception):
    """Carries a network out of the code that built it."""


class TestInitialParameters:
    """The seed-0 initial parameters, pinned by ``fingerprint``: a change
    in draw order, bounds or seed streams fails here. Each network is
    reached through the code that builds it in a run or a gate."""

    # (online encoder, p_fwd, p_bwd); classic has no p_bwd
    MODELS = {
        "sine": ("ceb345cc7f88e215391d025270952572dda3f4cb0ad53e882a07b98379125a38",
                 "fec06c2807ea84fa14e68cbb0db75c9a879f714d51cc7a3a492ae2676c8a8eb9",
                 "1ccc2acd74d1068a337465d3975fe4af91bd1af2cb17c5f07ed4c551b0e680e0"),
        "lorenz": ("af48c4650bdb6d3b9b650b7d439ff400da51f82a9be661353085825046b82c88",
                   "d1d46eff11913e69038b222dea6b67b409a5e00cce3852d1c79d8ed256c59636",
                   "f3565df9e5e2e35f7bd66cb48e4d3e598aefe30e02edb46ef3e29f12a4e5e56c"),
        "mnist": ("b9f85559703c76ecda2ac732db63c7a9475ff093ae1a77bf6a175c9a5ddacd1b",
                  "9c13991559aa669cfe3b7dbd3a592816dd60017095d7db01da110cba0e8d100f",
                  "58020fdc9f81539d89029fbc720fb88fd6289dd3b3822d7f1160ff5f672e63bf"),
    }

    @pytest.mark.parametrize("experiment", sorted(MODELS))
    @pytest.mark.parametrize("variant", ["bijepa-expressive", "classic"])
    def test_experiment_models(self, experiment, variant):
        cfg = RunConfig(experiment, variant, seed=0)
        hyper, mode = effective_hyper(cfg)
        model = _build_model(cfg, hyper, mode)
        got = tuple(None if net is None else fingerprint(net)
                    for net in (model.online_encoder, model.p_fwd, model.p_bwd))
        want = self.MODELS[experiment]
        assert got == (want if variant != "classic" else want[:2] + (None,))

    def test_regression_probe(self, monkeypatch):
        """The sine probe (16 -> 10) as a seed-0 run's probe seed draws
        it, read when its optimizer is made."""
        def capture(nets, **_):
            raise _Captured(nets[0])

        monkeypatch.setattr(ev, "AdamW", capture)
        stats = _ProbeStatistics.of(np.zeros((4, 16)), np.zeros((4, 10)))
        with pytest.raises(_Captured) as got:
            _train_regression_probe(stats, 1e-3, 2000, derive_seed(0, "probe"))
        assert fingerprint(got.value.args[0]) == \
            "16100743e22d8a8b7755757e328d7feb57e0d44d406a2e44ca75a44b8d4bdfdd"

    def test_gate3_fixture_0(self, monkeypatch):
        """Gate 3's first fixture, read when the gate first takes its loss."""
        import test_acceptance as gates

        def capture(model, x, y):
            raise _Captured(model)

        monkeypatch.setattr(gates, "total_loss", capture)
        with pytest.raises(_Captured) as got:
            gates.test_criterion_03_classic_reduction()
        model = got.value.args[0]
        assert tuple(fingerprint(net) for net in (
            model.online_encoder, model.target_encoder, model.p_fwd)) == (
            "499d1e79d0714f5007cc3ede3b93511c598c62876136aa86f49c7f48afe9b796",
            "aed6c1c840591b78d0c59b799fa243935c42799dd16533f4e93ae60dcf589137",
            "f9dfea6bc776dd7216b6cddd15a5e406ce28b23e45abe05f7bb3a06d165ae3e1")


class TestNetworkCopy:
    """``Network.copy`` gives an independent network: the same spec,
    values, buffers and mode, held in arrays of its own."""

    @staticmethod
    def sources() -> list[Network]:
        """MLP encoders with and without LayerNorm, and the conv encoder
        after one train-mode forward has moved its running statistics."""
        nets = [build_mlp((10, 64, 64, 16), True, 0),
                build_mlp((10, 64, 64, 16), False, 1),
                build_conv_encoder(64, 2)]
        nets[-1](Tensor(np.random.default_rng(3).standard_normal((4, 1, 28, 14))))
        return nets

    @staticmethod
    def arrays(net: Network) -> list[np.ndarray]:
        return [net.flat] + [arr for layer in net.layers for arr in layer.buffers()]

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
        net = build_mlp((10, 64, 64, 16), True, 0)
        before = fingerprint(net)
        net.parameters()[-1].values[0] += 1e-9
        assert fingerprint(net) != before

        conv = build_conv_encoder(64, 0)
        before = fingerprint(conv)
        bn = next(layer for layer in conv.layers if isinstance(layer, BatchNorm2d))
        bn.running_mean[0] += 1e-9
        assert fingerprint(conv) != before

    def test_forward_ignores_grad_state(self):
        net = build_mlp((10, 64, 64, 16), True, 0)
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
        rng = np.random.default_rng(0)
        first, second = Linear(3, 2, rng), Linear(2, 1, rng)
        first.w.values[...] = np.arange(6.0).reshape(3, 2)
        second.w.values[...] = [[8.0], [9.0]]
        second.b.values[...] = 7.0
        net = Network([first, ReLU(), second])
        self.assert_owned(net)
        assert np.array_equal(net.flat, [0, 1, 2, 3, 4, 5, 0, 0, 8, 9, 7])

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
        probe = _train_regression_probe(stats, 1e-3, 3, 0)
        self.assert_owned(probe)

    def test_layer_in_second_network_refused_not_repacked(self):
        first = build_mlp((4, 8, 4), True, 0)
        before = fingerprint(first)
        with pytest.raises(ValueError, match="views another array"):
            Network(first.layers)
        self.assert_owned(first)
        assert fingerprint(first) == before

    def test_layer_listed_twice_refused(self):
        layer = Linear(3, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="views another array"):
            Network([layer, layer])


class TestBuffers:
    def test_bn_stats_are_buffers_not_params(self):
        net = build_conv_encoder(64, 0)
        bns = [layer for layer in net.layers if isinstance(layer, BatchNorm2d)]
        assert len(bns) == 2
        for bn in bns:
            buffers = bn.buffers()
            assert len(buffers) == 2
            assert buffers[0] is bn.running_mean and buffers[1] is bn.running_var
            for arr in buffers:
                assert not np.shares_memory(arr, net.flat)
                assert all(p.values is not arr for p in net.parameters())

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
        net = build_conv_encoder(64, 0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 1, 28, 14))
        net.train()
        net(Tensor(x))
        net.eval()
        y1 = net(Tensor(x)).values
        y2 = net(Tensor(x)).values  # eval passes must not drift stats
        assert np.array_equal(y1, y2)


# each malformed construction, the exception and a fragment of its message
MALFORMED_LAYERS = {
    "Linear no inputs": (lambda rng: Linear(0, 3, rng), ValueError,
                         "Linear dims must be >= 1, got (0, 3)"),
    "Linear no outputs": (lambda rng: Linear(2, 0, rng), ValueError,
                          "Linear dims must be >= 1, got (2, 0)"),
}


@pytest.mark.parametrize("case", MALFORMED_LAYERS)
def test_malformed_layer_rejected(case):
    build, error, fragment = MALFORMED_LAYERS[case]
    with pytest.raises(error, match=re.escape(fragment)):
        build(np.random.default_rng(0))
