"""Probe protocols against frozen models: the report fields each one
measures and its test-split predictions."""

import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from bijepa import autodiff as ad, cli, eval as ev
from bijepa.autodiff import Tensor
from bijepa.data import MNIST_STD, ViewBatch
from bijepa.eval import (
    _affine, _embed, _mse, _predict, _ProbeStatistics, _train_regression_probe,
    generative_decoder, linear_probe_classify, protocol_a, protocol_b,
)
from bijepa.jepa import (
    BiJepaModel, ConstraintMode, encode_for_inference, predict_forward_for_inference,
)
from bijepa.nn import Linear, Network, ReLU, build_conv_encoder, build_mlp
from bijepa.seeding import derive_seed

from helpers import fingerprint, garbage_cycles_after, reference_probe_fit

IN_DIM, EMB, HIDDEN = 6, 8, 16


def make_model(seed=0, p_fwd=None, p_bwd="default"):
    enc = build_mlp((IN_DIM, HIDDEN, HIDDEN, EMB), True, derive_seed(seed, "init:encoder"))
    if p_fwd is None:
        p_fwd = build_mlp((EMB, HIDDEN, EMB), True, derive_seed(seed, "init:p-fwd"))
    if p_bwd == "default":
        p_bwd = build_mlp((EMB, HIDDEN, EMB), True, derive_seed(seed, "init:p-bwd"))
    return BiJepaModel(enc, p_fwd, p_bwd, 0.5, 0.99, ConstraintMode.EXPRESSIVE)


def regression_dataset(model, rng, out_dim=4, realizable=True):
    """Probe/test splits whose targets are an exact linear readout of the
    context embeddings (or random noise when realizable=False)."""
    xp = rng.standard_normal((256, IN_DIM))
    xt = rng.standard_normal((64, IN_DIM))
    if realizable:
        fp = encode_for_inference(model, Tensor(xp)).values
        ft = encode_for_inference(model, Tensor(xt)).values
        A = rng.standard_normal((EMB, out_dim)) * 0.5
        yp, yt = fp @ A, ft @ A
    else:
        yp = rng.standard_normal((256, out_dim))
        yt = rng.standard_normal((64, out_dim))
    return SimpleNamespace(probe=ViewBatch(xp, yp), test=ViewBatch(xt, yt))


def regression_features(model, ds):
    """Protocol A's and protocol B's (probe, test) features of ``ds``, as a
    run extracts them: the context embeddings, then the forward
    predictor's outputs on those embeddings."""
    context = cli._features(encode_for_inference, model, (ds.probe.x, ds.test.x))
    return context, cli._features(predict_forward_for_inference, model, context)


def probe_problem(seed, n=200, d=7, o=3, constant_column=False):
    """Features and noisy, offset linear targets for a probe fit; with
    constant_column the last feature duplicates the bias direction, so
    G = AᵀA is singular."""
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, d))
    if constant_column:
        feats[:, -1] = 1.5
    targets = (feats @ rng.standard_normal((d, o)) + 1.0
               + 0.3 * rng.standard_normal((n, o)))
    return feats, targets


class TestSufficientStatisticsProbe:
    @pytest.mark.parametrize("constant_column", [False, True])
    def test_gradient_matches_autodiff(self, constant_column):
        feats, targets = probe_problem(11, constant_column=constant_column)
        d, o = feats.shape[1], targets.shape[1]
        lin = Linear(d, o, np.random.default_rng(0))
        rng = np.random.default_rng(12)
        lin.w.values[...] = rng.standard_normal((d, o))
        lin.b.values[...] = rng.standard_normal(o)
        ad.mse_loss(lin.forward(Tensor(feats), True), Tensor(targets)).backward()
        expected = np.vstack([lin.w.grad, lin.b.grad])
        theta = np.vstack([lin.w.values, lin.b.values])
        grad = _ProbeStatistics.of(feats, targets).gradient(
            theta, out=np.empty_like(theta))
        assert np.linalg.norm(grad - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_fit_matches_autodiff_reference(self):
        feats, targets = probe_problem(13)
        probe = _train_regression_probe(_ProbeStatistics.of(feats, targets), 1e-2, 200, 5)
        reference = reference_probe_fit(feats, targets, 1e-2, 200, 5)
        np.testing.assert_allclose(probe.flat, reference.flat, rtol=1e-9)

    def test_theta_is_the_probe_storage(self, monkeypatch):
        seen = []
        gradient = _ProbeStatistics.gradient

        def recording(self, theta, out):
            seen.append(theta)
            return gradient(self, theta, out)

        monkeypatch.setattr(_ProbeStatistics, "gradient", recording)
        feats, targets = probe_problem(14)
        probe = _train_regression_probe(_ProbeStatistics.of(feats, targets),
                                        1e-3, 3, 0)
        assert len(seen) == 3
        assert all(np.shares_memory(theta, probe.flat) for theta in seen)

    def test_fit_builds_no_graph_and_steps_once_per_iteration(self, monkeypatch):
        # the optimizer is looked up as eval's module global at call time,
        # and stepped once per iteration: the benchmark's probe timing
        # hooks there
        nodes, steps = [], []

        class CountingNode(ad.Node):
            def __init__(self, op, *args):
                nodes.append(op)
                super().__init__(op, *args)

        class CountingAdamW(ev.AdamW):
            def step(self):
                steps.append(self.step_count)
                return super().step()

        monkeypatch.setattr(ad, "Node", CountingNode)
        monkeypatch.setattr(ev, "AdamW", CountingAdamW)
        feats, targets = probe_problem(15)
        _train_regression_probe(_ProbeStatistics.of(feats, targets),
                                1e-3, 37, 0)
        assert nodes == []
        assert steps == list(range(37))
        reference_probe_fit(feats, targets, 1e-3, 1, 0)
        assert nodes, "the counting Node sees autodiff graphs"

    @pytest.mark.parametrize("constant_column", [False, True])
    def test_train_mse_from_statistics(self, constant_column):
        feats, targets = probe_problem(16, constant_column=constant_column)
        stats = _ProbeStatistics.of(feats, targets)
        probe = _train_regression_probe(stats, 1e-3, 50, 0)
        direct = float(np.mean((probe(Tensor(feats)).values - targets) ** 2))
        theta = probe.flat.reshape(-1, targets.shape[1])
        assert stats.mse(theta) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("constant_column", [False, True])
    def test_least_squares_matches_design_matrix_fit(self, constant_column):
        feats, targets = probe_problem(17, constant_column=constant_column)
        design = np.hstack([feats, np.ones((feats.shape[0], 1))])
        expected = design @ np.linalg.lstsq(design, targets, rcond=None)[0]
        fitted = design @ _ProbeStatistics.of(feats, targets).least_squares()
        assert np.linalg.norm(fitted - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_protocol_reports_exact_and_train_mse(self):
        model = make_model(seed=6)
        ds = regression_dataset(model, np.random.default_rng(6), realizable=False)
        _, (feats, test_feats) = regression_features(model, ds)
        fields, _ = protocol_b(feats, test_feats, ds, lr=1e-3, steps=100, seed=0)
        assert set(fields) == {"protocol_b_mse", "protocol_b_mse_exact",
                               "protocol_b_train_mse"}
        ones = np.ones((feats.shape[0], 1))
        coef = np.linalg.lstsq(np.hstack([feats, ones]), ds.probe.y,
                               rcond=None)[0]
        exact = float(np.mean((test_feats @ coef[:-1] + coef[-1] - ds.test.y) ** 2))
        assert fields["protocol_b_mse_exact"] == pytest.approx(exact, rel=1e-9)
        # the least-squares fit is the floor on the probe split
        floor = _ProbeStatistics.of(feats, ds.probe.y)
        assert fields["protocol_b_train_mse"] >= floor.mse(floor.least_squares()) > 0.0


class TestFeatureGraphs:
    def test_embed_leaves_no_cycles(self):
        model = make_model()
        model.eval_mode()
        x = np.random.default_rng(41).standard_normal((600, IN_DIM))  # two chunks
        encode = partial(encode_for_inference, model)
        predict = partial(predict_forward_for_inference, model)
        context = _embed(encode, x)
        assert garbage_cycles_after(lambda: _embed(encode, x)) == 0
        assert garbage_cycles_after(lambda: _embed(predict, context)) == 0

    @staticmethod
    def lorenz_size_model(mode=ConstraintMode.EXPRESSIVE):
        enc = build_mlp((60, 128, 128, 32), True, derive_seed(0, "init:encoder"))
        p_fwd = build_mlp((32, 128, 32), True, derive_seed(0, "init:p-fwd"))
        model = BiJepaModel(enc, p_fwd, None, 1.0, 0.99, mode)
        model.eval_mode()
        return model

    @pytest.mark.parametrize("predictor", [False, True])
    def test_embed_records_no_graph(self, monkeypatch, predictor):
        """A Lorenz-size pass over 1000 rows, the encoder's or the
        predictor's, builds no node, and beside its output holds less
        than 1 MB at once: a few activations of one 256-row chunk. A
        recorded graph keeps every op's saved context until the features
        are read, and a single 1000-row chunk holds about 3 MB."""
        model = self.lorenz_size_model()
        rows = np.random.default_rng(42).standard_normal((1000, 60))
        fn = partial(encode_for_inference, model)
        if predictor:
            rows, fn = _embed(fn, rows), partial(predict_forward_for_inference, model)
        nodes = []

        class CountingNode(ad.Node):
            def __init__(self, op, *args):
                nodes.append(op)
                super().__init__(op, *args)

        monkeypatch.setattr(ad, "Node", CountingNode)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            feats = _embed(fn, rows)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert nodes == []
        assert peak - feats.nbytes < 1_000_000

    @staticmethod
    def unchunked(model, x, predictor=False):
        """One forward over every row, the encoder's and, with
        ``predictor``, the forward predictor's after it."""
        with ad.no_grad():
            s = encode_for_inference(model, Tensor(x))
            return (predict_forward_for_inference(model, s) if predictor else s).values

    @pytest.mark.parametrize("predictor", [False, True])
    def test_chunk_size_leaves_mlp_features_unchanged(self, predictor):
        # the predictor pass maps the encoder pass's chunked output, and
        # must give the bits of one p_fwd(encoder(x)) forward; the
        # restrictive model projects both passes' outputs
        x = np.random.default_rng(43).standard_normal((519, 60))
        for mode in (ConstraintMode.EXPRESSIVE, ConstraintMode.RESTRICTIVE):
            model = self.lorenz_size_model(mode)
            # either side of each join: a last chunk under 128 rows joins
            # the one before it (257 and 383 rows are one chunk), 384 and
            # 385 split 256 + 128/129, and 519 splits 256 + 263
            for rows in (1, 127, 128, 255, 256, 257, 383, 384, 385, 519):
                feats = _embed(partial(encode_for_inference, model), x[:rows])
                if predictor:
                    feats = _embed(partial(predict_forward_for_inference, model), feats)
                assert np.array_equal(feats, self.unchunked(model, x[:rows], predictor)), \
                    (mode, rows)

    def test_chunk_size_leaves_conv_features_unchanged(self, monkeypatch):
        enc = build_conv_encoder(64, derive_seed(0, "init:encoder"))
        p_fwd = build_mlp((64, HIDDEN, 64), True, derive_seed(0, "init:p-fwd"))
        model = BiJepaModel(enc, p_fwd, None, 1.0, 0.99, ConstraintMode.EXPRESSIVE)
        x = np.random.default_rng(44).standard_normal((384, 1, 28, 14))  # 256 + 128
        # one train-mode pass moves the running statistics eval mode uses
        with ad.no_grad():
            enc(Tensor(x[:16] * 2.0 + 0.5))
        assert enc.mode == "train"
        handed = []

        def recording(name, preds):
            def probe(feats, test_feats, views, **settings):
                handed.append(feats)
                return {name: 0.0}, preds
            return probe

        monkeypatch.setattr(cli, "linear_probe_classify", recording("accuracy", None))
        monkeypatch.setattr(cli, "generative_decoder",
                            recording("decoder_mse", np.zeros((384, 392))))
        views = ViewBatch(x, x)
        cli._image_probes(model, SimpleNamespace(train=views, test=views),
                          {"probe_lr": 1e-3, "probe_epochs": 1}, 0)
        # the run's extraction embeds in eval mode: BatchNorm's running
        # statistics, not the batch's
        assert enc.mode == "eval"
        assert np.array_equal(handed[0], self.unchunked(model, x))


class TestRegressionProtocols:
    def test_realizable_target_fits_to_zero(self):
        model = make_model()
        ds = regression_dataset(model, np.random.default_rng(0))
        (feats, test_feats), _ = regression_features(model, ds)
        fields, _ = protocol_a(feats, test_feats, ds, lr=1e-2, steps=4000, seed=0)
        assert set(fields) == {"protocol_a_mse", "protocol_a_mse_exact",
                               "protocol_a_train_mse"}
        assert fields["protocol_a_mse"] < 1e-6

    def test_collapsed_encoder_hits_variance_floor(self):
        # a constant embedding admits only constant predictions, so the
        # optimal probe is the target mean and MSE equals the variance
        model = make_model(seed=1)
        for p in model.online_encoder.parameters():
            p.values[...] = 0.0
        rng = np.random.default_rng(1)
        model.online_encoder.layers[-1].b.values[...] = rng.standard_normal(EMB)
        xp = rng.standard_normal((256, IN_DIM))
        yp = rng.standard_normal((256, 5)) * 2.0 + 1.0
        ds = SimpleNamespace(probe=ViewBatch(xp, yp), test=ViewBatch(xp, yp))
        (feats, test_feats), _ = regression_features(model, ds)
        fields, _ = protocol_a(feats, test_feats, ds, lr=1e-3, steps=2000, seed=0)
        var = float(yp.var())
        assert abs(fields["protocol_a_mse"] - var) < 0.01 * var

    def test_identity_predictor_makes_protocols_agree(self):
        # relu(x) - relu(-x) == x exactly, so protocol B sees the same
        # features as protocol A and the probes train identically
        w = np.concatenate([np.eye(EMB), -np.eye(EMB)], axis=1)
        rng = np.random.default_rng(0)
        p_fwd = Network([Linear(EMB, 2 * EMB, rng), ReLU(), Linear(2 * EMB, EMB, rng)])
        p_fwd.layers[0].w.values[...] = w
        p_fwd.layers[2].w.values[...] = w.T
        model = make_model(seed=2, p_fwd=p_fwd)
        ds = regression_dataset(model, np.random.default_rng(2))
        context, predicted = regression_features(model, ds)
        fields_a, preds_a = protocol_a(*context, ds, lr=1e-3, steps=2000, seed=0)
        fields_b, preds_b = protocol_b(*predicted, ds, lr=1e-3, steps=2000, seed=0)
        assert fields_a["protocol_a_mse"] == fields_b["protocol_b_mse"]
        assert np.array_equal(preds_a, preds_b)

    def test_probe_determinism(self):
        model = make_model(seed=3)
        ds = regression_dataset(model, np.random.default_rng(3))
        _, predicted = regression_features(model, ds)
        fields_1, preds_1 = protocol_b(*predicted, ds, lr=1e-3, steps=2000, seed=0)
        fields_2, preds_2 = protocol_b(*predicted, ds, lr=1e-3, steps=2000, seed=0)
        assert fields_1["protocol_b_mse"] == fields_2["protocol_b_mse"]
        assert np.array_equal(preds_1, preds_2)

    def test_model_frozen_through_probing(self):
        # the run's regression probes, the only probe code that holds the
        # model: extraction and both fits change none of its networks
        model = make_model(seed=4)
        ds = regression_dataset(model, np.random.default_rng(4))
        prints = [fingerprint(n) for n in (model.online_encoder,
                                           model.target_encoder,
                                           model.p_fwd, model.p_bwd)]
        cli._regression_probes(model, ds, {"probe_lr": 1e-3, "probe_steps": 50}, 0)
        after = [fingerprint(n) for n in (model.online_encoder,
                                          model.target_encoder,
                                          model.p_fwd, model.p_bwd)]
        assert prints == after

    @pytest.mark.parametrize("dims", [(200, 7, 3), (20, 64, 60), (1000, 128, 60), (5, 1, 1)])
    def test_affine_map_has_the_probe_network_bits(self, dims):
        n, d, o = dims
        feats, targets = probe_problem(d + o, n=n, d=d, o=o)
        probe = _train_regression_probe(_ProbeStatistics.of(feats, targets),
                                        1e-3, 3, 0)
        theta = probe.flat.reshape(d + 1, o)
        test_feats = np.random.default_rng(n).standard_normal((n + 3, d))
        assert _affine(test_feats, theta).tobytes() == _predict(probe, test_feats).tobytes()

    def test_backward_predictor_never_evaluated(self):
        class Boom(Network):
            def forward(self, x):
                raise AssertionError("backward predictor must stay idle")
            __call__ = forward

        model = make_model(seed=5, p_bwd=Boom([]))
        ds = regression_dataset(model, np.random.default_rng(5))
        cli._regression_probes(model, ds, {"probe_lr": 1e-3, "probe_steps": 20}, 0)


def split_features(model, mnist):
    """The frozen embeddings of ``mnist``'s train and test views, the two
    arrays the image probes take."""
    return cli._features(encode_for_inference, model, (mnist.train.x, mnist.test.x))


def classification_fixture(rng, n_train=2000, n_test=4000):
    xtr = rng.standard_normal((n_train, IN_DIM))
    xte = rng.standard_normal((n_test, IN_DIM))
    return SimpleNamespace(
        train=ViewBatch(xtr, xtr, labels=rng.integers(0, 10, n_train)),
        test=ViewBatch(xte, xte, labels=rng.integers(0, 10, n_test)))


class TestClassifierProbe:
    def test_random_features_random_labels_chance_level(self):
        model = make_model(seed=2)
        mn = classification_fixture(np.random.default_rng(0))
        fields, _ = linear_probe_classify(*split_features(model, mn), mn,
                                          lr=1e-2, epochs=10, seed=0)
        assert set(fields) == {"accuracy"}
        assert 0.08 <= fields["accuracy"] <= 0.12

    def test_separable_features_learned(self):
        # labels derived from the embedding itself must be predictable
        model = make_model(seed=7)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3000, IN_DIM))
        feats = encode_for_inference(model, Tensor(x)).values
        labels = (feats @ rng.standard_normal(EMB) > 0).astype(np.int64)
        mn = SimpleNamespace(
            train=ViewBatch(x[:2000], x[:2000], labels=labels[:2000]),
            test=ViewBatch(x[2000:], x[2000:], labels=labels[2000:]))
        fields, _ = linear_probe_classify(*split_features(model, mn), mn,
                                          lr=1e-2, epochs=10, seed=0)
        assert fields["accuracy"] > 0.95

    def test_prediction_vector_shape(self):
        model = make_model(seed=8)
        mn = classification_fixture(np.random.default_rng(8), n_test=500)
        _, pred_labels = linear_probe_classify(*split_features(model, mn), mn,
                                               lr=1e-3, epochs=1, seed=0)
        assert pred_labels.shape == (500,)
        assert set(np.unique(pred_labels)) <= set(range(10))


class TestGenerativeDecoder:
    @staticmethod
    def image_fixture(rng, n=512):
        imgs = rng.standard_normal((n, 1, 28, 28))
        return SimpleNamespace(
            train=ViewBatch(imgs[:, :, :, :14], imgs[:, :, :, 14:]),
            test=ViewBatch(imgs[:, :, :, :14], imgs[:, :, :, 14:]))

    @staticmethod
    def conv_free_model(seed):
        # flat 392-pixel inputs keep the fixture cheap; the decoder only
        # needs an embedding, not a conv stack
        enc = build_mlp((392, HIDDEN, HIDDEN, EMB), True,
                        derive_seed(seed, "init:encoder"))
        p_fwd = build_mlp((EMB, HIDDEN, EMB), True, derive_seed(seed, "init:p-fwd"))
        p_bwd = build_mlp((EMB, HIDDEN, EMB), True, derive_seed(seed, "init:p-bwd"))
        return BiJepaModel(enc, p_fwd, p_bwd, 0.5, 0.99, ConstraintMode.EXPRESSIVE)

    def test_mse_and_prediction_shape(self):
        rng = np.random.default_rng(9)
        n = 512
        imgs = rng.standard_normal((n, 392))
        mn = SimpleNamespace(train=ViewBatch(imgs, imgs),
                             test=ViewBatch(imgs[:100], imgs[:100]))
        model = self.conv_free_model(9)
        fields, preds = generative_decoder(*split_features(model, mn), mn,
                                           lr=1e-3, epochs=2, seed=0)
        assert set(fields) == {"decoder_mse"}
        assert preds.shape == (100, 392)
        assert fields["decoder_mse"] >= 0.0

    def test_pixel_std_rescales_mse_exactly(self):
        rng = np.random.default_rng(10)
        imgs = rng.standard_normal((256, 392))
        mn = SimpleNamespace(train=ViewBatch(imgs, imgs),
                             test=ViewBatch(imgs[:64], imgs[:64]))
        model = self.conv_free_model(10)
        fields, preds = generative_decoder(*split_features(model, mn), mn,
                                           lr=1e-3, epochs=1, seed=0)
        # the reported MSE reads in raw pixel units, the predictions stay normalized
        assert fields["decoder_mse"] == _mse(preds, imgs[:64]) * MNIST_STD ** 2
