"""Training-system structure: stop-gradient/EMA wiring, the alpha=1
reduction to the one-directional baseline, and constraint regimes."""

import math

import numpy as np
import pytest

from bijepa import autodiff as ad
from bijepa.autodiff import Tensor
from bijepa.cli import RunConfig, _build_model, _train, effective_hyper
from bijepa.data import ViewBatch
from bijepa.jepa import (
    BiJepaModel, ConstraintMode, _branch, encode_for_inference,
    predict_forward_for_inference, total_loss, train_step,
)
from bijepa.nn import build_conv_encoder, build_mlp
from bijepa.optim import AdamW, ema_update
from bijepa.seeding import derive_seed

from helpers import fingerprint, garbage_cycles_after

IN_DIM, HIDDEN, EMB = 6, 16, 8


def make_networks(mode: ConstraintMode, seed: int, with_bwd: bool):
    enc = build_mlp((IN_DIM, HIDDEN, HIDDEN, EMB), mode.with_ln,
                    derive_seed(seed, "init:encoder"))
    p_fwd = build_mlp((EMB, HIDDEN, EMB), mode.with_ln, derive_seed(seed, "init:p-fwd"))
    p_bwd = None
    if with_bwd:
        p_bwd = build_mlp((EMB, HIDDEN, EMB), mode.with_ln, derive_seed(seed, "init:p-bwd"))
    return enc, p_fwd, p_bwd


def make_model(alpha=0.5, mode=ConstraintMode.EXPRESSIVE, tau=0.99, seed=0,
               lr=1e-3):
    enc, p_fwd, p_bwd = make_networks(mode, seed, with_bwd=alpha != 1.0)
    model = BiJepaModel(enc, p_fwd, p_bwd, alpha, tau, mode)
    opt = AdamW(model.trainable_networks(), lr=lr,
                weight_decay=mode.weight_decay)
    return model, opt


def batch(rng, n=8):
    return (Tensor(rng.standard_normal((n, IN_DIM))),
            Tensor(rng.standard_normal((n, IN_DIM))))


class TestConstraintMode:
    def test_property_table(self):
        u, e, r = (ConstraintMode.UNCONSTRAINED, ConstraintMode.EXPRESSIVE,
                   ConstraintMode.RESTRICTIVE)
        assert (u.with_ln, e.with_ln, r.with_ln) == (False, True, True)
        assert (u.weight_decay, e.weight_decay, r.weight_decay) == (0.0, 1e-4, 1e-4)
        assert (u.project, e.project, r.project) == (False, False, True)


class TestConstruction:
    def test_create_clones_target(self):
        model, _ = make_model()
        assert model.target_encoder is not model.online_encoder
        assert fingerprint(model.target_encoder) == fingerprint(model.online_encoder)

        enc = build_conv_encoder(64, 0)
        enc(Tensor(np.random.default_rng(1).standard_normal((4, 1, 28, 14))))
        p_fwd = build_mlp((64, HIDDEN, 64), True, 1)
        conv = BiJepaModel(enc, p_fwd, None, 1.0, 0.99, ConstraintMode.EXPRESSIVE)
        assert fingerprint(conv.target_encoder) == fingerprint(enc)
        pairs = [(a, b) for online, target in zip(enc.layers, conv.target_encoder.layers)
                 for a, b in zip(online.buffers(), target.buffers())]
        assert len(pairs) == 4
        for a, b in pairs:
            assert np.array_equal(a, b) and not np.shares_memory(a, b)

    def test_alpha_range_enforced(self):
        enc, p_fwd, p_bwd = make_networks(ConstraintMode.EXPRESSIVE, 0, True)
        with pytest.raises(ValueError):
            BiJepaModel(enc, p_fwd, p_bwd, 1.5, 0.99, ConstraintMode.EXPRESSIVE)

    def test_tau_range_enforced(self):
        enc, p_fwd, p_bwd = make_networks(ConstraintMode.EXPRESSIVE, 0, True)
        for tau in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="tau must lie in"):
                BiJepaModel(enc, p_fwd, p_bwd, 0.5, tau, ConstraintMode.EXPRESSIVE)

    def test_p_bwd_present_with_alpha_one_rejected(self):
        enc, p_fwd, p_bwd = make_networks(ConstraintMode.EXPRESSIVE, 0, True)
        with pytest.raises(ValueError):
            BiJepaModel(enc, p_fwd, p_bwd, 1.0, 0.99, ConstraintMode.EXPRESSIVE)

    def test_p_bwd_missing_with_alpha_half_rejected(self):
        enc, p_fwd, _ = make_networks(ConstraintMode.EXPRESSIVE, 0, False)
        with pytest.raises(ValueError):
            BiJepaModel(enc, p_fwd, None, 0.5, 0.99, ConstraintMode.EXPRESSIVE)

    def test_trainable_sets(self):
        model, _ = make_model(alpha=0.5)
        nets = model.trainable_networks()
        assert model.target_encoder not in nets
        assert len(nets) == 3
        classic, _ = make_model(alpha=1.0)
        assert len(classic.trainable_networks()) == 2


class TestStopGradientStructure:
    def test_target_grads_stay_empty(self):
        model, opt = make_model()
        rng = np.random.default_rng(0)
        for step in range(5):
            x, y = batch(rng)
            train_step(model, opt, x, y, step)
            assert all(p.grad is None
                       for p in model.target_encoder.parameters())

    def test_online_encoder_fed_by_both_views(self):
        model, _ = make_model(alpha=0.5)
        rng = np.random.default_rng(1)
        x, y = batch(rng)
        loss, _ = total_loss(model, x, y)
        loss.backward()
        assert all(p.grad is not None
                   for p in model.online_encoder.parameters())

    def test_alpha_zero_silences_forward_predictor(self):
        # the forward branch still runs but its gradient is scaled by 0
        model, _ = make_model(alpha=0.0)
        rng = np.random.default_rng(2)
        x, y = batch(rng)
        loss, _ = total_loss(model, x, y)
        loss.backward()
        for p in model.p_fwd.parameters():
            assert p.grad is not None and not p.grad.any()
        assert any(p.grad.any() for p in model.p_bwd.parameters())

    def test_optimizer_never_touches_target(self):
        model, opt = make_model()
        before = fingerprint(model.target_encoder)
        rng = np.random.default_rng(3)
        x, y = batch(rng)
        loss, _ = total_loss(model, x, y)
        opt.zero_grad()
        loss.backward()
        opt.step()  # no ema here, so the target must be bit-unchanged
        assert fingerprint(model.target_encoder) == before


class TestGraphLifetime:
    @pytest.mark.parametrize("alpha,mode", [
        (0.5, ConstraintMode.EXPRESSIVE),
        (1.0, ConstraintMode.EXPRESSIVE),
        (0.5, ConstraintMode.RESTRICTIVE),
    ])
    def test_train_step_leaves_no_cycles(self, alpha, mode):
        # every graph of a step, the target passes included, is freed by
        # reference counting alone
        model, opt = make_model(alpha=alpha, mode=mode)
        rng = np.random.default_rng(40)
        batches = [batch(rng) for _ in range(3)]

        def steps():
            for step, (x, y) in enumerate(batches):
                assert not train_step(model, opt, x, y, step).diverged

        assert garbage_cycles_after(steps) == 0


class TestEmaReplay:
    def test_target_replays_recurrence_float_exact(self):
        # the target trajectory must be reproducible from logged online
        # parameters alone, applying the same convex-update expression
        tau = 0.99
        model, opt = make_model(tau=tau)
        replay = [p.values.copy() for p in model.online_encoder.parameters()]
        rng = np.random.default_rng(4)
        for step in range(50):
            x, y = batch(rng)
            m = train_step(model, opt, x, y, step)
            assert not m.diverged
            replay = [tau * r + (1.0 - tau) * p_o.values
                      for r, p_o in zip(replay, model.online_encoder.parameters())]
            targets = model.target_encoder.parameters()
            assert len(targets) == len(replay)
            for p_t, r in zip(targets, replay):
                assert np.array_equal(p_t.values, r)
                assert p_t.grad is None

    def test_target_moves_toward_online(self):
        model, opt = make_model(tau=0.9)
        rng = np.random.default_rng(5)
        start = fingerprint(model.target_encoder)
        for step in range(3):
            x, y = batch(rng)
            train_step(model, opt, x, y, step)
        assert fingerprint(model.target_encoder) != start


class TestClassicReduction:
    """alpha=1 must be indistinguishable from a hand-built one-directional
    baseline: same loss bits, same gradient bits, same trajectory."""

    @staticmethod
    def reference_loss(enc_o, enc_t, p_fwd, x, y):
        pred = p_fwd(enc_o(x))
        tgt = ad.stop_gradient(enc_t(y))
        return ad.mse_loss(pred, tgt)

    def test_loss_and_grads_bit_identical(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            x, y = batch(rng)

            model, _ = make_model(alpha=1.0, seed=seed)
            loss_m, metrics = total_loss(model, x, y)
            loss_m.backward()

            enc_o, p_fwd, _ = make_networks(ConstraintMode.EXPRESSIVE, seed, False)
            enc_t = enc_o.copy()
            loss_r = self.reference_loss(enc_o, enc_t, p_fwd,
                                         Tensor(x.values), Tensor(y.values))
            loss_r.backward()

            assert loss_m.item() == loss_r.item()
            assert metrics.fwd_loss == metrics.total_loss
            assert metrics.bwd_loss == 0.0
            ref_params = enc_o.parameters() + p_fwd.parameters()
            params = [p for net in model.trainable_networks() for p in net.parameters()]
            for p_m, p_r in zip(params, ref_params):
                assert np.array_equal(p_m.grad, p_r.grad)

    def test_five_step_trajectory_bit_identical(self):
        tau = 0.99
        model, opt = make_model(alpha=1.0, tau=tau, seed=7)

        enc_o, p_fwd, _ = make_networks(ConstraintMode.EXPRESSIVE, 7, False)
        enc_t = enc_o.copy()
        ref_opt = AdamW([enc_o, p_fwd], lr=1e-3,
                        weight_decay=ConstraintMode.EXPRESSIVE.weight_decay)

        rng = np.random.default_rng(6)
        for step in range(5):
            x, y = batch(rng)
            train_step(model, opt, x, y, step)
            ref_opt.zero_grad()
            loss = self.reference_loss(enc_o, enc_t, p_fwd,
                                       Tensor(x.values), Tensor(y.values))
            loss.backward()
            ref_opt.step()
            ref_opt.zero_grad()
            ema_update(enc_t, enc_o, tau)

        assert fingerprint(model.online_encoder) == fingerprint(enc_o)
        assert fingerprint(model.p_fwd) == fingerprint(p_fwd)
        assert fingerprint(model.target_encoder) == fingerprint(enc_t)

    def test_backward_branch_changes_gradients(self):
        rng = np.random.default_rng(8)
        x, y = batch(rng)
        bi, _ = make_model(alpha=0.5, seed=9)
        cl, _ = make_model(alpha=1.0, seed=9)
        for m, xx, yy in ((bi, x, y), (cl, Tensor(x.values), Tensor(y.values))):
            loss, _ = total_loss(m, xx, yy)
            loss.backward()
        diffs = [not np.array_equal(a.grad, b.grad)
                 for a, b in zip(bi.online_encoder.parameters(),
                                 cl.online_encoder.parameters())]
        assert any(diffs)


class TestLossMetrics:
    def test_exact_convex_combination(self):
        rng = np.random.default_rng(10)
        for alpha in (0.0, 0.25, 0.5, 0.9):
            model, _ = make_model(alpha=alpha)
            x, y = batch(rng)
            _, m = total_loss(model, x, y)
            assert m.total_loss == alpha * m.fwd_loss + (1.0 - alpha) * m.bwd_loss

    def test_norm_metric_matches_encoder_output(self):
        model, _ = make_model()
        rng = np.random.default_rng(11)
        x, y = batch(rng)
        _, m = total_loss(model, x, y)
        model.eval_mode()
        s_x = encode_for_inference(model, Tensor(x.values))
        expected = float(np.linalg.norm(s_x.values, axis=1).mean())
        assert abs(m.mean_embedding_norm - expected) < 1e-12

    @pytest.mark.parametrize("mode", list(ConstraintMode))
    def test_norm_metric_bits_equal_linalg_norm(self, mode):
        rng = np.random.default_rng(12)
        for scale in (1.0, 1e6, 1e-6):
            model, _ = make_model(mode=mode)
            x, y = batch(rng, n=64)
            x = Tensor(x.values * scale)
            _, m = total_loss(model, x, y)
            s_x = encode_for_inference(model, Tensor(x.values))
            expected = float(np.linalg.norm(s_x.values, axis=1).mean())
            assert m.mean_embedding_norm.hex() == expected.hex()

    def test_step_index_recorded(self):
        model, opt = make_model()
        rng = np.random.default_rng(13)
        x, y = batch(rng)
        m = train_step(model, opt, x, y, step=17)
        assert m.step == 17


class TestRestrictiveRegime:
    def test_all_embeddings_on_unit_sphere(self):
        model, _ = make_model(mode=ConstraintMode.RESTRICTIVE)
        rng = np.random.default_rng(14)
        x, y = batch(rng)
        fwd = _branch(model, x, y, model.p_fwd)
        bwd = _branch(model, Tensor(y.values), Tensor(x.values), model.p_bwd)
        for t in (*fwd, *bwd):
            assert np.abs(np.linalg.norm(t.values, axis=1) - 1.0).max() < 1e-9

    def test_inference_embeddings_unit_norm(self):
        model, _ = make_model(mode=ConstraintMode.RESTRICTIVE)
        rng = np.random.default_rng(15)
        x, _ = batch(rng)
        s = encode_for_inference(model, Tensor(x.values))
        for emb in (s, predict_forward_for_inference(model, s)):
            norms = np.linalg.norm(emb.values, axis=1)
            assert np.abs(norms - 1.0).max() < 1e-9

    def test_embedding_norm_metric_is_one(self):
        model, _ = make_model(mode=ConstraintMode.RESTRICTIVE)
        rng = np.random.default_rng(16)
        x, y = batch(rng)
        _, m = total_loss(model, x, y)
        assert abs(m.mean_embedding_norm - 1.0) < 1e-9

    def test_expressive_skips_projection(self):
        model, _ = make_model(mode=ConstraintMode.EXPRESSIVE)
        rng = np.random.default_rng(17)
        x, _ = batch(rng)
        raw = model.online_encoder(Tensor(x.values)).values
        assert np.array_equal(encode_for_inference(model, Tensor(x.values)).values,
                              raw)


class TestDivergenceHandling:
    def test_huge_loss_flagged_but_step_taken(self):
        model, opt = make_model()
        for p in model.p_fwd.parameters():
            p.values *= 1e9
        rng = np.random.default_rng(18)
        x, y = batch(rng)
        m = train_step(model, opt, x, y)
        assert m.diverged
        assert opt.step_count == 1

    def test_nan_gradient_skips_update(self):
        # LayerNorm and ReLU keep this NaN out of the loss, not out of
        # the gradient: AdamW refuses the step
        model, opt = make_model()
        model.online_encoder.parameters()[0].values[0, 0] = np.nan
        rng = np.random.default_rng(19)
        x, y = batch(rng)
        m = train_step(model, opt, x, y)
        assert m.diverged
        assert opt.step_count == 0

    @staticmethod
    def nan_loss_model():
        """A model whose forward loss is NaN on every batch, because the
        forward predictor's last bias is NaN."""
        model, opt = make_model()
        model.p_fwd.layers[-1].b.values[0] = np.nan
        return model, opt

    def test_nan_loss_skips_backward_step_and_ema(self, monkeypatch):
        model, opt = self.nan_loss_model()
        nets = (model.online_encoder, model.target_encoder, model.p_fwd, model.p_bwd)
        before = [net.flat.copy() for net in nets]
        calls = []
        monkeypatch.setattr(Tensor, "backward", lambda loss: calls.append("backward"))
        monkeypatch.setattr(opt, "step", lambda: calls.append("step"))
        m = train_step(model, opt, *batch(np.random.default_rng(19)))
        assert math.isnan(m.total_loss) and m.diverged
        assert calls == []
        for net, flat in zip(nets, before):
            assert np.array_equal(net.flat, flat, equal_nan=True)

    def test_train_stops_at_nan_loss(self):
        # and draws no batch of the stream after it
        model, opt = self.nan_loss_model()
        rng = np.random.default_rng(20)
        drawn = []

        def counting_stream():
            for i in range(5):
                drawn.append(i)
                yield ViewBatch(rng.standard_normal((8, IN_DIM)),
                                rng.standard_normal((8, IN_DIM)))

        history, diverged = _train(model, opt, counting_stream())
        assert diverged
        assert len(history) == 1 and math.isnan(history[0][1])
        assert drawn == [0]

    def test_mode_switch_covers_all_networks(self):
        model, _ = make_model(alpha=0.5)
        model.eval_mode()
        assert all(net.mode == "eval" for net in (
            model.online_encoder, model.target_encoder, model.p_fwd, model.p_bwd))
        model.train_mode()
        assert model.target_encoder.mode == "train"


class TestBatchNormMixing:
    """What one MNIST train step leaves in each encoder's first BatchNorm:
    the fold of the batch statistics of every half it ran on in train
    mode, in call order. The bi-directional variants mix the two halves
    into the running statistics that eval mode later applies to left
    halves alone; classic does not. A diagnostic: no gate reads it."""

    @pytest.mark.parametrize("variant, online_halves, target_halves", [
        ("bijepa-expressive", ("left", "right"), ("right", "left")),
        ("classic", ("left",), ("right",)),
    ])
    def test_first_batch_norm_folds_the_halves_it_saw(self, variant, online_halves,
                                                      target_halves):
        cfg = RunConfig("mnist", variant)
        hyper, mode = effective_hyper(cfg)
        model = _build_model(cfg, hyper, mode)
        opt = AdamW(model.trainable_networks(), lr=hyper["lr"],
                    weight_decay=hyper["weight_decay"])
        rng = np.random.default_rng(8)
        halves = {side: rng.standard_normal((4, 1, 28, 14)) for side in ("left", "right")}
        encoders = {"online": (model.online_encoder, online_halves),
                    "target": (model.target_encoder, target_halves)}
        expected = {}
        for name, (encoder, order) in encoders.items():
            conv, bn = encoder.layers[0], encoder.layers[1]
            k, b = Tensor(conv.k.values.copy()), Tensor(conv.b.values.copy())
            gamma = Tensor(np.ones_like(bn.gamma.values))
            beta = Tensor(np.zeros_like(bn.beta.values))
            mean, var = bn.running_mean.copy(), bn.running_var.copy()
            for side in order:
                ad.batch_norm2d(ad.conv2d(Tensor(halves[side]), k, b), gamma, beta,
                                mean, var, training=True)
            expected[name] = mean, var

        model.train_mode()
        train_step(model, opt, Tensor(halves["left"]), Tensor(halves["right"]))
        for name, (encoder, _) in encoders.items():
            bn = encoder.layers[1]
            mean, var = expected[name]
            assert bn.running_mean.tobytes() == mean.tobytes(), name
            assert bn.running_var.tobytes() == var.tobytes(), name
