"""Evaluation protocols over frozen pretrained components.

Two regression protocols measure what the representations carry: probe A
regresses the target observation from the context embedding alone, probe
B from the forward-predicted target embedding (encoder and predictor both
frozen). The half-image experiment adds a linear classifier and a small
generative decoder on frozen left-half embeddings.

Probes optimize only their own parameters; features are extracted once
as plain arrays, so no gradient can reach the model under evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import ViewBatch
from .jepa import BiJepaModel, encode_for_inference, predict_forward_for_inference
from .nn import Linear, Network, ReLU, init_parameters
from .optim import AdamW
from .seeding import derive_seed, stream


@dataclass
class ProbeConfig:
    lr: float = 1e-3
    steps: int = 2000
    epochs: int = 10
    batch: int = 256
    seed: int = 0


@dataclass
class ProbeResult:
    mse: float | None = None
    accuracy: float | None = None
    predictions: np.ndarray | None = None

    def __post_init__(self):
        if self.accuracy is not None and not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy out of [0,1]: {self.accuracy}")
        if self.mse is not None and self.mse < 0.0:
            raise ValueError(f"negative mse: {self.mse}")


def _embed(model: BiJepaModel, x_values: np.ndarray, through_predictor: bool,
           chunk: int = 1024) -> np.ndarray:
    """Frozen features for a stack of context views, extracted in eval
    mode and detached from any graph."""
    model.eval_mode()
    fn = predict_forward_for_inference if through_predictor else encode_for_inference
    outs = []
    for start in range(0, x_values.shape[0], chunk):
        part = Tensor(x_values[start:start + chunk])
        outs.append(fn(model, part).values)
    return np.concatenate(outs, axis=0)


def _train_regression_probe(feats: np.ndarray, targets: np.ndarray,
                            cfg: ProbeConfig) -> Network:
    """Full-batch AdamW fit of a linear probe mapping features to targets."""
    probe = Network([Linear(feats.shape[1], targets.shape[1])])
    init_parameters(probe, derive_seed(cfg.seed, "probe-init"))
    opt = AdamW([probe], lr=cfg.lr, weight_decay=0.0)
    f = Tensor(feats)
    t = Tensor(targets)
    for _ in range(cfg.steps):
        loss = ad.mse_loss(probe(f), t)
        opt.zero_grad()
        loss.backward()
        opt.step()
    opt.zero_grad()
    return probe


def _mse(preds: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean((preds - targets) ** 2))


def _regression_protocol(model: BiJepaModel, dataset, cfg: ProbeConfig,
                         through_predictor: bool) -> ProbeResult:
    """Fit a probe on the frozen features of the probe split, report its
    MSE on the test split."""
    feats = _embed(model, dataset.probe.x.values, through_predictor)
    probe = _train_regression_probe(feats, dataset.probe.y.values, cfg)
    test_feats = _embed(model, dataset.test.x.values, through_predictor)
    preds = probe(Tensor(test_feats)).values
    return ProbeResult(mse=_mse(preds, dataset.test.y.values), predictions=preds)


def protocol_a(model: BiJepaModel, dataset, cfg: ProbeConfig) -> ProbeResult:
    """Does the context embedding carry the target observation?

    Trains a probe from frozen context embeddings to the flattened
    target window on the probe split; reports MSE on the test split.
    """
    return _regression_protocol(model, dataset, cfg, through_predictor=False)


def protocol_b(model: BiJepaModel, dataset, cfg: ProbeConfig) -> ProbeResult:
    """Can the frozen forward predictor forecast the target?

    Same probe setup as protocol A, but features are the predicted
    target embeddings: predictor(encoder(context)), both frozen.
    """
    return _regression_protocol(model, dataset, cfg, through_predictor=True)


def _fit_epochs(model: BiJepaModel, mnist, layers, loss_fn,
                cfg: ProbeConfig) -> np.ndarray:
    """Fit ``Network(layers(feature dim))`` on the frozen left-half
    embeddings of the train split, by mini-batch epochs with a seeded
    shuffle per epoch; return its outputs on the test split.

    ``loss_fn(outputs, rows)`` scores a batch against the train rows it
    was drawn from.
    """
    feats = _embed(model, mnist.train.x.values, through_predictor=False)
    probe = Network(layers(feats.shape[1]))
    init_parameters(probe, derive_seed(cfg.seed, "probe-init"))
    opt = AdamW([probe], lr=cfg.lr, weight_decay=0.0)
    rng = stream(cfg.seed, "probe-shuffle")
    n = feats.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch):
            idx = order[start:start + cfg.batch]
            loss = loss_fn(probe(Tensor(feats[idx])), idx)
            opt.zero_grad()
            loss.backward()
            opt.step()
    opt.zero_grad()
    test_feats = _embed(model, mnist.test.x.values, through_predictor=False)
    return probe(Tensor(test_feats)).values


def linear_probe_classify(model: BiJepaModel, mnist, cfg: ProbeConfig) -> ProbeResult:
    """Linear classifier on frozen left-half embeddings.

    ``mnist`` carries train/test ViewBatches with digit labels. Reports
    test accuracy.
    """
    labels = mnist.train.labels
    logits = _fit_epochs(
        model, mnist, lambda dim: [Linear(dim, 10)],
        lambda out, idx: ad.softmax_cross_entropy(out, labels[idx]), cfg)
    pred_labels = logits.argmax(axis=1)
    accuracy = float((pred_labels == mnist.test.labels).mean())
    return ProbeResult(accuracy=accuracy, predictions=pred_labels)


def generative_decoder(model: BiJepaModel, mnist, cfg: ProbeConfig,
                       pixel_std: float = 1.0) -> ProbeResult:
    """Decoder from frozen left-half embeddings to right-half pixels.

    A small MLP (hidden 256) regresses the normalized right half.
    The reported test MSE is rescaled by pixel_std**2 so it reads in
    raw [0,1] pixel units when the caller passes the normalization std
    (MSE is invariant to the mean shift, so the factor is exact).
    Predictions stay in normalized units for image dumps.
    """
    targets = mnist.train.y.values.reshape(mnist.train.size, -1)
    preds = _fit_epochs(
        model, mnist,
        lambda dim: [Linear(dim, 256), ReLU(), Linear(256, targets.shape[1])],
        lambda out, idx: ad.mse_loss(out, Tensor(targets[idx])), cfg)
    test_targets = mnist.test.y.values.reshape(mnist.test.size, -1)
    return ProbeResult(mse=_mse(preds, test_targets) * pixel_std ** 2,
                       predictions=preds)


def forecast_table(test_batch: ViewBatch, result_a: ProbeResult,
                   result_b: ProbeResult) -> list[dict]:
    """One record per test sample: truth and both probes' 1-step
    forecasts, read from the first target-window element."""
    truth = test_batch.y.values[:, 0]
    a = result_a.predictions[:, 0]
    b = result_b.predictions[:, 0]
    return [
        {"sample": i, "truth": float(truth[i]),
         "proto_a": float(a[i]), "proto_b": float(b[i])}
        for i in range(truth.shape[0])
    ]


# ---------------------------------------------------------------------------
# image dumps


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5), maxval 255. Accepts the two half/full image
    widths used by the experiments."""
    image = np.asarray(image)
    if image.ndim != 2 or image.shape[0] != 28 or image.shape[1] not in (14, 28):
        raise ValueError(f"expected (28,14) or (28,28) image, got {image.shape}")
    data = image.astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii"))
        f.write(data.tobytes())
