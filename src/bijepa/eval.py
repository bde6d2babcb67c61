"""Evaluation protocols over frozen pretrained components.

Two regression protocols measure what the representations carry: probe A
regresses the target observation from the context embedding alone, probe
B from the forward-predicted target embedding (encoder and predictor both
frozen). The half-image experiment adds a linear classifier and a small
generative decoder on frozen left-half embeddings.

Each probe entry point returns ``(fields, predictions)``: the report
fields it measured, keyed by their ``cli.ExperimentReport`` names, and
its outputs on the test split. This module only measures; ``cli`` turns
predictions into the run directory's forecast table and images.

Every probe takes its train and test features as arrays and never sees
the model, so it optimizes only its own parameters and no gradient can
reach the model under evaluation. ``cli`` extracts the features once per
run through ``_embed`` and hands each probe its arrays: protocol A the
context embeddings, protocol B the forward predictor's outputs on those
same embeddings, and the image probes the embeddings of each split.
Feature extraction and the image probes' test predictions run under
``autodiff.no_grad``: no graph is recorded, so no forward context is
kept beyond the op that uses it.

The regression probe is fitted on sufficient statistics. Its full-batch
MSE on features F and targets T is a quadratic in Θ = [W; bᵀ] whose
gradient needs only G = AᵀA and C = AᵀT, A = [F, 1]; both are built once,
and each AdamW step then costs a (d+1)×(d+1) by (d+1)×o product instead
of two passes over the n probe rows and an autodiff graph. In exact
arithmetic this is the same AdamW trajectory as autodiff on
``mse_loss(linear(F), T)``; in float64 the summation order differs, so
results differ from that fit in the last digits only. The same
statistics give the probe's final train-split MSE and the exact
least-squares fit, reported next to the gated AdamW figure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import MNIST_STD, shuffled_epochs
from .nn import Network, build_mlp
from .optim import AdamW
from .seeding import derive_seed, stream


# rows per feature-extraction forward
_EMBED_CHUNK = 256
# rows per mini-batch of the image probes' fits
_PROBE_BATCH = 256


def _embed(fn, rows: np.ndarray) -> np.ndarray:
    """``fn``, a map from a Tensor of rows to a Tensor of as many rows,
    applied to ``rows`` without recording a graph, ``_EMBED_CHUNK`` rows
    at a time: how every probe's frozen features are extracted.

    The chunk size bounds the transient working set. A last chunk of
    fewer than half a chunk joins the one before it, so every product
    has at least that many rows unless the input is smaller: BLAS can
    round products with few rows differently (one row runs as a
    matrix-vector product, and OpenBLAS sends products of under about
    10^6 multiply-adds to a small-matrix kernel). With chunks that large
    the output has the bits of one unchunked ``fn`` call. The chunks
    depend only on the row count, so ``_embed(g, _embed(f, rows))`` runs
    ``g`` on the row blocks that ``_embed(g∘f, rows)`` would, with the
    same bits."""
    n = rows.shape[0]
    outs, start = [], 0
    with ad.no_grad():
        while start < n:
            stop = start + _EMBED_CHUNK
            if n - stop < _EMBED_CHUNK // 2:
                stop = n
            outs.append(fn(Tensor(rows[start:stop])).values)
            start = stop
    return np.concatenate(outs, axis=0)


def _predict(probe: Network, feats: np.ndarray) -> np.ndarray:
    """A fitted probe's outputs on ``feats``, without recording a graph."""
    with ad.no_grad():
        return probe(Tensor(feats)).values


@dataclass(frozen=True)
class _ProbeStatistics:
    """What a linear probe's full-batch MSE on features F (n×d) and
    targets T (n×o) depends on. With A = [F, 1] and Θ = [W; bᵀ],

        n·o·MSE(Θ) = tr(ΘᵀGΘ) − 2·tr(ΘᵀC) + ‖T‖²,  G = AᵀA,  C = AᵀT.
    """

    gram: np.ndarray   # G, (d+1)×(d+1)
    cross: np.ndarray  # C, (d+1)×o
    sq_norm: float     # ‖T‖²
    size: int          # n·o

    @classmethod
    def of(cls, feats: np.ndarray, targets: np.ndarray) -> "_ProbeStatistics":
        """Build G and C from F and T without forming A: G's corner is n,
        its border F's column sums, and C's last row T's column sums."""
        n, d = feats.shape
        col_sums = feats.sum(axis=0)
        gram = np.empty((d + 1, d + 1))
        gram[:d, :d] = feats.T @ feats
        gram[:d, d] = col_sums
        gram[d, :d] = col_sums
        gram[d, d] = n
        cross = np.empty((d + 1, targets.shape[1]))
        cross[:d] = feats.T @ targets
        cross[d] = targets.sum(axis=0)
        return cls(gram, cross, float(np.vdot(targets, targets)), targets.size)

    def gradient(self, theta: np.ndarray, out: np.ndarray) -> np.ndarray:
        """∂MSE/∂Θ = (2/(n·o))·(GΘ − C), written into ``out``."""
        np.matmul(self.gram, theta, out=out)
        out -= self.cross
        out *= 2.0 / self.size
        return out

    def mse(self, theta: np.ndarray) -> float:
        """MSE(Θ) on the split the statistics came from, from G, C and ‖T‖²
        alone. Rounding in the cancellation can dip just below zero at an
        exact fit; that reads as 0."""
        quad = np.vdot(theta, self.gram @ theta) - 2.0 * np.vdot(theta, self.cross)
        return max(0.0, float(quad + self.sq_norm) / self.size)

    def least_squares(self) -> np.ndarray:
        """The Θ that minimizes the MSE: a solution of GΘ = C (the
        minimum-norm one when G is singular)."""
        return np.linalg.lstsq(self.gram, self.cross, rcond=None)[0]


def _train_regression_probe(stats: _ProbeStatistics, lr: float, steps: int,
                            seed: int) -> Network:
    """Full-batch AdamW fit of a linear probe, with every gradient taken
    from the sufficient statistics (no autodiff graph)."""
    d, o = stats.cross.shape[0] - 1, stats.cross.shape[1]
    probe = build_mlp((d, o), False, derive_seed(seed, "probe-init"))
    # Network packs w then b, row-major, so its storage read as a
    # (d+1)×o matrix is Θ = [W; bᵀ]; AdamW's updates land in it
    theta = probe.flat.reshape(d + 1, o)
    assert theta.base is probe.flat, "Θ must view the probe's storage"
    lin = probe.layers[0]
    grad = np.empty_like(theta)
    lin.w.grad, lin.b.grad = grad[:d], grad[d]
    opt = AdamW([probe], lr=lr, weight_decay=0.0)
    for _ in range(steps):
        stats.gradient(theta, out=grad)
        opt.step()
    opt.zero_grad()
    return probe


def _affine(feats: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """A linear probe's outputs ``F @ W + b`` for Θ = [W; bᵀ], by the
    operations of ``ad.linear``: b is added into the product in place."""
    y = feats @ theta[:-1]
    y += theta[-1]
    return y


def _mse(preds: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean((preds - targets) ** 2))


def _regression_protocol(name: str, feats: np.ndarray, test_feats: np.ndarray, dataset,
                         lr: float, steps: int, seed: int) -> tuple[dict, np.ndarray]:
    """Fit a probe from ``feats`` to ``dataset``'s probe-split targets and
    score it on ``test_feats`` against the test-split targets. Returns
    the report fields ``{name}_mse`` (its test-split MSE),
    ``{name}_mse_exact`` (the least-squares probe's test-split MSE) and
    ``{name}_train_mse`` (its MSE on the probe split), and its test-split
    predictions."""
    stats = _ProbeStatistics.of(feats, dataset.probe.y)
    theta = _train_regression_probe(stats, lr, steps, seed).flat.reshape(
        stats.cross.shape)
    test_targets = dataset.test.y
    preds = _affine(test_feats, theta)
    return {f"{name}_mse": _mse(preds, test_targets),
            f"{name}_mse_exact": _mse(_affine(test_feats, stats.least_squares()),
                                      test_targets),
            f"{name}_train_mse": stats.mse(theta)}, preds


def protocol_a(feats: np.ndarray, test_feats: np.ndarray, dataset, *, lr: float,
               steps: int, seed: int) -> tuple[dict, np.ndarray]:
    """Does the context embedding carry the target observation?

    ``feats`` and ``test_feats`` are the frozen context embeddings of
    ``dataset``'s probe and test views. Trains a probe from them to the
    flattened target window on the probe split; measures the
    ``protocol_a_*`` fields on the test split.
    """
    return _regression_protocol("protocol_a", feats, test_feats, dataset, lr, steps, seed)


def protocol_b(feats: np.ndarray, test_feats: np.ndarray, dataset, *, lr: float,
               steps: int, seed: int) -> tuple[dict, np.ndarray]:
    """Can the frozen forward predictor forecast the target?

    Same probe setup as protocol A, but ``feats`` and ``test_feats`` are
    the predicted target embeddings: the frozen forward predictor applied
    to protocol A's context embeddings; measures the ``protocol_b_*``
    fields.
    """
    return _regression_protocol("protocol_b", feats, test_feats, dataset, lr, steps, seed)


def _fit_epochs(feats: np.ndarray, test_feats: np.ndarray, out_widths: tuple,
                loss_fn, lr: float, epochs: int, seed: int) -> np.ndarray:
    """Fit ``build_mlp((feature dim, *out_widths), False, seed)`` on the
    train features ``feats`` by mini-batch epochs with a seeded shuffle
    per epoch; return its outputs on ``test_feats``.

    ``loss_fn(outputs, rows)`` scores a batch against the train rows it
    was drawn from.
    """
    probe = build_mlp((feats.shape[1], *out_widths), False, derive_seed(seed, "probe-init"))
    opt = AdamW([probe], lr=lr, weight_decay=0.0)
    n, batch = feats.shape[0], _PROBE_BATCH
    batches = shuffled_epochs(n, batch, stream(seed, "probe-shuffle"), drop_last=False)
    for idx in itertools.islice(batches, epochs * math.ceil(n / batch)):
        loss = loss_fn(probe(Tensor(feats[idx])), idx)
        opt.zero_grad()
        loss.backward()
        opt.step()
    opt.zero_grad()
    return _predict(probe, test_feats)


def linear_probe_classify(feats: np.ndarray, test_feats: np.ndarray, mnist, *,
                          lr: float, epochs: int, seed: int) -> tuple[dict, np.ndarray]:
    """Linear classifier on frozen left-half embeddings.

    ``feats`` and ``test_feats`` are the embeddings of ``mnist``'s train
    and test views, whose digit labels it fits and scores. Measures
    ``accuracy`` on the test split; the predictions are its labels.
    """
    logits = _fit_epochs(
        feats, test_feats, (10,),
        lambda out, idx: ad.softmax_cross_entropy(out, mnist.train.labels[idx]),
        lr, epochs, seed)
    pred_labels = logits.argmax(axis=1)
    return {"accuracy": float((pred_labels == mnist.test.labels).mean())}, pred_labels


def generative_decoder(feats: np.ndarray, test_feats: np.ndarray, mnist, *,
                       lr: float, epochs: int, seed: int) -> tuple[dict, np.ndarray]:
    """Decoder from frozen left-half embeddings to right-half pixels.

    ``feats`` and ``test_feats`` are the embeddings of ``mnist``'s train
    and test views, whose right halves are the targets. A small MLP
    (hidden 256) regresses the normalized right half.
    Its test MSE, ``decoder_mse``, is rescaled by MNIST_STD**2 so it reads in
    raw [0,1] pixel units (MSE is invariant to the mean shift, so the
    factor is exact). Predictions stay in normalized units for image
    dumps.
    """
    targets = mnist.train.y.reshape(mnist.train.size, -1)
    preds = _fit_epochs(
        feats, test_feats, (256, targets.shape[1]),
        lambda out, idx: ad.mse_loss(out, Tensor(targets[idx])),
        lr, epochs, seed)
    test_targets = mnist.test.y.reshape(mnist.test.size, -1)
    return {"decoder_mse": _mse(preds, test_targets) * MNIST_STD ** 2}, preds
