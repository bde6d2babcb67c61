"""Evaluation protocols over frozen pretrained components.

Two regression protocols measure what the representations carry: probe A
regresses the target observation from the context embedding alone, probe
B from the forward-predicted target embedding (encoder and predictor both
frozen). The half-image experiment adds a linear classifier and a small
generative decoder on frozen left-half embeddings.

Every probe entry point takes four arrays, ``(feats, test_feats,
targets, test_targets)``, and the settings it reads as keyword-only
arguments, and returns ``(fields, predictions)``: the report fields it
measured, keyed by their ``cli.ExperimentReport`` names, and its outputs
on ``test_feats``. This module only measures. It knows neither the model
nor a run's held-out splits: ``cli`` picks the rows and targets, and
turns predictions into the run directory's forecast table and images.

A probe never sees the model, so it optimizes only its own parameters
and no gradient can reach the model under evaluation. ``cli`` extracts
the features once per run through ``_embed`` and hands each probe its
arrays: protocol A the context embeddings, protocol B the forward
predictor's outputs on those same embeddings, and the image probes the
embeddings of each split. Any readout of other targets (a backcast of
the context window, a rollout's window k) is the same call with other
target arrays.
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
statistics give the exact least-squares fit, reported next to the gated
AdamW figure.
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


@dataclass(frozen=True)
class _ProbeStatistics:
    """What a linear probe's full-batch MSE on features F (n×d) and
    targets T (n×o) depends on. With A = [F, 1] and Θ = [W; bᵀ],

        n·o·MSE(Θ) = tr(ΘᵀGΘ) − 2·tr(ΘᵀC) + ‖T‖²,  G = AᵀA,  C = AᵀT.
    """

    gram: np.ndarray   # G, (d+1)×(d+1)
    cross: np.ndarray  # C, (d+1)×o
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
        return cls(gram, cross, targets.size)

    def gradient(self, theta: np.ndarray, out: np.ndarray) -> np.ndarray:
        """∂MSE/∂Θ = (2/(n·o))·(GΘ − C), written into ``out``."""
        np.matmul(self.gram, theta, out=out)
        out -= self.cross
        out *= 2.0 / self.size
        return out

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


def _regression_protocol(name: str, feats: np.ndarray, test_feats: np.ndarray,
                         targets: np.ndarray, test_targets: np.ndarray,
                         lr: float, steps: int, seed: int) -> tuple[dict, np.ndarray]:
    """Fit a probe from ``feats`` to ``targets`` and score it on
    ``test_feats`` against ``test_targets``. Returns the report fields
    ``{name}_mse`` (its test MSE) and ``{name}_mse_exact`` (the
    least-squares probe's test MSE), and its test predictions."""
    stats = _ProbeStatistics.of(feats, targets)
    theta = _train_regression_probe(stats, lr, steps, seed).flat.reshape(
        stats.cross.shape)
    preds = _affine(test_feats, theta)
    return {f"{name}_mse": _mse(preds, test_targets),
            f"{name}_mse_exact": _mse(_affine(test_feats, stats.least_squares()),
                                      test_targets)}, preds


def protocol_a(feats: np.ndarray, test_feats: np.ndarray, targets: np.ndarray,
               test_targets: np.ndarray, *, lr: float, steps: int,
               seed: int) -> tuple[dict, np.ndarray]:
    """Does the context embedding carry the target?

    ``feats`` and ``test_feats`` are frozen context embeddings of the
    probe and test rows, and ``targets`` and ``test_targets`` the rows
    they are read out to (in a run, the flattened target windows).
    Trains a probe on the first pair; measures the ``protocol_a_*``
    fields on the second.
    """
    return _regression_protocol("protocol_a", feats, test_feats, targets, test_targets,
                                lr, steps, seed)


def protocol_b(feats: np.ndarray, test_feats: np.ndarray, targets: np.ndarray,
               test_targets: np.ndarray, *, lr: float, steps: int,
               seed: int) -> tuple[dict, np.ndarray]:
    """Can the frozen forward predictor forecast the target?

    Same probe setup as protocol A, but ``feats`` and ``test_feats`` are
    the predicted target embeddings: the frozen forward predictor applied
    to protocol A's context embeddings; measures the ``protocol_b_*``
    fields.
    """
    return _regression_protocol("protocol_b", feats, test_feats, targets, test_targets,
                                lr, steps, seed)


def _fit_epochs(feats: np.ndarray, test_feats: np.ndarray, targets: np.ndarray,
                out_widths: tuple, loss_fn, lr: float, epochs: int, seed: int) -> np.ndarray:
    """Fit ``build_mlp((feature dim, *out_widths), False, seed)`` on the
    train features ``feats`` by mini-batch epochs with a seeded shuffle
    per epoch; return its outputs on ``test_feats``, computed without
    recording a graph.

    ``loss_fn(outputs, targets[idx])`` scores a batch against the rows of
    ``targets`` it was drawn from.
    """
    probe = build_mlp((feats.shape[1], *out_widths), False, derive_seed(seed, "probe-init"))
    opt = AdamW([probe], lr=lr, weight_decay=0.0)
    n, batch = feats.shape[0], _PROBE_BATCH
    batches = shuffled_epochs(n, batch, stream(seed, "probe-shuffle"), drop_last=False)
    for idx in itertools.islice(batches, epochs * math.ceil(n / batch)):
        loss = loss_fn(probe(Tensor(feats[idx])), targets[idx])
        opt.zero_grad()
        loss.backward()
        opt.step()
    opt.zero_grad()
    with ad.no_grad():
        return probe(Tensor(test_feats)).values


def linear_probe_classify(feats: np.ndarray, test_feats: np.ndarray, targets: np.ndarray,
                          test_targets: np.ndarray, *, lr: float, epochs: int,
                          seed: int) -> tuple[dict, np.ndarray]:
    """Linear classifier on frozen left-half embeddings.

    ``feats`` and ``test_feats`` are the embeddings of the train and test
    rows, and ``targets`` and ``test_targets`` their digit labels.
    Measures ``accuracy`` on the test rows; the predictions are its
    labels.
    """
    logits = _fit_epochs(feats, test_feats, targets, (10,), ad.softmax_cross_entropy,
                         lr, epochs, seed)
    pred_labels = logits.argmax(axis=1)
    return {"accuracy": float((pred_labels == test_targets).mean())}, pred_labels


def generative_decoder(feats: np.ndarray, test_feats: np.ndarray, targets: np.ndarray,
                       test_targets: np.ndarray, *, lr: float, epochs: int,
                       seed: int) -> tuple[dict, np.ndarray]:
    """Decoder from frozen left-half embeddings to right-half pixels.

    ``feats`` and ``test_feats`` are the embeddings of the train and test
    rows, and ``targets`` and ``test_targets`` their normalized right
    halves, one flattened row each. A small MLP (hidden 256) regresses
    them. Its test MSE, ``decoder_mse``, is rescaled by MNIST_STD**2 so
    it reads in raw [0,1] pixel units (MSE is invariant to the mean
    shift, so the factor is exact). Predictions stay in normalized units
    for image dumps.
    """
    preds = _fit_epochs(feats, test_feats, targets, (256, targets.shape[1]),
                        lambda out, rows: ad.mse_loss(out, Tensor(rows)), lr, epochs, seed)
    return {"decoder_mse": _mse(preds, test_targets) * MNIST_STD ** 2}, preds
