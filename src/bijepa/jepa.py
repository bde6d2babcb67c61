"""The bi-directional joint-embedding training system.

One model owns four networks: an online encoder that receives gradients,
a target encoder updated only by EMA, a forward predictor (context
embedding -> target embedding), and an optional backward predictor
(target embedding -> context embedding). The loss is a convex
combination of the two prediction errors; alpha=1 is the classic
one-directional case and drops the backward predictor entirely.

Three constraint regimes control embedding stability: Unconstrained
(no normalization, no decay; prone to magnitude explosion), Expressive
(layer norm + weight decay), and Restrictive (additionally projecting
every embedding onto the unit sphere).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import Network
from .optim import AdamW, ema_update

__all__ = [
    "ConstraintMode", "BiJepaModel", "StepMetrics", "total_loss",
    "train_step", "encode_for_inference", "predict_forward_for_inference",
]


class ConstraintMode(enum.Enum):
    UNCONSTRAINED = "unconstrained"
    EXPRESSIVE = "expressive"
    RESTRICTIVE = "restrictive"

    @property
    def with_ln(self) -> bool:
        return self is not ConstraintMode.UNCONSTRAINED

    @property
    def weight_decay(self) -> float:
        return 0.0 if self is ConstraintMode.UNCONSTRAINED else 1e-4

    @property
    def project(self) -> bool:
        return self is ConstraintMode.RESTRICTIVE


@dataclass
class StepMetrics:
    total_loss: float
    fwd_loss: float
    bwd_loss: float
    mean_embedding_norm: float
    step: int
    diverged: bool = False


class BiJepaModel:
    """Four networks plus (alpha, tau, constraint mode). The target encoder
    starts as a copy of the online encoder, with no gradient linkage."""

    def __init__(self, online_encoder: Network, p_fwd: Network,
                 p_bwd: Network | None, alpha: float, tau: float,
                 mode: ConstraintMode):
        for name, value in (("alpha", alpha), ("tau", tau)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0,1], got {value}")
        if (p_bwd is None) != (alpha == 1.0):
            raise ValueError("p_bwd must be absent exactly when alpha == 1")
        self.online_encoder = online_encoder
        self.target_encoder = online_encoder.copy()
        self.p_fwd = p_fwd
        self.p_bwd = p_bwd
        self.alpha = alpha
        self.tau = tau
        self.mode = mode

    def trainable_networks(self) -> list[Network]:
        nets = [self.online_encoder, self.p_fwd]
        if self.p_bwd is not None:
            nets.append(self.p_bwd)
        return nets

    def train_mode(self) -> None:
        for net in (self.online_encoder, self.target_encoder, self.p_fwd, self.p_bwd):
            if net is not None:
                net.train()

    def eval_mode(self) -> None:
        for net in (self.online_encoder, self.target_encoder, self.p_fwd, self.p_bwd):
            if net is not None:
                net.eval()


def _maybe_project(model: BiJepaModel, s: Tensor) -> Tensor:
    return ad.sphere_project(s) if model.mode.project else s


def _branch(model: BiJepaModel, src: Tensor, dst: Tensor, predictor: Network):
    """One prediction direction: ``predictor`` maps the online embedding
    of ``src`` to a guess at the target encoder's embedding of ``dst``.

    Returns (online embedding, prediction, target); the target carries
    no gradient.
    """
    s = _maybe_project(model, model.online_encoder(src))
    pred = _maybe_project(model, predictor(s))
    tgt = ad.stop_gradient(_maybe_project(model, model.target_encoder(dst)))
    return s, pred, tgt


def total_loss(model: BiJepaModel, x: Tensor, y: Tensor, step: int = 0):
    """Convex combination of forward and backward errors.

    Returns (loss tensor, StepMetrics). With alpha == 1 the backward
    branch is never built and the loss is exactly the forward MSE.
    """
    s_x, pred, tgt = _branch(model, x, y, model.p_fwd)
    fwd = ad.mse_loss(pred, tgt)
    # np.linalg.norm(s, axis=1)'s own ufuncs and ndarray.mean's, without
    # their dispatch
    sv = s_x.values
    norms = np.sqrt(np.add.reduce(sv * sv, axis=1))
    norm = float(np.add.reduce(norms) / norms.size)
    if model.p_bwd is None:
        fwd_val = fwd.item()
        return fwd, StepMetrics(fwd_val, fwd_val, 0.0, norm, step)

    _, pred, tgt = _branch(model, y, x, model.p_bwd)
    bwd = ad.mse_loss(pred, tgt)
    alpha = model.alpha
    loss = ad.add(ad.scale(fwd, alpha), ad.scale(bwd, 1.0 - alpha))
    return loss, StepMetrics(loss.item(), fwd.item(), bwd.item(), norm, step)


_DIVERGENCE_CEILING = 1e6


def train_step(model: BiJepaModel, opt: AdamW, x: Tensor, y: Tensor,
               step: int = 0) -> StepMetrics:
    """One full update: loss, backprop, optimizer step, then EMA.

    The target encoder is not registered with the optimizer and evolves
    only through the EMA update. A non-finite loss flags divergence and
    skips the update so the recorded history stays meaningful.
    """
    loss, metrics = total_loss(model, x, y, step)
    if not math.isfinite(metrics.total_loss):
        metrics.diverged = True
        return metrics
    if metrics.total_loss > _DIVERGENCE_CEILING:
        metrics.diverged = True

    opt.zero_grad()
    loss.backward()
    if not opt.step():
        metrics.diverged = True
        opt.zero_grad()
        return metrics
    opt.zero_grad()
    ema_update(model.target_encoder, model.online_encoder, model.tau)
    return metrics


def encode_for_inference(model: BiJepaModel, x: Tensor) -> Tensor:
    """Context embedding from the online encoder, projected when the
    Restrictive regime demands unit-norm embeddings at inference.

    The target encoder plays no role once training ends.
    """
    return _maybe_project(model, model.online_encoder(x))


def predict_forward_for_inference(model: BiJepaModel, s: Tensor) -> Tensor:
    """Predicted target embedding of a context embedding ``s`` (an
    ``encode_for_inference`` output): the forward predictor over it,
    projected under the Restrictive regime."""
    return _maybe_project(model, model.p_fwd(s))
