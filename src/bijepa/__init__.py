"""Bi-directional joint-embedding predictive architecture laboratory.

Everything is built on a small reverse-mode autodiff engine over dense
float64 arrays: layers and builders in ``nn``, AdamW and the EMA target
update in ``optim``, the training system itself in ``jepa``, data
sources in ``data``, frozen-model probes in ``eval``, and the experiment
runner in ``cli``.
"""

from .autodiff import (
    DegenerateEmbeddingError, GraphConsumedError, ShapeError, Tensor,
)
from .jepa import BiJepaModel, ConstraintMode, StepMetrics
from .optim import AdamW

__version__ = "0.1.0"

__all__ = [
    "Tensor", "ShapeError", "GraphConsumedError", "DegenerateEmbeddingError",
    "BiJepaModel", "ConstraintMode", "StepMetrics", "AdamW", "__version__",
]
