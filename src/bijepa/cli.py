"""Experiment runner: end-to-end training plus probes for each
configuration, with machine-readable JSON/CSV/PGM outputs.

Subcommands: ``run`` (one experiment/variant/seed), ``suite`` (cross
product of seeds and variants with an aggregate table), ``fetch-mnist``
(download the four canonical IDX files). Exit codes: 0 success, 1 run
error, 2 configuration error.

This module alone writes the run directory: the probes in ``eval``
return the report fields they measured and their test predictions, and
``run`` turns those into ``report.json``, ``forecast.csv`` and the PGM
triptychs. A run pins numpy's BLAS to one thread itself.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import operator
import os
import sys
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .autodiff import Tensor
from .data import (
    LorenzConfig, SineConfig, ViewBatch, build_lorenz_dataset, denormalize_to_u8,
    gen_sine_batch, load_mnist_halves, shuffled_epochs,
)
# no run calls these, but perfbench/tracer.py wraps them by name here
from .data import load_mnist_idx, split_vertical  # noqa: F401
from . import eval as ev, jepa
from .eval import generative_decoder, linear_probe_classify, protocol_a, protocol_b
from .jepa import BiJepaModel, ConstraintMode, train_step
from .nn import build_conv_encoder, build_mlp
from .optim import AdamW
from .seeding import derive_seed, stream


class ConfigError(ValueError):
    """Invalid experiment/variant/override combination."""


# variant -> (constraint mode, is_classic)
_VARIANTS = {
    "bijepa-expressive": (ConstraintMode.EXPRESSIVE, False),
    "bijepa-unconstrained": (ConstraintMode.UNCONSTRAINED, False),
    "bijepa-restrictive": (ConstraintMode.RESTRICTIVE, False),
    "classic": (ConstraintMode.EXPRESSIVE, True),
}

# report fields that a suite records per run and averages per variant
_METRICS = ("final_train_loss", "protocol_a_mse", "protocol_b_mse",
            "accuracy", "decoder_mse")


@dataclass
class RunConfig:
    experiment: str
    variant: str
    seed: int | str = 0  # text is read as Domain reads it
    out_dir: str | None = None
    mnist_dir: str | None = None
    overrides: dict = field(default_factory=dict)


@dataclass
class ExperimentReport:
    config: dict
    final_train_loss: float
    loss_history: list
    diverged: bool
    wall_time: float
    # probe fields: None unless one of the run's probes measures it, and
    # each probe in eval returns what it measured under these names
    protocol_a_mse: float | None = None
    protocol_b_mse: float | None = None
    # diagnostics beside the gated probe MSEs: the least-squares probe's
    # test MSE, and the AdamW probe's MSE on the probe split
    protocol_a_mse_exact: float | None = None
    protocol_b_mse_exact: float | None = None
    protocol_a_train_mse: float | None = None
    protocol_b_train_mse: float | None = None
    accuracy: float | None = None
    decoder_mse: float | None = None
    forecast: list = field(default_factory=list)


def effective_hyper(cfg: RunConfig) -> tuple[dict, ConstraintMode]:
    """Merge defaults, variant constraints, and user overrides into the
    fully explicit hyperparameter dict echoed by the report. Every value
    is checked against its key's domain."""
    if cfg.experiment not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {cfg.experiment!r}; choose from {tuple(_EXPERIMENTS)}")
    if cfg.variant not in _VARIANTS:
        raise ConfigError(f"unknown variant {cfg.variant!r}; choose from {tuple(_VARIANTS)}")
    mode, is_classic = _VARIANTS[cfg.variant]
    if mode is ConstraintMode.UNCONSTRAINED and cfg.experiment != "sine":
        raise ConfigError(
            "the unconstrained variant is only defined for the sine experiment "
            "(its divergence study); pick expressive/restrictive/classic here")
    _NATURAL.check("seed", cfg.seed)

    if is_classic and "alpha" in cfg.overrides:
        raise ConfigError("classic fixes alpha at 1 and has no backward "
                          "predictor; set alpha on a bijepa variant")

    experiment = _EXPERIMENTS[cfg.experiment]
    hyper = dict(experiment.hyper)
    hyper["weight_decay"] = mode.weight_decay
    hyper["alpha"] = 1.0 if is_classic else 0.5
    for key, value in cfg.overrides.items():
        if key not in hyper:
            raise ConfigError(
                f"unknown override {key!r} for {cfg.experiment}; valid keys: "
                f"{sorted(hyper)}")
        hyper[key] = value
    domains = experiment.domains()
    return {key: domains[key].check(key, value) for key, value in hyper.items()}, mode


@dataclass(frozen=True)
class Domain:
    """The values one hyperparameter may take: a number type plus bounds.

    The one reader of a number a user types, by any path: text is read
    the way ``int()`` reads it, or else the way ``float()`` does. Integer
    keys take integral values, float keys finite ones; neither takes a
    boolean.
    """

    kind: type              # int or float
    gt: float | None = None  # every value must exceed this
    ge: float | None = None  # lowest allowed value
    le: float | None = None  # highest allowed value

    def check(self, key: str, value):
        """``value`` coerced onto ``kind``; ConfigError outside the domain."""
        v = self._coerce(key, value)
        if ((self.gt is not None and not v > self.gt)
                or (self.ge is not None and not v >= self.ge)
                or (self.le is not None and not v <= self.le)):
            raise ConfigError(f"{key} must be {self}, got {value!r}")
        return v

    def _coerce(self, key: str, value):
        kind = self.kind
        error = ConfigError(f"{key} needs "
                            f"{'an integer' if kind is int else 'a finite number'}, got {value!r}")
        if isinstance(value, bool):
            raise error
        try:
            if isinstance(value, str):  # as int() reads it, else as float() does
                try:
                    value = int(value)
                except ValueError:
                    value = float(value)
            coerced = kind(value)
        except (TypeError, ValueError, OverflowError):
            raise error from None
        # an integer key's value must be integral, a float key's finite
        if (coerced != value) if kind is int else not math.isfinite(coerced):
            raise error
        return coerced

    def __str__(self) -> str:
        bounds = [f"{op} {bound}" for op, bound in
                  ((">", self.gt), (">=", self.ge), ("<=", self.le)) if bound is not None]
        return " and ".join(bounds)


_POSITIVE = Domain(float, gt=0.0)
_NON_NEGATIVE = Domain(float, ge=0.0)
_FRACTION = Domain(float, ge=0.0, le=1.0)
_COUNT = Domain(int, ge=1)
_NATURAL = Domain(int, ge=0)

# The domain of every hyperparameter key. An experiment's own_domains
# take precedence: a Lorenz batch is at most the train split, and
# MNIST's BatchNorm needs batches of two rows or more.
_DOMAINS = {
    "lr": _POSITIVE, "weight_decay": _NON_NEGATIVE, "tau": _FRACTION, "alpha": _FRACTION,
    "steps": _COUNT, "epochs": _COUNT, "batch": _COUNT,
    "enc_hidden": _COUNT, "emb_dim": _COUNT, "pred_hidden": _COUNT, "train_limit": _NATURAL,
    "probe_lr": _POSITIVE, "probe_steps": _COUNT, "probe_epochs": _COUNT,
}


def _build_model(cfg: RunConfig, hyper: dict, mode: ConstraintMode) -> BiJepaModel:
    alpha = hyper["alpha"]
    with_ln = mode.with_ln
    encoder = _EXPERIMENTS[cfg.experiment].encoder(
        hyper, with_ln, derive_seed(cfg.seed, "init:encoder"))
    pred_widths = (hyper["emb_dim"], hyper["pred_hidden"], hyper["emb_dim"])
    p_fwd = build_mlp(pred_widths, with_ln, derive_seed(cfg.seed, "init:p-fwd"))
    p_bwd = None
    if alpha != 1.0:
        p_bwd = build_mlp(pred_widths, with_ln, derive_seed(cfg.seed, "init:p-bwd"))
    return BiJepaModel(encoder, p_fwd, p_bwd, alpha, hyper["tau"], mode)


def _train(model: BiJepaModel, opt: AdamW, batches):
    """One train_step per batch of ``batches``, the run's whole stream;
    returns (history, diverged).

    History rows are [step, total, fwd, bwd, emb_norm]. A non-finite
    loss stops training immediately, before the next batch is drawn; a
    merely huge loss only flags the run and keeps recording (the
    divergence study needs the full trace).
    """
    model.train_mode()
    history = []
    diverged = False
    for step, batch in enumerate(batches):
        m = train_step(model, opt, Tensor(batch.x), Tensor(batch.y), step)
        history.append([step, m.total_loss, m.fwd_loss, m.bwd_loss,
                        m.mean_embedding_norm])
        diverged = diverged or m.diverged
        if not math.isfinite(m.total_loss):
            break
    return history, diverged


def _final_loss(history: list) -> float:
    tail = [row[1] for row in history[-100:] if math.isfinite(row[1])]
    return float(np.mean(tail)) if tail else float("nan")


# ---------------------------------------------------------------------------
# experiments
#
# Each experiment names its encoder, its data (every training batch and
# the held-out splits) and its probes. The helpers below look the
# data, probe and output functions up by name when they run, so callers
# that replace those module attributes (timing and tracing harnesses)
# see every call.


def _mlp_encoder(in_dim: int):
    """Encoder builder for context windows ``in_dim`` values wide."""
    def build(hyper: dict, with_ln: bool, seed: int):
        hidden = hyper["enc_hidden"]
        return build_mlp((in_dim, hidden, hidden, hyper["emb_dim"]), with_ln, seed)
    return build


def _conv_encoder(hyper: dict, with_ln: bool, seed: int):
    return build_conv_encoder(hyper["emb_dim"], seed)


def _sine_data(cfg: RunConfig, hyper: dict):
    """``steps`` fresh batches, one a step; fixed probe and test sets."""
    noise_std = SineConfig.noise_std
    held_out = SimpleNamespace(
        probe=gen_sine_batch(SineConfig.n_probe, noise_std,
                             stream(cfg.seed, "data:sine-probe")),
        test=gen_sine_batch(SineConfig.n_test, noise_std,
                            stream(cfg.seed, "data:sine-test")),
    )
    rng = stream(cfg.seed, "data:sine")
    batches = (gen_sine_batch(hyper["batch"], noise_std, rng) for _ in range(hyper["steps"]))
    return batches, held_out


def _lorenz_data(cfg: RunConfig, hyper: dict):
    """``steps`` shuffled batches of the train split, full batches only."""
    dataset = build_lorenz_dataset(cfg.seed)
    order = shuffled_epochs(dataset.train.size, hyper["batch"],
                            stream(cfg.seed, "data:batches"), drop_last=True)
    return map(dataset.train.take, islice(order, hyper["steps"])), dataset


def _mnist_data(cfg: RunConfig, hyper: dict):
    """Shuffled batches of the (optionally truncated) train halves for a
    whole number of epochs, the last batch of each epoch partial."""
    d = resolve_mnist_dir(cfg.mnist_dir)
    views = SimpleNamespace(
        train=load_mnist_halves(d / "train-images-idx3-ubyte",
                                d / "train-labels-idx1-ubyte", hyper["train_limit"]),
        test=load_mnist_halves(d / "t10k-images-idx3-ubyte",
                               d / "t10k-labels-idx1-ubyte", 0))
    for name, split in (("train", views.train), ("t10k", views.test)):
        if split.size == 0:
            raise ConfigError(f"the {name} split in {d} has no images")
    if views.train.size % hyper["batch"] == 1:
        raise ConfigError(
            f"a train split of {views.train.size} images leaves a one-row last "
            f"batch at batch={hyper['batch']}, and BatchNorm needs two rows; "
            "change batch or train_limit")
    order = shuffled_epochs(views.train.size, hyper["batch"],
                            stream(cfg.seed, "data:batches"), drop_last=False)
    steps = hyper["epochs"] * math.ceil(views.train.size / hyper["batch"])
    return map(views.train.take, islice(order, steps)), views


def resolve_mnist_dir(explicit: str | None) -> Path:
    """The --mnist-dir flag when given, and nothing else; without it,
    BIJEPA_MNIST_DIR, then ./mnist-data. A directory counts only if it
    holds all four files of ``_MNIST_FILES``."""
    candidates = [explicit] if explicit else [
        d for d in (os.environ.get("BIJEPA_MNIST_DIR"), "mnist-data") if d]
    for candidate in candidates:
        d = Path(candidate)
        if all((d / name).exists() for name in _MNIST_FILES):
            return d
    raise FileNotFoundError(
        f"MNIST IDX files not found in {', '.join(candidates)}; pass --mnist-dir, "
        "set BIJEPA_MNIST_DIR, or run `bijepa fetch-mnist --out mnist-data`")


def _features(fn, model: BiJepaModel, arrays) -> list[np.ndarray]:
    """``fn(model, rows)`` of each of ``arrays``, with the model frozen in
    eval mode (BatchNorm reads its running statistics). Every probe's
    features come from here, through ``eval._embed``, which is looked up
    at call time so that a harness that replaces it sees every call."""
    model.eval_mode()
    return [ev._embed(lambda rows: fn(model, rows), array) for array in arrays]


def _regression_probes(model: BiJepaModel, held_out, hyper: dict, seed: int):
    """Protocols A and B on features extracted once; returns (report
    fields, images). The encoder runs once over the probe split and once
    over the test split, and the forward predictor over those two
    context embeddings: A fits on the embeddings, B on the predictions.
    The fields include the forecast table of both probes' test
    predictions, and there are no images."""
    settings = {"lr": hyper["probe_lr"], "steps": hyper["probe_steps"], "seed": seed}
    context = _features(jepa.encode_for_inference, model,
                        (held_out.probe.x, held_out.test.x))
    predicted = _features(jepa.predict_forward_for_inference, model, context)
    measured_a, preds_a = protocol_a(*context, held_out, **settings)
    measured_b, preds_b = protocol_b(*predicted, held_out, **settings)
    forecast = forecast_table(held_out.test, preds_a, preds_b)
    return {**measured_a, **measured_b, "forecast": forecast}, []


def _image_probes(model: BiJepaModel, views, hyper: dict, seed: int):
    """Digit classifier and right-half decoder, both fitted on one
    embedding of each split, extracted once; returns (report fields,
    images): the decoder's triptychs."""
    settings = {"lr": hyper["probe_lr"], "epochs": hyper["probe_epochs"], "seed": seed}
    feats = _features(jepa.encode_for_inference, model, (views.train.x, views.test.x))
    measured_acc, _ = linear_probe_classify(*feats, views, **settings)
    measured_dec, generated = generative_decoder(*feats, views, **settings)
    return {**measured_acc, **measured_dec}, _triptychs(views.test, generated)


def forecast_table(test_batch: ViewBatch, preds_a: np.ndarray,
                   preds_b: np.ndarray) -> list[dict]:
    """One record per test sample: truth and both probes' 1-step
    forecasts, read from the first target-window element."""
    truth = test_batch.y[:, 0]
    a, b = preds_a[:, 0], preds_b[:, 0]
    return [
        {"sample": i, "truth": float(truth[i]),
         "proto_a": float(a[i]), "proto_b": float(b[i])}
        for i in range(truth.shape[0])
    ]


def _triptychs(test_views: ViewBatch, generated: np.ndarray) -> list:
    """Per-sample image trio (context half, generated half, true half)
    for the first 8 test samples."""
    images = []
    for i in range(min(8, test_views.size)):
        ctx = denormalize_to_u8(test_views.x[i, 0])
        gen = denormalize_to_u8(generated[i].reshape(28, 14))
        tru = denormalize_to_u8(test_views.y[i, 0])
        images.append((f"recon_{i:02d}_input.pgm", ctx))
        images.append((f"recon_{i:02d}_gen.pgm", gen))
        images.append((f"recon_{i:02d}_truth.pgm", tru))
    return images


@dataclass(frozen=True)
class _Experiment:
    hyper: dict         # base hyperparameters, each overridable with --set
    encoder: Callable   # (hyper, with_ln, seed) -> encoder Network
    data: Callable      # (cfg, hyper) -> (every training batch, held-out splits)
    probes: Callable    # (model, held-out splits, hyper, seed) -> (report fields, images)
    verdict: tuple      # (suite metric, verdict name, "bijepa beats classic" comparison)
    own_domains: dict   # domains that differ from _DOMAINS for this experiment

    def domains(self) -> dict:
        return {**_DOMAINS, **self.own_domains}


_EXPERIMENTS = {
    "sine": _Experiment(
        hyper={
            "lr": 1e-3, "steps": 2000, "batch": 64, "tau": 0.995,
            "enc_hidden": 64, "emb_dim": 16, "pred_hidden": 64,
            "probe_lr": 1e-3, "probe_steps": 2000,
        },
        encoder=_mlp_encoder(SineConfig.T // 2), data=_sine_data,
        probes=_regression_probes, verdict=("protocol_b_mse", "protoB", operator.lt),
        own_domains={}),
    "lorenz": _Experiment(
        hyper={
            "lr": 5e-4, "steps": 3000, "batch": 64, "tau": 0.995,
            "enc_hidden": 128, "emb_dim": 32, "pred_hidden": 128,
            "probe_lr": 1e-3, "probe_steps": 2000,
        },
        encoder=_mlp_encoder(LorenzConfig.T // 2 * 3), data=_lorenz_data,
        probes=_regression_probes, verdict=("protocol_b_mse", "protoB", operator.lt),
        own_domains={"batch": Domain(int, ge=1, le=LorenzConfig.n_train)}),
    "mnist": _Experiment(
        hyper={
            "lr": 1e-3, "epochs": 10, "batch": 256, "tau": 0.99,
            "emb_dim": 64, "pred_hidden": 128,
            "train_limit": 0,  # 0 = full train split
            # probes get a larger lr than the encoder: a 64->10 softmax
            # head needs weights of order 10 and will not plateau within
            # 10 epochs at 1e-3
            "probe_lr": 1e-2, "probe_epochs": 10,
        },
        encoder=_conv_encoder, data=_mnist_data, probes=_image_probes,
        verdict=("accuracy", "accuracy", operator.gt),
        own_domains={"batch": Domain(int, ge=2)}),
}


def run(cfg: RunConfig) -> ExperimentReport:
    """Train one configuration end to end, run its probes, and write all
    artifacts when an output directory is configured."""
    t0 = time.perf_counter()
    _keep_freed_heap()
    _one_blas_thread()
    hyper, mode = effective_hyper(cfg)
    cfg = replace(cfg, seed=_NATURAL.check("seed", cfg.seed))  # 1.0 and "1" echo as 1
    experiment = _EXPERIMENTS[cfg.experiment]
    model = _build_model(cfg, hyper, mode)
    opt = AdamW(model.trainable_networks(), lr=hyper["lr"],
                weight_decay=hyper["weight_decay"])

    batches, held_out = experiment.data(cfg, hyper)
    history, diverged = _train(model, opt, batches)
    measured, images = experiment.probes(
        model, held_out, hyper, derive_seed(cfg.seed, "probe"))

    report = ExperimentReport(
        config=_echo_config(cfg, hyper, mode),
        final_train_loss=_final_loss(history),
        loss_history=history,
        diverged=diverged,
        wall_time=time.perf_counter() - t0,
        **measured,
    )
    if cfg.out_dir is not None:
        emit_outputs(report, cfg.out_dir, images)
    return report


def _echo_config(cfg: RunConfig, hyper: dict, mode: ConstraintMode) -> dict:
    echo = {
        "experiment": cfg.experiment,
        "variant": cfg.variant,
        "constraint_mode": mode.value,
        "seed": cfg.seed,
    }
    echo.update(sorted(hyper.items()))
    return echo


def emit_outputs(report: ExperimentReport, out_dir, images) -> None:
    """Write report.json, loss.csv, forecast.csv, and the given
    reconstruction images, (file name, uint8 array) pairs, into out_dir.

    report.json and the CSVs are streamed into their files as they are
    encoded; report.json is the report's fields (the values themselves,
    not deep copies) as indented JSON with sorted keys."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump({fd.name: getattr(report, fd.name) for fd in fields(report)}, fh,
                  indent=2, sort_keys=True)

    _write_csv(out / "loss.csv", "step,total,fwd,bwd,emb_norm", (
        f"{step},{total!r},{fwd!r},{bwd!r},{norm!r}"
        for step, total, fwd, bwd, norm in report.loss_history))

    if report.forecast:
        _write_csv(out / "forecast.csv", "sample,truth,proto_a,proto_b", (
            f"{rec['sample']},{rec['truth']!r},{rec['proto_a']!r},{rec['proto_b']!r}"
            for rec in report.forecast))

    for name, image in images:
        write_pgm(out / name, image)


def _write_csv(path: Path, header: str, rows) -> None:
    """``header`` and then each row, one per line, streamed."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        f.writelines(row + "\n" for row in rows)


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5), maxval 255, of a (28,14) half image: the only
    shape a run writes."""
    image = np.asarray(image)
    if image.shape != (28, 14):
        raise ValueError(f"expected a (28,14) image, got {image.shape}")
    with open(path, "wb") as f:
        f.write(b"P5\n14 28\n255\n" + image.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# suite


def run_suite(seeds: list[int | str], variants: list[str], experiment: str,
              out_dir=None, mnist_dir=None, overrides: dict | None = None) -> dict:
    """Cross product of seeds and variants with per-variant means and
    ordering verdicts. Member failures are recorded, not fatal."""
    if not seeds:
        raise ConfigError("suite needs at least one seed")
    if not variants:
        raise ConfigError("suite needs at least one variant")
    # coerced first, so that 0 and "0" count as a repeat
    seeds = [_NATURAL.check("seed", seed) for seed in seeds]
    for name, values in (("seeds", seeds), ("variants", variants)):
        if len(set(values)) != len(values):
            raise ConfigError(f"suite {name} repeat: {values}")
    configs = [
        RunConfig(experiment, variant, seed=seed,
                  out_dir=None if out_dir is None
                  else str(Path(out_dir) / f"{experiment}-{variant}-s{seed}"),
                  mnist_dir=mnist_dir, overrides=dict(overrides or {}))
        for variant in variants for seed in seeds]
    for cfg in configs:
        effective_hyper(cfg)  # fail fast on config errors before any training runs

    rows = []
    for cfg in configs:
        row = {"experiment": experiment, "variant": cfg.variant, "seed": cfg.seed,
               "status": "ok", "error": "", **dict.fromkeys(_METRICS),
               "diverged": None}
        try:
            report = run(cfg)
            row.update({k: getattr(report, k) for k in _METRICS},
                       diverged=report.diverged)
        except Exception as exc:  # member failure recorded, suite continues
            row["status"] = "error"
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)

    means: dict[str, dict] = {}
    for variant in variants:
        ok = [r for r in rows if r["variant"] == variant and r["status"] == "ok"]
        means[variant] = {
            k: (float(np.mean([r[k] for r in ok])) if ok and all(
                r[k] is not None for r in ok) else None)
            for k in _METRICS
        }
        means[variant]["n_ok"] = len(ok)

    verdicts = _suite_verdicts(rows, variants, experiment, seeds)
    result = {"experiment": experiment, "rows": rows, "means": means,
              "verdicts": verdicts}
    if out_dir is not None:
        _write_suite_csv(result, Path(out_dir))
    return result


def _suite_verdicts(rows, variants, experiment, seeds) -> dict:
    """Does bijepa-expressive beat classic on the experiment's suite
    metric for a majority of seeds?"""
    if "bijepa-expressive" not in variants or "classic" not in variants:
        return {}
    metric, name, beats = _EXPERIMENTS[experiment].verdict
    ok = {(r["variant"], r["seed"]): r[metric] for r in rows if r["status"] == "ok"}
    wins = [beats(ok["bijepa-expressive", seed], ok["classic", seed]) for seed in seeds
            if ok.get(("bijepa-expressive", seed)) is not None and ("classic", seed) in ok]
    key = f"bijepa_beats_classic_{name}"
    return {key: bool(wins) and sum(wins) * 2 > len(wins), f"{key}_per_seed": wins}


def _write_suite_csv(result: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    header = ",".join(["experiment", "variant", "seed", "kind", "status", "error",
                       *_METRICS, "diverged"])

    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return repr(v)
        return str(v)

    rows = [[r["experiment"], r["variant"], r["seed"], "run", r["status"],
             r["error"].replace(",", ";"), *[r[k] for k in _METRICS], r["diverged"]]
            for r in result["rows"]]
    rows += [[result["experiment"], variant, "", "mean", f"n_ok={m['n_ok']}", "",
              *[m[k] for k in _METRICS], ""]
             for variant, m in result["means"].items()]
    _write_csv(out / "suite.csv", header, (",".join(fmt(v) for v in row) for row in rows))
    (out / "verdicts.json").write_text(
        json.dumps(result["verdicts"], indent=2, sort_keys=True), encoding="utf-8")


# ---------------------------------------------------------------------------
# MNIST fetch

_MNIST_FILES = {
    "train-images-idx3-ubyte": 47040016,
    "train-labels-idx1-ubyte": 60008,
    "t10k-images-idx3-ubyte": 7840016,
    "t10k-labels-idx1-ubyte": 10008,
}
_DEFAULT_MNIST_URL = "https://ossci-datasets.s3.amazonaws.com/mnist/"
_FETCH_TIMEOUT_S = 60.0


def fetch_mnist(out_dir, base_url: str) -> list[Path]:
    """Download, decompress, and size-verify the four IDX files of
    ``_MNIST_FILES``.

    Already-present files of the right size are left alone; failed or
    mismatched downloads never leave partial files behind. A connect or
    read that stalls for ``_FETCH_TIMEOUT_S`` seconds fails the download.
    """
    # imported here so that no other command loads the network stack
    import gzip
    import urllib.request

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    placed = []
    for name, size in _MNIST_FILES.items():
        dest = out / name
        if dest.exists() and dest.stat().st_size == size:
            placed.append(dest)
            continue
        url = base_url.rstrip("/") + "/" + name + ".gz"
        tmp = out / (name + ".part")
        try:
            with urllib.request.urlopen(url, timeout=_FETCH_TIMEOUT_S) as resp:
                blob = resp.read()
            try:
                blob = gzip.decompress(blob)
            except gzip.BadGzipFile:
                pass  # server provided the raw file
            if len(blob) != size:
                raise IOError(
                    f"{name}: got {len(blob)} bytes, expected {size}")
            tmp.write_bytes(blob)
            tmp.replace(dest)
            placed.append(dest)
        except Exception:
            tmp.unlink(missing_ok=True)
            raise
    return placed


# ---------------------------------------------------------------------------
# entry point


def _parse_set(pairs: list[str]) -> dict:
    """``KEY=VALUE`` pairs as {key: value text}, the last pair of a key
    winning; ``Domain`` reads the text."""
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key] = value
    return overrides


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bijepa",
        description="Train bi-directional joint-embedding models and "
                    "reproduce the sine/Lorenz/MNIST experiment tables.")
    sub = p.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("run", help="train one configuration and run its probes")
    rp.add_argument("--experiment", required=True, choices=tuple(_EXPERIMENTS))
    rp.add_argument("--variant", required=True, choices=tuple(_VARIANTS))
    rp.add_argument("--seed", default=0)

    sp = sub.add_parser("suite", help="run a seeds x variants cross product")
    sp.add_argument("--experiment", required=True, choices=tuple(_EXPERIMENTS))
    sp.add_argument("--variants", required=True,
                    help="comma-separated list, e.g. bijepa-expressive,classic")
    sp.add_argument("--seeds", required=True,
                    help="comma-separated integers, e.g. 0,1,2")

    for q in (rp, sp):
        q.add_argument("--out", default=None)
        q.add_argument("--mnist-dir", default=None)
        q.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        # items of the --set list, so the last setting of a key wins
        for key in ("steps", "epochs"):
            q.add_argument(f"--{key}", dest="set", action="append",
                           type=f"{key}={{}}".format, metavar="N", help=f"--set {key}=N")

    fp = sub.add_parser("fetch-mnist", help="download the four IDX files")
    fp.add_argument("--out", default="mnist-data")
    fp.add_argument("--base-url", default=_DEFAULT_MNIST_URL)
    return p


def _keep_freed_heap() -> None:
    """Let glibc malloc reuse freed memory instead of returning it.

    Graphs are acyclic, so a training step frees its whole graph on
    return and the heap's top falls back by megabytes. By default glibc
    trims any free top above 128 KiB, and the next step page-faults the
    same memory back in. A 128 MiB trim threshold keeps that memory for
    reuse: a seed-0 sine ``classic`` run takes 6.3 thousand minor page
    faults instead of 216 thousand, at the same peak RSS (40.3 MB either
    way). Fixing the mmap threshold at glibc's dynamic maximum (32 MiB)
    keeps large arrays on the heap too, since setting either option turns
    off glibc's own threshold adjustment. Elsewhere (no ``mallopt``) this
    does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 128 << 20)


def _one_blas_thread() -> None:
    """Run numpy's BLAS on one thread, whatever the thread variables say.

    The thread count decides how OpenBLAS splits a product, and so the
    last bits of its result: a seed-0 Lorenz run on two threads writes a
    different ``forecast.csv`` from one on a single thread. The setter
    that numpy's bundled OpenBLAS exports makes a run with the thread
    variables unset write the bytes of one under
    ``OPENBLAS_NUM_THREADS=1``. A numpy whose BLAS has no such setter
    gets a warning and keeps its own thread count.
    """
    try:
        blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        setter = blas.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        warnings.warn("numpy's BLAS exports no OpenBLAS thread setter; run "
                      "with OPENBLAS_NUM_THREADS=1 for reproducible bits",
                      RuntimeWarning, stacklevel=2)
        return
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(1)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = RunConfig(args.experiment, args.variant, seed=args.seed,
                            out_dir=args.out, mnist_dir=args.mnist_dir,
                            overrides=_parse_set(args.set))
            report = run(cfg)
            print(f"final_train_loss={report.final_train_loss:.6f} "
                  f"proto_a={report.protocol_a_mse} proto_b={report.protocol_b_mse} "
                  f"accuracy={report.accuracy} decoder_mse={report.decoder_mse} "
                  f"diverged={report.diverged}")
        elif args.command == "suite":
            seeds = [s for s in args.seeds.split(",") if s != ""]
            variants = [v for v in args.variants.split(",") if v != ""]
            result = run_suite(seeds, variants, args.experiment, out_dir=args.out,
                               mnist_dir=args.mnist_dir, overrides=_parse_set(args.set))
            for variant, m in result["means"].items():
                print(f"{variant}: {m}")
            for name, value in result["verdicts"].items():
                print(f"{name}: {value}")
            if any(r["status"] != "ok" for r in result["rows"]):
                return 1
        else:
            placed = fetch_mnist(args.out, base_url=args.base_url)
            for path in placed:
                print(path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
