"""Shared oracles, a network fingerprint and run-output readers for the
test suite.

The gradient oracle is central finite differences with step 1e-5 over
float64, compared elementwise by relative error with a 1e-6 floor. The
regression-probe oracle is the full-batch autodiff fit that the
sufficient-statistics probe replaces.
"""

import gc
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from bijepa.autodiff import Tensor, mse_loss, mul, sum_all
from bijepa.cli import ExperimentReport
from bijepa.nn import Linear, Network
from bijepa.optim import AdamW
from bijepa.seeding import derive_seed

H = 1e-5
TOL = 1e-4


def numeric_grad(f, x: np.ndarray, h: float = H) -> np.ndarray:
    """Central-difference gradient of scalar-valued f at x."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_grads(op, arrays: list[np.ndarray], rng, tol: float = TOL) -> float:
    """Compare autodiff grads of a random-projection readout against
    finite differences, for every input of ``op``.

    ``op`` maps Tensors to one output Tensor; the readout sum(out * R)
    with fixed random R exercises all vjp components.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*tensors)
    r = rng.standard_normal(out.shape)
    loss = sum_all(mul(out, Tensor(r)))
    loss.backward()

    worst = 0.0
    for i, a in enumerate(arrays):
        def scalar(x, i=i):
            probe = [Tensor(v) for v in arrays]
            probe[i] = Tensor(x)
            return float((op(*probe).values * r).sum())

        num = numeric_grad(scalar, a)
        err = rel_err(tensors[i].grad, num)
        worst = max(worst, err)
        assert err < tol, f"input {i}: relative error {err:.3e} >= {tol}"
    return worst


def reference_probe_fit(feats: np.ndarray, targets: np.ndarray, lr: float,
                        steps: int, seed: int) -> Network:
    """The regression probe fitted through the autodiff engine: each step
    builds ``mse_loss(linear(F), T)`` over the whole split and
    back-propagates it. Same init, seed stream and optimizer as
    ``eval._train_regression_probe``."""
    rng = np.random.default_rng(derive_seed(seed, "probe-init"))
    probe = Network([Linear(feats.shape[1], targets.shape[1], rng)])
    opt = AdamW([probe], lr=lr, weight_decay=0.0)
    f = Tensor(feats)
    t = Tensor(targets)
    for _ in range(steps):
        loss = mse_loss(probe(f), t)
        opt.zero_grad()
        loss.backward()
        opt.step()
    opt.zero_grad()
    return probe


def naive_conv2d(x: np.ndarray, k: np.ndarray, b: np.ndarray,
                 stride: int = 2, pad: int = 1) -> np.ndarray:
    """Direct-loop cross-correlation; the slow reference for conv2d."""
    bs, cin, h, w = x.shape
    cout = k.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - 3) // stride + 1
    wo = (w + 2 * pad - 3) // stride + 1
    out = np.zeros((bs, cout, ho, wo))
    for n in range(bs):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[n, :, i * stride:i * stride + 3, j * stride:j * stride + 3]
                    out[n, co, i, j] = (patch * k[co]).sum() + b[co]
    return out


def garbage_cycles_after(fn) -> int:
    """Objects the cyclic collector frees after ``fn()`` runs with the
    collector off: 0 means reference counting alone freed everything
    ``fn`` left unreachable."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


def fingerprint(net: Network) -> str:
    """Digest of a network's whole state: ``net.flat``, then every layer
    buffer (BatchNorm running statistics) in layer order, as
    little-endian float64 bytes. Changes iff a parameter or a buffer
    entry does."""
    h = hashlib.sha256(np.ascontiguousarray(net.flat, dtype="<f8").tobytes())
    for layer in net.layers:
        for arr in layer.buffers():
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def write_idx(path, magic: int, arr: np.ndarray) -> None:
    """An IDX file (big-endian magic and dims, then uint8 payload)."""
    with open(path, "wb") as f:
        f.write(struct.pack(">i", magic))
        f.write(struct.pack(f">{arr.ndim}i", *arr.shape))
        f.write(arr.astype(np.uint8).tobytes())


def write_synthetic_mnist(directory, n_train: int, n_test: int) -> None:
    """Random-pixel, random-label stand-ins for the four IDX files."""
    rng = np.random.default_rng(0)
    directory.mkdir()
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        write_idx(directory / f"{prefix}-images-idx3-ubyte", 0x803,
                  rng.integers(0, 256, (n, 28, 28)))
        write_idx(directory / f"{prefix}-labels-idx1-ubyte", 0x801,
                  rng.integers(0, 10, n))


def load_report(run_dir) -> ExperimentReport:
    """The report.json a run wrote to ``run_dir`` (an exact float round trip)."""
    return ExperimentReport(**json.loads((Path(run_dir) / "report.json").read_text()))
