"""Reverse-mode automatic differentiation over dense float64 tensors.

Define-by-run: every primitive whose inputs require gradients records one
node; ``backward`` collects the nodes reachable from a scalar loss, replays
them in reverse execution order, and accumulates gradients into the
``grad`` slot of every leaf that requires them. Graphs are single-use
and are rebuilt on every forward pass.

Primitives take ``Tensor``s; ``data`` is numpy-only, and arrays become
tensors through ``Tensor()`` only where a network reads them: in
``cli._train`` and in ``eval``'s forwards. No vjp writes into its
incoming gradient, and no two arrays one vjp returns share memory, so a
gradient array the pass builds belongs to one tensor and is given to it
without a copy.

A graph holds no reference cycle: a tensor owns the node that made it,
a node owns its inputs and its vjp, and refers to its output only
weakly. So reference counting frees a graph as soon as nothing reaches
it, whether or not it was ever differentiated (the target passes of a
training step). A vjp returns ``None`` for an input that
needs no gradient; whether it does is fixed when the node is recorded.

Inside ``no_grad()`` nothing is recorded: each primitive returns a plain
tensor, so the context its vjp would have saved is freed as soon as the
next op has used its output. Inference forwards (probe features and
predictions) run there.

The primitive set is exactly what the encoder/predictor architectures and
probes need: dense linear maps, ReLU, layer/batch normalization, strided
3x3 convolution, the two losses, and a handful of glue ops.
"""

from __future__ import annotations

import contextlib
import itertools
import weakref
from contextvars import ContextVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class GraphConsumedError(RuntimeError):
    """backward() called again on an already-consumed graph."""


class DegenerateEmbeddingError(ValueError):
    """Sphere projection of a row with (near-)zero norm."""


_SEQ = itertools.count()


class Tensor:
    """Dense n-dimensional float64 value with an optional gradient slot.

    ``values`` is always a C-contiguous float64 array. ``grad`` stays
    ``None`` until a backward pass deposits a gradient; it then has the
    same shape as ``values``. Tensors produced by primitives carry the
    ``node`` that created them; leaves have ``node is None``.
    """

    __slots__ = ("values", "grad", "requires_grad", "node", "__weakref__")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.node: Node | None = None

    @classmethod
    def _wrap(cls, values: np.ndarray) -> Tensor:
        """``Tensor(values)`` without the conversion: ``values`` itself is
        held, so it must already be C-contiguous float64 with an axis."""
        t = cls.__new__(cls)
        t.values = values
        t.grad = None
        t.requires_grad = False
        t.node = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Node:
    """One executed primitive: its inputs, its output, and its vjp.

    The output is held weakly (it holds the node), so that a graph is
    acyclic; ``output`` is ``None`` once nothing else holds the tensor.
    """

    __slots__ = ("op", "inputs", "_output", "vjp", "seq")

    def __init__(self, op, inputs, output, vjp):
        self.op = op
        self.inputs = inputs
        self._output = weakref.ref(output)
        self.vjp = vjp
        self.seq = next(_SEQ)

    @property
    def output(self) -> Tensor | None:
        return self._output()


def trace(root: Tensor) -> list[Node]:
    """Every node reachable from ``root``, in execution order (a valid
    topological order under define-by-run)."""
    seen: set[int] = set()
    nodes: list[Node] = []
    stack = [root.node] if root.node is not None else []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        for t in node.inputs:
            if t.node is not None and id(t.node) not in seen:
                stack.append(t.node)
    nodes.sort(key=lambda n: n.seq)
    return nodes


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every requires_grad leaf
    ``t`` the graph reaches, and the unit gradient into ``loss.grad``.

    Only leaves and the loss receive ``grad``; every other tensor in the
    graph keeps ``grad`` None. ``loss`` must be a scalar.
    Each graph supports exactly one backward pass. Every node's inputs and
    vjp (with the forward context it saved) are released as the pass
    reaches it, so only the root node stays reachable from ``loss``, and
    its missing vjp rejects a second pass (every recorded node has one
    until then).
    """
    if loss.values.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        if loss.requires_grad:
            _deposit(loss, np.ones_like(loss.values))
        return
    nodes = trace(loss)
    if any(n.vjp is None for n in nodes):
        raise GraphConsumedError("graph already consumed by a previous backward pass")

    # keyed by tensor (identity hash); holding the key keeps it alive
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.values)}
    for node in reversed(nodes):
        out_grad = grads.pop(node.output, None)
        if out_grad is not None:
            for t, g in zip(node.inputs, node.vjp(out_grad)):
                if g is None or not t.requires_grad:
                    continue
                prev = grads.get(t)
                grads[t] = g if prev is None else prev + g
        node.vjp = None
        node.inputs = ()
    for t, g in grads.items():
        _deposit(t, g)
    _deposit(loss, np.ones_like(loss.values))


def _deposit(t: Tensor, g: np.ndarray) -> None:
    """Hand ``t`` the gradient array the pass built, or add it out of place
    to the one ``t`` holds. The array is ``t``'s alone: no vjp writes into
    its incoming gradient or returns one buffer for two inputs."""
    t.grad = g if t.grad is None else t.grad + g


_RECORDING: ContextVar[bool] = ContextVar("recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block.

    Every primitive called inside returns a tensor with ``node is None``
    and ``requires_grad`` False, whatever its inputs require, and keeps
    no vjp. Only recording stops: the forward values are bit-identical,
    and modes are untouched (``batch_norm2d`` in train mode still folds
    its batch statistics into the running statistics). The previous state
    comes back on exit, also from nested blocks and when the body raises.
    """
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


def _make(op: str, inputs: tuple[Tensor, ...], values: np.ndarray, vjp) -> Tensor:
    """Wrap a primitive's output, recording its node if some input needs
    a gradient. ``values`` is used as it is: every primitive returns a
    C-contiguous float64 array with at least one axis, which is what
    ``Tensor()`` would make of it, so the conversion is skipped."""
    out = Tensor._wrap(values)
    if _RECORDING.get():
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                # Node is a global looked up per call, so that a subclass
                # can be swapped in (perfbench's tracer does)
                out.node = Node(op, inputs, out, vjp)
                break
    return out


# ---------------------------------------------------------------------------
# glue primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return _make("add", (a, b), a.values + b.values, lambda g: (g, g.copy()))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    av, bv = a.values, b.values
    return _make("mul", (a, b), av * bv, lambda g: (g * bv, g * av))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make("scale", (x,), x.values * c, lambda g: (g * c,))


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    total = np.add.reduce(x.values, axis=None).reshape(1)
    return _make("sum_all", (x,), total, lambda g: (np.full(shape, g[0]),))


def flatten(x: Tensor) -> Tensor:
    """Collapse all trailing axes: (B, ...) -> (B, prod(...))."""
    shape = x.shape
    if len(shape) < 2:
        raise ShapeError(f"flatten needs at least 2 axes, got shape {shape}")
    flat = x.values.reshape(shape[0], -1)
    return _make("flatten", (x,), flat, lambda g: (g.reshape(shape),))


def stop_gradient(x: Tensor) -> Tensor:
    """Value-identical tensor that terminates backward traversal."""
    return Tensor(x.values.copy(), requires_grad=False)


# ---------------------------------------------------------------------------
# network primitives


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y[i,o] = sum_k x[i,k] w[k,o] + b[o]."""
    if x.values.ndim != 2 or w.values.ndim != 2 or b.values.ndim != 1:
        raise ShapeError(
            f"linear expects x:(B,I) w:(I,O) b:(O,), got {x.shape}, {w.shape}, {b.shape}")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(
            f"linear: inner dims disagree for x {x.shape}, w {w.shape}, b {b.shape}")
    xv, wv = x.values, w.values
    y = xv @ wv
    y += b.values
    need_x = x.requires_grad

    def vjp(g):
        return (g @ wv.T if need_x else None), xv.T @ g, np.add.reduce(g, axis=0)

    return _make("linear", (x, w, b), y, vjp)


def relu(x: Tensor) -> Tensor:
    """max(x, 0), bit-equal to ``np.where(x > 0, x, 0.0)``: ``fmax``
    maps NaN to 0, and adding +0.0 turns the -0.0 it may keep into +0.0.

    The vjp is ``g * (x > 0)``, with the comparison written straight into
    a float64 buffer as 1.0 and +0.0, which ``g`` then multiplies in
    place: the same products without a pass that casts a bool mask."""
    xv = x.values
    y = np.fmax(xv, 0.0)
    y += 0.0

    def vjp(g):
        gx = np.greater(xv, 0.0, out=np.empty_like(xv))
        gx *= g
        return (gx,)

    return _make("relu", (x,), y, vjp)


# added to the variance by both normalizations
NORM_EPS = 1e-5
# weight of a batch's statistics in the running statistics
BN_MOMENTUM = 0.1


def _normalize(op: str, x: Tensor, gamma: Tensor, beta: Tensor, axes: tuple, stats):
    """``gamma * (x - mean) / sqrt(var + NORM_EPS) + beta`` over ``axes``,
    with gamma and beta along axis 1: the one normalization, one node.

    With ``stats`` None, mean and var are the input's own, by the ufuncs
    of ``np.mean`` and ``np.var`` (sum, divide; subtract, square, sum,
    divide) with the centred input computed once, so the bits are the
    textbook form's. Otherwise ``stats`` is a broadcastable (mean, var)
    pair held constant, and only the affine tail runs. Returns the output
    and the (mean, var) it used, reduced axes kept.
    """
    xv = x.values
    channel = (-1,) + (1,) * (xv.ndim - 2)
    gv, bv = gamma.values.reshape(channel), beta.values.reshape(channel)
    y = None  # with batch statistics, the squares' buffer takes the output
    if stats is None:
        mu = np.add.reduce(xv, axis=axes, keepdims=True)
        n = xv.size // mu.size
        mu /= n
        xhat = xv - mu
        y = np.square(xhat)
        var = np.add.reduce(y, axis=axes, keepdims=True)
        var /= n
    else:
        mu, var = stats
        xhat = xv - mu
    inv_std = var + NORM_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    y = np.multiply(xhat, gv, out=y)
    y += bv

    def vjp(g):
        param_axes = (0, *range(2, g.ndim))
        buf = g * xhat
        dgamma = np.add.reduce(buf, axis=param_axes)
        dbeta = np.add.reduce(g, axis=param_axes)
        if stats is not None:
            return g * (gv * inv_std), dgamma, dbeta
        # dx = (inv_std / n) * (n*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat)),
        # dxhat = g * gamma, one operation per line in that order
        dx = g * gv
        np.multiply(dx, xhat, out=buf)
        s2 = np.add.reduce(buf, axis=axes, keepdims=True)
        s1 = np.add.reduce(dx, axis=axes, keepdims=True)
        dx *= n
        dx -= s1
        np.multiply(xhat, s2, out=buf)
        dx -= buf
        dx *= inv_std / n
        return dx, dgamma, dbeta

    return _make(op, (x, gamma, beta), y, vjp), mu, var


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-row normalization to zero mean / unit biased variance, then affine."""
    if x.values.ndim != 2:
        raise ShapeError(f"layer_norm expects (B,D), got {x.shape}")
    d = x.shape[1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: gamma/beta must be ({d},)")
    return _normalize("layer_norm", x, gamma, beta, (1,), None)[0]


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                 running_var: np.ndarray, training: bool) -> Tensor:
    """Per-channel normalization over (B,H,W) with biased variance.

    Train mode normalizes with batch statistics and folds them into the
    running statistics in place, with the bits of
    ``(1 - m) * running + m * batch`` for ``m = BN_MOMENTUM``; eval mode
    normalizes with the running statistics, held constant.
    """
    if x.values.ndim != 4:
        raise ShapeError(f"batch_norm2d expects (B,C,H,W), got {x.shape}")
    b, c = x.shape[:2]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm2d: gamma/beta must be ({c},)")
    if not training:
        stats = running_mean.reshape(c, 1, 1), running_var.reshape(c, 1, 1)
        return _normalize("batch_norm2d", x, gamma, beta, (0, 2, 3), stats)[0]
    if b < 2:
        raise ShapeError("batch_norm2d train mode needs batch size >= 2")
    y, mu, var = _normalize("batch_norm2d", x, gamma, beta, (0, 2, 3), None)
    m = BN_MOMENTUM
    running_mean *= 1.0 - m
    running_mean += m * mu.ravel()
    running_var *= 1.0 - m
    running_var += m * var.ravel()
    return y


def conv2d(x: Tensor, k: Tensor, b: Tensor) -> Tensor:
    """3x3 cross-correlation at stride 2 with zero padding 1.

    Output spatial dims: H' = floor((H - 1)/2) + 1, same for W.
    """
    if x.values.ndim != 4:
        raise ShapeError(f"conv2d expects (B,Cin,H,W) input, got {x.shape}")
    if k.values.ndim != 4 or k.shape[2:] != (3, 3):
        raise ShapeError(f"conv2d expects (Cout,Cin,3,3) kernel, got {k.shape}")
    bs, cin, h, w = x.shape
    cout = k.shape[0]
    if k.shape[1] != cin:
        raise ShapeError(f"conv2d: kernel expects {k.shape[1]} input channels, got {cin}")
    if b.shape != (cout,):
        raise ShapeError(f"conv2d: bias must be ({cout},)")

    xp = np.pad(x.values, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(xp, (3, 3), axis=(2, 3))[:, :, ::2, ::2]
    ho, wo = win.shape[2], win.shape[3]
    # im2col: one matmul carries the whole batch
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(bs * ho * wo, cin * 9)
    wmat = k.values.reshape(cout, cin * 9).T
    y = (cols @ wmat + b.values).reshape(bs, ho, wo, cout).transpose(0, 3, 1, 2)

    hp, wp = xp.shape[2], xp.shape[3]
    need_x = x.requires_grad

    def vjp(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(bs * ho * wo, cout)
        gw = (cols.T @ g2).T.reshape(cout, cin, 3, 3)
        gb = g2.sum(axis=0)
        if not need_x:
            return None, gw, gb
        gwin = (g2 @ wmat.T).reshape(bs, ho, wo, cin, 3, 3).transpose(0, 3, 1, 2, 4, 5)
        gxp = np.zeros((bs, cin, hp, wp))
        for kh in range(3):
            for kw in range(3):
                gxp[:, :, kh:kh + 2 * ho:2,
                    kw:kw + 2 * wo:2] += gwin[:, :, :, :, kh, kw]
        gx = gxp[:, :, 1:1 + h, 1:1 + w]
        return gx, gw, gb

    return _make("conv2d", (x, k, b), np.ascontiguousarray(y), vjp)


# ---------------------------------------------------------------------------
# losses


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over every element of the squared difference."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss: shapes {pred.shape} and {target.shape} differ")
    diff = pred.values - target.values
    n = diff.size
    loss = (np.add.reduce(diff * diff, axis=None) / n).reshape(1)
    need_target = target.requires_grad

    def vjp(g):
        s = g[0] * 2.0 / n
        return s * diff, (-s * diff if need_target else None)

    return _make("mse_loss", (pred, target), loss, vjp)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the true class, max-stabilized."""
    if logits.values.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects (B,K) logits, got {logits.shape}")
    labels = np.asarray(labels)
    bsz, k = logits.shape
    if labels.shape != (bsz,):
        raise ShapeError(f"labels must be ({bsz},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    z = logits.values - logits.values.max(axis=1, keepdims=True)
    expz = np.exp(z)
    sums = expz.sum(axis=1, keepdims=True)
    probs = expz / sums
    rows = np.arange(bsz)
    log_probs = z - np.log(sums)
    loss = (-log_probs[rows, labels].mean()).reshape(1)

    def vjp(g):
        d = probs.copy()
        d[rows, labels] -= 1.0
        return (g[0] / bsz * d,)

    return _make("softmax_cross_entropy", (logits,), loss, vjp)


def sphere_project(s: Tensor) -> Tensor:
    """Divide each row by its L2 norm, differentiably.

    Rejects rows whose norm falls below 1e-12: a collapsed embedding has
    no direction to keep.
    """
    if s.values.ndim != 2:
        raise ShapeError(f"sphere_project expects (B,D), got {s.shape}")
    norms = np.linalg.norm(s.values, axis=1, keepdims=True)
    if norms.min() < 1e-12:
        raise DegenerateEmbeddingError(
            f"degenerate embedding: row norm {norms.min():.3e} below 1e-12")
    y = s.values / norms

    def vjp(g):
        return ((g - y * (g * y).sum(axis=1, keepdims=True)) / norms,)

    return _make("sphere_project", (s,), y, vjp)
