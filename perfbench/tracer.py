"""Per-layer spans for one traced ``bijepa`` run, installed from outside
the program.

Each wrapper records a span: its duration, and its self time (duration
minus the time covered by the spans it encloses). Self times and call
counts are kept per (key, phase), where the phase is ``train`` inside
``cli._train``, ``eval`` inside a probe entry point, and ``other``
elsewhere. Spans stay in memory; ``record()`` turns them into the named
per-layer metrics at the end of the run.

Wrappers go on the names the callers look up: ``cli`` and ``jepa``
import ``train_step``, ``ema_update``, the probes and the data functions
by name, so those are replaced in the importing module; ``nn``,
``jepa`` and ``eval`` call primitives through the ``ad.`` module
attribute, so those are replaced on ``bijepa.autodiff``. ``_make``
looks up ``Node`` at call time, so a ``Node`` subclass wraps each
recorded vjp. No wrapper touches an argument or a result, so a traced
run computes the same bits as an untraced one.
"""

from __future__ import annotations

import gc
import math
import time
from collections import defaultdict

OPS = ("linear", "layer_norm", "relu", "mse_loss",
       "conv2d", "batch_norm2d", "softmax_cross_entropy")
GLUE = ("add", "mul", "scale", "sum_all", "flatten", "stop_gradient", "sphere_project")
OP_GROUP = {**{op: op for op in OPS}, **{op: "glue" for op in GLUE}}
METRIC_OPS = ("linear", "layer_norm", "relu", "mse_loss", "glue",
              "conv2d", "batch_norm2d", "softmax_cross_entropy")


def per_layer_metric_names() -> list[str]:
    """Every per-layer metric ``record()`` emits, in order."""
    names = ["cli.import_s", "cli.emit_s", "cli.self_s",
             "data.batch_s", "data.batches", "data.build_s", "data.bytes_in",
             "nn.forward.self_s", "nn.forward.calls"]
    for op in METRIC_OPS:
        names += [f"autodiff.{op}.fwd_s", f"autodiff.{op}.vjp_s", f"autodiff.{op}.calls"]
    names += ["autodiff.backward.self_s", "autodiff.trace_s",
              "autodiff.nodes_per_step", "autodiff.target_nodes_per_step",
              "autodiff.gc_s", "autodiff.gc_collected",
              "jepa.train_step_ms.p50", "jepa.train_step_ms.p99", "jepa.self_s", "jepa.steps",
              "optim.adamw.train_s", "optim.adamw.tensors_per_step",
              "optim.ema_s", "optim.zero_grad_s",
              "optim.adamw.eval_s", "eval.self_s", "eval.optimizer_steps",
              "eval.rows_embedded"]
    return names


def _nbytes(obj) -> int:
    """Bytes of the float arrays in a data-layer result."""
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if hasattr(obj, "values"):  # Tensor
        return _nbytes(obj.values)
    if isinstance(obj, tuple):
        return sum(_nbytes(o) for o in obj)
    if hasattr(obj, "x") and hasattr(obj, "y"):  # ViewBatch
        return _nbytes(obj.x) + _nbytes(obj.y)
    if hasattr(obj, "train"):  # LorenzDataset
        return sum(_nbytes(getattr(obj, s)) for s in ("train", "probe", "test"))
    return 0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list[float]] = []  # per open span: time covered by children
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.phase = "other"
        self.root_s = 0.0
        self.import_s = 0.0
        self.target_net = None
        self.in_target = False
        self.train_nodes = 0
        self.target_nodes = 0
        self.step_ms: list[float] = []
        self.adamw_tensors = 0
        self.rows_embedded = 0
        self.bytes_in = 0
        self.gc_s = 0.0
        self.gc_collected = 0
        self._gc_start = 0.0

    # -- spans ---------------------------------------------------------

    def wrap(self, key: str, fn, phase: str | None = None):
        """``fn`` inside a span named ``key``; ``phase`` switches the
        current phase for the span's duration."""
        stack, self_s, calls, clock = self.stack, self.self_s, self.calls, self.clock

        def span(*args, **kwargs):
            outer = self.phase
            if phase is not None:
                self.phase = phase
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                k = (key, self.phase)
                self_s[k] += dur - frame[0]
                calls[k] += 1
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_s += dur
                self.phase = outer

        return span

    def call_root(self, fn, *args):
        return self.wrap("cli", fn)(*args)

    # -- installation --------------------------------------------------

    def install(self, cli, import_s: float, eval_entries) -> None:
        from bijepa import autodiff as ad, data, eval as ev, jepa, nn, optim

        self.import_s = import_s
        tracer = self

        # cli: entry, run, the training loop (train phase), output writing
        cli.run = self.wrap("cli", cli.run)
        cli._train = self.wrap("cli", cli._train, phase="train")
        cli.emit_outputs = self.wrap("cli.emit", cli.emit_outputs)

        # data: batch production in train, dataset build/load elsewhere
        def counting_bytes(fn):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                if tracer.phase != "train":
                    tracer.bytes_in += _nbytes(out)
                return out
            return call

        for name in ("gen_sine_batch", "build_lorenz_dataset", "load_mnist_idx"):
            setattr(cli, name, self.wrap("data", counting_bytes(getattr(cli, name))))
        cli.split_vertical = self.wrap("data", cli.split_vertical)
        data.ViewBatch.take = self.wrap("data", data.ViewBatch.take)

        # jepa: one span per train_step; remembers which net is the target
        train_step = cli.train_step

        def step(model, opt, x, y, step=0):
            tracer.target_net = model.target_encoder
            t0 = tracer.clock()
            try:
                return train_step(model, opt, x, y, step)
            finally:
                tracer.step_ms.append((tracer.clock() - t0) * 1e3)

        cli.train_step = self.wrap("jepa", step)

        # nn: Network.forward, flagged while the target encoder runs
        net_span = self.wrap("nn.forward", nn.Network.forward)

        def forward(net, x):
            if net is tracer.target_net:
                tracer.in_target = True
                try:
                    return net_span(net, x)
                finally:
                    tracer.in_target = False
            return net_span(net, x)

        nn.Network.forward = nn.Network.__call__ = forward

        # autodiff: primitive forwards, every recorded vjp, backward, trace
        for op, group in OP_GROUP.items():
            setattr(ad, op, self.wrap(f"autodiff.{group}.fwd", getattr(ad, op)))
        jepa.sphere_project = ad.sphere_project
        ad.backward = self.wrap("autodiff.backward", ad.backward)
        ad.trace = self.wrap("autodiff.trace", ad.trace)

        class TracedNode(ad.Node):
            __slots__ = ()

            def __init__(self, op, inputs, output, vjp):
                if tracer.phase == "train":
                    tracer.train_nodes += 1
                    tracer.target_nodes += tracer.in_target
                vjp = tracer.wrap(f"autodiff.{OP_GROUP.get(op, op)}.vjp", vjp)
                super().__init__(op, inputs, output, vjp)

        ad.Node = TracedNode

        # optim: AdamW (split by phase), zero_grad, EMA
        adamw_step = optim.AdamW.step

        def adamw(opt):
            if tracer.phase == "train":
                tracer.adamw_tensors += len(opt.params)
            return adamw_step(opt)

        optim.AdamW.step = self.wrap("optim.adamw", adamw)
        optim.AdamW.zero_grad = self.wrap("optim.zero_grad", optim.AdamW.zero_grad)
        jepa.ema_update = self.wrap("optim.ema", jepa.ema_update)

        # eval: probe entry points (eval phase), feature extraction
        for name in eval_entries:
            setattr(cli, name, self.wrap("eval", getattr(cli, name), phase="eval"))
        cli.forecast_table = self.wrap("eval", cli.forecast_table)
        embed = ev._embed

        def counting_embed(model, x_values, *args, **kwargs):
            tracer.rows_embedded += x_values.shape[0]
            return embed(model, x_values, *args, **kwargs)

        ev._embed = self.wrap("eval", counting_embed)

        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self.clock()
        else:
            self.gc_s += self.clock() - self._gc_start
            self.gc_collected += info["collected"]

    # -- results -------------------------------------------------------

    def _s(self, key: str, phase: str | None = None) -> float:
        return sum(v for (k, p), v in self.self_s.items()
                   if k == key and phase in (None, p))

    def _n(self, key: str, phase: str | None = None) -> int:
        return sum(v for (k, p), v in self.calls.items()
                   if k == key and phase in (None, p))

    def metrics(self) -> dict:
        s, n = self._s, self._n
        steps = len(self.step_ms)
        per_step = 1.0 / steps if steps else 0.0
        adamw_train_calls = n("optim.adamw", "train")
        m = {
            "cli.import_s": self.import_s,
            "cli.emit_s": s("cli.emit"),
            "cli.self_s": s("cli"),
            "data.batch_s": s("data", "train"),
            "data.batches": n("data", "train"),
            "data.build_s": s("data") - s("data", "train"),
            "data.bytes_in": self.bytes_in,
            "nn.forward.self_s": s("nn.forward"),
            "nn.forward.calls": n("nn.forward"),
        }
        for op in METRIC_OPS:
            m[f"autodiff.{op}.fwd_s"] = s(f"autodiff.{op}.fwd")
            m[f"autodiff.{op}.vjp_s"] = s(f"autodiff.{op}.vjp")
            m[f"autodiff.{op}.calls"] = n(f"autodiff.{op}.fwd")
        m.update({
            "autodiff.backward.self_s": s("autodiff.backward"),
            "autodiff.trace_s": s("autodiff.trace"),
            "autodiff.nodes_per_step": self.train_nodes * per_step,
            "autodiff.target_nodes_per_step": self.target_nodes * per_step,
            "autodiff.gc_s": self.gc_s,
            "autodiff.gc_collected": self.gc_collected,
            "jepa.train_step_ms.p50": _percentile(self.step_ms, 0.50) if steps else 0.0,
            "jepa.train_step_ms.p99": _percentile(self.step_ms, 0.99) if steps else 0.0,
            "jepa.self_s": s("jepa"),
            "jepa.steps": steps,
            "optim.adamw.train_s": s("optim.adamw", "train"),
            "optim.adamw.tensors_per_step": (self.adamw_tensors / adamw_train_calls
                                             if adamw_train_calls else 0.0),
            "optim.ema_s": s("optim.ema"),
            "optim.zero_grad_s": s("optim.zero_grad"),
            "optim.adamw.eval_s": s("optim.adamw", "eval"),
            "eval.self_s": s("eval"),
            "eval.optimizer_steps": n("optim.adamw", "eval"),
            "eval.rows_embedded": self.rows_embedded,
        })
        return m

    def train_split(self) -> dict:
        """Self time of the training phase by step part, in seconds."""
        fwd = sum(v for (k, p), v in self.self_s.items()
                  if p == "train" and k.endswith(".fwd"))
        vjp = sum(v for (k, p), v in self.self_s.items()
                  if p == "train" and k.endswith(".vjp"))
        s = self._s
        return {
            "forward": s("nn.forward", "train") + fwd + s("jepa", "train"),
            "backward": s("autodiff.backward", "train") + s("autodiff.trace", "train") + vjp,
            "adamw": s("optim.adamw", "train") + s("optim.zero_grad", "train"),
            "ema": s("optim.ema", "train"),
            "data": s("data", "train"),
            "loop": s("cli", "train"),
        }

    def record(self) -> dict:
        return {"metrics": self.metrics(), "train_split_s": self.train_split(),
                "attributed_s": self.import_s + self.root_s}
