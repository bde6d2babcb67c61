"""One timed ``bijepa`` invocation, run as its own process by ``run.py``.

Usage: child.py --timing FILE --mode {plain,setup,trace} --src DIR -- ARGS...

ARGS are passed to ``bijepa.cli.main`` unchanged. Modes:

- ``plain``: timestamps only: at every ``train_step`` call, at the probe
  entry points that ``cli`` looks up by name, and after every probe
  optimizer step (``bijepa.eval`` looks ``AdamW`` up at call time).
- ``setup``: as ``plain``, but the process stops at the first
  ``train_step`` call; it samples set-up time cheaply.
- ``trace``: spans around the public functions of every layer (see
  ``tracer.py``), reported as per-layer metrics.

Timestamps are ``time.monotonic()``, the clock the parent reads at
launch, so they compare across the two processes. The timing record is
written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

EVAL_ENTRIES = ("protocol_a", "protocol_b", "linear_probe_classify", "generative_decoder")


class SetupDone(BaseException):
    """Raised at the first train_step call in setup mode. A BaseException,
    so ``cli.main``'s error handler lets it through."""


class PhaseTimer:
    """Timestamps only: the start of every train_step call, the last
    train_step return, samples, and per probe entry call its start, end
    and the end of each of its optimizer steps. ``run.py`` derives the
    loop iteration times from them."""

    def __init__(self, stop_at_first_step: bool):
        self.stop_at_first_step = stop_at_first_step
        self.step_starts = []
        self.last_step_end = None
        self.samples = 0
        self.probes = []  # {"entry", "start", "end", "steps"} per probe entry call

    def install(self, cli, eval_module) -> None:
        train_step = cli.train_step

        def timed_train_step(model, opt, x, y, step=0):
            self.step_starts.append(time.monotonic())
            if self.stop_at_first_step:
                raise SetupDone
            metrics = train_step(model, opt, x, y, step)
            self.last_step_end = time.monotonic()
            self.samples += x.shape[0]
            return metrics

        cli.train_step = timed_train_step
        for name in EVAL_ENTRIES:
            setattr(cli, name, self._timed_eval(name, getattr(cli, name)))

        probes = self.probes

        class TimedAdamW(eval_module.AdamW):
            def step(self):
                stepped = super().step()
                if probes:
                    probes[-1]["steps"].append(time.monotonic())
                return stepped

        eval_module.AdamW = TimedAdamW

    def _timed_eval(self, name, fn):
        def timed(*args, **kwargs):
            call = {"entry": name, "start": time.monotonic(), "end": None, "steps": []}
            self.probes.append(call)
            try:
                return fn(*args, **kwargs)
            finally:
                call["end"] = time.monotonic()
        return timed

    def record(self) -> dict:
        starts = self.step_starts
        return {"first_step": starts[0] if starts else None,
                "last_step_end": self.last_step_end, "steps": len(starts),
                "samples": self.samples, "step_starts": starts,
                "eval_s": sum(c["end"] - c["start"] for c in self.probes),
                "probes": self.probes}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--timing", required=True)
    ap.add_argument("--mode", choices=("plain", "setup", "trace"), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer  # only here: plain runs carry no tracing code
        tracer = Tracer()
    t0 = time.monotonic()
    import bijepa.cli as cli
    import_s = time.monotonic() - t0

    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"bijepa imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    if tracer is not None:
        tracer.install(cli, import_s, EVAL_ENTRIES)
        rc = tracer.call_root(cli.main, cli_args)
        record = {"mode": "trace", "import_s": import_s, **tracer.record()}
    else:
        timer = PhaseTimer(stop_at_first_step=args.mode == "setup")
        timer.install(cli, sys.modules["bijepa.eval"])
        try:
            rc = cli.main(cli_args)
        except SetupDone:
            rc = 0
        record = {"mode": args.mode, "import_s": import_s, **timer.record()}
    record["rc"] = rc
    Path(args.timing).write_text(json.dumps(record), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
