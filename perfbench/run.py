#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for ``bijepa run``.

Usage (from the repository root):

    python3 perfbench/run.py --workload sine-classic --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Closed loop: this process starts one ``bijepa run`` child at a time and
waits for it to end, so at most two processes are busy. Every child has
its BLAS pinned to one thread and writes its outputs with ``--out``.

``--trace 0`` makes a few set-up-only launches and then full runs while
the next one is predicted to end within ``--seconds`` (at least two, so
that repeatability is checked), and reports the end-to-end metrics as
medians, with the training and probe loops timed at a low quantile of
their iteration periods (see ``filter_loops``). ``--trace 1`` makes one
untraced and one traced full run and reports the per-layer metrics of
the traced one. Every full run is checked (see ``check_run``); the
last stdout line is the JSON result, the line before it a JSON detail
record with the environment, each run, the quality metrics and the
failure reasons. See README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# workload -> bijepa run arguments (seed and output directory are added per run)
WORKLOADS = {
    "sine-classic": ("--experiment", "sine", "--variant", "classic"),
    "lorenz-bijepa": ("--experiment", "lorenz", "--variant", "bijepa-expressive"),
    "mnist-synth": ("--experiment", "mnist", "--variant", "bijepa-expressive", "--epochs", "1"),
}
QUALITY = {
    "sine-classic": ("protocol_a_mse", "protocol_b_mse"),
    "lorenz-bijepa": ("protocol_a_mse", "protocol_b_mse"),
    "mnist-synth": ("accuracy", "decoder_mse"),
}
MNIST_SIZES = (2048, 512)  # train, test halves
# --smoke: a few steps per workload, for the self-test only
SMOKE_ARGS = {
    "sine-classic": ("--steps", "30", "--set", "probe_steps=30"),
    "lorenz-bijepa": ("--steps", "30", "--set", "probe_steps=30"),
    "mnist-synth": ("--set", "probe_epochs=1"),
}
SMOKE_MNIST_SIZES = (512, 256)

SETUP_PROBES = 7
LOOP_QUANTILE = 0.02  # of loop iteration periods; see filter_loops
MIN_FULL_RUNS = 2
DEADLINE_S = 170.0
# report fields that must repeat bit for bit (gate 13's list)
REPEAT_FIELDS = ("config", "final_train_loss", "loss_history", "protocol_a_mse",
                 "protocol_b_mse", "accuracy", "decoder_mse", "diverged", "forecast")
LORENZ_PROTOCOL_B_MAX = 0.06  # the acceptance band tests/test_acceptance.py applies
MNIST_CHANCE = 0.1

END_TO_END = {  # name -> unit
    "run_s": "s",
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}
QUALITY_UNITS = {"final_train_loss": "loss", "protocol_a_mse": "mse",
                 "protocol_b_mse": "mse", "accuracy": "fraction",
                 "decoder_mse": "mse", "failure_rate": "fraction"}


def per_layer_units() -> dict:
    from tracer import per_layer_metric_names
    units = {}
    for name in per_layer_metric_names() + ["trace.overhead_frac", "trace.unattributed_frac"]:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(("_ms.p50", "_ms.p99")):
            units[name] = "ms"
        elif name == "data.bytes_in":
            units[name] = "bytes"
        elif name.endswith("_frac"):
            units[name] = "fraction"
        else:
            units[name] = "count"
    return units


class Runner:
    """Launches children for one workload and seed and checks each run."""

    def __init__(self, workload: str, seed: int, smoke: bool, workdir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.deadline = deadline
        self.extra = SMOKE_ARGS[workload] if smoke else ()
        self.mnist_ref_acc = None
        self.reference = None  # report fields of the first good full run
        self.runs: list[dict] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        if workload == "mnist-synth":
            self.extra += ("--mnist-dir", str(self._write_mnist()))

    def _write_mnist(self) -> Path:
        sys.path.insert(0, str(SRC))
        from mnist_synth import IDX_NAMES, write_mnist_synth
        from bijepa.data import load_mnist_idx

        out = self.workdir / "mnist"
        n_train, n_test = SMOKE_MNIST_SIZES if self.smoke else MNIST_SIZES
        self.mnist_ref_acc = write_mnist_synth(out, self.seed, n_train, n_test)
        for images, labels in IDX_NAMES.values():
            load_mnist_idx(out / images, out / labels)  # raises IdxFormatError if rejected
        return out

    def launch(self, mode: str) -> dict:
        run_dir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=self.workdir))
        timing_path = run_dir / "timing.json"
        out = run_dir / "out"
        cmd = [sys.executable, str(HERE / "child.py"), "--timing", str(timing_path),
               "--mode", mode, "--src", str(SRC), "--",
               "run", *WORKLOADS[self.workload], *self.extra,
               "--seed", str(self.seed), "--out", str(out)]
        with open(run_dir / "log.txt", "wb") as log:
            t_launch = time.monotonic()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(1.0, self.deadline - t_launch), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            t_exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)

        run = {"mode": mode, "rc": proc.returncode, "wall_run_s": t_exit - t_launch,
               "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6, "failures": []}
        timing = json.loads(timing_path.read_text()) if timing_path.exists() else {}
        run["timing"] = timing
        if timing.get("first_step") is not None:
            run["setup_s"] = timing["first_step"] - t_launch
        if timing.get("last_step_end") is not None:
            run["wall_train_s"] = timing["last_step_end"] - timing["first_step"]
            run["wall_eval_s"] = timing["eval_s"]
        if "attributed_s" in timing:
            run["unattributed_frac"] = 1.0 - timing["attributed_s"] / run["wall_run_s"]
        report_path = out / "report.json"
        if report_path.exists():
            report = json.loads(report_path.read_text())
            run["report"] = {k: report.get(k) for k in REPEAT_FIELDS}
        self.check_run(run, log_path=run_dir / "log.txt")
        self.runs.append(run)
        return run

    def check_run(self, run: dict, log_path: Path) -> None:
        """Record every reason the run failed in run["failures"]."""
        fail = run["failures"].append
        if run["rc"] != 0:
            fail(f"exit code {run['rc']}")
        if run["mode"] == "setup":
            if "setup_s" not in run:
                fail("never reached train_step")
        else:
            report = run.get("report")
            if report is None:
                fail("no report.json")
            else:
                self._check_report(report, fail)
            timed = ("wall_run_s",) if run["mode"] == "trace" else (
                "wall_run_s", "setup_s", "wall_train_s", "wall_eval_s")
            for key in timed:
                if not math.isfinite(run.get(key, math.nan)):
                    fail(f"{key} missing or non-finite")
        if run["failures"]:
            tail = log_path.read_text(errors="replace")[-2000:]
            print(f"[{self.workload} seed {self.seed} {run['mode']}] failed: "
                  f"{run['failures']}\n{tail}", file=sys.stderr)

    def _check_report(self, report: dict, fail) -> None:
        if report["diverged"]:
            fail("diverged")
        for key in ("final_train_loss",) + QUALITY[self.workload]:
            value = report[key]
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                fail(f"{key} = {value!r} is not a finite number")
        if self.reference is None:
            self.reference = report
        else:
            differ = [k for k in REPEAT_FIELDS if report[k] != self.reference[k]]
            if differ:
                fail(f"differs from the first run of this seed in {differ}")
        if self.smoke:
            return  # the bands hold at the default scale only
        if self.workload == "lorenz-bijepa" and not (
                report["protocol_b_mse"] <= LORENZ_PROTOCOL_B_MAX):
            fail(f"protocol_b_mse {report['protocol_b_mse']} > {LORENZ_PROTOCOL_B_MAX}")
        if self.workload == "mnist-synth":
            floor = MNIST_CHANCE + 0.5 * (self.mnist_ref_acc - MNIST_CHANCE)
            if not (report["accuracy"] >= floor):
                fail(f"accuracy {report['accuracy']} < {floor:.4f}, half way from "
                     f"chance to the generator's template-match accuracy")


def low_quantile(values: list[float]) -> float:
    """Nearest-rank LOOP_QUANTILE of values."""
    ordered = sorted(values)
    return ordered[int(LOOP_QUANTILE * len(ordered))]


def periods(stamps: list[float]) -> list[float]:
    return [b - a for a, b in zip(stamps, stamps[1:])]


def filter_loops(runs: list[dict]) -> dict:
    """Set run_s, train_samples_per_s and eval_s of each full run, with
    every loop iteration timed at the invocation's typical speed.

    The training loop's iteration is the period between two train_step
    calls; a probe fit's is the period between two optimizer steps. Each
    is taken as the LOOP_QUANTILE of its periods, pooled over the runs of
    the invocation (per probe entry point, whose fits differ in size).
    The host's speed drops in bursts that cover a varying share of each
    run; a low quantile of thousands of short periods stays put where
    their mean does not. Everything outside the loops (interpreter,
    set-up, embedding, output writing) keeps its wall time. Returns the
    periods used.
    """
    step_periods = [p for r in runs for p in periods(r["timing"]["step_starts"])]
    step_s = low_quantile(step_periods) if step_periods else statistics.median(
        r["wall_train_s"] / r["timing"]["steps"] for r in runs)
    probe_periods = {}
    for r in runs:
        for call in r["timing"]["probes"]:
            probe_periods.setdefault(call["entry"], []).extend(periods(call["steps"]))
    probe_s = {entry: low_quantile(v) for entry, v in probe_periods.items() if v}
    for r in runs:
        timing = r["timing"]
        train_s = timing["steps"] * step_s
        eval_s = 0.0
        for call in timing["probes"]:
            eval_s += call["end"] - call["start"]
            if len(call["steps"]) > 1:
                eval_s += ((len(call["steps"]) - 1) * probe_s[call["entry"]]
                           - (call["steps"][-1] - call["steps"][0]))
        r["train_samples_per_s"] = timing["samples"] / train_s
        r["eval_s"] = eval_s
        r["run_s"] = r["wall_run_s"] - r["wall_train_s"] + train_s - r["wall_eval_s"] + eval_s
    return {"train_step_s": step_s, "probe_step_s": probe_s}


def median_of(runs: list[dict], key: str) -> float:
    values = [r[key] for r in runs if key in r]
    return statistics.median(values) if values else math.nan


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the children for one invocation; returns (metrics, detail)."""
    detail = {}
    if not trace:
        for _ in range(SETUP_PROBES):
            runner.launch("setup")
        start = time.monotonic()
        full = [runner.launch("plain")]
        while len(full) < MIN_FULL_RUNS or (
                time.monotonic() - start + full[-1]["wall_run_s"] <= seconds
                and time.monotonic() + full[-1]["wall_run_s"] < runner.deadline):
            full.append(runner.launch("plain"))
        good = [r for r in full if not r["failures"]]
        if good:
            detail["loop_period_s"] = filter_loops(good)
        values = {k: median_of(good, k) for k in END_TO_END}
        values["setup_s"] = median_of(runner.runs, "setup_s")
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    else:
        plain = runner.launch("plain")
        traced = runner.launch("trace")
        units = per_layer_units()
        values = dict(traced["timing"].get("metrics", {}))
        values["trace.overhead_frac"] = traced["wall_run_s"] / plain["wall_run_s"] - 1.0
        values["trace.unattributed_frac"] = traced.get("unattributed_frac", math.nan)
        metrics = {k: {"value": values.get(k, math.nan), "unit": u} for k, u in units.items()}
        detail["train_split_s"] = traced["timing"].get("train_split_s")

    good = next((r["report"] for r in runner.runs if r.get("report")), None)
    n_failed = sum(bool(r["failures"]) for r in runner.runs)
    quality = {}
    for key in ("final_train_loss",) + QUALITY[runner.workload]:
        quality[key] = {"value": good[key] if good else None, "unit": QUALITY_UNITS[key]}
    quality["failure_rate"] = {"value": n_failed / len(runner.runs), "unit": "fraction"}
    detail.update({
        "workload": runner.workload, "seed": runner.seed, "smoke": runner.smoke,
        "quality": quality,
        "mnist_template_accuracy": runner.mnist_ref_acc,
        "runs": [{k: v for k, v in r.items() if k not in ("report", "timing")}
                 for r in runner.runs],
    })
    return metrics, detail


def git_info() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}


def environment(loadavg: tuple) -> dict:
    import numpy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(loadavg),
        "git": git_info(),
    }


def print_table(workload: str, metrics: dict, quality: dict) -> None:
    print(f"== {workload}")
    for name, m in {**metrics, **quality}.items():
        value = m["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {m['unit']}")


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="a few training steps per workload (self-test only)")
    args = ap.parse_args(argv)

    if not (SRC / "bijepa" / "__init__.py").is_file():
        print(f"bijepa sources not found under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    env = environment(loadavg)
    WORK.mkdir(exist_ok=True)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        try:
            runner = Runner(name, args.seed, args.smoke, workdir, deadline)
            metrics, detail = measure(runner, args.seconds, bool(args.trace))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print_table(name, metrics, detail["quality"])
        print(json.dumps({"environment": env, **detail}))
        result["attempted"] += len(runner.runs)
        result["failed"] += sum(bool(r["failures"]) for r in runner.runs)
        prefix = f"{name}/" if len(names) > 1 else ""
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    result["correct"] = result["failed"] == 0 and all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        for m in result["metrics"].values())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
