"""What the benchmark in ``perfbench/`` needs of the program.

``perfbench/tracer.py`` and ``perfbench/child.py`` replace names on the
program's modules, and ``perfbench/selftest.py`` pins the traced graph
and optimizer counts of one training step. A change under ``src/`` that
breaks either shows up here, without a benchmark run. The names and
counts are read from perfbench's own files. ``selftest.py`` and
``run.py`` are read with ``ast``, not imported: ``run.py`` sets the
process's BLAS thread variables when it is imported.
"""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bijepa import autodiff as ad, cli, data, eval as ev, jepa, nn, optim

from helpers import write_synthetic_mnist

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# the names tracer.py and child.py give the program's modules
MODULES = {"cli": cli, "ad": ad, "data": data, "ev": ev, "eval_module": ev,
           "jepa": jepa, "nn": nn, "optim": optim}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _literal(path: Path, name: str):
    """The literal a module-level ``name = ...`` in ``path`` assigns."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no {name} in {path}")


TRACER, CHILD = _load("tracer"), _load("child")


def _hooked_names() -> set[str]:
    """Every dotted name tracer.py and child.py look up on the program and
    replace: each ``module.attr = ...`` target that the same file also
    reads, and each ``setattr(module, name, ...)`` for the names its loop
    walks (the first item of each tuple when the loop unpacks one)."""
    loop_scope = {**vars(TRACER), **vars(CHILD), "eval_entries": CHILD.EVAL_ENTRIES}
    names = set()
    for path in (PERFBENCH / "tracer.py", PERFBENCH / "child.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {ast.unparse(n) for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                names.update(ast.unparse(t) for t in node.targets
                             if isinstance(t, ast.Attribute) and ast.unparse(t) in read)
            elif isinstance(node, ast.For):
                calls = [c for c in ast.walk(node) if isinstance(c, ast.Call)
                         and ast.unparse(c.func) == "setattr"]
                for call in calls:
                    for item in eval(ast.unparse(node.iter), loop_scope):
                        key = item if isinstance(item, str) else item[0]
                        names.add(f"{ast.unparse(call.args[0])}.{key}")
    return {name for name in names if name.split(".")[0] in MODULES}


HOOKED = _hooked_names()


def test_scan_sees_the_hooks_it_must():
    ops = {f"ad.{op}" for op in TRACER.OPS + TRACER.GLUE}
    probes = {f"cli.{name}" for name in CHILD.EVAL_ENTRIES}
    data_names = {f"cli.{name}" for name in ("gen_sine_batch", "build_lorenz_dataset",
                                             "load_mnist_idx", "split_vertical")}
    others = {"data.ViewBatch.take", "nn.Network.forward", "optim.AdamW.step",
              "optim.AdamW.zero_grad", "jepa.ema_update", "ev._embed",
              "eval_module.AdamW", "cli.train_step", "ad.Node"}
    assert ops | probes | data_names | others <= HOOKED


@pytest.mark.parametrize("name", sorted(HOOKED))
def test_hooked_name_exists(name):
    root, *path = name.split(".")
    obj = MODULES[root]
    for part in path:
        assert hasattr(obj, part), f"perfbench replaces {name}, which does not exist"
        obj = getattr(obj, part)


def test_hook_call_signatures():
    # child.py's and tracer.py's train_step wrappers pass five positionals;
    # tracer.py's Node subclass passes these four
    inspect.signature(cli.train_step).bind(*range(5))
    assert list(inspect.signature(ad.Node).parameters) == ["op", "inputs", "output", "vjp"]


COUNTS = _literal(PERFBENCH / "selftest.py", "COUNTS")
WORKLOADS = _literal(PERFBENCH / "run.py", "WORKLOADS")
# one training step and the shortest probe fit of each workload
ONE_STEP = {"sine-classic": ("--steps", "1", "--set", "probe_steps=1"),
            "lorenz-bijepa": ("--steps", "1", "--set", "probe_steps=1"),
            "mnist-synth": ("--set", "probe_epochs=1")}


# rows that one traced run passes through eval._embed: sine's and Lorenz's
# probe and test splits, each through the encoder and then the forward
# predictor, and the 8 + 4 synthetic MNIST images through the encoder
ROWS_EMBEDDED = {"sine-classic": 2176, "lorenz-bijepa": 2040, "mnist-synth": 12}
# AdamW steps inside the probe entry points: one per regression probe
EVAL_OPTIMIZER_STEPS = {"sine-classic": 2, "lorenz-bijepa": 2}


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_traced_step_counts(workload, tmp_path):
    """One traced step records selftest.py's (nodes, target nodes, AdamW
    tensors); the MNIST step trains on 8 synthetic images. Every probe
    feature goes through the hooked ``eval._embed``, so a run that
    extracted features past it would read fewer rows embedded."""
    args = [*WORKLOADS[workload], *ONE_STEP[workload], "--seed", "0"]
    if workload == "mnist-synth":
        write_synthetic_mnist(tmp_path / "idx", n_train=8, n_test=4)
        args += ["--mnist-dir", str(tmp_path / "idx")]
    timing = tmp_path / "timing.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--timing", str(timing),
         "--mode", "trace", "--src", str(ROOT / "src"), "--", "run", *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=tmp_path,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(timing.read_text())["metrics"]
    assert metrics["jepa.steps"] == 1
    assert (metrics["autodiff.nodes_per_step"], metrics["autodiff.target_nodes_per_step"],
            metrics["optim.adamw.tensors_per_step"]) == COUNTS[workload]
    assert metrics["eval.rows_embedded"] == ROWS_EMBEDDED[workload]
    if workload in EVAL_OPTIMIZER_STEPS:
        assert metrics["eval.optimizer_steps"] == EVAL_OPTIMIZER_STEPS[workload]
