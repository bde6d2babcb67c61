#!/usr/bin/env python3
"""Fast self-test of the benchmark (about half a minute on two cores).

Runs every workload for a few training steps (``run.py --smoke``),
untraced and traced, and checks that:

- the result line has exactly the keys correct, attempted, failed and
  metrics, no run failed, and the traced run's report fields equal the
  untraced run's bit for bit (``run.py`` counts any difference as a
  failed run);
- every end-to-end metric (``--trace 0``) and every per-layer metric
  (``--trace 1``) listed in BENCHMARK.json is emitted with its unit;
- the quality metrics appear exactly where the experiment defines them;
- the traced counts match the architecture: graph nodes and target
  nodes per step, AdamW tensors per step, and conv-only ops at zero
  outside ``mnist-synth``.

Usage: python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

QUALITY = {
    "sine-classic": {"final_train_loss", "protocol_a_mse", "protocol_b_mse", "failure_rate"},
    "lorenz-bijepa": {"final_train_loss", "protocol_a_mse", "protocol_b_mse", "failure_rate"},
    "mnist-synth": {"final_train_loss", "accuracy", "decoder_mse", "failure_rate"},
}
# (nodes per step, target nodes per step, AdamW tensors per step)
COUNTS = {"sine-classic": (19, 7, 16), "lorenz-bijepa": (41, 14, 22),
          "mnist-synth": (57, 22, 26)}
CONV_ONLY = ("conv2d", "batch_norm2d", "softmax_cross_entropy")


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(workload: str, trace: int, spec: dict) -> list[str]:
    errors = []
    detail, result = bench(workload, trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"runs failed: {[r['failures'] for r in detail['runs']]}")
    listed = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != expected:
        errors.append(f"metrics/units differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}, "
                      f"unit mismatch {sorted(k for k in got if k in expected and got[k] != expected[k])}")
    quality = detail["quality"]
    if set(quality) != QUALITY[workload]:
        errors.append(f"quality metrics {sorted(quality)}")
    if any(not m["unit"] or m["value"] is None for m in quality.values()):
        errors.append(f"quality metric without value or unit: {quality}")
    if trace:
        v = {k: m["value"] for k, m in result["metrics"].items()}
        counts = (v["autodiff.nodes_per_step"], v["autodiff.target_nodes_per_step"],
                  v["optim.adamw.tensors_per_step"])
        if counts != COUNTS[workload]:
            errors.append(f"(nodes, target nodes, AdamW tensors) per step {counts}, "
                          f"expected {COUNTS[workload]}")
        conv_calls = [v[f"autodiff.{op}.calls"] for op in CONV_ONLY]
        if not all(conv_calls) if workload == "mnist-synth" else any(conv_calls):
            errors.append(f"conv-only op calls {dict(zip(CONV_ONLY, conv_calls))}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in WORKLOADS:  # every workload run.py has, listed in BENCHMARK.json or not
        for trace in (0, 1):
            errors = check(workload, trace, spec)
            failed |= bool(errors)
            status = "ok" if not errors else "FAIL\n    " + "\n    ".join(errors)
            print(f"{workload} --trace {trace}: {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
