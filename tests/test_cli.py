"""Runner behavior: config validation, artifacts, determinism, suite
aggregation, and the MNIST fetch helper."""

import ctypes
import dataclasses
import gzip
import http.server
import json
import math
import os
import socket
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bijepa import cli, eval as ev
from bijepa.cli import (
    ConfigError, Domain, ExperimentReport, RunConfig, _final_loss, _parse_set,
    effective_hyper, emit_outputs, fetch_mnist, forecast_table, main,
    resolve_mnist_dir, run, run_suite, write_pgm,
)
from bijepa.data import (
    MNIST_MEAN, MNIST_STD, SineConfig, ViewBatch, denormalize_to_u8, gen_sine_batch,
)
from bijepa.seeding import derive_seed, stream

from conftest import find_mnist_dir
from helpers import load_report, write_synthetic_mnist

TINY_SINE = {"steps": 60, "probe_steps": 40}

# the report fields that each kind of probe measures
REGRESSION_FIELDS = {f"protocol_{p}_{kind}" for p in "ab"
                     for kind in ("mse", "mse_exact", "train_mse")}
IMAGE_FIELDS = {"accuracy", "decoder_mse"}


def probe_fields() -> set:
    """The report's probe fields: the ones a run leaves None unless one
    of its probes measures them."""
    return {fd.name for fd in dataclasses.fields(ExperimentReport) if fd.default is None}


def measured_fields(report: ExperimentReport) -> set:
    """The probe fields that ``report`` holds a value for."""
    return {name for name in probe_fields() if getattr(report, name) is not None}


def test_probe_kinds_measure_every_probe_field_once():
    assert not REGRESSION_FIELDS & IMAGE_FIELDS
    assert REGRESSION_FIELDS | IMAGE_FIELDS == probe_fields()
    assert len(probe_fields()) == 8


class TestEffectiveHyper:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            effective_hyper(RunConfig("cifar", "classic"))

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            effective_hyper(RunConfig("sine", "bijepa-spherical"))

    def test_unconstrained_only_on_sine(self):
        effective_hyper(RunConfig("sine", "bijepa-unconstrained"))
        for experiment in ("lorenz", "mnist"):
            with pytest.raises(ConfigError):
                effective_hyper(RunConfig(experiment, "bijepa-unconstrained"))

    def test_classic_forces_alpha_one(self):
        hyper, _ = effective_hyper(RunConfig("sine", "classic"))
        assert hyper["alpha"] == 1.0

    def test_alpha_is_an_override(self):
        hyper, _ = effective_hyper(RunConfig("sine", "bijepa-expressive"))
        assert hyper["alpha"] == 0.5
        hyper, _ = effective_hyper(RunConfig("sine", "bijepa-expressive",
                                             overrides={"alpha": "0.3"}))
        assert hyper["alpha"] == 0.3

    def test_classic_rejects_alpha_override(self, capsys):
        # an alpha below 1 would build a backward predictor for a run
        # reported as classic
        with pytest.raises(ConfigError, match="classic"):
            effective_hyper(RunConfig("sine", "classic", overrides={"alpha": 0.5}))
        assert main(["run", "--experiment", "sine", "--variant", "classic",
                     "--set", "alpha=0.5"]) == 2
        assert "alpha" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["run", "--experiment", "sine", "--variant", "classic",
                  "--alpha", "0.5"])  # not an option

    def test_variant_decay_wiring(self):
        h_u, _ = effective_hyper(RunConfig("sine", "bijepa-unconstrained"))
        h_e, _ = effective_hyper(RunConfig("sine", "bijepa-expressive"))
        assert h_u["weight_decay"] == 0.0
        assert h_e["weight_decay"] == 1e-4

    def test_steps_flag_rejected_for_mnist(self, capsys):
        assert main(["run", "--experiment", "mnist", "--variant", "classic",
                     "--steps", "100"]) == 2
        assert "'steps'" in capsys.readouterr().err

    def test_epochs_flag_rejected_for_sine(self, capsys):
        assert main(["run", "--experiment", "sine", "--variant", "classic",
                     "--epochs", "2"]) == 2
        assert "'epochs'" in capsys.readouterr().err

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            effective_hyper(RunConfig("sine", "classic",
                                      overrides={"momentum": 0.9}))

    @pytest.mark.parametrize("experiment,key,value", [
        ("sine", "noise_std", 0.05), ("sine", "probe_set_size", 1024),
        ("sine", "test_batch", 64), ("mnist", "probe_batch", 256)])
    def test_constant_is_not_an_override(self, experiment, key, value):
        # no run varies these, so not even their fixed value is a key:
        # the gated held-out splits cannot be resized
        with pytest.raises(ConfigError, match=f"unknown override '{key}'"):
            effective_hyper(RunConfig(experiment, "classic", overrides={key: value}))

    def test_sine_and_lorenz_take_the_same_keys(self):
        assert set(cli._EXPERIMENTS["sine"].hyper) == set(cli._EXPERIMENTS["lorenz"].hyper)

    def test_override_coercion(self):
        hyper, _ = effective_hyper(RunConfig(
            "sine", "classic", overrides={"steps": "250", "lr": "0.01"}))
        assert hyper["steps"] == 250 and isinstance(hyper["steps"], int)
        assert hyper["lr"] == 0.01
        assert Domain(int).check("steps", 250.0) == 250

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError):
            effective_hyper(RunConfig("sine", "bijepa-expressive",
                                      overrides={"alpha": 1.5}))

    def test_coerce_rejects_garbage(self):
        for kind, value in [(int, "many"), (float, "fast"),
                            (int, 2.5), (int, "2.5"), (int, True),
                            (int, float("inf")), (float, True), (float, False),
                            (float, float("nan")), (float, "inf"),
                            (float, float("-inf")), (float, 10 ** 400),
                            (float, "1" + "0" * 400), (int, np.float32(2.5))]:
            with pytest.raises(ConfigError):
                Domain(kind).check("key", value)


def _edges(domain: Domain) -> tuple[list, list]:
    """Values just inside and just outside ``domain``."""
    step = (lambda v, d: v + d) if domain.kind is int else \
        (lambda v, d: np.nextafter(v, v + d))
    inside, outside = [], []
    if domain.gt is not None:
        inside.append(step(domain.gt, 1))
        outside.append(domain.kind(domain.gt))
    if domain.ge is not None:
        inside.append(domain.kind(domain.ge))
        outside.append(step(domain.ge, -1))
    if domain.le is not None:
        inside.append(domain.kind(domain.le))
        outside.append(step(domain.le, 1))
    return inside, outside


class TestDomains:
    """Every hyperparameter key has one domain, and effective_hyper
    enforces it at its edges."""

    @pytest.mark.parametrize("experiment", tuple(cli._EXPERIMENTS))
    def test_every_key_has_a_domain(self, experiment):
        spec = cli._EXPERIMENTS[experiment]
        keys = set(spec.hyper) | {"weight_decay", "alpha"}
        assert keys - set(spec.domains()) == set(), "keys without a domain"
        assert set(spec.own_domains) <= keys
        for variant in ("bijepa-expressive", "classic"):
            hyper, _ = effective_hyper(RunConfig(experiment, variant))
            for key, value in hyper.items():
                assert type(value) is spec.domains()[key].kind, key

    def test_no_domain_for_an_unknown_key(self):
        keys = set().union(*(e.hyper for e in cli._EXPERIMENTS.values()))
        assert set(cli._DOMAINS) <= keys | {"weight_decay", "alpha"}

    @pytest.mark.parametrize("experiment", tuple(cli._EXPERIMENTS))
    def test_edges(self, experiment):
        domains = cli._EXPERIMENTS[experiment].domains()
        defaults, _ = effective_hyper(RunConfig(experiment, "bijepa-expressive"))
        for key in defaults:
            inside, outside = _edges(domains[key])
            assert inside and outside, key
            for value in inside:
                hyper, _ = effective_hyper(RunConfig(
                    experiment, "bijepa-expressive", overrides={key: value}))
                assert hyper[key] == value, (key, value)
            for value in outside:
                with pytest.raises(ConfigError, match=key):
                    effective_hyper(RunConfig(
                        experiment, "bijepa-expressive", overrides={key: value}))

    @pytest.mark.parametrize("experiment,setting", [
        ("sine", "steps=-5"), ("sine", "batch=0"), ("sine", "lr=-1"),
        ("sine", "tau=1.5"), ("sine", "probe_lr=0"), ("sine", "probe_steps=-3"),
        ("sine", "weight_decay=-0.1"), ("lorenz", "integrator=rk4"),
        ("lorenz", "batch=2001"), ("mnist", "batch=1"), ("mnist", "train_limit=-1")])
    def test_out_of_domain_exits_two(self, experiment, setting, capsys):
        assert main(["run", "--experiment", experiment, "--variant", "classic",
                     "--set", setting]) == 2
        assert setting.split("=")[0] in capsys.readouterr().err


class TestParseSet:
    def test_values_stay_text(self):
        # Domain reads the text, as it reads every other path's
        got = _parse_set(["steps=120", "lr=0.5", "integrator=rk4", "tau=", "batch=a=b"])
        assert got == {"steps": "120", "lr": "0.5", "integrator": "rk4", "tau": "",
                       "batch": "a=b"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            _parse_set(["steps"])


# A number as a user may type it, and the value every path reads it as
# (None: refused, with the config-error code on the command line)
TYPED = [("2", 2), ("2.0", 2), ("1e0", 1), (" 2", 2), ("+2", 2), ("2.5", None),
         ("x", None), ("inf", None), ("nan", None), ("true", None), ('"2"', None),
         ("-1", None)]
RUN_ARGV = ["run", "--experiment", "sine", "--variant", "classic"]
SUITE_ARGV = ["suite", "--experiment", "sine", "--variants", "classic"]


def _or_refused(read):
    """``read()``, or None when it raises ConfigError."""
    try:
        return read()
    except ConfigError:
        return None


def _run_seed(cfg: RunConfig) -> int:
    """The seed ``run`` trains with: checked by effective_hyper, then read."""
    effective_hyper(cfg)
    return cli._NATURAL.check("seed", cfg.seed)


class TestOneParser:
    """--set, --steps, --seed, --seeds and the Python API read a typed
    number one way, through Domain: to the same value or the same
    refusal. --steps is an item of the --set list, so the last setting
    of the key wins however it was typed."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """What main passes run (the RunConfig) or run_suite (its seeds
        and overrides), one item a call; stand-ins take their places, so
        nothing trains."""
        calls = []
        report = ExperimentReport(config={}, final_train_loss=0.0, loss_history=[],
                                  diverged=False, wall_time=0.0)
        monkeypatch.setattr(cli, "run", lambda cfg: calls.append(cfg) or report)
        monkeypatch.setattr(cli, "run_suite", lambda seeds, *args, overrides, **kwargs: (
            calls.append(SimpleNamespace(seeds=seeds, overrides=overrides))
            or {"means": {}, "verdicts": {}, "rows": []}))
        return calls

    @staticmethod
    def passed(calls, argv):
        assert main(argv) == 0
        return calls.pop()

    @staticmethod
    def check(reads: dict, value):
        assert reads == dict.fromkeys(reads, value)
        assert all(type(read) is type(value) for read in reads.values())

    @pytest.mark.parametrize("text,value", TYPED)
    def test_steps(self, calls, text, value):
        def steps(cfg):
            return effective_hyper(cfg)[0]["steps"]

        def suite_steps(suite):
            return steps(RunConfig("sine", "classic", overrides=suite.overrides))

        suite_argv = [*SUITE_ARGV, "--seeds", "0"]
        self.check({
            "--set": _or_refused(lambda: steps(
                self.passed(calls, [*RUN_ARGV, "--set", f"steps={text}"]))),
            "--steps": _or_refused(lambda: steps(
                self.passed(calls, [*RUN_ARGV, "--steps", text]))),
            "RunConfig": _or_refused(lambda: steps(
                RunConfig("sine", "classic", overrides={"steps": text}))),
            # the last setting wins, whichever option typed it
            "--set, then --steps": _or_refused(lambda: steps(
                self.passed(calls, [*RUN_ARGV, "--set", "steps=3", "--steps", text]))),
            "--steps, then --set": _or_refused(lambda: steps(
                self.passed(calls, [*RUN_ARGV, "--steps", "3", "--set", f"steps={text}"]))),
            "suite --set, then --steps": _or_refused(lambda: suite_steps(
                self.passed(calls, [*suite_argv, "--set", "steps=3", "--steps", text]))),
            "suite --steps, then --set": _or_refused(lambda: suite_steps(
                self.passed(calls, [*suite_argv, "--steps", "3", "--set", f"steps={text}"]))),
        }, value)

    @pytest.mark.parametrize("text,value", TYPED)
    def test_seed(self, calls, text, value):
        def suite_seed(suite):
            [seed] = [cli._NATURAL.check("seed", seed) for seed in suite.seeds]
            return seed

        def run_suite_seed():
            run_suite([text], ["classic"], "sine")  # its member goes to the stand-in run
            return calls.pop().seed
        self.check({
            "--seed": _or_refused(lambda: _run_seed(
                self.passed(calls, [*RUN_ARGV, "--seed", text]))),
            "--seeds": _or_refused(lambda: suite_seed(
                self.passed(calls, [*SUITE_ARGV, "--seeds", text]))),
            "RunConfig": _or_refused(lambda: _run_seed(RunConfig("sine", "classic", seed=text))),
            "run_suite": _or_refused(run_suite_seed),
        }, value)

    @pytest.mark.parametrize("text", [text for text, value in TYPED if value is None])
    def test_refusals_exit_two(self, text, capsys):
        # each is refused before anything trains
        for argv in ([*RUN_ARGV, "--set", f"steps={text}"], [*RUN_ARGV, "--steps", text],
                     [*RUN_ARGV, "--seed", text], [*SUITE_ARGV, "--seeds", text]):
            assert main(argv) == 2, argv
            assert "config error" in capsys.readouterr().err


class TestFinalLoss:
    def test_mean_of_last_hundred(self):
        history = [[i, float(i), 0.0, 0.0, 1.0] for i in range(200)]
        assert _final_loss(history) == np.mean(np.arange(100, 200, dtype=float))

    def test_skips_non_finite(self):
        history = [[0, 1.0, 0, 0, 1], [1, math.nan, 0, 0, 1], [2, 3.0, 0, 0, 1]]
        assert _final_loss(history) == 2.0

    def test_all_nan_gives_nan(self):
        assert math.isnan(_final_loss([[0, math.nan, 0, 0, 1]]))
        assert math.isnan(_final_loss([]))


@pytest.fixture(scope="module")
def tiny_sine_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("sine-run")
    cfg = RunConfig("sine", "bijepa-expressive", seed=0, out_dir=str(out),
                    overrides=dict(TINY_SINE))
    return run(cfg), out


def test_sine_held_out_splits_are_fixed():
    """A sine run probes and tests on SineConfig's split sizes at its
    noise, drawn from the run's named streams."""
    assert (SineConfig.n_probe, SineConfig.n_test, SineConfig.noise_std) == (1024, 64, 0.05)
    cfg = RunConfig("sine", "classic", seed=2)
    hyper, _ = effective_hyper(cfg)
    _, held_out = cli._sine_data(cfg, hyper)
    for split, n, name in ((held_out.probe, SineConfig.n_probe, "data:sine-probe"),
                           (held_out.test, SineConfig.n_test, "data:sine-test")):
        assert split.x.shape == split.y.shape == (n, SineConfig.T // 2)
        expected = gen_sine_batch(n, SineConfig.noise_std, stream(2, name))
        assert split.x.tobytes() == expected.x.tobytes()
        assert split.y.tobytes() == expected.y.tobytes()


class TestBatchStream:
    """An experiment's data hook returns every batch its run trains on."""

    @pytest.mark.parametrize("experiment, batch", [
        ("sine", 16),
        # two full batches an epoch of the 2000 train windows, the short
        # third dropped, so five steps cross two epoch boundaries
        ("lorenz", 768)])
    def test_regression_stream_is_steps_full_batches(self, experiment, batch):
        cfg = RunConfig(experiment, "classic", overrides={"steps": 5, "batch": batch})
        hyper, _ = effective_hyper(cfg)
        batches, _ = cli._EXPERIMENTS[experiment].data(cfg, hyper)
        assert [b.size for b in batches] == [batch] * 5

    def test_mnist_stream_is_whole_epochs(self, tmp_path):
        data = tmp_path / "idx"
        write_synthetic_mnist(data, n_train=40, n_test=8)
        cfg = RunConfig("mnist", "classic", mnist_dir=str(data),
                        overrides={"epochs": 3, "batch": 16})
        hyper, _ = effective_hyper(cfg)
        batches, views = cli._mnist_data(cfg, hyper)
        batches = list(batches)
        # ceil(40/16) = 3 batches an epoch, the last one partial
        assert [b.size for b in batches] == [16, 16, 8] * 3
        train_rows = sorted(row.tobytes() for row in views.train.x)
        for epoch in range(3):
            rows = [row.tobytes() for b in batches[3 * epoch:3 * epoch + 3] for row in b.x]
            assert sorted(rows) == train_rows


class TestRunArtifacts:
    def test_report_fields(self, tiny_sine_report):
        report, _ = tiny_sine_report
        assert math.isfinite(report.final_train_loss)
        assert report.protocol_a_mse is not None
        assert report.protocol_b_mse is not None
        for name in ("protocol_a", "protocol_b"):
            for diagnostic in ("mse_exact", "train_mse"):
                value = getattr(report, f"{name}_{diagnostic}")
                assert math.isfinite(value) and value >= 0.0
        assert report.accuracy is None and report.decoder_mse is None
        assert measured_fields(report) == REGRESSION_FIELDS
        assert len(report.loss_history) == TINY_SINE["steps"]
        assert all(len(row) == 5 for row in report.loss_history)
        assert report.config["constraint_mode"] == "expressive"
        assert report.config["steps"] == TINY_SINE["steps"]

    def test_json_round_trip(self, tiny_sine_report):
        report, out = tiny_sine_report
        back = ExperimentReport(**json.loads((out / "report.json").read_text()))
        assert back.final_train_loss == report.final_train_loss
        assert back.protocol_b_mse == report.protocol_b_mse
        assert back.protocol_a_mse_exact == report.protocol_a_mse_exact
        assert back.protocol_b_train_mse == report.protocol_b_train_mse
        assert back.loss_history == report.loss_history
        assert back.config == report.config
        assert back.forecast == report.forecast

    def test_written_files(self, tiny_sine_report):
        _, out = tiny_sine_report
        assert (out / "report.json").exists()
        loss_lines = (out / "loss.csv").read_text().strip().split("\n")
        assert loss_lines[0] == "step,total,fwd,bwd,emb_norm"
        assert len(loss_lines) == TINY_SINE["steps"] + 1
        fc_lines = (out / "forecast.csv").read_text().strip().split("\n")
        assert fc_lines[0] == "sample,truth,proto_a,proto_b"
        assert len(fc_lines) == SineConfig.n_test + 1

    def test_csv_floats_round_trip(self, tiny_sine_report):
        report, out = tiny_sine_report
        lines = (out / "loss.csv").read_text().strip().split("\n")[1:]
        first = lines[0].split(",")
        assert float(first[1]) == report.loss_history[0][1]

    def test_forecast_matches_report(self, tiny_sine_report):
        report, _ = tiny_sine_report
        assert len(report.forecast) == SineConfig.n_test
        rec = report.forecast[0]
        assert set(rec) == {"sample", "truth", "proto_a", "proto_b"}


class TestEmitOutputs:
    def test_bytes_of_the_buffered_forms(self, tmp_path):
        """report.json is the deep-copied report's indented JSON, and the
        CSVs are their line-joined forms, byte for byte."""
        report = ExperimentReport(
            config={"experiment": "sine", "nested": {"b": [1, 2.5], "a": None}},
            final_train_loss=0.1, diverged=False, wall_time=1.25,
            loss_history=[[0, 1.0, 0.5, 0.5, 2.0], [1, math.nan, 0.1 / 3, math.inf, 1e-300]],
            protocol_b_mse=0.2,
            forecast=[{"sample": i, "truth": i / 7, "proto_a": -i / 3, "proto_b": 0.1 * i}
                      for i in range(3)])
        emit_outputs(report, tmp_path, [])
        expected_json = json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True)
        assert (tmp_path / "report.json").read_bytes() == expected_json.encode()
        lines = ["step,total,fwd,bwd,emb_norm"]
        for step, total, fwd, bwd, norm in report.loss_history:
            lines.append(f"{step},{total!r},{fwd!r},{bwd!r},{norm!r}")
        assert (tmp_path / "loss.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        lines = ["sample,truth,proto_a,proto_b"]
        for rec in report.forecast:
            lines.append(f"{rec['sample']},{rec['truth']!r},"
                         f"{rec['proto_a']!r},{rec['proto_b']!r}")
        assert (tmp_path / "forecast.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


class TestForecastTable:
    def test_record_count_and_keys(self):
        vb = ViewBatch(np.zeros((5, 4)), np.arange(20.0).reshape(5, 4))
        preds = np.ones((5, 4))
        table = forecast_table(vb, preds, 2 * preds)
        assert len(table) == 5
        assert table[0] == {"sample": 0, "truth": 0.0, "proto_a": 1.0,
                            "proto_b": 2.0}
        assert table[3]["truth"] == 12.0

    def test_perfect_probes_align(self):
        vb = ViewBatch(np.zeros((3, 2)), np.array([[1.0, 9], [2, 9], [3, 9]]))
        perfect = vb.y.copy()
        for rec in forecast_table(vb, perfect, perfect):
            assert rec["truth"] == rec["proto_a"] == rec["proto_b"]


class TestImageDumps:
    def test_denormalize_round_trip(self):
        u8 = np.arange(256, dtype=np.uint8)
        norm = (u8 / 255.0 - MNIST_MEAN) / MNIST_STD
        assert np.array_equal(denormalize_to_u8(norm), u8)

    def test_denormalize_clips(self):
        assert denormalize_to_u8(np.array([-100.0]))[0] == 0
        assert denormalize_to_u8(np.array([100.0]))[0] == 255

    def test_pgm_bytes(self, tmp_path):
        img = np.arange(392, dtype=np.uint8).reshape(28, 14)
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n14 28\n255\n")
        assert raw[len(b"P5\n14 28\n255\n"):] == img.tobytes()

    def test_pgm_rejects_other_shapes(self, tmp_path):
        for shape in ((14, 28), (28, 28), (28,), (1, 28, 14)):
            with pytest.raises(ValueError):
                write_pgm(tmp_path / "z.pgm", np.zeros(shape, dtype=np.uint8))
        assert not (tmp_path / "z.pgm").exists()


def test_import_leaves_network_stack_unloaded():
    """Only fetch-mnist needs urllib and gzip; importing the CLI loads
    neither them nor what urllib.request pulls in."""
    code = ("import sys, bijepa.cli; "
            "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl', 'gzip') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"


class TestHeapPolicy:
    def test_run_keeps_freed_heap(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append(1))
        run(RunConfig("sine", "classic", overrides={"steps": 2, "probe_steps": 2}))
        assert calls == [1]


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_files(out: Path) -> dict:
    """Every file of a run directory by name, its report.json parsed and
    without ``wall_time``."""
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    report = json.loads(files["report.json"])
    del report["wall_time"]
    return {**files, "report.json": report}


class TestBlasThreads:
    """A run sets numpy's OpenBLAS to one thread itself, so its bits do
    not depend on the thread variables of the shell that started it."""

    def test_run_pins_one_thread(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_one_blas_thread", lambda: calls.append(1))
        run(RunConfig("sine", "classic", overrides={"steps": 2, "probe_steps": 2}))
        assert calls == [1]

    def test_pin_sets_the_library_count(self):
        blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        setter, getter = (blas.scipy_openblas_set_num_threads64_,
                          blas.scipy_openblas_get_num_threads64_)
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter(2)
        cli._one_blas_thread()
        assert getter() == 1

    def test_missing_setter_warns_and_the_run_goes_on(self, monkeypatch):
        def no_library(name):
            raise OSError(f"cannot load {name}")

        monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
        with pytest.warns(RuntimeWarning, match="OPENBLAS_NUM_THREADS=1"):
            report = run(RunConfig("sine", "classic",
                                   overrides={"steps": 2, "probe_steps": 2}))
        assert report.protocol_b_mse is not None

    def test_unset_thread_variables_write_the_pinned_bytes(self, tmp_path):
        """With several cores, OpenBLAS runs as many threads as it finds
        when no variable says otherwise, and this Lorenz run's probe
        outputs then round differently from a one-thread run's."""
        env = {name: value for name, value in os.environ.items()
               if name not in THREAD_VARS}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        written = {}
        for side, pins in (("unset", {}), ("pinned", dict.fromkeys(THREAD_VARS, "1"))):
            subprocess.run(
                [sys.executable, "-m", "bijepa.cli", "run", "--experiment", "lorenz",
                 "--variant", "bijepa-expressive", "--steps", "50",
                 "--set", "probe_steps=50", "--seed", "0", "--out", str(tmp_path / side)],
                env={**env, **pins}, capture_output=True, check=True)
            written[side] = run_files(tmp_path / side)
        unset, pinned = written["unset"], written["pinned"]
        assert sorted(unset) == sorted(pinned) == ["forecast.csv", "loss.csv", "report.json"]
        assert [name for name in unset if unset[name] != pinned[name]] == []


class TestDeterminism:
    def test_identical_config_identical_metrics(self):
        cfg = dict(TINY_SINE)
        a = run(RunConfig("sine", "bijepa-expressive", seed=3, overrides=cfg))
        b = run(RunConfig("sine", "bijepa-expressive", seed=3, overrides=cfg))
        assert a.final_train_loss == b.final_train_loss
        assert a.protocol_a_mse == b.protocol_a_mse
        assert a.protocol_b_mse == b.protocol_b_mse
        assert a.loss_history == b.loss_history
        assert a.forecast == b.forecast

    def test_seed_changes_trajectory(self):
        cfg = dict(TINY_SINE)
        a = run(RunConfig("sine", "bijepa-expressive", seed=3, overrides=cfg))
        b = run(RunConfig("sine", "bijepa-expressive", seed=4, overrides=cfg))
        assert a.loss_history != b.loss_history

    def test_integral_seed_runs_and_echoes_as_int(self):
        cfg = dict(TINY_SINE)
        a = run(RunConfig("sine", "classic", seed=1, overrides=cfg))
        b = run(RunConfig("sine", "classic", seed=1.0, overrides=cfg))
        assert type(b.config["seed"]) is int
        assert b.config == a.config
        assert b.loss_history == a.loss_history


class TestLorenzRun:
    def test_tiny_lorenz_run(self, tmp_path):
        cfg = RunConfig("lorenz", "classic", seed=0, out_dir=str(tmp_path),
                        overrides={"steps": 40, "probe_steps": 30})
        report = run(cfg)
        assert report.config["alpha"] == 1.0
        assert len(report.forecast) == 20  # test split size
        assert measured_fields(report) == REGRESSION_FIELDS
        assert (tmp_path / "forecast.csv").exists()
        assert all(row[3] == 0.0 for row in report.loss_history)  # no bwd term


class TestRegressionExtraction:
    @pytest.mark.parametrize("experiment", ["sine", "lorenz"])
    def test_each_split_is_embedded_once(self, monkeypatch, experiment):
        # the encoder runs once over the probe split and once over the
        # test split; protocol B's predictor runs over exactly the two
        # arrays those passes returned, which protocol A fits on
        embed, embedded, handed, held = ev._embed, [], {}, []

        def recording_embed(fn, rows):
            out = embed(fn, rows)
            embedded.append((rows, out))
            return out

        def recording(name):
            probe = getattr(cli, name)

            def call(feats, test_feats, dataset, **settings):
                handed[name] = (feats, test_feats)
                return probe(feats, test_feats, dataset, **settings)
            return call

        spec = cli._EXPERIMENTS[experiment]

        def recording_data(cfg, hyper):
            batches, held_out = spec.data(cfg, hyper)
            held.append(held_out)
            return batches, held_out

        monkeypatch.setattr(ev, "_embed", recording_embed)
        monkeypatch.setitem(cli._EXPERIMENTS, experiment,
                            dataclasses.replace(spec, data=recording_data))
        for name in ("protocol_a", "protocol_b"):
            monkeypatch.setattr(cli, name, recording(name))
        run(RunConfig(experiment, "bijepa-expressive", seed=0,
                      overrides={"steps": 2, "probe_steps": 2}))
        (held_out,) = held
        assert len(embedded) == 4
        (probe_x, context), (test_x, test_context), (s, predicted), (test_s, test_predicted) \
            = embedded
        assert probe_x is held_out.probe.x and test_x is held_out.test.x
        assert s is context and test_s is test_context
        assert all(a is b for a, b in zip(handed["protocol_a"], (context, test_context)))
        assert all(a is b for a, b in zip(handed["protocol_b"], (predicted, test_predicted)))


class TestMnistRun:
    def test_synthetic_mnist_run(self, tmp_path):
        data, out = tmp_path / "idx", tmp_path / "out"
        write_synthetic_mnist(data, n_train=64, n_test=16)
        report = run(RunConfig("mnist", "bijepa-expressive", seed=0,
                               out_dir=str(out), mnist_dir=str(data),
                               overrides={"epochs": 1, "probe_epochs": 1}))
        assert 0.0 <= report.accuracy <= 1.0
        assert math.isfinite(report.decoder_mse)
        assert measured_fields(report) == IMAGE_FIELDS
        assert len(report.loss_history) == 1  # ceil(64/256)
        assert len(list(out.glob("recon_*.pgm"))) == 24

    def test_each_split_is_embedded_once(self, tmp_path, monkeypatch):
        # both image probes fit on the same two embeddings: train, then test
        data = tmp_path / "idx"
        write_synthetic_mnist(data, n_train=64, n_test=16)
        embed, embedded, handed = ev._embed, [], {}

        def recording_embed(fn, rows):
            out = embed(fn, rows)
            embedded.append((rows, out))
            return out

        def recording(name):
            probe = getattr(cli, name)

            def call(feats, test_feats, mnist, **settings):
                handed[name] = (feats, test_feats)
                return probe(feats, test_feats, mnist, **settings)
            return call

        monkeypatch.setattr(ev, "_embed", recording_embed)
        for name in ("linear_probe_classify", "generative_decoder"):
            monkeypatch.setattr(cli, name, recording(name))
        run(RunConfig("mnist", "bijepa-expressive", seed=0, mnist_dir=str(data),
                      overrides={"epochs": 1, "probe_epochs": 1}))
        assert [rows.shape[0] for rows, _ in embedded] == [64, 16]
        feats, test_feats = handed["linear_probe_classify"]
        assert feats is embedded[0][1] and test_feats is embedded[1][1]
        assert handed["generative_decoder"][0] is feats
        assert handed["generative_decoder"][1] is test_feats

    def test_emb_dim_sets_conv_encoder_width(self, tmp_path, monkeypatch):
        data = tmp_path / "idx"
        write_synthetic_mnist(data, n_train=64, n_test=16)
        build, models = cli._build_model, []

        def recording(*args):
            models.append(build(*args))
            return models[-1]

        monkeypatch.setattr(cli, "_build_model", recording)
        report = run(RunConfig("mnist", "bijepa-expressive", seed=0, mnist_dir=str(data),
                               overrides={"epochs": 1, "probe_epochs": 1, "emb_dim": 32}))
        assert models[0].online_encoder.spec()[-1] == ("Linear", (128, 32), (32,))
        assert report.config["emb_dim"] == 32
        assert 0.0 <= report.accuracy <= 1.0 and math.isfinite(report.decoder_mse)

    def test_train_limit_build_never_converts_the_whole_file(self, tmp_path):
        # rows and halves are cut from the uint8 file, so a 512-image
        # build from a 4096-image file stays below one float64 copy of it
        data = tmp_path / "idx"
        write_synthetic_mnist(data, n_train=4096, n_test=16)
        cfg = RunConfig("mnist", "bijepa-expressive", seed=0, mnist_dir=str(data))
        hyper = {"train_limit": 512, "batch": 256, "epochs": 1}
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, views = cli._mnist_data(cfg, hyper)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert views.train.size == 512 and views.test.size == 16
        assert peak < 4096 * 28 * 28 * 8

    @pytest.mark.parametrize("n_train,settings", [
        (65, ["batch=64"]), (257, []), (80, ["batch=64", "train_limit=65"])])
    def test_one_row_last_batch_exits_two(self, tmp_path, capsys, n_train, settings):
        # BatchNorm refuses a one-row batch; the split size must catch it
        # before any step runs
        data = tmp_path / "idx"
        write_synthetic_mnist(data, n_train=n_train, n_test=16)
        args = ["run", "--experiment", "mnist", "--variant", "classic",
                "--mnist-dir", str(data), "--set", "epochs=1"]
        for setting in settings:
            args += ["--set", setting]
        assert main(args) == 2
        assert "one-row last batch" in capsys.readouterr().err

    @pytest.mark.parametrize("empty", ["train", "t10k"])
    def test_empty_split_exits_two(self, tmp_path, capsys, monkeypatch, empty):
        # an empty train split would train 0 steps and an empty test split
        # would embed nothing; either is refused before any step runs
        data = tmp_path / "idx"
        write_synthetic_mnist(data, n_train=0 if empty == "train" else 64,
                              n_test=0 if empty == "t10k" else 16)
        monkeypatch.setattr(cli, "train_step", None)
        assert main(["run", "--experiment", "mnist", "--variant", "classic",
                     "--mnist-dir", str(data), "--set", "epochs=1",
                     "--set", "probe_epochs=1"]) == 2
        assert f"the {empty} split in {data} has no images" in capsys.readouterr().err

    def test_tiny_mnist_run(self, tmp_path, mnist_dir):
        cfg = RunConfig("mnist", "bijepa-expressive", seed=0,
                        out_dir=str(tmp_path), mnist_dir=str(mnist_dir),
                        overrides={"epochs": 1, "train_limit": 512,
                                   "probe_epochs": 1})
        report = run(cfg)
        assert report.accuracy is not None and 0.0 <= report.accuracy <= 1.0
        assert report.decoder_mse is not None
        assert report.protocol_a_mse is None
        assert report.protocol_a_mse_exact is None and report.protocol_b_train_mse is None
        assert measured_fields(report) == IMAGE_FIELDS
        assert len(report.loss_history) == 2  # ceil(512/256)
        for i in range(8):
            for part in ("input", "gen", "truth"):
                p = tmp_path / f"recon_{i:02d}_{part}.pgm"
                assert p.exists()
                assert p.read_bytes().startswith(b"P5\n14 28\n255\n")


class TestProbeSettings:
    """A run's probes read the experiment table's ``probe_*`` keys, with
    --set overrides applied, and draw from the run's probe seed."""

    @pytest.fixture
    def probe_calls(self, monkeypatch):
        optimizers, seeds = [], []

        class RecordingAdamW(ev.AdamW):
            def __init__(self, nets, lr, **kwargs):
                super().__init__(nets, lr, **kwargs)
                self.steps = 0
                optimizers.append((lr, kwargs, self))

            def step(self):
                self.steps += 1
                return super().step()

        build_mlp = ev.build_mlp

        def recording_build_mlp(widths, with_ln, seed):
            seeds.append(seed)
            return build_mlp(widths, with_ln, seed)

        monkeypatch.setattr(ev, "AdamW", RecordingAdamW)
        monkeypatch.setattr(ev, "build_mlp", recording_build_mlp)
        return optimizers, seeds

    @staticmethod
    def check(probe_calls, lr, steps):
        optimizers, seeds = probe_calls
        assert [(got_lr, kwargs) for got_lr, kwargs, _ in optimizers] == \
            [(lr, {"weight_decay": 0.0})] * 2
        assert [opt.steps for _, _, opt in optimizers] == [steps] * 2
        assert seeds == [derive_seed(derive_seed(0, "probe"), "probe-init")] * 2

    @pytest.mark.parametrize("experiment", ["sine", "lorenz"])
    def test_regression_probes(self, probe_calls, experiment):
        overrides = {"steps": 5, "probe_lr": 0.02, "probe_steps": 7}
        run(RunConfig(experiment, "classic", seed=0, overrides=overrides))
        self.check(probe_calls, 0.02, 7)

    def test_image_probes(self, probe_calls, tmp_path, monkeypatch):
        data = tmp_path / "idx"
        write_synthetic_mnist(data, n_train=64, n_test=16)
        monkeypatch.setattr(ev, "_PROBE_BATCH", 16)
        overrides = {"epochs": 1, "probe_lr": 0.03, "probe_epochs": 2}
        run(RunConfig("mnist", "bijepa-expressive", seed=0, mnist_dir=str(data),
                      overrides=overrides))
        self.check(probe_calls, 0.03, 2 * math.ceil(64 / 16))


def _idx_dir(d: Path, names=tuple(cli._MNIST_FILES)) -> Path:
    """``d``, made, with an empty stand-in for each named IDX file."""
    d.mkdir()
    for name in names:
        (d / name).write_bytes(b"")
    return d


class TestResolveMnistDir:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        a, b = _idx_dir(tmp_path / "a"), _idx_dir(tmp_path / "b")
        monkeypatch.setenv("BIJEPA_MNIST_DIR", str(b))
        assert resolve_mnist_dir(str(a)) == a

    def test_env_fallback(self, tmp_path, monkeypatch):
        d = _idx_dir(tmp_path / "env")
        monkeypatch.setenv("BIJEPA_MNIST_DIR", str(d))
        assert resolve_mnist_dir(None) == d

    def test_cwd_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BIJEPA_MNIST_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        _idx_dir(tmp_path / "mnist-data")
        assert str(resolve_mnist_dir(None)) == "mnist-data"

    def test_missing_everywhere(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BIJEPA_MNIST_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError):
            resolve_mnist_dir(None)

    def test_explicit_dir_is_the_only_candidate(self, tmp_path, monkeypatch):
        # a flag naming a directory without the IDX files fails; it does
        # not fall through to the environment's directory
        a, b = _idx_dir(tmp_path / "a", ()), _idx_dir(tmp_path / "b")
        monkeypatch.setenv("BIJEPA_MNIST_DIR", str(b))
        with pytest.raises(FileNotFoundError) as excinfo:
            resolve_mnist_dir(str(a))
        assert str(a) in str(excinfo.value)

    @pytest.mark.parametrize("missing", (
        # fetch_mnist places one file at a time: a download that failed
        # after the first leaves only the train images, and a run must
        # refuse that directory before it reads them
        tuple(cli._MNIST_FILES)[1:],
        *((name,) for name in cli._MNIST_FILES)),
        ids=["train-images-only", *(f"no-{name}" for name in cli._MNIST_FILES)])
    def test_partial_directory_is_refused(self, tmp_path, monkeypatch, missing):
        monkeypatch.delenv("BIJEPA_MNIST_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        d = _idx_dir(tmp_path / "mnist-data",
                     [name for name in cli._MNIST_FILES if name not in missing])
        with pytest.raises(FileNotFoundError):
            resolve_mnist_dir(str(d))
        with pytest.raises(FileNotFoundError):
            resolve_mnist_dir(None)

    def test_half_fetched_directory_skips_the_mnist_tests(self, tmp_path, monkeypatch):
        # the tests' own search for the files refuses what a run refuses,
        # so the tests that need them skip instead of failing
        d = _idx_dir(tmp_path / "mnist-data", ["train-images-idx3-ubyte"])
        monkeypatch.setenv("BIJEPA_MNIST_DIR", str(d))
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(pytest.skip.Exception):
            find_mnist_dir()
        for name in tuple(cli._MNIST_FILES)[1:]:
            (d / name).write_bytes(b"")
        assert find_mnist_dir() == d


class TestSuite:
    def test_cross_product_and_verdicts(self, tmp_path):
        result = run_suite([0, 1], ["bijepa-expressive", "classic"], "sine",
                           out_dir=str(tmp_path), overrides=dict(TINY_SINE))
        assert len(result["rows"]) == 4
        assert all(r["status"] == "ok" for r in result["rows"])
        assert set(result["means"]) == {"bijepa-expressive", "classic"}
        assert result["means"]["classic"]["n_ok"] == 2
        verdict = result["verdicts"]
        assert isinstance(verdict["bijepa_beats_classic_protoB"], bool)
        assert len(verdict["bijepa_beats_classic_protoB_per_seed"]) == 2

        csv_lines = (tmp_path / "suite.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 1 + 4 + 2  # header + runs + means
        assert (tmp_path / "verdicts.json").exists()
        # every member's report.json, in its own directory, loads back and
        # carries its row's metrics (the acceptance gates read these files)
        keys = (*cli._METRICS, "diverged")
        for row in result["rows"]:
            report = load_report(tmp_path / f"sine-{row['variant']}-s{row['seed']}")
            assert (report.config["variant"], report.config["seed"]) == (
                row["variant"], row["seed"])
            assert {k: getattr(report, k) for k in keys} == {k: row[k] for k in keys}

    @pytest.mark.parametrize("seeds, variants", [
        ([], ["classic"]), ([0], []), ([0, 0], ["classic"]),
        ([0], ["classic", "classic"]), ([0, -1], ["classic"]),
        ([0, "0"], ["classic"]),
    ], ids=["no-seeds", "no-variants", "repeated-seed", "repeated-variant",
            "negative-seed", "repeated-seed-as-string"])
    def test_empty_inputs_rejected(self, seeds, variants):
        # refused before any member trains
        with pytest.raises(ConfigError):
            run_suite(seeds, variants, "sine")

    def test_config_errors_fail_fast(self):
        # invalid override must abort before any member trains
        with pytest.raises(ConfigError):
            run_suite([0], ["classic"], "sine", overrides={"bogus": 1})

    def test_member_failure_recorded(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BIJEPA_MNIST_DIR", raising=False)
        monkeypatch.chdir(tmp_path)  # no mnist-data here
        result = run_suite([0], ["classic"], "mnist", overrides={"epochs": 1})
        row = result["rows"][0]
        assert row["status"] == "error"
        assert "FileNotFoundError" in row["error"]
        assert result["means"]["classic"]["n_ok"] == 0


class TestMainEntry:
    def test_run_exit_zero(self, capsys):
        code = main(["run", "--experiment", "sine", "--variant", "classic",
                     "--set", "steps=40", "--set", "probe_steps=20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "final_train_loss=" in out

    def test_config_error_exits_two(self, capsys):
        for argv in (["--experiment", "lorenz", "--variant", "bijepa-unconstrained"],
                     ["--experiment", "sine", "--variant", "classic", "--seed", "-1"]):
            assert main(["run", *argv]) == 2
            assert "config error" in capsys.readouterr().err

    def test_runtime_error_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("BIJEPA_MNIST_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--experiment", "mnist", "--variant", "classic",
                     "--epochs", "1"])
        assert code == 1

    def test_suite_member_failure_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BIJEPA_MNIST_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        code = main(["suite", "--experiment", "mnist", "--variants", "classic",
                     "--seeds", "0", "--epochs", "1"])
        assert code == 1

    @pytest.mark.parametrize("variants, seeds", [
        ("nope", "0"), ("classic", "0,x"), ("classic", "0,0"),
        ("classic,classic", "0"), ("classic", "-1"),
    ], ids=["unknown-variant", "non-integer-seed", "repeated-seed",
            "repeated-variant", "negative-seed"])
    def test_suite_unknown_variant_exits_two(self, capsys, variants, seeds):
        code = main(["suite", "--experiment", "sine", "--variants", variants,
                     "--seeds", seeds])
        assert code == 2
        assert "config error" in capsys.readouterr().err


def serve_directory(directory):
    class Handler(http.server.SimpleHTTPRequestHandler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, directory=str(directory), **kwargs)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.server_address[1]}/"


@pytest.fixture
def mnist_server(tmp_path, monkeypatch):
    """Serves four small gzipped files, and makes their sizes the ones
    fetch_mnist checks."""
    src = tmp_path / "srv"
    src.mkdir()
    payloads = {
        "train-images-idx3-ubyte": b"I" * 100,
        "train-labels-idx1-ubyte": b"L" * 20,
        "t10k-images-idx3-ubyte": b"i" * 50,
        "t10k-labels-idx1-ubyte": b"l" * 10,
    }
    for name, blob in payloads.items():
        (src / (name + ".gz")).write_bytes(gzip.compress(blob))
    server, url = serve_directory(src)
    monkeypatch.setattr(cli, "_MNIST_FILES",
                        {name: len(blob) for name, blob in payloads.items()})
    yield url, payloads, src
    server.shutdown()
    server.server_close()


class TestFetchMnist:
    def test_download_and_verify(self, tmp_path, mnist_server):
        url, payloads, _ = mnist_server
        out = tmp_path / "data"
        placed = fetch_mnist(out, base_url=url)
        assert len(placed) == 4
        for name, blob in payloads.items():
            assert (out / name).read_bytes() == blob

    def test_idempotent(self, tmp_path, mnist_server):
        url, _, src = mnist_server
        out = tmp_path / "data"
        fetch_mnist(out, base_url=url)
        for f in src.iterdir():
            f.unlink()  # second call must not hit the server at all
        placed = fetch_mnist(out, base_url=url)
        assert len(placed) == 4

    def test_size_mismatch_leaves_nothing(self, tmp_path, monkeypatch, mnist_server):
        url, _, _ = mnist_server
        monkeypatch.setitem(cli._MNIST_FILES, "train-images-idx3-ubyte", 999)
        out = tmp_path / "data"
        with pytest.raises(IOError):
            fetch_mnist(out, base_url=url)
        assert not (out / "train-images-idx3-ubyte").exists()
        assert not (out / "train-images-idx3-ubyte.part").exists()

    def test_raw_file_passthrough(self, tmp_path, monkeypatch):
        src = tmp_path / "srv"
        src.mkdir()
        (src / "train-images-idx3-ubyte.gz").write_bytes(b"RAWBYTES")
        server, url = serve_directory(src)
        monkeypatch.setattr(cli, "_MNIST_FILES", {"train-images-idx3-ubyte": 8})
        try:
            out = tmp_path / "data"
            placed = fetch_mnist(out, base_url=url)
            assert placed[0].read_bytes() == b"RAWBYTES"
        finally:
            server.shutdown()
            server.server_close()

    def test_corrupted_existing_file_refetched(self, tmp_path, mnist_server):
        url, payloads, _ = mnist_server
        out = tmp_path / "data"
        out.mkdir()
        (out / "train-images-idx3-ubyte").write_bytes(b"short")
        fetch_mnist(out, base_url=url)
        assert (out / "train-images-idx3-ubyte").read_bytes() == \
            payloads["train-images-idx3-ubyte"]

    def test_stalled_server_times_out(self, tmp_path, monkeypatch):
        # accepts the connection (kernel backlog) but never answers
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            url = f"http://127.0.0.1:{listener.getsockname()[1]}/"
            monkeypatch.setattr(cli, "_FETCH_TIMEOUT_S", 0.2)
            monkeypatch.setattr(cli, "_MNIST_FILES", {"train-images-idx3-ubyte": 8})
            out = tmp_path / "data"
            with pytest.raises(OSError):
                fetch_mnist(out, base_url=url)
        assert list(out.iterdir()) == []
