"""Release gates for the laboratory: thirteen criteria, one test and one
printed verdict line each.

Criteria 1-6 are fast deterministic properties of the numeric core.
Criteria 7-13 train the suites at real scale through ``run_suite``, three
seeds per variant, and check the report.json files it writes: a few
seconds per sine run and under ten seconds per Lorenz run with one BLAS
thread, and roughly ten minutes per MNIST run when the IDX files are
available (criterion 12 is skipped otherwise). Their tests carry the
``slow`` marker, so ``pytest -m "not slow"`` runs the fast gates alone.

A criterion that fails is reported honestly; tolerances here are fixed
and are not to be loosened to force a pass.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import conftest
from helpers import check_grads, load_report
from bijepa import autodiff as ad
from bijepa.autodiff import Tensor
from bijepa.cli import RunConfig, _build_model, effective_hyper, run_suite
from bijepa.data import SineConfig, gen_sine_batch, integrate_lorenz
from bijepa.jepa import total_loss, train_step
from bijepa.nn import build_mlp
from bijepa.optim import AdamW
from bijepa.seeding import stream

SEEDS = (0, 1, 2)


def record(num: int, name: str, ok: bool, detail: str) -> None:
    """Append one verdict line to the end-of-session summary, echo it,
    then enforce it."""
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def majority(flags) -> bool:
    flags = [bool(f) for f in flags]
    return sum(flags) * 2 > len(flags)


def fmt(values, spec=".4f") -> str:
    return "[" + " ".join(format(v, spec) for v in values) + "]"


# ---------------------------------------------------------------- suites

def trained_suite(out_dir, experiment, variants, seeds=SEEDS, **kwargs) -> dict:
    """Train ``variants`` x ``seeds`` through ``run_suite`` and load each
    member's report.json, keyed by (variant, seed). A failed member fails
    the fixture with the error its row recorded."""
    rows = run_suite(list(seeds), list(variants), experiment, out_dir=str(out_dir),
                     **kwargs)["rows"]
    failed = [r for r in rows if r["status"] != "ok"]
    if failed:
        pytest.fail("\n".join(f"{r['variant']} s{r['seed']}: {r['error']}" for r in failed))
    return {(v, s): load_report(out_dir / f"{experiment}-{v}-s{s}")
            for v in variants for s in seeds}


@pytest.fixture(scope="module")
def sine_suite(tmp_path_factory):
    """All four sine variants over three seeds, full default settings."""
    return trained_suite(tmp_path_factory.mktemp("sine"), "sine", (
        "bijepa-unconstrained", "bijepa-expressive", "bijepa-restrictive", "classic"))


@pytest.fixture(scope="module")
def lorenz_suite(tmp_path_factory):
    return trained_suite(tmp_path_factory.mktemp("lorenz"), "lorenz",
                         ("bijepa-expressive", "classic"))


@pytest.fixture(scope="module")
def mnist_suite(tmp_path_factory, mnist_dir):
    """Six full-scale runs plus the reduced smoke configuration."""
    reports = trained_suite(tmp_path_factory.mktemp("mnist"), "mnist",
                            ("bijepa-expressive", "classic"), mnist_dir=str(mnist_dir))
    smoke = trained_suite(tmp_path_factory.mktemp("mnist-smoke"), "mnist",
                          ("bijepa-expressive",), seeds=(0,), mnist_dir=str(mnist_dir),
                          overrides={"epochs": 1, "train_limit": 10000})
    return reports, smoke[("bijepa-expressive", 0)]


# ---------------------------------------------------- 1: gradient fidelity

def _grad_cases():
    """(name, builder) pairs covering every differentiable primitive.

    Builders draw small tensors; relu inputs are pushed away from the
    kink and sphere inputs away from the zero row, where the derivative
    is undefined and finite differences are meaningless.
    """
    def linear(rng):
        return (lambda x, w, b: ad.linear(x, w, b),
                [rng.standard_normal((3, 5)), rng.standard_normal((5, 4)),
                 rng.standard_normal(4)])

    def relu(rng):
        x = rng.standard_normal((4, 6))
        x += np.sign(x) * 0.05
        return (lambda t: ad.relu(t), [x])

    def layer_norm(rng):
        return (lambda x, g, b: ad.layer_norm(x, g, b),
                [rng.standard_normal((3, 7)), rng.standard_normal(7),
                 rng.standard_normal(7)])

    def conv2d(rng):
        return (lambda x, k, b: ad.conv2d(x, k, b),
                [rng.standard_normal((2, 2, 5, 4)),
                 rng.standard_normal((3, 2, 3, 3)), rng.standard_normal(3)])

    def batch_norm(rng):
        def op(x, g, b):
            return ad.batch_norm2d(x, g, b, np.zeros(2), np.ones(2), training=True)
        return (op, [rng.standard_normal((4, 2, 3, 2)),
                     rng.standard_normal(2), rng.standard_normal(2)])

    def mse(rng):
        target = Tensor(rng.standard_normal((3, 4)))
        return (lambda p: ad.mse_loss(p, target), [rng.standard_normal((3, 4))])

    def softmax_ce(rng):
        labels = rng.integers(0, 7, 5)
        return (lambda lg: ad.softmax_cross_entropy(lg, labels),
                [rng.standard_normal((5, 7))])

    def sphere(rng):
        v = rng.standard_normal((4, 5))
        v[np.linalg.norm(v, axis=1) < 0.5] += 1.0
        return (lambda t: ad.sphere_project(t), [v])

    def add(rng):
        return (ad.add, [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))])

    def mul(rng):
        return (ad.mul, [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))])

    def scale(rng):
        return (lambda t: ad.scale(t, 1.7), [rng.standard_normal((3, 4))])

    def flat(rng):
        return (ad.flatten, [rng.standard_normal((2, 3, 2, 2))])

    def total(rng):
        return (ad.sum_all, [rng.standard_normal((3, 4))])

    return [("linear", linear), ("relu", relu), ("layer_norm", layer_norm),
            ("conv2d", conv2d), ("batch_norm2d", batch_norm), ("mse", mse),
            ("softmax_ce", softmax_ce), ("sphere", sphere), ("add", add),
            ("mul", mul), ("scale", scale), ("flatten", flat), ("sum_all", total)]


def test_criterion_01_gradient_fidelity():
    rng = np.random.default_rng(11)
    cases = _grad_cases()
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        _, build = cases[trial % len(cases)]
        op, arrays = build(rng)
        # infinite tol: collect the worst error over all trials instead
        # of aborting inside the helper, so the verdict line always prints
        worst = max(worst, check_grads(op, arrays, rng, tol=float("inf")))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    record(1, "gradient fidelity", ok,
           f"max rel err {worst:.2e} over 100 trials in {elapsed:.1f}s")


# ------------------------------------------- 2: stop-gradient / EMA replay

def test_criterion_02_ema_replay():
    cfg = RunConfig("sine", "bijepa-expressive", seed=7)
    hyper, mode = effective_hyper(cfg)
    model = _build_model(cfg, hyper, mode)
    opt = AdamW(model.trainable_networks(), lr=hyper["lr"],
                weight_decay=hyper["weight_decay"])
    tau = model.tau
    online = model.online_encoder.parameters()
    target = model.target_encoder.parameters()
    replay = [p.values.copy() for p in target]

    data = stream(99, "acceptance:random-data")
    exact = clean = True
    for step in range(50):
        x = Tensor(data.standard_normal((16, SineConfig.T // 2)))
        y = Tensor(data.standard_normal((16, SineConfig.T // 2)))
        m = train_step(model, opt, x, y, step)
        assert not m.diverged
        for i, p_o in enumerate(online):
            # must mirror the update expression exactly: 1 - tau is not
            # representable as the literal 0.005
            replay[i] = tau * replay[i] + (1.0 - tau) * p_o.values
        exact = exact and all(np.array_equal(p_t.values, replay[i])
                              for i, p_t in enumerate(target))
        clean = clean and all(p_t.grad is None for p_t in target)
    record(2, "stop-gradient/EMA structure", exact and clean,
           f"50 steps float-exact replay={exact}, target grads empty={clean}")


# ------------------------------------------- 3: classic-reduction identity

def test_criterion_03_classic_reduction():
    cfg = RunConfig("sine", "classic", seed=0)
    hyper, mode = effective_hyper(cfg)
    rng = np.random.default_rng(33)

    bad = 0
    for fixture in range(20):
        model = _build_model(
            RunConfig("sine", "classic", seed=1000 + fixture), hyper, mode)
        # decouple the target from the online weights so the identity is
        # tested away from the freshly-cloned special case
        model.target_encoder.flat[...] = build_mlp((10, 64, 64, 16), True, 2000 + fixture).flat

        x = rng.standard_normal((8, SineConfig.T // 2))
        y = rng.standard_normal((8, SineConfig.T // 2))
        params = [p for net in model.trainable_networks() for p in net.parameters()]

        loss, _ = total_loss(model, Tensor(x), Tensor(y))
        loss.backward()
        got = (loss.values.copy(), [p.grad.copy() for p in params])
        for p in params:
            p.grad = None

        pred = model.p_fwd(model.online_encoder(Tensor(x)))
        tgt = ad.stop_gradient(model.target_encoder(Tensor(y)))
        ref = ad.mse_loss(pred, tgt)
        ref.backward()
        want = (ref.values.copy(), [p.grad.copy() for p in params])
        for p in params:
            p.grad = None

        same = got[0] == want[0] and all(
            np.array_equal(g, w) for g, w in zip(got[1], want[1]))
        bad += not same
    record(3, "classic-reduction equivalence", bad == 0,
           f"{20 - bad}/20 fixtures bit-identical in loss and all gradients")


# --------------------------------------------------- 4: sphere projection

def test_criterion_04_sphere_projection():
    rng = stream(4, "acceptance:sphere")
    v = rng.standard_normal((100, 16))
    out = ad.sphere_project(Tensor(v)).values
    norm_err = float(np.abs(np.linalg.norm(out, axis=1) - 1.0).max())
    inv_err = 0.0
    for c in (1e-3, 1.0, 1e3):
        outc = ad.sphere_project(Tensor(c * v)).values
        inv_err = max(inv_err, float(np.abs(outc - out).max()))
    ok = norm_err < 1e-9 and inv_err < 1e-9
    record(4, "sphere projection", ok,
           f"norm err {norm_err:.1e}, scale-invariance err {inv_err:.1e}")


# -------------------------------------------------------- 5: Lorenz oracle

def test_criterion_05_lorenz_oracle():
    traj = integrate_lorenz((1.0, 1.0, 1.0), 3)
    hand = np.array([[1.0, 1.0, 1.0],
                     [1.0, 1.26, 0.9833333333333333],
                     [1.026, 1.5175666666666667, 0.9697111111111111]])
    step_err = float(np.abs(traj - hand).max())

    origin = integrate_lorenz((0.0, 0.0, 0.0), 10)
    origin_exact = bool(np.array_equal(origin, np.zeros((10, 3))))

    # 100 trajectories in one call, each row bit-equal to its single run
    t = integrate_lorenz(np.random.default_rng(123).uniform(-15, 15, (100, 3)), 4000)
    bounded = bool(np.abs(t[..., 0]).max() < 60.0
                   and np.abs(t[..., 1]).max() < 60.0
                   and t[..., 2].min() > -30.0
                   and t[..., 2].max() < 110.0)
    ok = step_err < 1e-12 and origin_exact and bounded
    record(5, "Lorenz oracle", ok,
           f"hand-step err {step_err:.1e}, origin exact={origin_exact}, "
           f"100-init envelope={bounded}")


# --------------------------------------------------------- 6: sine identity

def test_criterion_06_sine_identity():
    batch = gen_sine_batch(128, 0.0, stream(6, "acceptance:sine"))
    seq = np.concatenate([batch.x, batch.y], axis=1)
    inner = seq[:, 1:-1]
    outer = seq[:, :-2] + seq[:, 2:]
    # recover 2cos(w) per row by least squares, then check the
    # three-term recurrence residual
    coef = (inner * outer).sum(axis=1) / (inner ** 2).sum(axis=1)
    resid = float(np.abs(outer - coef[:, None] * inner).max())
    record(6, "sine identity", resid < 1e-9,
           f"max recurrence residual {resid:.1e} over 128 noise-free rows")


# --------------------------------------- 7: unconstrained divergence curve

def smoothed(history, window=50):
    totals = np.array([row[1] for row in history], dtype=np.float64)
    return np.convolve(totals, np.ones(window) / window, mode="valid")


@pytest.mark.slow
def test_criterion_07_unconstrained_divergence(sine_suite):
    per_seed, details = [], []
    for s in SEEDS:
        r = sine_suite[("bijepa-unconstrained", s)]
        sm = smoothed(r.loss_history)
        if len(sm) <= 1451:
            # training aborted on a non-finite loss before step 1500:
            # the hardest form of the divergence signature
            early = float(sm[:751].min()) if len(sm) > 0 else float("nan")
            per_seed.append(early < 0.006)
            details.append(f"s{s}: blew up at step {len(r.loss_history)}")
            continue
        early = float(sm[:751].min())
        late = float(sm[1451:].max())
        per_seed.append(early < 0.006 and late >= 2.0 * early)
        details.append(f"s{s}: early min {early:.4f}, late max {late:.4f}, "
                       f"ratio {late / early:.1f}")
    record(7, "unconstrained divergence signature", majority(per_seed),
           "; ".join(details))


# ----------------------------------------------------- 8: expressive bands

@pytest.mark.slow
def test_criterion_08_expressive_bands(sine_suite):
    finals = [sine_suite[("bijepa-expressive", s)].final_train_loss for s in SEEDS]
    probes = [sine_suite[("bijepa-expressive", s)].protocol_b_mse for s in SEEDS]
    band = [0.003 <= f <= 0.02 and b <= 0.03 for f, b in zip(finals, probes)]
    record(8, "expressive train/probe bands", majority(band),
           f"final {fmt(finals)} in [0.003,0.02], protocol B {fmt(probes)} <= 0.03: "
           f"{sum(band)}/3 seeds")


# ------------------------------------------- 9: classic vs expressive order

@pytest.mark.slow
def test_criterion_09_classic_ordering(sine_suite):
    pairs = [(sine_suite[("classic", s)].protocol_b_mse,
              sine_suite[("bijepa-expressive", s)].protocol_b_mse) for s in SEEDS]
    wins = [c > e for c, e in pairs]
    record(9, "classic worse at protocol B (sine)", majority(wins),
           f"classic {fmt([c for c, _ in pairs])} vs expressive "
           f"{fmt([e for _, e in pairs])}: {sum(wins)}/3 seeds")


# ------------------------------------------------- 10: restrictive regime

@pytest.mark.slow
def test_criterion_10_restrictive(sine_suite):
    per_seed, finals, probes = [], [], []
    for s in SEEDS:
        r = sine_suite[("bijepa-restrictive", s)]
        e = sine_suite[("bijepa-expressive", s)]
        finals.append(r.final_train_loss)
        probes.append((r.protocol_b_mse, e.protocol_b_mse))
        per_seed.append(r.final_train_loss <= 0.002
                        and r.protocol_b_mse > e.protocol_b_mse)
    record(10, "restrictive regime", majority(per_seed),
           f"final {fmt(finals)} <= 0.002, protocol B restrictive "
           f"{fmt([a for a, _ in probes])} > expressive {fmt([b for _, b in probes])}: "
           f"{sum(per_seed)}/3 seeds")


# ----------------------------------------------------- 11: Lorenz forecast

def lorenz_verdict(pairs):
    """Criterion 11 from per-seed (bijepa, classic) protocol-B MSEs.

    Passes when bijepa's protocol B is <= 0.06 on a majority of seeds and
    classic's protocol B is worse than bijepa's on a majority of seeds.
    Returns ``(ok, detail)``; the detail prints the classic/bijepa ratios
    so the size of the margin stays visible.
    """
    bijepa = [b for b, _ in pairs]
    bands = [b <= 0.06 for b in bijepa]
    wins = [c > b for b, c in pairs]
    ratios = [c / b for b, c in pairs]
    ok = majority(bands) and majority(wins)
    n = len(pairs)
    return ok, (f"bijepa B {fmt(bijepa)} <= 0.06: {sum(bands)}/{n}; "
                f"classic/bijepa ratio {fmt(ratios, '.2f')} "
                f"> 1: {sum(wins)}/{n}")


def test_criterion_11_verdict_can_fail():
    # the per-seed protocol-B values of the recorded run (ratios 1.04/2.08/1.94)
    bijepa = (0.0206, 0.0242, 0.0212)
    recorded = [(b, b * r) for b, r in zip(bijepa, (1.04, 2.08, 1.94))]
    assert lorenz_verdict(recorded)[0]
    no_margin = [(b, b * r) for b, r in zip(bijepa, (0.97, 0.99, 1.20))]
    assert not lorenz_verdict(no_margin)[0]
    band_breach = [(0.07, 0.07 * 2.08), (0.07, 0.07 * 1.94), (0.0206, 0.0214)]
    assert not lorenz_verdict(band_breach)[0]


# The margin clause checks the direction the abstract claims (bi-directional
# prediction beats uni-directional JEPA on chaotic Lorenz trajectories), in
# the form the program itself uses (`bijepa_beats_classic_protoB` in
# `cli._suite_verdicts`) and criterion 9 uses for sine: classic worse at
# protocol B on a majority of seeds. No document in the repository states a
# factor. Measured margins (classic/bijepa, seeds 0/1/2): 1.04/2.08/1.94 on
# the 20-trajectory test split; 1.26/2.15/1.74 on 4000 fresh held-out
# trajectories; over 199 disjoint 20-trajectory splits the ordering holds
# with probability 0.87/1.00/0.98 per seed, a 2x factor with 0.01/0.57/0.27.
@pytest.mark.slow
def test_criterion_11_lorenz(lorenz_suite):
    pairs = [(lorenz_suite[("bijepa-expressive", s)].protocol_b_mse,
              lorenz_suite[("classic", s)].protocol_b_mse) for s in SEEDS]
    ok, detail = lorenz_verdict(pairs)
    record(11, "Lorenz forecast quality and margin", ok, detail)


# -------------------------------------------------------------- 12: MNIST

@pytest.mark.slow
def test_criterion_12_mnist(mnist_suite):
    reports, smoke = mnist_suite
    acc_b = [reports[("bijepa-expressive", s)].accuracy for s in SEEDS]
    acc_c = [reports[("classic", s)].accuracy for s in SEEDS]
    dec = [reports[("bijepa-expressive", s)].decoder_mse for s in SEEDS]
    band = [a >= 0.89 for a in acc_b]
    order = [b > c for b, c in zip(acc_b, acc_c)]
    dec_ok = [d <= 0.035 for d in dec]
    smoke_ok = smoke.accuracy >= 0.80
    ok = majority(band) and majority(order) and majority(dec_ok) and smoke_ok
    record(12, "MNIST probes", ok,
           f"bijepa acc {fmt(acc_b)} >= 0.89: {sum(band)}/3; "
           f"> classic {fmt(acc_c)}: {sum(order)}/3; "
           f"decoder {fmt(dec)} <= 0.035: {sum(dec_ok)}/3; "
           f"smoke acc {smoke.accuracy:.4f} >= 0.80: {smoke_ok}")


# -------------------------------------------------------- 13: determinism

@pytest.mark.slow
def test_criterion_13_determinism(sine_suite, tmp_path):
    a = sine_suite[("bijepa-expressive", 0)]
    proc = subprocess.run(
        [sys.executable, "-m", "bijepa.cli", "run", "--experiment", "sine",
         "--variant", "bijepa-expressive", "--seed", "0", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, f"repeat run failed:\n{proc.stderr[-2000:]}"
    b = load_report(tmp_path)
    fields = ("config", "final_train_loss", "loss_history", "protocol_a_mse",
              "protocol_b_mse", "accuracy", "decoder_mse", "diverged", "forecast")
    diffs = [f for f in fields if getattr(a, f) != getattr(b, f)]
    record(13, "determinism", not diffs,
           "identical metric fields across repeated runs" if not diffs
           else f"fields differ: {diffs}")
