"""Data generators: sine views, Lorenz trajectories, MNIST IDX loading."""

import ast
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bijepa import data
from bijepa.data import (
    MNIST_MEAN, MNIST_STD, IdxFormatError, LorenzConfig, LorenzDataset,
    ViewBatch, build_lorenz_dataset, gen_sine_batch,
    integrate_lorenz, load_mnist_halves, load_mnist_idx, shuffled_epochs,
    split_vertical,
)
from bijepa.seeding import stream

from helpers import write_idx, write_synthetic_mnist


class TestViewBatch:
    def test_coerces_arrays(self):
        ints = np.arange(12).reshape(3, 4)
        vb = ViewBatch(ints.T, np.ones((4, 3), dtype=np.float32))
        assert vb.size == 4
        for view in (vb.x, vb.y):
            assert view.dtype == np.float64 and view.flags.c_contiguous
        assert np.array_equal(vb.x, ints.T)

    def test_batch_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ViewBatch(np.zeros((4, 3)), np.zeros((5, 3)))

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ViewBatch(np.zeros((4, 3)), np.zeros((4, 3)), labels=np.zeros(3))

    def test_take_subset(self):
        vb = ViewBatch(np.arange(12.0).reshape(4, 3),
                       np.arange(12.0).reshape(4, 3) + 100,
                       labels=np.array([0, 1, 2, 3]))
        sub = vb.take([2, 0])
        assert np.array_equal(sub.x, [[6, 7, 8], [0, 1, 2]])
        assert np.array_equal(sub.labels, [2, 0])

    def test_take_is_a_copy(self):
        vb = ViewBatch(np.zeros((3, 2)), np.zeros((3, 2)))
        sub = vb.take([0])
        vb.x[0, 0] = 9.0
        assert sub.x[0, 0] == 0.0


class TestNumpyOnly:
    """The data layer hands out plain arrays: tensors are made where a
    network reads them, never here."""

    def test_data_imports_nothing_from_autodiff(self):
        imported = set()
        for node in ast.walk(ast.parse(Path(data.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(alias.name for alias in node.names)
        assert not [name for name in imported if "autodiff" in name]

    def test_every_producer_yields_contiguous_float64_arrays(self, tmp_path):
        write_synthetic_mnist(tmp_path / "idx", n_train=6, n_test=2)
        sine = gen_sine_batch(5, 0.1, stream(0, "t"))
        lorenz = build_lorenz_dataset(0)
        produced = {
            "gen_sine_batch": sine,
            "lorenz train": lorenz.train,
            "lorenz probe": lorenz.probe,
            "lorenz test": lorenz.test,
            "load_mnist_halves": load_mnist_halves(
                tmp_path / "idx" / "train-images-idx3-ubyte",
                tmp_path / "idx" / "train-labels-idx1-ubyte", 0),
            "split_vertical": split_vertical(np.zeros((2, 1, 28, 28), dtype=np.uint8)),
            "take": sine.take(np.array([3, 0])),
        }
        for name, batch in produced.items():
            for view in (batch.x, batch.y):
                assert type(view) is np.ndarray, name
                assert view.dtype == np.float64 and view.flags.c_contiguous, name


class TestShuffledEpochs:
    @staticmethod
    def epochs(n, batch, drop_last, count, seed=3):
        """The first ``count`` index arrays, beside the permutations that
        the same stream draws."""
        gen = shuffled_epochs(n, batch, stream(seed, "t"), drop_last)
        arrays = [next(gen) for _ in range(count)]
        rng = stream(seed, "t")
        return arrays, [rng.permutation(n) for _ in range(3)]

    def test_epochs_cut_each_permutation_in_order(self):
        arrays, perms = self.epochs(10, 4, drop_last=False, count=9)
        assert [a.size for a in arrays] == [4, 4, 2] * 3
        for e, perm in enumerate(perms):
            assert np.array_equal(np.concatenate(arrays[3 * e:3 * e + 3]), perm)

    def test_drop_last_drops_the_short_array(self):
        arrays, perms = self.epochs(10, 4, drop_last=True, count=6)
        assert [a.size for a in arrays] == [4, 4] * 3
        for e, perm in enumerate(perms):
            assert np.array_equal(np.concatenate(arrays[2 * e:2 * e + 2]), perm[:8])

    @pytest.mark.parametrize("drop_last", [False, True])
    def test_batch_past_the_rows_takes_whole_epochs(self, drop_last):
        arrays, perms = self.epochs(3, 8, drop_last, count=3)
        assert all(np.array_equal(a, p) for a, p in zip(arrays, perms))


class TestSine:
    def test_shapes(self):
        vb = gen_sine_batch(64, 0.05, stream(0, "t"))
        assert vb.x.shape == (64, 10) and vb.y.shape == (64, 10)

    def test_determinism(self):
        a = gen_sine_batch(64, 0.05, stream(5, "t"))
        b = gen_sine_batch(64, 0.05, stream(5, "t"))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_noise_free_amplitude(self):
        vb = gen_sine_batch(64, 0.0, stream(1, "t"))
        assert np.abs(vb.x).max() <= 1.0 + 1e-12

    def test_three_term_recurrence(self):
        # a pure sinusoid satisfies S_{i+1} + S_{i-1} = 2 cos(omega) S_i;
        # recover cos(omega) per row by least squares and check residuals,
        # including across the context/target seam
        vb = gen_sine_batch(32, 0.0, stream(2, "t"))
        s = np.concatenate([vb.x, vb.y], axis=1)
        mid, left, right = s[:, 1:-1], s[:, :-2], s[:, 2:]
        cosw = (mid * (left + right)).sum(axis=1) / (2.0 * (mid * mid).sum(axis=1))
        resid = np.abs(left + right - 2.0 * cosw[:, None] * mid)
        assert resid.max() < 1e-9
        assert cosw.min() >= np.cos(1.2) - 1e-9
        assert cosw.max() <= np.cos(0.8) + 1e-9

    def test_noise_breaks_recurrence(self):
        vb = gen_sine_batch(32, 0.05, stream(2, "t"))
        s = np.concatenate([vb.x, vb.y], axis=1)
        mid, left, right = s[:, 1:-1], s[:, :-2], s[:, 2:]
        cosw = (mid * (left + right)).sum(axis=1) / (2.0 * (mid * mid).sum(axis=1))
        resid = np.abs(left + right - 2.0 * cosw[:, None] * mid)
        assert resid.max() > 1e-3


class TestLorenzIntegration:
    def test_two_euler_steps_hand_computed(self):
        # from (1,1,1): derivative (0, 26, -5/3), then exact fractions
        # 513/500, 45527/30000, 43637/45000 for the second step
        traj = integrate_lorenz((1.0, 1.0, 1.0), 3)
        assert np.array_equal(traj[0], [1.0, 1.0, 1.0])
        assert np.abs(traj[1] - [1.0, 1.26, 0.9833333333333333]).max() < 1e-12
        assert np.abs(traj[2] - [1.026, 1.5175666666666667,
                                 0.9697111111111111]).max() < 1e-12

    def test_origin_is_exact_fixed_point(self):
        traj = integrate_lorenz((0.0, 0.0, 0.0), 10)
        assert np.array_equal(traj, np.zeros((10, 3)))

    def test_boundedness_envelope(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            traj = integrate_lorenz(rng.uniform(-15, 15, 3), 4000)
            assert np.abs(traj[:, 0]).max() < 60.0
            assert np.abs(traj[:, 1]).max() < 60.0
            assert traj[:, 2].min() > -30.0 and traj[:, 2].max() < 110.0

    def test_bad_init_rejected(self):
        with pytest.raises(ValueError):
            integrate_lorenz((1.0, 2.0), 5)
        with pytest.raises(ValueError):
            integrate_lorenz((np.nan, 0.0, 0.0), 5)
        with pytest.raises(ValueError):
            integrate_lorenz([[1.0, 2.0, 3.0], [0.0, np.inf, 0.0]], 5)
        with pytest.raises(ValueError):
            integrate_lorenz(1.0, 5)

    def test_batch_rows_match_single_runs(self):
        inits = np.random.default_rng(7).uniform(-15, 15, (4, 3))
        batch = integrate_lorenz(inits, 30)
        assert batch.shape == (4, 30, 3)
        for init, traj in zip(inits, batch):
            assert np.array_equal(traj, integrate_lorenz(init, 30))

    def test_blow_up_reported_at_its_step(self):
        # x*y overflows on the first step from the far start, whatever
        # the bounded row beside it does
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite state at step 1$"):
            integrate_lorenz([(1.0, 1.0, 1.0), (1e200, 1e200, 1e200)], 400)


@pytest.fixture(scope="module")
def ds():
    return build_lorenz_dataset(seed=0)


class TestLorenzDataset:
    def test_split_sizes_and_width(self, ds):
        assert ds.train.x.shape == (2000, 60) and ds.train.y.shape == (2000, 60)
        assert ds.probe.x.shape == (1000, 60)
        assert ds.test.x.shape == (20, 60)

    def test_train_split_normalized(self, ds):
        full = np.concatenate([ds.train.x.reshape(2000, 20, 3),
                               ds.train.y.reshape(2000, 20, 3)], axis=1)
        flat = full.reshape(-1, 3)
        assert np.abs(flat.mean(axis=0)).max() < 1e-9
        assert np.abs(flat.std(axis=0) - 1.0).max() < 1e-9

    def test_probe_stats_deviate(self, ds):
        flat = np.concatenate([ds.probe.x.reshape(1000, 20, 3),
                               ds.probe.y.reshape(1000, 20, 3)],
                              axis=1).reshape(-1, 3)
        assert np.abs(flat.mean(axis=0)).max() > 1e-9

    def test_rows_chain_by_one_integration_step(self, ds):
        # undo the normalization and each consecutive pair of rows,
        # including the context/target seam, must be one Euler step apart
        cfg = LorenzConfig()
        full = np.concatenate([ds.train.x.reshape(2000, 20, 3),
                               ds.train.y.reshape(2000, 20, 3)],
                              axis=1)[:50]
        raw = full * ds.std + ds.mean
        x, y, z = raw[:, :-1, 0], raw[:, :-1, 1], raw[:, :-1, 2]
        stepped = raw[:, :-1] + cfg.dt * np.stack(
            [cfg.sigma * (y - x), x * (cfg.rho - z) - y, x * y - cfg.beta * z],
            axis=-1)
        assert np.abs(stepped - raw[:, 1:]).max() < 1e-9

    def test_rows_are_the_oracle_trajectories(self, ds):
        # redraw the seed-0 starts and integrate a few with the criterion 5
        # oracle: normalized and cut 20/20 they are the dataset's rows
        cfg = LorenzConfig()
        n_total = cfg.n_train + cfg.n_probe + cfg.n_test
        inits = stream(0, "data:lorenz").uniform(*cfg.init_range, size=(n_total, 3))
        for split, offset in ((ds.train, 0), (ds.probe, cfg.n_train),
                              (ds.test, cfg.n_train + cfg.n_probe)):
            for row in (0, 1, split.size - 1):
                traj = (integrate_lorenz(inits[offset + row], cfg.T) - ds.mean) / ds.std
                assert np.array_equal(traj[:20].reshape(-1), split.x[row])
                assert np.array_equal(traj[20:].reshape(-1), split.y[row])

    def test_build_holds_one_split_at_a_time(self, ds):
        # integrating every split at once held all trajectories beside
        # their cut views (2.0-2.3x the data); one split at a time stays
        # near the data itself
        split_bytes = sum(v.x.nbytes + v.y.nbytes
                          for v in (ds.train, ds.probe, ds.test))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_lorenz_dataset(seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * split_bytes

    def test_determinism_and_seed_sensitivity(self, ds):
        again = build_lorenz_dataset(seed=0)
        assert np.array_equal(ds.train.x, again.train.x)
        other = build_lorenz_dataset(seed=1)
        assert not np.array_equal(ds.train.x, other.train.x)


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (5, 28, 28), dtype=np.uint8)
    labels = np.array([3, 1, 4, 1, 5], dtype=np.uint8)
    ipath, lpath = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx(ipath, 0x803, images)
    write_idx(lpath, 0x801, labels)
    return ipath, lpath, images, labels


class TestMnistLoader:
    def test_load_and_normalize(self, idx_pair):
        ipath, lpath, images, labels = idx_pair
        px, lb = load_mnist_idx(ipath, lpath)
        assert px.shape == (5, 1, 28, 28) and lb.dtype == np.int64
        assert np.array_equal(lb, labels)
        expected = (images.astype(np.float64) / 255.0 - MNIST_MEAN) / MNIST_STD
        assert np.allclose(px[:, 0], expected, atol=1e-12)

    def test_pixel_extremes(self, tmp_path):
        images = np.zeros((1, 28, 28), dtype=np.uint8)
        images[0, 0, 0] = 255
        write_idx(tmp_path / "i", 0x803, images)
        write_idx(tmp_path / "l", 0x801, np.array([0], dtype=np.uint8))
        px, _ = load_mnist_idx(tmp_path / "i", tmp_path / "l")
        assert abs(px[0, 0, 0, 0] - 2.82148653034729) < 1e-12
        assert abs(px[0, 0, 0, 1] - -0.424212917883804) < 1e-12

    def test_bad_magic_rejected(self, idx_pair, tmp_path):
        _, lpath, images, _ = idx_pair
        bad = tmp_path / "bad.idx"
        write_idx(bad, 0x804, images)
        with pytest.raises(IdxFormatError):
            load_mnist_idx(bad, lpath)

    def test_truncated_payload_rejected(self, idx_pair):
        ipath, lpath, *_ = idx_pair
        raw = ipath.read_bytes()
        ipath.write_bytes(raw[:-10])
        with pytest.raises(IdxFormatError):
            load_mnist_idx(ipath, lpath)

    def test_trailing_garbage_rejected(self, idx_pair):
        ipath, lpath, *_ = idx_pair
        ipath.write_bytes(ipath.read_bytes() + b"zz")
        with pytest.raises(IdxFormatError):
            load_mnist_idx(ipath, lpath)

    def test_count_mismatch_rejected(self, idx_pair, tmp_path):
        ipath, _, _, _ = idx_pair
        write_idx(tmp_path / "l6", 0x801, np.zeros(6, dtype=np.uint8))
        with pytest.raises(IdxFormatError):
            load_mnist_idx(ipath, tmp_path / "l6")

    def test_negative_dims_rejected(self, idx_pair, tmp_path):
        # -28 * -28 = 784 matches the payload, so only the sign check stops it
        _, lpath, *_ = idx_pair
        bad = tmp_path / "neg.idx"
        bad.write_bytes(struct.pack(">4i", 0x803, 1, -28, -28) + bytes(784))
        with pytest.raises(IdxFormatError, match="negative dims"):
            load_mnist_idx(bad, lpath)

    def test_huge_dims_state_exact_size(self, idx_pair, tmp_path):
        # the product overflows int64; the message states it exactly
        _, lpath, *_ = idx_pair
        big = 2**31 - 1
        bad = tmp_path / "big.idx"
        bad.write_bytes(struct.pack(">4i", 0x803, big, big, big))
        with pytest.raises(IdxFormatError, match=f"need {big**3}$"):
            load_mnist_idx(bad, lpath)

    def test_wrong_image_size_rejected(self, tmp_path):
        write_idx(tmp_path / "i", 0x803, np.zeros((2, 14, 14), dtype=np.uint8))
        write_idx(tmp_path / "l", 0x801, np.zeros(2, dtype=np.uint8))
        with pytest.raises(IdxFormatError):
            load_mnist_idx(tmp_path / "i", tmp_path / "l")


class TestMnistHalves:
    @pytest.mark.parametrize("limit", [0, 3, 5, 9])
    def test_bits_equal_split_of_full_load(self, idx_pair, limit):
        ipath, lpath, *_ = idx_pair
        views = load_mnist_halves(ipath, lpath, limit)
        px, lb = load_mnist_idx(ipath, lpath)
        rows = slice(None, limit or None)
        expected = split_vertical(px[rows], lb[rows])
        assert views.x.dtype == np.float64 and views.labels.dtype == np.int64
        assert np.array_equal(views.x, expected.x)
        assert np.array_equal(views.y, expected.y)
        assert np.array_equal(views.labels, expected.labels)

    def test_format_errors_raised(self, idx_pair, tmp_path):
        ipath, _, _, _ = idx_pair
        write_idx(tmp_path / "l6", 0x801, np.zeros(6, dtype=np.uint8))
        with pytest.raises(IdxFormatError):
            load_mnist_halves(ipath, tmp_path / "l6", 0)


class TestSplitVertical:
    def test_halves_recombine(self):
        rng = np.random.default_rng(1)
        images = rng.standard_normal((6, 1, 28, 28))
        vb = split_vertical(images, labels=np.arange(6))
        assert vb.x.shape == (6, 1, 28, 14) and vb.y.shape == (6, 1, 28, 14)
        rebuilt = np.concatenate([vb.x, vb.y], axis=3)
        assert np.array_equal(rebuilt, images)
        assert np.array_equal(vb.labels, np.arange(6))

    def test_split_column_honored(self):
        images = np.zeros((1, 1, 28, 28))
        images[0, 0, :, 13] = 1.0  # last context column
        images[0, 0, :, 14] = 2.0  # first target column
        vb = split_vertical(images)
        assert vb.x[0, 0, 0, 13] == 1.0
        assert vb.y[0, 0, 0, 0] == 2.0

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            split_vertical(np.zeros((3, 28, 28)))


# each malformed IDX pair (images, labels), the exception and a fragment
# of its message
MALFORMED_IDX = {
    "truncated image header": (struct.pack(">3i", 0x803, 1, 28),
                               struct.pack(">2i", 0x801, 1) + bytes(1),
                               IdxFormatError, "truncated header"),
    "truncated label header": (struct.pack(">4i", 0x803, 1, 28, 28) + bytes(784),
                               struct.pack(">i", 0x801), IdxFormatError, "truncated header"),
}


@pytest.mark.parametrize("case", MALFORMED_IDX)
def test_malformed_idx_rejected(case, tmp_path):
    images, labels, error, fragment = MALFORMED_IDX[case]
    (tmp_path / "i").write_bytes(images)
    (tmp_path / "l").write_bytes(labels)
    with pytest.raises(error, match=re.escape(fragment)):
        load_mnist_idx(tmp_path / "i", tmp_path / "l")
