import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ndnet import data
from ndnet.data import (
    DataFormatError,
    Dataset,
    SplitSpec,
    SynthSpec,
    default_synth_spec,
    inject_noise,
    load_csv,
    load_synth_spec,
    save_csv,
    stratified_split,
    synth_generate,
)
from ndnet.ndlayer import NdParams, nd_forward, pair_count


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = write(tmp_path, "b1,b2,label\n0.1,0.2,0\n0.3,0.4,1\n")
        ds = load_csv(path)
        assert ds.n_samples == 2
        assert ds.band_names == ["b1", "b2"]
        assert np.array_equal(ds.y, [0, 1])
        assert ds.X[1, 0] == 0.3

    def test_label_two_rejected_naming_row(self, tmp_path):
        path = write(tmp_path, "b1,b2,label\n0.1,0.2,0\n0.3,0.4,2\n")
        with pytest.raises(DataFormatError, match="row 3"):
            load_csv(path)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "b1,b2,label\n0.1,oops,0\n")
        with pytest.raises(DataFormatError, match="row 2.*'b2'"):
            load_csv(path)

    def test_negative_reflectance_rejected(self, tmp_path):
        path = write(tmp_path, "b1,b2,label\n0.1,-0.2,0\n")
        with pytest.raises(DataFormatError, match="negative"):
            load_csv(path)

    def test_missing_header(self, tmp_path):
        with pytest.raises(DataFormatError, match="header"):
            load_csv(write(tmp_path, ""))

    def test_header_without_label_column(self, tmp_path):
        path = write(tmp_path, "b1,b2,b3\n0.1,0.2,0.3\n")
        with pytest.raises(DataFormatError, match="label"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "b1,b2,label\n0.1,0\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_csv(path)

    def test_round_trip_preserves_values_exactly(self, tmp_path, rng):
        X = np.abs(rng.standard_normal((25, 4))) * np.array([1e-9, 0.1, 1.0, 1e4])
        X[0, 0] = 1.0 / 3.0
        X[1, 1] = 0.1
        X[2, 2] = 5e-324  # smallest subnormal survives the trip too
        y = rng.integers(0, 2, size=25)
        ds = Dataset([f"b{k}" for k in range(4)], X, y)
        path = tmp_path / "round.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)
        assert back.band_names == ds.band_names

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=6).flatmap(
               lambda n_bands: st.lists(
                   st.tuples(st.lists(st.floats(min_value=0.0, allow_infinity=False),
                                      min_size=n_bands, max_size=n_bands),
                             st.integers(0, 1)),
                   min_size=1, max_size=30)))
    def test_round_trip_property(self, tmp_path_factory, rows):
        X = np.array([values for values, _ in rows])
        y = np.array([label for _, label in rows])
        ds = Dataset([f"b{k}" for k in range(X.shape[1])], X, y)
        path = tmp_path_factory.mktemp("csv") / "round.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.X.view(np.uint64), X.view(np.uint64))
        assert np.array_equal(back.y, y) and back.y.dtype == np.int64
        assert back.X.shape == X.shape

    @pytest.mark.parametrize("cells, message", [
        ("0.1,zz,0\n0.1,0.2,0,9\n", "row 3, column 'b2': non-numeric cell 'zz'"),
        ("0.1,nan,0\n", "row 3, column 'b2': non-finite value 'nan'"),
        ("-0.0,1e999,1\n", "row 3, column 'b2': non-finite value '1e999'"),
        ("-1,x,1\n", "row 3, column 'b1': negative reflectance '-1'"),
        ("0.1,0.2,1.0\n-1,0,0\n",
         "row 3, column 'label': label must be 0 or 1, got '1.0'"),
        ("0.1,0.2\n0.1,zz,0\n", "row 3 has 2 cells, expected 3"),
        ("0.1,0.2,0\n", None),
    ])
    def test_first_bad_cell_in_file_order(self, tmp_path, cells, message):
        # row 2 is good; the first bad cell wins over any later one
        path = write(tmp_path, "b1,b2,label\n0.5,0.5,1\n" + cells)
        if message is None:
            assert load_csv(path).n_samples == 2
        else:
            with pytest.raises(DataFormatError) as info:
                load_csv(path)
            assert str(info.value) == f"{path}: {message}"

    def test_bad_cell_named_before_an_oversized_field(self, tmp_path):
        big = "1" * (csv.field_size_limit() + 1)
        path = write(tmp_path, f"b1,b2,label\n0.1,zz,0\n0.1,{big},0\n")
        with pytest.raises(DataFormatError, match="row 2, column 'b2'"):
            load_csv(path)

    def test_blocks_join_in_file_order(self, tmp_path, rng):
        n = 2 * data._CSV_BLOCK_ROWS + 17
        ds = Dataset(["b1", "b2"], rng.uniform(0, 1, (n, 2)),
                     rng.integers(0, 2, n))
        save_csv(ds, tmp_path / "big.csv")
        back = load_csv(tmp_path / "big.csv")
        assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)

    @pytest.mark.parametrize("bad, message", [
        ("0.1,-2,1", "column 'b2': negative reflectance '-2'"),
        ("0.1,0.2,0,5", "has 4 cells, expected 3"),
        ("0.1," + "1" * (csv.field_size_limit() + 1) + ",0",
         ": field larger than field limit"),
    ])
    def test_bad_row_in_a_later_block_named_by_file_row(self, tmp_path, bad,
                                                        message):
        index = data._CSV_BLOCK_ROWS + 5  # 0-based data row; file row + 2
        lines = ["0.1,0.2,0"] * (index + 10)
        lines[index] = bad
        path = write(tmp_path, "b1,b2,label\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as info:
            load_csv(path)
        assert str(info.value).startswith(f"{path}: row {index + 2}")
        assert message in str(info.value)

    def test_header_only_has_no_data_rows(self, tmp_path):
        with pytest.raises(DataFormatError, match="no data rows"):
            load_csv(write(tmp_path, "b1,b2,label\n"))


def csv_writer_bytes(dataset, path):
    """The bytes of a dataset CSV written one ``csv.writer`` row at a time,
    each value through ``repr(float(v))``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.band_names) + ["label"])
        for row, label in zip(dataset.X, dataset.y):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
    return path.read_bytes()


class TestSaveCsv:
    NAMES = ["B,2", 'say "red"', "near infrared", "b4", "b5"]
    VALUES = [-0.0, 5e-324, 1.0 / 3.0, 1e300, 1.0]

    @pytest.mark.parametrize("n_rows", [1, 2 * data._CSV_BLOCK_ROWS + 17])
    def test_bytes_equal_the_csv_writer_rows(self, tmp_path, rng, n_rows):
        X = rng.uniform(0, 1, (n_rows, 5)) * rng.choice([1e-9, 1.0, 1e6], (n_rows, 5))
        X[-1] = self.VALUES[::-1]
        X[0] = self.VALUES
        ds = Dataset(self.NAMES, X, rng.integers(0, 2, n_rows))
        save_csv(ds, tmp_path / "blocks.csv")
        expected = csv_writer_bytes(ds, tmp_path / "rows.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == expected
        assert expected.startswith(b'"B,2","say ""red""",near infrared,b4,b5,label\r\n'
                                   b"-0.0,5e-324,0.3333333333333333,1e+300,1.0,")

    def test_zero_bands_match_the_csv_writer_rows(self, tmp_path):
        ds = Dataset([], np.zeros((3, 0)), [1, 0, 1])
        save_csv(ds, tmp_path / "blocks.csv")
        assert ((tmp_path / "blocks.csv").read_bytes()
                == csv_writer_bytes(ds, tmp_path / "rows.csv") == b"label\r\n1\r\n0\r\n1\r\n")


class TestDatasetContainer:
    def test_label_domain_enforced(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(["a"], np.ones((2, 1)), np.array([0, 2]))

    def test_shape_consistency_enforced(self):
        with pytest.raises(ValueError):
            Dataset(["a", "b"], np.ones((2, 3)), np.array([0, 1]))

    @pytest.mark.parametrize("labels", [[0, 1, 0], [0], [[0, 1]]])
    def test_labels_one_per_row_enforced(self, labels):
        with pytest.raises(ValueError, match="^labels must be one per row$"):
            Dataset(["a"], np.ones((2, 1)), labels)

    def test_finite_values_enforced(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(["a"], np.array([[np.inf]]), np.array([1]))

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [0.9, 1.0], ["0", "1"],
                                        [0, None]])
    def test_labels_checked_before_the_cast(self, labels):
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            Dataset(["a"], np.ones((2, 1)), labels)

    @pytest.mark.parametrize("labels", [[True, False], [0.0, 1.0],
                                        np.array([1, 0], dtype=np.uint8)])
    def test_bool_float_and_unsigned_labels_build(self, labels):
        ds = Dataset(["a"], np.ones((2, 1)), labels)
        assert ds.y.dtype == np.int64
        assert ds.y.tolist() == [int(v) for v in labels]

    def test_subset_copies(self):
        ds = Dataset(["a"], np.array([[1.0], [2.0], [3.0]]),
                     np.array([0, 1, 0]))
        sub = ds.subset([2, 0])
        assert np.array_equal(sub.X[:, 0], [3.0, 1.0])
        sub.X[0, 0] = 99.0
        assert ds.X[2, 0] == 3.0

    SIX_ROWS = Dataset(["a", "b"], np.arange(12.0).reshape(6, 2),
                       np.array([0, 1, 0, 1, 1, 0]))

    @pytest.mark.parametrize("indices", [
        SIX_ROWS.y == 1, [True, False, True, False, False, False],
        np.array([1.0, 3.0]), [0.5], ["1"]])
    def test_subset_rejects_masks_and_non_integer_indices(self, indices):
        with pytest.raises(ValueError, match="^subset takes integer row "
                                             "indices"):
            self.SIX_ROWS.subset(indices)

    @pytest.mark.parametrize("indices", [
        [1, 3, 4], np.array([1, 3, 4]), np.array([1, 3, 4], dtype=np.uint8),
        np.flatnonzero(SIX_ROWS.y == 1)])
    def test_subset_takes_integer_indices(self, indices):
        sub = self.SIX_ROWS.subset(indices)
        assert sub.X.tolist() == [[2.0, 3.0], [6.0, 7.0], [8.0, 9.0]]
        assert sub.y.tolist() == [1, 1, 1]

    def test_subset_of_no_rows(self):
        for indices in ([], np.array([], dtype=np.intp)):
            sub = self.SIX_ROWS.subset(indices)
            assert sub.X.shape == (0, 2) and sub.y.shape == (0,)


def balanced_dataset(n0, n1, n_bands=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.01, 1.0, size=(n0 + n1, n_bands))
    y = np.array([0] * n0 + [1] * n1)
    return Dataset([f"b{k}" for k in range(n_bands)], X, y)


def mask_reference_split(dataset, spec, fold):
    """The fold rule written as a per-class layout and a test mask per class,
    kept here to pin ``stratified_split`` to it."""
    if not (0 <= fold < spec.n_folds):
        raise ValueError(f"fold {fold} out of range for {spec.n_folds} folds")
    rng = np.random.default_rng(spec.seed)
    layout = []
    for cls in (0, 1):
        members = np.flatnonzero(dataset.y == cls)
        if len(members) < spec.n_folds:
            raise ValueError(
                f"class {cls} has {len(members)} samples, fewer than "
                f"{spec.n_folds} folds"
            )
        layout.append(members[rng.permutation(len(members))])
    train_idx, val_idx, test_idx = [], [], []
    for dealt in layout:
        in_test = np.zeros(len(dealt), dtype=bool)
        in_test[fold::spec.n_folds] = True
        test_idx.append(dealt[in_test])
        remaining = dealt[~in_test]
        n_train = int(round(len(remaining) * (0.70 / (0.70 + 0.20))))
        train_idx.append(remaining[:n_train])
        val_idx.append(remaining[n_train:])
    return tuple(dataset.subset(np.sort(np.concatenate(parts)))
                 for parts in (train_idx, val_idx, test_idx))


def shuffled_dataset(n0, n1, seed):
    """``n0`` rows of class 0 and ``n1`` of class 1 in a seeded order."""
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.array([0] * n0 + [1] * n1))
    return Dataset(["b0", "b1"], rng.uniform(0.01, 1.0, (n0 + n1, 2)), y)


class TestStratifiedSplit:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_mask_reference(self, draw):
        n_folds = draw.draw(st.integers(2, 9), label="n_folds")
        n0 = draw.draw(st.integers(n_folds, 12 * n_folds), label="n0")
        n1 = draw.draw(st.integers(n_folds, 40 * n_folds), label="n1")
        fold = draw.draw(st.integers(0, n_folds - 1), label="fold")
        spec = SplitSpec(n_folds=n_folds,
                         seed=draw.draw(st.integers(0, 2 ** 64), label="seed"))
        ds = shuffled_dataset(n0, n1, draw.draw(st.integers(0, 2 ** 32)))
        got = stratified_split(ds, spec, fold)
        want = mask_reference_split(ds, spec, fold)
        assert type(got) is tuple and len(got) == 3
        for part, ref in zip(got, want):
            assert part.band_names == ref.band_names
            assert part.X.tobytes() == ref.X.tobytes()
            assert part.y.dtype == ref.y.dtype
            assert part.y.tobytes() == ref.y.tobytes()

    @pytest.mark.parametrize("n0, n1, n_folds, fold", [
        (20, 20, 10, 10), (20, 20, 10, -1), (20, 20, 3, 7),
        (9, 30, 10, 0), (30, 9, 10, 4), (1, 1, 2, 1), (0, 5, 2, 0),
        (5, 0, 2, 1), (3, 3, 4, 4), (3, 3, 4, -2)])
    def test_errors_match_the_mask_reference(self, n0, n1, n_folds, fold):
        ds = shuffled_dataset(n0, n1, seed=n0 + n1)
        spec = SplitSpec(n_folds=n_folds, seed=5)
        with pytest.raises(ValueError) as ref:
            mask_reference_split(ds, spec, fold)
        with pytest.raises(ValueError) as got:
            stratified_split(ds, spec, fold)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", True, None])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(ValueError) as info:
            SplitSpec(n_folds=2, seed=seed)
        assert str(info.value) == f"seed must be a nonnegative integer, got {seed!r}"

    def test_exact_divisibility_fold_zero(self):
        ds = balanced_dataset(50, 50)
        spec = SplitSpec(seed=3)
        train, val, test = stratified_split(ds, spec, fold=0)
        assert test.n_samples == 10
        assert (test.y == 1).sum() == 5
        assert train.n_samples == 70 and (train.y == 1).sum() == 35
        assert val.n_samples == 20 and (val.y == 1).sum() == 10

    def test_fold_tests_disjoint_and_cover_at_most_dataset(self):
        ds = balanced_dataset(23, 17)
        spec = SplitSpec(seed=11)
        seen = set()
        for fold in range(10):
            _, _, test = stratified_split(ds, spec, fold)
            rows = {tuple(row) for row in test.X}
            assert not (seen & rows)
            seen |= rows
        assert len(seen) <= ds.n_samples

    def test_each_fold_partitions_dataset(self):
        ds = balanced_dataset(23, 17)
        spec = SplitSpec(seed=11)
        for fold in range(10):
            train, val, test = stratified_split(ds, spec, fold)
            assert train.n_samples + val.n_samples + test.n_samples == 40
            stacked = np.vstack([train.X, val.X, test.X])
            assert {tuple(r) for r in stacked} == {tuple(r) for r in ds.X}

    def test_deterministic_given_seed(self):
        ds = balanced_dataset(30, 25)
        spec = SplitSpec(seed=21)
        a = stratified_split(ds, spec, fold=4)
        b = stratified_split(ds, spec, fold=4)
        for left, right in zip(a, b):
            assert np.array_equal(left.X, right.X)
            assert np.array_equal(left.y, right.y)

    def test_class_too_small_raises(self):
        ds = balanced_dataset(9, 30)
        with pytest.raises(ValueError, match="fewer"):
            stratified_split(ds, SplitSpec(seed=0), fold=0)

    def test_fold_out_of_range(self):
        ds = balanced_dataset(20, 20)
        with pytest.raises(ValueError, match="fold"):
            stratified_split(ds, SplitSpec(seed=0), fold=10)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=10, max_value=150),
           st.integers(min_value=10, max_value=150),
           st.integers(min_value=0, max_value=9),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_stratification_invariant(self, n0, n1, fold, seed):
        ds = balanced_dataset(n0, n1, seed=seed % 1000)
        spec = SplitSpec(seed=seed)
        global_frac = n1 / (n0 + n1)
        for split in stratified_split(ds, spec, fold):
            frac = (split.y == 1).mean()
            assert abs(frac - global_frac) <= 1.0 / split.n_samples + 1e-12

    @pytest.mark.parametrize("n_folds", [1, 0, 2.5, "3", True])
    def test_n_folds_must_be_an_integer_of_at_least_two(self, n_folds):
        with pytest.raises(ValueError, match="n_folds"):
            SplitSpec(n_folds=n_folds)


class TestSynthGenerate:
    def make_spec(self, **overrides):
        base = dict(n_samples=100, band_names=["a", "b", "c"],
                    class0_mean=[0.2, 0.4, 0.6], class1_mean=[0.3, 0.3, 0.5],
                    noise_sigma=0.02, gain_low=0.5, gain_high=2.0, seed=0)
        base.update(overrides)
        return SynthSpec(**base)

    def test_degenerate_spec_reproduces_class_means(self):
        spec = self.make_spec(noise_sigma=0.0, gain_low=1.0, gain_high=1.0)
        ds = synth_generate(spec)
        for row, label in zip(ds.X, ds.y):
            expected = spec.class0_mean if label == 0 else spec.class1_mean
            assert np.array_equal(row, np.array(expected))

    def test_balanced_labels(self):
        ds = synth_generate(self.make_spec(n_samples=101))
        assert abs(int((ds.y == 1).sum()) - 50) <= 1

    def test_deterministic_given_seed(self):
        a = synth_generate(self.make_spec(n_samples=2000))
        b = synth_generate(self.make_spec(n_samples=2000))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        c = synth_generate(self.make_spec(n_samples=2000, seed=1))
        assert not np.array_equal(a.X, c.X)

    def test_strictly_positive_reflectances(self):
        spec = self.make_spec(noise_sigma=0.5, n_samples=5000)
        ds = synth_generate(spec)
        assert (ds.X >= 1e-4).all()

    def test_gain_cancels_in_normalized_features(self):
        # the per-sample gain nuisance disappears in pairwise ratios
        spec = self.make_spec()
        mean = np.array(spec.class0_mean)
        params = NdParams.zeros(pair_count(3))
        base, _ = nd_forward(mean, params, eps=1e-12)
        for gain in (0.5, 2.0):
            scaled, _ = nd_forward(gain * mean, params, eps=1e-12)
            assert np.max(np.abs(scaled - base)) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            self.make_spec(class0_mean=[0.0, 0.4, 0.6])
        with pytest.raises(ValueError, match="gain"):
            self.make_spec(gain_low=2.0, gain_high=0.5)
        with pytest.raises(ValueError, match="band count"):
            self.make_spec(class1_mean=[0.1, 0.2])

    def test_packaged_default_spec(self):
        spec = default_synth_spec()
        assert spec.n_samples == 2000
        assert len(spec.band_names) == 10
        assert spec.gain_low == 0.5 and spec.gain_high == 2.0
        # largest class separation sits in the red-edge/NIR positions
        gap = np.abs(np.array(spec.class1_mean) - np.array(spec.class0_mean))
        assert np.argmax(gap) in (4, 5, 6, 7)

    def test_spec_file_round_trip(self, tmp_path):
        spec = self.make_spec()
        path = tmp_path / "spec.json"
        import json
        path.write_text(json.dumps(spec.to_dict()))
        assert load_synth_spec(path) == spec

    def test_spec_file_missing_fields(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"n_samples": 10}')
        with pytest.raises(DataFormatError, match="missing"):
            load_synth_spec(path)

    def test_separability_dial(self):
        # matched means, no covariance, unit gain: the two classes are
        # literally identical and nothing can separate them
        matched = self.make_spec(class1_mean=[0.2, 0.4, 0.6],
                                 noise_sigma=0.0, gain_low=1.0, gain_high=1.0)
        ds = synth_generate(matched)
        rows0 = ds.X[ds.y == 0]
        rows1 = ds.X[ds.y == 1]
        assert np.array_equal(rows0[0], rows1[0])

        # widening the mean gap on the later bands makes the classical
        # normalized difference a perfect threshold separator even with
        # the gain nuisance back on
        gapped = self.make_spec(class0_mean=[0.2, 0.2, 0.6],
                                class1_mean=[0.2, 0.5, 0.3],
                                noise_sigma=0.0, gain_low=0.5, gain_high=2.0)
        ds = synth_generate(gapped)
        params = NdParams.zeros(pair_count(3))
        feats, _ = nd_forward(ds.X, params, eps=1e-12)
        pair_12 = feats[:, 2]  # (band 1, band 2) pair
        lo0, hi0 = pair_12[ds.y == 0].min(), pair_12[ds.y == 0].max()
        lo1, hi1 = pair_12[ds.y == 1].min(), pair_12[ds.y == 1].max()
        assert hi0 < lo1 or hi1 < lo0  # disjoint ranges: one threshold wins


class TestInjectNoise:
    def test_eta_zero_is_identity(self):
        ds = balanced_dataset(20, 20)
        noisy = inject_noise(ds, 0.0, seed=5)
        assert np.array_equal(noisy.X, ds.X)
        assert np.array_equal(noisy.y, ds.y)
        noisy.X[0, 0] = -1.0  # returned object is an independent copy
        assert ds.X[0, 0] != -1.0

    def test_monte_carlo_standard_deviation(self):
        # b=1, eta=0.1: perturbation is 0.1*z, so sample std ~ 0.1
        ds = Dataset(["a"], np.ones((100_000, 1)), np.zeros(100_000, dtype=int))
        noisy = inject_noise(ds, 0.1, seed=9)
        std = float(np.std(noisy.X - 1.0))
        assert std == pytest.approx(0.1, rel=0.02)

    def test_zero_values_stay_zero(self):
        ds = Dataset(["a", "b"], np.array([[0.0, 0.5]] * 10),
                     np.zeros(10, dtype=int))
        noisy = inject_noise(ds, 0.3, seed=2)
        assert (noisy.X[:, 0] == 0.0).all()
        assert not np.array_equal(noisy.X[:, 1], ds.X[:, 1])

    def test_unbiased(self):
        ds = Dataset(["a"], np.full((200_000, 1), 0.7),
                     np.zeros(200_000, dtype=int))
        noisy = inject_noise(ds, 0.2, seed=4)
        drift = float(np.mean(noisy.X - 0.7))
        # MC error ~ eta*|b|/sqrt(n) = 3.1e-4; allow 4 sigma
        assert abs(drift) < 4 * 0.2 * 0.7 / np.sqrt(200_000)

    def test_perturbation_scales_with_magnitude(self):
        ds = Dataset(["a", "b"], np.column_stack([np.full(50_000, 0.1),
                                                  np.full(50_000, 1.0)]),
                     np.zeros(50_000, dtype=int))
        noisy = inject_noise(ds, 0.1, seed=13)
        std_small = np.std(noisy.X[:, 0] - 0.1)
        std_large = np.std(noisy.X[:, 1] - 1.0)
        assert std_large / std_small == pytest.approx(10.0, rel=0.05)

    def test_labels_untouched_and_negatives_allowed(self):
        ds = Dataset(["a"], np.full((2000, 1), 0.5), np.ones(2000, dtype=int))
        noisy = inject_noise(ds, 0.5, seed=1)
        assert np.array_equal(noisy.y, ds.y)
        assert (noisy.X < 0).any()  # eta=0.5 produces some, by design

    def test_deterministic_per_seed(self):
        ds = balanced_dataset(30, 30)
        a = inject_noise(ds, 0.1, seed=42)
        b = inject_noise(ds, 0.1, seed=42)
        c = inject_noise(ds, 0.1, seed=43)
        assert np.array_equal(a.X, b.X)
        assert not np.array_equal(a.X, c.X)

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("eta", [0.02, 0.1, 0.5])
    def test_bits_equal_the_textbook_formula(self, eta, seed, rng):
        X = rng.uniform(0, 2, (300, 7)) * rng.choice([1e-8, 1.0, 1e5], (300, 7))
        noisy = inject_noise(Dataset([f"b{k}" for k in range(7)], X,
                                     rng.integers(0, 2, 300)), eta, seed)
        z = np.random.default_rng(seed).standard_normal(X.shape)
        expected = X + eta * np.abs(X) * z
        assert np.array_equal(noisy.X.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("eta", [-0.1, 0.51, 1.0])
    def test_eta_range_validated(self, eta):
        ds = balanced_dataset(5, 5)
        with pytest.raises(ValueError, match="eta"):
            inject_noise(ds, eta, seed=0)

    # the seed is checked before the eta = 0 early return
    @pytest.mark.parametrize("eta", [0.0, 0.1])
    @pytest.mark.parametrize("seed", [-1, 2.5, "3", True])
    def test_seed_must_be_a_nonnegative_int(self, seed, eta):
        ds = balanced_dataset(5, 5)
        with pytest.raises(ValueError) as info:
            inject_noise(ds, eta, seed)
        assert str(info.value) == f"seed must be a nonnegative integer, got {seed!r}"
