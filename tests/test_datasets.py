import csv
import dataclasses
import itertools
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from pseudopool.datasets import (
    POLICY_BLOCK_ROWS,
    AugmentationPolicy,
    DatasetSpec,
    LabeledSplit,
    SplitBundle,
    UnlabeledSplit,
    circle_class_means,
    generate_splits,
    load_csv,
    load_splits,
    long_tailed_counts,
    policy_from_features,
    save_splits,
    shape_counts,
    strong_view_batch,
    weak_view_batch,
)
from pseudopool.records import ConfigError

from conftest import tiny_spec


def highprec_counts(n_max, gamma, num_classes):
    """Independent high-precision evaluation of the count profile."""
    mp.dps = 50
    out = []
    for c in range(num_classes):
        raw = mp.mpf(n_max) * mp.power(mp.mpf(gamma), -mp.mpf(c) / (num_classes - 1))
        out.append(max(1, int(mp.floor(raw))))
    return np.array(out)


def per_class_concatenate_splits(spec):
    """Features and labels of each role as ``generate_splits`` once drew them:
    one ``means[c] + noise`` copy per class, then one concatenation."""
    shape_ss, data_ss = np.random.SeedSequence(spec.seed).spawn(2)
    shape_rng, data_rng = np.random.default_rng(shape_ss), np.random.default_rng(data_ss)
    labeled_counts = long_tailed_counts(spec.n_max, spec.gamma_l, spec.num_classes)
    if spec.labeled_shape == "arbitrary":
        labeled_counts = shape_counts(labeled_counts, "arbitrary", shape_rng, spec.arbitrary_mode)
    unlabeled_counts = shape_counts(
        long_tailed_counts(spec.m_max, spec.gamma_u, spec.num_classes),
        spec.unlabeled_shape, shape_rng, spec.arbitrary_mode,
    )
    means = circle_class_means(spec.num_classes, spec.feature_dim)
    out = []
    for counts in (labeled_counts, unlabeled_counts, np.full(spec.num_classes, spec.test_per_class)):
        feats, labels = [], []
        for c, count in enumerate(counts):
            feats.append(means[c] + data_rng.standard_normal((int(count), spec.feature_dim)))
            labels.append(np.full(int(count), c, dtype=np.int64))
        out.append((np.concatenate(feats, axis=0), np.concatenate(labels)))
    return out


def stacked_std_policy(*features):
    """The policy from ``np.std`` of the stacked features, the bits that
    ``policy_from_features`` must give without building the stack."""
    base = float(np.mean(np.std(np.asarray(np.concatenate(features), dtype=np.float64), axis=0)))
    return AugmentationPolicy(0.05 * base, 0.15 * base, 0.3)


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the bytes tracemalloc sees it allocate,
    its result included. A first call outside the trace makes whatever
    imports ``fn`` makes on first use."""
    fn(*args)
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the unlabeled split of the wide benchmark workload: 19,407 rows of 16 features
WIDE_SPEC = DatasetSpec(num_classes=5, feature_dim=16, n_max=100, m_max=9000, gamma_l=10.0, gamma_u=10.0)


class TestLongTailedCounts:
    def test_paper_extreme_profile(self):
        # head 400 with ratio 100 over 10 classes leaves a 4-sample tail
        counts = long_tailed_counts(400, 100, 10)
        assert counts[0] == 400
        assert counts[-1] == 4

    def test_uniform_when_ratio_one(self):
        assert np.array_equal(long_tailed_counts(100, 1, 5), np.full(5, 100))

    def test_profile_matches_high_precision_oracle(self):
        counts = long_tailed_counts(50, 10, 100)
        expected = highprec_counts(50, 10, 100)
        assert counts[0] == 50
        assert counts[-1] == 5
        assert np.array_equal(counts, expected)

    def test_non_increasing_and_ratio(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = int(rng.integers(2, 20))
            gamma = float(rng.uniform(1, 50))
            n_max = int(rng.integers(int(np.ceil(gamma)), 1000))
            counts = long_tailed_counts(n_max, gamma, c)
            assert np.all(np.diff(counts) <= 0)
            assert counts[0] == n_max
            assert np.all(counts >= 1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            long_tailed_counts(100, 0.5, 5)
        with pytest.raises(ValueError):
            long_tailed_counts(5, 10, 5)


class TestShapeCounts:
    def test_inverse_reverses(self):
        assert np.array_equal(shape_counts(np.array([9, 3, 1]), "inverse"), [1, 3, 9])

    def test_consistent_is_identity(self):
        assert np.array_equal(shape_counts(np.array([9, 3, 1]), "consistent"), [9, 3, 1])

    def test_uniform_sets_rounded_mean(self):
        out = shape_counts(np.array([10, 20, 30]), "uniform")
        assert np.array_equal(out, [20, 20, 20])

    def test_arbitrary_is_a_permutation(self):
        base = np.array([9, 3, 1])
        perms = {tuple(p) for p in itertools.permutations(base)}
        for seed in range(20):
            out = shape_counts(base, "arbitrary", seed)
            assert tuple(out) in perms

    def test_multiset_bijection_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            base = rng.integers(1, 100, size=int(rng.integers(2, 12)))
            for shape in ("consistent", "inverse", "arbitrary"):
                out = shape_counts(base, shape, 3)
                assert sorted(out) == sorted(base)

    def test_dirichlet_mode_conserves_total(self):
        base = np.array([30, 20, 10])
        out = shape_counts(base, "arbitrary", 5, arbitrary_mode="dirichlet")
        assert out.sum() == base.sum()
        assert np.all(out >= 1)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            shape_counts(np.array([1, 2]), "wavy")


class TestGenerateSplits:
    def test_desk_scale_counts(self):
        spec = DatasetSpec(
            num_classes=5, feature_dim=16, n_max=100, m_max=900,
            gamma_l=10, gamma_u=10, unlabeled_shape="consistent", seed=0,
        )
        bundle = generate_splits(spec)
        assert np.array_equal(bundle.labeled.class_counts(5), highprec_counts(100, 10, 5))
        assert np.array_equal(bundle.labeled.class_counts(5), [100, 56, 31, 17, 10])
        assert np.array_equal(bundle.unlabeled.class_counts(5), [900, 506, 284, 160, 90])

    def test_uniform_ratios_give_equal_counts(self):
        spec = tiny_spec(gamma_l=1.0, gamma_u=1.0, unlabeled_shape="consistent")
        bundle = generate_splits(spec)
        assert len(set(bundle.labeled.class_counts(3))) == 1
        assert len(set(bundle.unlabeled.class_counts(3))) == 1

    def test_same_seed_bit_identical(self):
        a = generate_splits(tiny_spec(seed=3))
        b = generate_splits(tiny_spec(seed=3))
        assert np.array_equal(a.labeled.features, b.labeled.features)
        assert np.array_equal(a.unlabeled.features, b.unlabeled.features)
        assert np.array_equal(a.test.features, b.test.features)
        assert a.labeled.features.tobytes() == b.labeled.features.tobytes()

    def test_ids_globally_unique_and_counts_conserve(self):
        bundle = generate_splits(tiny_spec())
        all_ids = np.concatenate([bundle.labeled.ids, bundle.unlabeled.ids, bundle.test.ids])
        assert np.unique(all_ids).size == all_ids.size
        assert bundle.labeled.class_counts(3).sum() == bundle.labeled.ids.size
        assert bundle.unlabeled.class_counts(3).sum() == bundle.unlabeled.ids.size

    def test_test_split_is_balanced(self):
        bundle = generate_splits(tiny_spec(test_per_class=7))
        assert np.array_equal(bundle.test.class_counts(3), [7, 7, 7])

    def test_arbitrary_labeled_shape_permutes_profile(self):
        spec = tiny_spec(labeled_shape="arbitrary", seed=9)
        bundle = generate_splits(spec)
        profile = long_tailed_counts(spec.n_max, spec.gamma_l, spec.num_classes)
        assert sorted(bundle.labeled.class_counts(3)) == sorted(profile)

    def test_rejects_invalid_spec(self):
        with pytest.raises(ValueError):
            generate_splits(tiny_spec(num_classes=1))
        with pytest.raises(ValueError):
            generate_splits(tiny_spec(gamma_l=0.5))

    @pytest.mark.parametrize(
        "spec",
        [
            tiny_spec(),
            tiny_spec(feature_dim=1, labeled_shape="arbitrary", arbitrary_mode="dirichlet", seed=7),
            WIDE_SPEC,
        ],
        ids=["tiny", "one-feature", "wide"],
    )
    def test_draws_equal_per_class_concatenate(self, spec):
        bundle = generate_splits(spec)
        roles = ((bundle.labeled, bundle.labeled.labels), (bundle.unlabeled, bundle.unlabeled.hidden_labels),
                 (bundle.test, bundle.test.labels))
        for (split, labels), (feats, expected) in zip(roles, per_class_concatenate_splits(spec)):
            assert split.features.tobytes() == feats.tobytes() and split.features.shape == feats.shape
            assert labels.dtype == expected.dtype and labels.tobytes() == expected.tobytes()

    def test_view_projection_has_no_ground_truth(self):
        bundle = generate_splits(tiny_spec())
        view = bundle.unlabeled_view()
        assert not hasattr(view, "hidden_labels")
        assert not hasattr(view, "hidden_label")
        assert set(vars(view)) == {"ids", "features"}


class TestViews:
    def test_zero_sigma_weak_is_identity(self):
        policy = AugmentationPolicy(0.0, 0.0, 0.0)
        x = np.arange(10.0).reshape(2, 5)
        out = weak_view_batch(x, policy, np.random.default_rng(0))
        assert np.array_equal(out, x)

    def test_full_mask_zeroes_everything(self):
        policy = AugmentationPolicy(0.0, 0.0, 1.0)
        out = strong_view_batch(np.arange(1.0, 11.0).reshape(2, 5), policy, np.random.default_rng(0))
        assert np.array_equal(out, np.zeros((2, 5)))

    def test_weak_noise_is_centered(self):
        # Monte-Carlo: per-coordinate mean within 3*sigma/sqrt(n) of zero
        policy = AugmentationPolicy(0.3, 0.3, 0.0)
        rng = np.random.default_rng(42)
        x = np.ones((10_000, 4))
        draws = weak_view_batch(x, policy, rng) - x
        assert np.all(np.abs(draws.mean(axis=0)) < 3 * 0.3 / 100)

    def test_strong_masks_fixed_fraction(self):
        policy = AugmentationPolicy(0.0, 0.0, 0.5)
        rng = np.random.default_rng(1)
        out = strong_view_batch(np.ones((20, 10)), policy, rng)
        assert np.all(np.sum(out == 0.0, axis=1) == 5)

    def test_batch_views_match_contract(self):
        policy = AugmentationPolicy(0.1, 0.2, 0.25)
        rng = np.random.default_rng(5)
        X = np.random.default_rng(0).normal(size=(6, 8))
        weak = weak_view_batch(X, policy, rng)
        strong = strong_view_batch(X, policy, rng)
        assert weak.shape == X.shape and strong.shape == X.shape
        assert np.all((strong == 0.0).sum(axis=1) >= round(0.25 * 8))

    def test_policy_invariant(self):
        with pytest.raises(ValueError):
            AugmentationPolicy(0.5, 0.1, 0.0)
        with pytest.raises(ValueError):
            AugmentationPolicy(0.1, 0.2, 1.5)

    def test_policy_from_features_scales_with_std(self):
        feats = np.random.default_rng(0).normal(scale=2.0, size=(500, 3))
        policy = policy_from_features(feats)
        assert policy.strong_noise_sigma == pytest.approx(3 * policy.weak_noise_sigma)
        assert policy.weak_noise_sigma == pytest.approx(0.05 * 2.0, rel=0.1)


class TestStreamedPolicy:
    """``policy_from_features`` reads its row blocks in ``POLICY_BLOCK_ROWS``
    pieces, never stacked, and still gives the stacked ``np.std``'s bits."""

    @pytest.mark.parametrize("d", [1, 2, 16])
    @pytest.mark.parametrize(
        "m", [0, 1, POLICY_BLOCK_ROWS - 1, POLICY_BLOCK_ROWS, POLICY_BLOCK_ROWS + 1, 19_407]
    )
    def test_equals_stacked_std_bit_for_bit(self, d, m):
        rng = np.random.default_rng(100 * d + m % 97)
        labeled = rng.normal(3.0, 2.0, size=(240, d))
        unlabeled = rng.normal(-1.0, 5.0, size=(m, d))
        policy = policy_from_features(labeled, unlabeled)
        expected = stacked_std_policy(labeled, unlabeled)
        bits = lambda p: [p.weak_noise_sigma.hex(), p.strong_noise_sigma.hex(), p.strong_mask_rate]
        assert bits(policy) == bits(expected)

    def test_layout_of_the_parts_does_not_matter(self):
        rng = np.random.default_rng(3)
        labeled = np.asfortranarray(rng.normal(size=(300, 7)))
        unlabeled = rng.normal(size=(2 * POLICY_BLOCK_ROWS + 5, 14))[:, ::2]
        assert policy_from_features(labeled, unlabeled) == stacked_std_policy(labeled, unlabeled)
        assert policy_from_features(unlabeled) == stacked_std_policy(unlabeled)


class TestPeakMemory:
    """A whole-split pass allocates no whole-split copy beyond its result."""

    def test_policy_peak_is_blocks_not_the_split(self):
        bundle = generate_splits(WIDE_SPEC)
        parts = (bundle.labeled.features, bundle.unlabeled.features)
        _, peak = traced_peak(policy_from_features, *parts)
        assert peak < 0.2 * sum(x.nbytes for x in parts)

    def test_generate_splits_peak(self):
        bundle, peak = traced_peak(generate_splits, WIDE_SPEC)
        held = sum(a.nbytes for split in (bundle.labeled, bundle.unlabeled, bundle.test) for a in vars(split).values())
        assert peak < 1.5 * held

    def test_load_csv_peak(self, tmp_path):
        save_splits(generate_splits(WIDE_SPEC), tmp_path)
        split, peak = traced_peak(load_csv, tmp_path / "unlabeled.csv", "unlabeled", 5)
        assert split.features.shape == (19_407, 16)
        assert peak < 1.5 * sum(a.nbytes for a in vars(split).values())


def hand_built(labeled_ids, unlabeled_ids, test_ids, unlabeled_rows=None):
    """A two-class bundle of zero features over the given ids, labels 0, 1, 0, ...;
    ``unlabeled_rows`` sets the unlabeled split's feature and label count."""
    def split(kind, ids, rows=None):
        rows = len(ids) if rows is None else rows
        return kind(np.array(ids), np.zeros((rows, 2)), np.arange(rows) % 2)

    return SplitBundle(
        tiny_spec(num_classes=2, feature_dim=2),
        split(LabeledSplit, labeled_ids),
        split(UnlabeledSplit, unlabeled_ids, unlabeled_rows),
        split(LabeledSplit, test_ids),
    )


class TestSplitBundle:
    """A bundle checks its ids, row counts, labels and features once, when it
    is built, so the pool, the registry and the training step need not."""

    def test_id_collision_with_base_rejected(self):
        with pytest.raises(ValueError, match="^id 2 appears more than once"):
            hand_built([0, 1, 2, 3], [2, 100], [300])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 15), st.sets(st.integers(0, 14), max_size=4))
    def test_colliding_id_rejected_on_any_step(self, c, n, shared):
        base = np.arange(200, 200 + c)
        ids = np.arange(100, 100 + n)
        shared = sorted(r for r in shared if r < n)
        ids[shared] = 200 + np.arange(len(shared)) % c  # these rows carry base ids
        if shared:
            with pytest.raises(ValueError, match=f"^id {ids[shared[0]]} appears"):
                hand_built(base, ids, [300])
        else:
            assert np.array_equal(hand_built(base, ids, [300]).unlabeled_view().ids, ids)

    def test_unlabeled_id_shared_with_test_rejected(self):
        with pytest.raises(ValueError, match="^id 101 appears"):
            hand_built([0, 1], [100, 101, 102], [300, 101])

    def test_id_repeated_within_unlabeled_rejected(self):
        with pytest.raises(ValueError, match="^id 102 appears"):
            hand_built([0, 1], [100, 102, 101, 102], [300])

    @pytest.mark.parametrize("rows", [2, 4], ids=["ids-shorter", "ids-longer"])
    def test_unlabeled_ids_must_match_feature_rows(self, rows):
        with pytest.raises(ValueError, match=f"^unlabeled split has 3 ids, {rows} feature rows and {rows} labels"):
            hand_built([0, 1], [100, 101, 102], [300], unlabeled_rows=rows)

    def test_narrower_test_csv_rejected_on_load(self, tmp_path):
        save_splits(generate_splits(tiny_spec(seed=4)), tmp_path)
        path = tmp_path / "test.csv"
        rows = list(csv.reader(path.read_text().splitlines()))
        narrow = [["f0", "f1", "f2", "label"]] + [row[:3] + row[4:] for row in rows[1:]]
        path.write_text("\n".join(",".join(row) for row in narrow) + "\n")
        with pytest.raises(ValueError, match=r"^test features of shape \(30, 3\) are not 2-D rows as wide"):
            load_splits(tmp_path)

    def test_empty_test_csv_rejected_on_load(self, tmp_path):
        # an empty test split used to train a whole epoch, then fail to score it
        save_splits(generate_splits(tiny_spec(seed=4)), tmp_path)
        path = tmp_path / "test.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        with pytest.raises(ValueError, match="^test split has no rows to score$"):
            load_splits(tmp_path)

    def test_one_dimensional_features_rejected(self):
        bundle = hand_built([0, 1], [100], [300])
        flat = LabeledSplit(np.array([5]), np.zeros(1), np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError, match=r"^test features of shape \(1,\)"):
            SplitBundle(bundle.spec, bundle.labeled, bundle.unlabeled, flat)

    @pytest.mark.parametrize("role", ["labeled", "unlabeled", "test"])
    def test_label_outside_classes_rejected(self, role):
        bundle = generate_splits(tiny_spec(seed=4))  # C=3
        split = getattr(bundle, role)
        field = "hidden_labels" if role == "unlabeled" else "labels"
        for label in (3, -1):
            labels = getattr(split, field).copy()
            labels[1] = label
            with pytest.raises(ValueError, match=rf"^{role} label {label} outside \[0, 3\)"):
                dataclasses.replace(bundle, **{role: dataclasses.replace(split, **{field: labels})})

    @pytest.mark.parametrize("role", ["labeled", "unlabeled", "test"])
    def test_non_finite_feature_rejected(self, role):
        bundle = generate_splits(tiny_spec(seed=4))
        split = getattr(bundle, role)
        features = split.features.copy()
        features[5, 0], features[2, 1] = np.inf, np.nan  # the error names the first bad row
        with pytest.raises(ValueError, match=rf"^{role} feature row 2 holds a non-finite value$"):
            dataclasses.replace(bundle, **{role: dataclasses.replace(split, features=features)})

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 5), st.integers(1, 4), st.integers(1, 30), st.integers(0, 40),
        st.sampled_from(["consistent", "inverse", "uniform", "arbitrary"]), st.integers(0, 2**16),
    )
    def test_generated_and_reloaded_bundles_construct(self, c, d, n_max, m_extra, shape, seed):
        spec = tiny_spec(num_classes=c, feature_dim=d, n_max=n_max, m_max=n_max + m_extra,
                         gamma_l=1.0, gamma_u=1.0, unlabeled_shape=shape, test_per_class=2, seed=seed)
        bundle = generate_splits(spec)
        with tempfile.TemporaryDirectory() as out:
            save_splits(bundle, out)
            loaded = load_splits(out)
        for role in ("labeled", "unlabeled", "test"):
            assert np.array_equal(getattr(loaded, role).ids, getattr(bundle, role).ids)


class TestCsv:
    def _write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_well_formed_file(self, tmp_path):
        path = self._write(tmp_path, "f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n0.5,0.5,2\n")
        split = load_csv(path, "labeled", num_classes=3)
        assert isinstance(split, LabeledSplit)
        assert split.labels.tolist() == [0, 1, 2]
        assert np.array_equal(split.features, [[1.0, 2.0], [3.0, 4.0], [0.5, 0.5]])
        assert split.ids.tolist() == [0, 1, 2]

    def test_unlabeled_role_fills_hidden_label(self, tmp_path):
        path = self._write(tmp_path, "f0,label\n1.0,2\n")
        split = load_csv(path, "unlabeled", num_classes=3, id_start=5)
        assert isinstance(split, UnlabeledSplit)
        assert split.hidden_labels.tolist() == [2]
        assert split.ids.tolist() == [5]
        assert not hasattr(split, "labels")

    def test_non_numeric_feature_names_row(self, tmp_path):
        path = self._write(tmp_path, "f0,f1,label\n1.0,2.0,0\nabc,4.0,1\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path, "labeled", num_classes=2)

    def test_out_of_range_label_names_value(self, tmp_path):
        path = self._write(tmp_path, "f0,label\n1.0,0\n2.0,5\n")
        with pytest.raises(ValueError, match=r"label 5 outside \[0, 3\)"):
            load_csv(path, "test", num_classes=3)

    def test_column_count_mismatch(self, tmp_path):
        path = self._write(tmp_path, "f0,f1,label\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path, "labeled", num_classes=2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "labeled", num_classes=2)

    def test_bad_header(self, tmp_path):
        path = self._write(tmp_path, "a,b,label\n1.0,2.0,0\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path, "labeled", num_classes=2)

    def test_save_load_round_trip(self, tmp_path):
        bundle = generate_splits(tiny_spec(seed=4))
        save_splits(bundle, tmp_path / "out")
        loaded = load_splits(tmp_path / "out")
        assert np.array_equal(loaded.labeled.features, bundle.labeled.features)
        assert np.array_equal(loaded.unlabeled.hidden_labels, bundle.unlabeled.hidden_labels)
        assert np.array_equal(loaded.test.labels, bundle.test.labels)
        sidecar = json.loads((tmp_path / "out" / "dataset.json").read_text())
        assert sidecar["seed"] == 4
        assert sidecar["num_classes"] == 3

    def test_failed_save_leaves_no_sidecar(self, tmp_path):
        out = tmp_path / "out"
        save_splits(generate_splits(tiny_spec(seed=4)), out)
        test_csv = (out / "test.csv").read_bytes()
        bundle = generate_splits(tiny_spec(seed=5))
        bundle.test.labels = bundle.test.labels.astype(object)
        bundle.test.labels[1] = object()  # int() raises after test.csv's first row is written
        with pytest.raises(TypeError):
            save_splits(bundle, out)
        # the old test.csv is whole, and no sidecar vouches for the mixed splits
        assert (out / "test.csv").read_bytes() == test_csv
        assert sorted(p.name for p in out.iterdir()) == ["labeled.csv", "test.csv", "unlabeled.csv"]
        with pytest.raises(FileNotFoundError):
            load_splits(out)

    def test_older_sidecar_names_its_removed_field(self, tmp_path):
        save_splits(generate_splits(tiny_spec(seed=4)), tmp_path)
        sidecar = tmp_path / "dataset.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "mean_scale": 2.5}))
        with pytest.raises(ConfigError, match="^dataset.mean_scale: unknown field") as err:
            load_splits(tmp_path)
        assert err.value.fieldname == "dataset.mean_scale"

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n_max": -4}, "n_max and m_max must be positive"),
            ({"gamma_l": 0.5}, "imbalance ratios must be >= 1"),
            ({"unlabeled_shape": "wavy"}, "unlabeled_shape must be one of"),
        ],
        ids=["n_max", "gamma_l", "unlabeled_shape"],
    )
    def test_sidecar_spec_is_checked(self, tmp_path, change, message):
        save_splits(generate_splits(tiny_spec(seed=4)), tmp_path)
        sidecar = tmp_path / "dataset.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **change}))
        with pytest.raises(ConfigError, match=f"^dataset: {message}") as err:
            load_splits(tmp_path)
        assert err.value.fieldname == "dataset"

    # cells a malformed row may carry: text of any kind (NUL, quotes,
    # newlines), non-finite or out-of-range numbers, and a field past the csv
    # module's size limit
    CELLS = st.one_of(
        st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6),
        st.sampled_from(["", " ", "nan", "-inf", "1e400", "2.5", "-1", "3", "1_0", "\x00", "9" * 40]),
        st.just("7" * 140_000),
    )

    @settings(max_examples=200, deadline=None)
    @given(
        feature_dim=st.integers(1, 3),
        n_rows=st.integers(1, 5),
        bad_at=st.integers(0, 4),
        cells=st.lists(CELLS, max_size=5),
        role=st.sampled_from(["labeled", "unlabeled", "test"]),
    )
    def test_fuzzed_row_loads_or_raises_naming_its_row(self, feature_dim, n_rows, bad_at, cells, role):
        bad_at = min(bad_at, n_rows - 1)
        rng = np.random.default_rng(n_rows)
        good = [[repr(float(v)) for v in rng.normal(size=feature_dim)] + ["1"] for _ in range(n_rows)]
        good[bad_at] = cells
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.csv"
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow([f"f{j}" for j in range(feature_dim)] + ["label"])
                writer.writerows(good)
            try:
                split = load_csv(path, role, num_classes=3)
            except ValueError as exc:
                # the header is row 1, so record i of the body is row i + 2
                assert f"row {bad_at + 2}:" in str(exc)
            else:
                assert split.ids.size == n_rows
                assert np.array_equal(split.features[bad_at], [float(v) for v in cells[:-1]])
