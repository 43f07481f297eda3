import numpy as np
import pytest

from memda.datasets import (
    SOURCE,
    TARGET,
    DomainDataset,
    ShiftSpec,
    apply_domain_shift,
    batch_sampler,
    gen_gaussian_mixture,
    gen_two_moons,
    load_feature_table,
    mixture_means,
    rotation_matrix,
    save_feature_table,
)
from memda.errors import ConfigurationError, DataFormatError


def test_mixture_deterministic_bitwise():
    a = gen_gaussian_mixture(5, 4, 30, 3.0, 1.0, seed=9)
    b = gen_gaussian_mixture(5, 4, 30, 3.0, 1.0, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a._labels, b._labels)


def test_mixture_guards():
    with pytest.raises(ConfigurationError):
        gen_gaussian_mixture(5, 4, 0, 3.0, 1.0, seed=0)
    with pytest.raises(ConfigurationError):
        gen_gaussian_mixture(1, 4, 10, 3.0, 1.0, seed=0)
    with pytest.raises(ConfigurationError):
        gen_gaussian_mixture(5, 4, 10, 0.0, 1.0, seed=0)


def test_mixture_means_lie_on_sphere():
    means = mixture_means(12, 6, 4.0)
    assert means.shape == (12, 6)
    assert np.allclose(np.linalg.norm(means, axis=1), 4.0, atol=1e-12)
    # deterministic placement
    assert np.array_equal(means, mixture_means(12, 6, 4.0))


def test_empirical_class_means_concentrate():
    n, std = 400, 1.0
    ds = gen_gaussian_mixture(2, 2, n, 4.0, std, seed=3)
    means = mixture_means(2, 2, 4.0)
    for c in range(2):
        emp = ds.features[ds._labels == c].mean(axis=0)
        # norm of the mean error ~ std * sqrt(d/n); 3x margin
        assert np.linalg.norm(emp - means[c]) <= 3.0 * std * np.sqrt(2.0 / n)


def test_identity_shift_is_exact():
    ds = gen_gaussian_mixture(4, 4, 20, 3.0, 1.0, seed=1)
    shifted = apply_domain_shift(ds, ShiftSpec(rotation=0.0, noise=0.0))
    assert np.array_equal(shifted.features, ds.features)
    assert shifted.domain == TARGET


def test_quarter_turn_in_2d():
    ds = DomainDataset(np.array([[1.0, 0.0]]), SOURCE, 2, np.array([0]))
    shifted = apply_domain_shift(ds, ShiftSpec(rotation=np.pi / 2, noise=0.0))
    assert np.allclose(shifted.features, [[0.0, 1.0]], atol=1e-12)


def test_shift_never_touches_labels():
    ds = gen_gaussian_mixture(6, 8, 25, 4.0, 1.0, seed=2)
    shifted = apply_domain_shift(ds, ShiftSpec.from_degrees(30.0, noise=0.5, seed=5))
    assert np.array_equal(shifted._labels, ds._labels)


def test_rotation_is_orthonormal_and_isometric():
    for d in (2, 5, 16):
        r = rotation_matrix(d, 0.6)
        assert np.max(np.abs(r.T @ r - np.eye(d))) <= 1e-12
    ds = gen_gaussian_mixture(3, 16, 10, 4.0, 1.0, seed=0)
    shifted = apply_domain_shift(ds, ShiftSpec.from_degrees(30.0))
    from scipy.spatial.distance import pdist

    before = pdist(ds.features)
    after = pdist(shifted.features)
    assert np.max(np.abs(before - after)) <= 1e-10


def test_two_moons_noise_free_points_on_circles():
    src, tgt = gen_two_moons(200, noise=0.0, rotation=0.0, seed=4)
    for ds in (src, tgt):
        x, y = ds.features[:, 0], ds.features[:, 1]
        upper = ds._labels == 0
        r_upper = x[upper] ** 2 + y[upper] ** 2
        r_lower = (x[~upper] - 1.0) ** 2 + (y[~upper] - 0.5) ** 2
        assert np.max(np.abs(r_upper - 1.0)) <= 1e-12
        assert np.max(np.abs(r_lower - 1.0)) <= 1e-12


def test_two_moons_rotation_and_determinism():
    a_src, a_tgt = gen_two_moons(50, noise=0.05, rotation=0.7, seed=8)
    b_src, b_tgt = gen_two_moons(50, noise=0.05, rotation=0.7, seed=8)
    assert np.array_equal(a_src.features, b_src.features)
    assert np.array_equal(a_tgt.features, b_tgt.features)
    assert a_src.domain == SOURCE and a_tgt.domain == TARGET
    with pytest.raises(ConfigurationError):
        gen_two_moons(1, 0.0, 0.0, seed=0)


def test_target_train_labels_are_sealed():
    ds = gen_gaussian_mixture(3, 4, 10, 3.0, 1.0, seed=0)
    shifted = apply_domain_shift(ds, ShiftSpec())
    with pytest.raises(ConfigurationError):
        _ = shifted.train_labels
    assert np.array_equal(shifted.eval_labels(), ds._labels)
    assert np.array_equal(ds.train_labels, ds._labels)


def test_feature_table_round_trip(tmp_path):
    ds = gen_gaussian_mixture(4, 5, 12, 3.0, 1.0, seed=6)
    path = tmp_path / "table.csv"
    save_feature_table(path, ds)
    loaded = load_feature_table(path, SOURCE)
    assert np.array_equal(loaded.features, ds.features)  # repr round-trips exactly
    assert np.array_equal(loaded._labels, ds._labels)
    assert loaded.num_classes == 4


def test_feature_table_small_wellformed(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# comment\n2,3\n0,1.5,2.5\n1,0.25,-1.0\n2,0.0,0.0\n")
    ds = load_feature_table(path, SOURCE)
    assert len(ds) == 3
    assert ds.dim == 2 and ds.num_classes == 3


def test_feature_table_short_row_names_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("2,3\n0,1.5,2.5\n1,0.25\n")
    with pytest.raises(DataFormatError, match=":3:"):
        load_feature_table(path, SOURCE)


def test_feature_table_header_and_label_errors(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("2\n")
    with pytest.raises(DataFormatError, match="header"):
        load_feature_table(path, SOURCE)
    path.write_text("2,3\n7,1.0,2.0\n")
    with pytest.raises(DataFormatError, match="out of range"):
        load_feature_table(path, SOURCE)
    path.write_text("2,3\n-1,1.0,2.0\n")
    with pytest.raises(DataFormatError, match="unlabeled"):
        load_feature_table(path, SOURCE)
    loaded = load_feature_table(path, TARGET)  # unlabeled target rows are fine
    assert loaded._labels[0] == -1
    path.write_text("2,2\n0,1.0,nan\n")
    with pytest.raises(DataFormatError, match=r"t\.csv:2: non-finite"):
        load_feature_table(path, SOURCE)
    path.write_text("2,2\n0,1.0,2.0\n1,-inf,0.5\n")
    with pytest.raises(DataFormatError, match=r"t\.csv:3: non-finite"):
        load_feature_table(path, TARGET)
    path.write_text("# only comments\n")
    with pytest.raises(DataFormatError, match="no header"):
        load_feature_table(path, SOURCE)


def test_sampler_pure_function_of_seed_and_iteration():
    ds = gen_gaussian_mixture(3, 4, 11, 3.0, 1.0, seed=0)
    a = batch_sampler(ds, 8, seed=5, iteration=13)
    b = batch_sampler(ds, 8, seed=5, iteration=13)
    assert np.array_equal(a, b)
    c = batch_sampler(ds, 8, seed=6, iteration=13)
    assert not np.array_equal(a, c)


def test_sampler_full_batch_is_permutation():
    ds = gen_gaussian_mixture(3, 4, 10, 3.0, 1.0, seed=0)
    idx = batch_sampler(ds, len(ds), seed=1, iteration=0)
    assert sorted(idx) == list(range(len(ds)))


def test_sampler_epoch_coverage():
    ds = gen_gaussian_mixture(2, 4, 12, 3.0, 1.0, seed=0)  # 24 samples
    batch = 6
    for epoch in range(3):
        seen = []
        for b in range(len(ds) // batch):
            seen.extend(batch_sampler(ds, batch, seed=3,
                                      iteration=epoch * len(ds) // batch + b))
        assert sorted(seen) == list(range(len(ds)))
