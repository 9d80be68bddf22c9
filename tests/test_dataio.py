"""Tests for LIBSVM parsing, emission, splitting, and standardization."""

import numpy as np
import pytest

from vrhmc.dataio import (
    Dataset,
    LibsvmFormatError,
    emit_libsvm,
    parse_libsvm,
    standardize,
    train_test_split,
)


def random_dataset(rng, n_rows, n_features, density=0.6):
    labels = np.where(rng.random(n_rows) < 0.5, -1.0, 1.0)
    features = np.zeros((n_rows, n_features))
    for row in features:
        cols = np.flatnonzero(rng.random(n_features) < density)
        row[cols] = rng.standard_normal(cols.size)
    return Dataset(labels=labels, features=features)


class TestParse:
    def test_basic_document(self):
        text = [
            "+1 1:0.5 3:-2.0",
            "-1 2:1.25",
        ]
        data = parse_libsvm(text)
        assert data.n_rows == 2
        assert data.n_features == 3
        np.testing.assert_array_equal(data.labels, [1.0, -1.0])
        np.testing.assert_allclose(
            data.features, [[0.5, 0.0, -2.0], [0.0, 1.25, 0.0]]
        )

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "toy.libsvm"
        path.write_text("1 1:2.0\n0 2:3.0\n")
        data = parse_libsvm(path)
        np.testing.assert_array_equal(data.labels, [1.0, -1.0])

    def test_label_policy_zero_one(self):
        data = parse_libsvm(["0 1:1.0", "1 1:2.0"])
        np.testing.assert_array_equal(data.labels, [-1.0, 1.0])

    def test_label_policy_one_two(self):
        data = parse_libsvm(["2 1:1.0", "1 1:2.0"])
        np.testing.assert_array_equal(data.labels, [1.0, -1.0])

    def test_label_policy_explicit_map(self):
        data = parse_libsvm(["7 1:1.0", "9 1:2.0"], label_map={7: -1, 9: 1})
        np.testing.assert_array_equal(data.labels, [-1.0, 1.0])

    def test_explicit_map_must_cover_all_labels(self):
        with pytest.raises(LibsvmFormatError):
            parse_libsvm(["7 1:1.0", "8 1:2.0"], label_map={7: -1})

    def test_explicit_map_must_hit_plus_minus_one(self):
        with pytest.raises(LibsvmFormatError):
            parse_libsvm(["7 1:1.0"], label_map={7: 3})

    def test_unknown_label_alphabet_is_rejected(self):
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm(["4 1:1.0", "5 1:2.0"])
        assert "label" in str(err.value)

    def test_malformed_label_reports_line_number(self):
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm(["+1 1:1.0", "spam 1:2.0"])
        assert "line 2" in str(err.value)

    def test_malformed_feature_reports_line_and_token(self):
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm(["+1 1:1.0 oops"])
        message = str(err.value)
        assert "line 1" in message and "oops" in message

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line_and_token(self, value):
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm(["+1 1:1.0", "", f"-1 1:2.0 3:{value}", "+1 2:nan"])
        message = str(err.value)
        assert "line 3, token 3" in message and f"3:{value}" in message

    def test_indices_must_be_one_based(self):
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm(["+1 0:1.0"])
        assert "1-based" in str(err.value)

    def test_indices_must_increase(self):
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm(["+1 2:1.0 2:2.0"])
        assert "increas" in str(err.value)

    def test_empty_document_is_rejected(self):
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm([])
        assert "no data rows" in str(err.value)

    def test_n_features_override(self):
        data = parse_libsvm(["+1 1:1.0"], n_features=5)
        assert data.n_features == 5
        with pytest.raises(ValueError):
            parse_libsvm(["+1 4:1.0"], n_features=3)

    def test_blank_lines_are_skipped(self):
        data = parse_libsvm(["+1 1:1.0", "", "-1 1:2.0", "   "])
        assert data.n_rows == 2


class TestRoundTrip:
    def test_emit_then_parse_is_identity(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            dataset = random_dataset(
                rng,
                n_rows=int(rng.integers(1, 12)),
                n_features=int(rng.integers(1, 9)),
            )
            covered = bool(dataset.features[:, -1].any())
            back = parse_libsvm(
                emit_libsvm(dataset).splitlines(),
                n_features=dataset.n_features,
            )
            assert back == dataset, f"trial {trial} (last column covered: {covered})"

    def test_emitted_text_shape(self):
        dataset = parse_libsvm(["+1 2:0.5"])
        text = emit_libsvm(dataset)
        assert text == "1 2:0.5\n"


class TestSplit:
    def test_partition_and_determinism(self):
        rng = np.random.default_rng(1)
        dataset = random_dataset(rng, 30, 5)
        train_a, test_a = train_test_split(dataset, 0.7, seed=9)
        train_b, test_b = train_test_split(dataset, 0.7, seed=9)
        assert train_a == train_b and test_a == test_b
        assert train_a.n_rows == 21 and test_a.n_rows == 9
        merged = np.sort(
            np.concatenate([train_a.features.sum(axis=1), test_a.features.sum(axis=1)])
        )
        np.testing.assert_allclose(
            merged, np.sort(dataset.features.sum(axis=1)), rtol=1e-12
        )

    def test_even_split_of_690(self):
        rng = np.random.default_rng(2)
        dataset = random_dataset(rng, 690, 3, density=0.9)
        train, test = train_test_split(dataset, 0.5, seed=0)
        assert {train.n_rows, test.n_rows} == {345}

    def test_rejects_degenerate_fractions(self):
        rng = np.random.default_rng(3)
        dataset = random_dataset(rng, 4, 2)
        with pytest.raises(ValueError):
            train_test_split(dataset, 0.0, seed=0)
        with pytest.raises(ValueError):
            train_test_split(dataset, 1.0, seed=0)


class TestStandardize:
    def test_train_statistics_and_inversion(self):
        rng = np.random.default_rng(4)
        train = random_dataset(rng, 40, 6, density=1.0).features
        test = random_dataset(rng, 10, 6, density=1.0).features
        train_out, test_out, transform = standardize(train, test)
        np.testing.assert_allclose(train_out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(train_out.std(axis=0), 1.0, rtol=1e-12)
        # test set transformed with train statistics, not its own
        np.testing.assert_allclose(
            test_out, (test - transform.shift) / transform.scale, rtol=1e-12
        )
        np.testing.assert_allclose(
            transform.invert(train_out), train, rtol=1e-12, atol=1e-12
        )

    def test_constant_columns_pass_through(self):
        dense = np.array([[1.0, 2.0, 0.0], [1.0, 4.0, 0.0], [1.0, 6.0, 0.0]])
        out, test_out, transform = standardize(dense)
        assert test_out is None
        np.testing.assert_array_equal(out[:, [0, 2]], dense[:, [0, 2]])
        np.testing.assert_array_equal(transform.shift, [0.0, 4.0, 0.0])
        np.testing.assert_array_equal(transform.scale[[0, 2]], [1.0, 1.0])

    def test_feature_count_mismatch_is_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            standardize(
                random_dataset(rng, 5, 3).features,
                random_dataset(rng, 5, 4).features,
            )


class TestDataset:
    def test_equality_is_content_based(self):
        rng = np.random.default_rng(7)
        a = random_dataset(rng, 6, 4)
        b = Dataset(labels=a.labels.copy(), features=a.features.copy())
        assert a == b
        b.features[0, 0] += 1.0
        assert a != b
