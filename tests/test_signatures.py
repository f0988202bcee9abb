"""Tests for feature signatures and ML export formats (Section 4.1)."""

import pytest

from repro.errors import SchemaError
from repro.sql.signatures import (FeatureSignature, MulticlassLabeler,
                                  SignatureKind, SignatureSchema,
                                  feature_hash, to_libsvm, to_tfrecords)


@pytest.fixture
def schema():
    return SignatureSchema([
        FeatureSignature("label", SignatureKind.LABEL),
        FeatureSignature("price", SignatureKind.CONTINUOUS),
        FeatureSignature("item", SignatureKind.DISCRETE, dimensions=1000),
    ])


class TestFeatureHash:
    def test_stable(self):
        assert feature_hash("c", "v", 100) == feature_hash("c", "v", 100)

    def test_column_name_participates(self):
        assert feature_hash("a", "v", 10 ** 9) \
            != feature_hash("b", "v", 10 ** 9)

    def test_within_bounds(self):
        for value in range(100):
            assert 0 <= feature_hash("c", value, 37) < 37


class TestSignatureSchema:
    def test_dimension_layout(self, schema):
        # 1 continuous + 1000 discrete slots.
        assert schema.total_dimensions == 1001

    def test_encode_row(self, schema):
        sparse = schema.encode_row((1.0, 9.5, "shoes"))
        assert sparse[0] == 9.5  # continuous at its base index
        discrete = [index for index in sparse if index >= 1]
        assert len(discrete) == 1
        assert 1 <= discrete[0] < 1001

    def test_nulls_skipped(self, schema):
        sparse = schema.encode_row((1.0, None, None))
        assert sparse == {}

    def test_repeated_discrete_values_accumulate(self):
        schema = SignatureSchema([
            FeatureSignature("a", SignatureKind.DISCRETE, dimensions=10),
            FeatureSignature("b", SignatureKind.DISCRETE, dimensions=10),
        ])
        # Same value in both columns can collide; counts then add up.
        sparse = schema.encode_row(("x", "x"))
        assert sum(sparse.values()) == 2.0

    def test_arity_checked(self, schema):
        with pytest.raises(SchemaError):
            schema.encode_row((1.0,))

    def test_two_labels_rejected(self):
        with pytest.raises(SchemaError):
            SignatureSchema([
                FeatureSignature("l1", SignatureKind.LABEL),
                FeatureSignature("l2", SignatureKind.LABEL),
            ])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            SignatureSchema([])


class TestMulticlassLabeler:
    def test_dense_ids_in_first_seen_order(self):
        labeler = MulticlassLabeler()
        assert labeler.label("cat") == 0
        assert labeler.label("dog") == 1
        assert labeler.label("cat") == 0
        assert [labeler.label(value) for value in ("bird", "dog")] \
            == [2, 1]


class TestLibSVM:
    def test_lines_sorted_and_labelled(self, schema):
        lines = list(to_libsvm([(1.0, 2.5, "shoes")], schema))
        assert len(lines) == 1
        label, *features = lines[0].split()
        assert label == "1"
        indices = [int(feature.split(":")[0]) for feature in features]
        assert indices == sorted(indices)

    def test_multiclass_labeler_applied(self, schema):
        labeler = MulticlassLabeler()
        lines = list(to_libsvm(
            [("spam", 1.0, "a"), ("ham", 1.0, "b"), ("spam", 1.0, "c")],
            schema, labeler))
        labels = [line.split()[0] for line in lines]
        assert labels == ["0", "1", "0"]

    def test_no_label_column_defaults_zero(self):
        schema = SignatureSchema([
            FeatureSignature("v", SignatureKind.CONTINUOUS)])
        lines = list(to_libsvm([(3.0,)], schema))
        assert lines[0] == "0 0:3"


class TestTFRecords:
    def test_record_shape(self, schema):
        records = list(to_tfrecords([(2.0, 1.5, "bag")], schema))
        record = records[0]
        assert record["label"] == 2.0
        assert record["dense_shape"] == 1001
        assert len(record["indices"]) == len(record["values"]) == 2
        assert record["indices"] == sorted(record["indices"])
