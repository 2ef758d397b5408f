"""Dataset containers and the CSV / npy / embeddings formats."""
import csv
import dataclasses
import json

import numpy as np
import pytest

from zslada.data import (
    ClassAttributeTable,
    FeatureDataset,
    SplitSpec,
    export_embeddings,
    load_dataset,
    save_dataset,
    write_csv,
)
from zslada.errors import DataError, UnknownClass


def _tiny_bundle(rng, labeled=True, n_classes=4, n_seen=3, d=5, attr_dim=3,
                 rows_per_class=3):
    ids = list(range(n_classes))
    table = ClassAttributeTable(
        attributes=rng.standard_normal((n_classes, attr_dim)),
        class_ids=ids,
        seen_mask=np.array([i < n_seen for i in ids]),
    )
    features = rng.standard_normal((n_classes * rows_per_class, d))
    labels = np.repeat(ids, rows_per_class) if labeled else None
    train = [i for i, c in enumerate(np.repeat(ids, rows_per_class)) if c < n_seen]
    test = [i for i, c in enumerate(np.repeat(ids, rows_per_class)) if c >= n_seen]
    split = SplitSpec(seen_class_ids=ids[:n_seen], unseen_class_ids=ids[n_seen:],
                      train_row_indices=train, test_row_indices=test)
    data = FeatureDataset(features=features, labels=labels, split=split,
                          provenance="unit fixture")
    return data, table


def test_split_spec_validation():
    with pytest.raises(DataError) as err:
        SplitSpec([0, 1], [1, 2], [], [])
    assert err.value.code == "SPLIT_OVERLAP"
    with pytest.raises(DataError) as err:
        SplitSpec([0, 0], [1], [], [])
    assert err.value.code == "DUPLICATE_CLASS"
    with pytest.raises(DataError) as err:
        SplitSpec.from_dict({"seen": [0], "unseen": [1]})
    assert err.value.code == "BAD_VALUE"
    assert "test_rows" in str(err.value)

    spec = SplitSpec([0, 1], [2], [0, 1], [2])
    assert SplitSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("key, what", [("seen", "seen class list"),
                                       ("unseen", "unseen class list"),
                                       ("train_rows", "train rows"),
                                       ("test_rows", "test rows")])
@pytest.mark.parametrize("flag", [True, False, np.True_, 1.0])
def test_split_lists_refuse_booleans(key, what, flag):
    # an integer is not a bool or a float, as in the settings codec
    payload = {"seen": [0, 1], "unseen": [2], "train_rows": [0, 1], "test_rows": [2]}
    payload[key] = [*payload[key], flag]
    with pytest.raises(DataError) as err:
        SplitSpec.from_dict(payload)
    assert err.value.code == "BAD_VALUE"
    assert f"{what} contains non-integer {flag!r}" in str(err.value)


def test_attribute_table_validation():
    with pytest.raises(DataError) as err:
        ClassAttributeTable(np.zeros((2, 3)), [5, 5], np.array([True, False]))
    assert err.value.code == "DUPLICATE_CLASS"
    with pytest.raises(DataError) as err:
        ClassAttributeTable(np.zeros((2, 3)), [0, 1], np.array([False, False]))
    assert err.value.code == "EMPTY_CLASS_SET"
    with pytest.raises(DataError) as err:
        ClassAttributeTable(np.zeros((2, 3)), [0, 1, 2], np.array([True, False]))
    assert err.value.code == "BAD_VALUE"

    table = ClassAttributeTable(np.eye(3), [7, 8, 9], np.array([True, True, False]))
    assert table.seen_ids == [7, 8]
    assert table.unseen_ids == [9]
    assert table.row_of(8) == 1
    with pytest.raises(UnknownClass):
        table.row_of(10)


def test_table_hash_tracks_content():
    table = ClassAttributeTable(np.eye(3), [0, 1, 2], np.array([True, True, False]))
    same = ClassAttributeTable(np.eye(3), [0, 1, 2], np.array([True, True, False]))
    assert table.table_hash() == same.table_hash()
    bumped = ClassAttributeTable(np.eye(3) + 1e-12, [0, 1, 2],
                                 np.array([True, True, False]))
    assert table.table_hash() != bumped.table_hash()


def test_dataset_validation_errors():
    split = SplitSpec([0], [1], [0, 1], [2])
    with pytest.raises(DataError) as err:
        FeatureDataset(np.zeros((2, 3)), None, split)
    assert err.value.code == "BAD_INDEX"

    split = SplitSpec([0], [1], [0, 0], [])
    with pytest.raises(DataError) as err:
        FeatureDataset(np.zeros((2, 3)), None, split)
    assert err.value.code == "BAD_INDEX"

    split = SplitSpec([0], [1], [0], [1])
    with pytest.raises(DataError) as err:
        FeatureDataset(np.zeros((2, 3)), np.array([0, 7]), split)
    assert err.value.code == "UNKNOWN_CLASS"

    # test rows may only carry unseen labels (or -1)
    with pytest.raises(DataError) as err:
        FeatureDataset(np.zeros((2, 3)), np.array([0, 0]), split)
    assert err.value.code == "UNKNOWN_CLASS"
    FeatureDataset(np.zeros((2, 3)), np.array([0, -1]), split)


def test_contiguous_test_rows_are_read_only_views():
    data, _ = _tiny_bundle(np.random.default_rng(4))
    X, y = data.test_rows()  # the last class's rows: one ascending run
    idx = data.split.test_row_indices
    assert np.shares_memory(X, data.features) and np.shares_memory(y, data.labels)
    assert not X.flags.writeable and not y.flags.writeable
    assert np.array_equal(X, data.features[idx]) and np.array_equal(y, data.labels[idx])
    assert data.features.flags.writeable

    # the same rows out of order, or with a gap, are copied as before
    for rows in (idx[::-1], idx[:1] + idx[2:]):
        split = dataclasses.replace(data.split, test_row_indices=rows)
        other = FeatureDataset(features=data.features, labels=data.labels, split=split)
        X2, y2 = other.test_rows()
        assert not np.shares_memory(X2, data.features) and X2.flags.writeable
        assert np.array_equal(X2, data.features[rows]) and np.array_equal(y2, data.labels[rows])


@pytest.mark.parametrize("binary", [False, True])
def test_round_trip_is_bitwise(tmp_path, binary):
    data, table = _tiny_bundle(np.random.default_rng(5))
    # a negative zero and the smallest subnormal keep their bits as well
    data.features[0, :2] = table.attributes[1, :2] = [-0.0, 5e-324]
    save_dataset(tmp_path, data, table, binary=binary)
    bundle = load_dataset(tmp_path)
    loaded, loaded_table = bundle.dataset, bundle.attributes

    assert loaded.features.tobytes() == data.features.tobytes()
    assert np.array_equal(loaded.labels, data.labels)
    assert loaded.split == data.split
    assert loaded.provenance == data.provenance
    assert loaded_table.table_hash() == table.table_hash()
    assert loaded_table.class_ids == table.class_ids
    assert loaded_table.seen_ids == table.seen_ids


@pytest.mark.parametrize("first", [False, True])
def test_a_directory_holds_one_copy_of_each_matrix(tmp_path, first):
    # zeros saved in one format, then ones in the other, load back as ones
    data, table = _tiny_bundle(np.random.default_rng(6))
    for binary, value in ((first, 0.0), (not first, 1.0)):
        data.features[:] = table.attributes[:] = value
        save_dataset(tmp_path, data, table, binary=binary)
    bundle = load_dataset(tmp_path)
    assert np.all(bundle.dataset.features == 1.0) and np.all(bundle.attributes.attributes == 1.0)
    stale = "npy" if first else "csv"
    assert not any(tmp_path.glob(f"*.{stale}"))

    # a twin made by hand is refused, naming both copies
    save_dataset(tmp_path / "other", data, table, binary=first)
    twin = "features.npy" if first else "features.csv"
    (tmp_path / twin).write_bytes((tmp_path / "other" / twin).read_bytes())
    with pytest.raises(DataError) as err:
        load_dataset(tmp_path)
    assert err.value.code == "DUPLICATE_FILE"
    assert str(tmp_path / "features.csv") in str(err.value)
    assert str(tmp_path / "features.npy") in str(err.value)


def test_a_dataset_without_provenance_drops_the_old_record(tmp_path):
    data, table = _tiny_bundle(np.random.default_rng(6))
    save_dataset(tmp_path, dataclasses.replace(data, provenance="old run"), table)
    assert load_dataset(tmp_path).dataset.provenance == "old run"
    save_dataset(tmp_path, dataclasses.replace(data, provenance=""), table)
    assert load_dataset(tmp_path).dataset.provenance == ""
    assert not (tmp_path / "provenance.txt").exists()


@pytest.mark.parametrize("cell, text", [
    (-0.0, "-0.0"), (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    (5e-324, "5e-324"), (1e300, "1e+300"), (np.float64(0.1), "0.1"), (np.int64(7), "7"),
    (-3, "-3"), (None, "NA"), ("real", "real"),
    (np.array([-0.0, 5e-324, 0.1]), "-0.0,5e-324,0.1"),
])
def test_write_csv_spells_each_cell_by_one_rule(tmp_path, cell, text):
    path = write_csv(tmp_path / "cells.csv", ["id", "cell"], [(1, cell)])
    assert path.read_text() == f"id,cell\n1,{text}\n"


def test_no_silent_row_reordering(tmp_path):
    # rows deliberately not grouped by class
    split = SplitSpec([3], [9], [0, 2], [1])
    features = np.array([[10.0], [20.0], [30.0]])
    labels = np.array([3, 9, 3])
    table = ClassAttributeTable(np.zeros((2, 2)), [3, 9], np.array([True, False]))
    data = FeatureDataset(features, labels, split)
    save_dataset(tmp_path, data, table)
    loaded = load_dataset(tmp_path).dataset
    assert np.array_equal(loaded.features, features)
    assert np.array_equal(loaded.labels, labels)


def test_csv_headers_and_split_keys(tmp_path):
    data, table = _tiny_bundle(np.random.default_rng(0), d=4, attr_dim=2)
    save_dataset(tmp_path, data, table)
    assert (tmp_path / "features.csv").read_text().splitlines()[0] == \
        "label,f0,f1,f2,f3"
    assert (tmp_path / "attributes.csv").read_text().splitlines()[0] == \
        "class_id,a0,a1"
    split_doc = json.loads((tmp_path / "split.json").read_text())
    assert set(split_doc) == {"seen", "unseen", "train_rows", "test_rows"}


def test_unlabeled_round_trip(tmp_path):
    data, table = _tiny_bundle(np.random.default_rng(2), labeled=False)
    save_dataset(tmp_path, data, table)
    loaded = load_dataset(tmp_path).dataset
    assert loaded.labels is None


def test_benchmark_scale_table_validates():
    # typical animal-attribute benchmark shape: 40 seen + 10 unseen
    # classes with 85 attributes each
    rng = np.random.default_rng(1)
    ids = list(range(50))
    table = ClassAttributeTable(rng.standard_normal((50, 85)), ids,
                                np.array([i < 40 for i in ids]))
    assert len(table.seen_ids) == 40
    assert len(table.unseen_ids) == 10
    assert table.attr_dim == 85
    split = SplitSpec(ids[:40], ids[40:], list(range(80)), list(range(80, 100)))
    features = rng.standard_normal((100, 16))
    labels = np.concatenate([np.repeat(ids[:40], 2), np.repeat(ids[40:], 2)])
    FeatureDataset(features, labels, split).validate()


def test_load_errors_have_distinct_codes(tmp_path):
    with pytest.raises(DataError) as err:
        load_dataset(tmp_path / "nowhere")
    assert err.value.code == "MISSING_FILE"

    data, table = _tiny_bundle(np.random.default_rng(3))
    save_dataset(tmp_path, data, table)

    (tmp_path / "features.csv").unlink()
    with pytest.raises(DataError) as err:
        load_dataset(tmp_path)
    assert err.value.code == "MISSING_FILE"

    save_dataset(tmp_path, data, table)
    lines = (tmp_path / "features.csv").read_text().splitlines()
    lines[2] = lines[2] + ",0.0"
    (tmp_path / "features.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        load_dataset(tmp_path)
    assert err.value.code == "RAGGED_ROWS"

    save_dataset(tmp_path, data, table)
    lines = (tmp_path / "features.csv").read_text().splitlines()
    lines[0] = lines[0].replace("label", "y")
    (tmp_path / "features.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        load_dataset(tmp_path)
    assert err.value.code == "BAD_HEADER"

    save_dataset(tmp_path, data, table)
    lines = (tmp_path / "features.csv").read_text().splitlines()
    lines[1] = lines[1].replace(lines[1].split(",")[1], "not-a-number")
    (tmp_path / "features.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        load_dataset(tmp_path)
    assert err.value.code == "BAD_VALUE"

    save_dataset(tmp_path, data, table)
    doc = json.loads((tmp_path / "split.json").read_text())
    doc["unseen"].append(777)
    (tmp_path / "split.json").write_text(json.dumps(doc))
    with pytest.raises(DataError) as err:
        load_dataset(tmp_path)
    assert err.value.code == "UNKNOWN_CLASS"

    (tmp_path / "split.json").write_text("{not json")
    with pytest.raises(DataError) as err:
        load_dataset(tmp_path)
    assert err.value.code == "BAD_VALUE"


def test_export_embeddings_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    mats = {
        "real": rng.standard_normal((3, 4)),
        "generated": rng.standard_normal((2, 4)),
        "transformed": rng.standard_normal((1, 4)),
    }
    labs = {"real": [8, 9, 8], "generated": [9, 9], "transformed": [8]}
    path = export_embeddings(mats, labs, tmp_path / "emb.csv")

    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["f0", "f1", "f2", "f3", "label", "origin"]
    feats = np.asarray([[float(v) for v in row[:4]] for row in rows])
    stacked = np.vstack([mats["real"], mats["generated"], mats["transformed"]])
    assert feats.tobytes() == stacked.tobytes()
    assert [int(row[4]) for row in rows] == [8, 9, 8, 9, 9, 8]
    assert [row[5] for row in rows] == ["real"] * 3 + ["generated"] * 2 + ["transformed"]


def test_export_embeddings_validation(tmp_path):
    ok = np.zeros((1, 2))
    with pytest.raises(DataError) as err:
        export_embeddings({"fake": ok}, {"fake": [0]}, tmp_path / "e.csv")
    assert "origin tag" in str(err.value)
    with pytest.raises(DataError):
        export_embeddings({"real": ok}, {"real": [0, 1]}, tmp_path / "e.csv")
    with pytest.raises(DataError):
        export_embeddings({"real": ok, "generated": np.zeros((1, 3))},
                          {"real": [0], "generated": [0]}, tmp_path / "e.csv")
    with pytest.raises(DataError):
        export_embeddings({"real": ok}, {"generated": [0]}, tmp_path / "e.csv")
