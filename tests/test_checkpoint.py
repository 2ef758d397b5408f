"""Checkpoint container format."""
import json

import numpy as np
import pytest

from zslada.ada import load_ada_state
from zslada.base_model import load_base_model
from zslada.errors import DataError
from zslada.nn.checkpoint import FORMAT_VERSION, load_container, save_container

from .helpers import toy_table


def test_container_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    arrays = {
        "a": rng.standard_normal(17),
        "b": rng.standard_normal((4, 5)),
        "empty": np.zeros(0),
    }
    meta = {"kind": "test", "note": "x"}
    path = tmp_path / "c.ckpt"
    save_container(path, meta, arrays)
    meta2, arrays2 = load_container(path)
    assert meta2 == meta
    assert set(arrays2) == set(arrays)
    for name in arrays:
        assert arrays2[name].tobytes() == np.asarray(
            arrays[name], dtype=np.float64).ravel().tobytes()


def test_save_is_deterministic(tmp_path):
    arrays = {"w": np.arange(6, dtype=np.float64)}
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    save_container(p1, {"kind": "t"}, arrays)
    save_container(p2, {"kind": "t"}, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_missing_file(tmp_path):
    with pytest.raises(DataError) as err:
        load_container(tmp_path / "nope.ckpt")
    assert err.value.code == "MISSING_FILE"


def test_bad_version(tmp_path):
    path = tmp_path / "c.ckpt"
    header = {"format_version": FORMAT_VERSION + 1, "meta": {}, "arrays": []}
    path.write_bytes(json.dumps(header).encode() + b"\n")
    with pytest.raises(DataError) as err:
        load_container(path)
    assert err.value.code == "BAD_CHECKPOINT"
    assert "format_version" in str(err.value)


def test_unreadable_header(tmp_path):
    path = tmp_path / "c.ckpt"
    path.write_bytes(b"\xff\xfe not json\n")
    with pytest.raises(DataError) as err:
        load_container(path)
    assert err.value.code == "BAD_CHECKPOINT"


@pytest.mark.parametrize("header", [
    b'[1, 2]',
    b'{"format_version": 1, "meta": [], "arrays": [["a", 1]]}',
    b'{"format_version": 1, "meta": {}, "arrays": [["a", -1]]}',
    b'{"format_version": 1, "meta": {}, "arrays": [[7, 1]]}',
], ids=["header-not-an-object", "meta-not-an-object", "negative-length", "name-not-a-string"])
def test_a_malformed_header_is_refused_naming_the_path(tmp_path, header):
    path = tmp_path / "c.ckpt"
    path.write_bytes(header + b"\n" + b"\x00" * 8)
    with pytest.raises(DataError) as err:
        load_container(path)
    assert err.value.code == "BAD_CHECKPOINT"
    assert str(path) in str(err.value)


def test_truncated_array(tmp_path):
    path = tmp_path / "c.ckpt"
    save_container(path, {"kind": "t"}, {"w": np.arange(8, dtype=np.float64)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(DataError) as err:
        load_container(path)
    assert err.value.code == "BAD_CHECKPOINT"
    assert "truncated" in str(err.value)


def test_trailing_bytes(tmp_path):
    path = tmp_path / "c.ckpt"
    save_container(path, {"kind": "t"}, {"w": np.arange(8, dtype=np.float64)})
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(DataError) as err:
        load_container(path)
    assert err.value.code == "BAD_CHECKPOINT"
    assert "trailing" in str(err.value)


def test_loaders_reject_other_kinds(tmp_path):
    path = tmp_path / "c.ckpt"
    loaders = {"base_model": lambda: load_base_model(path, toy_table()),
               "ada_state": lambda: load_ada_state(path)}
    for kind in ("mlp", "ada_state", "base_model"):
        save_container(path, {"kind": kind}, {"w": np.zeros(1)})
        for wanted, load in loaders.items():
            if wanted == kind:
                continue
            with pytest.raises(DataError) as err:
                load()
            assert err.value.code == "BAD_CHECKPOINT"
            assert repr(kind) in str(err.value)
