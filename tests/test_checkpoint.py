"""Checkpoint format tests: round-trips, byte determinism, and corruption."""

import json
import struct

import numpy as np
import pytest

from ptrparse.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from ptrparse.errors import LoadError


def sample_params():
    return [
        ("weight", np.arange(6.0).reshape(2, 3)),
        ("bias", np.array([1.5, -2.5])),
        ("scalar", np.array(3.25)),
    ]


def test_roundtrip(tmp_path):
    path = tmp_path / "model.ptp"
    meta = {"task": "dep", "config": {"seed": 7}, "labels": ["a", "b"]}
    save_checkpoint(path, sample_params(), meta)
    params, got_meta = load_checkpoint(path)
    assert got_meta == meta
    assert list(params) == ["weight", "bias", "scalar"]
    for name, want in sample_params():
        assert params[name].shape == want.shape
        assert np.array_equal(params[name], want)
    assert params["scalar"].shape == ()


def test_roundtrip_preserves_dtype_as_float64(tmp_path):
    path = tmp_path / "model.ptp"
    save_checkpoint(path, [("w", np.array([1, 2], dtype=np.int64))], {})
    params, _ = load_checkpoint(path)
    assert params["w"].dtype == np.float64


def test_save_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.ptp", tmp_path / "b.ptp"
    meta = {"task": "rst", "zeta": 1, "alpha": 2}
    save_checkpoint(a, sample_params(), meta)
    save_checkpoint(b, sample_params(), meta)
    assert a.read_bytes() == b.read_bytes()


def test_meta_key_order_does_not_change_bytes(tmp_path):
    a, b = tmp_path / "a.ptp", tmp_path / "b.ptp"
    save_checkpoint(a, sample_params(), {"x": 1, "y": 2})
    save_checkpoint(b, sample_params(), {"y": 2, "x": 1})
    assert a.read_bytes() == b.read_bytes()


def test_file_starts_with_magic(tmp_path):
    path = tmp_path / "m.ptp"
    save_checkpoint(path, sample_params(), {})
    assert path.read_bytes().startswith(MAGIC)


def test_load_missing_file(tmp_path):
    with pytest.raises(LoadError):
        load_checkpoint(tmp_path / "absent.ptp")


def test_load_bad_magic(tmp_path):
    path = tmp_path / "bad.ptp"
    path.write_bytes(b"NOTAMODEL" + b"\x00" * 32)
    with pytest.raises(LoadError):
        load_checkpoint(path)


def test_load_truncated_header(tmp_path):
    path = tmp_path / "t.ptp"
    save_checkpoint(path, sample_params(), {})
    data = path.read_bytes()
    path.write_bytes(data[: len(MAGIC) + 4])
    with pytest.raises(LoadError):
        load_checkpoint(path)


def test_load_corrupt_header_json(tmp_path):
    path = tmp_path / "c.ptp"
    garbage = b"{not json"
    path.write_bytes(MAGIC + struct.pack("<Q", len(garbage)) + garbage)
    with pytest.raises(LoadError):
        load_checkpoint(path)


def test_load_unsupported_format_version(tmp_path):
    path = tmp_path / "v.ptp"
    header = json.dumps({"format": 99, "meta": {}, "params": []}).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header)
    with pytest.raises(LoadError):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [
    [1, 2],
    {"format": 1, "meta": {}},
    {"format": 1, "params": []},
    {"format": 1, "meta": [], "params": []},
    {"format": 1, "meta": {}, "params": [{"name": "w"}]},
    {"format": 1, "meta": {}, "params": [{"shape": [1]}]},
    {"format": 1, "meta": {}, "params": [{"name": "w", "shape": ["x"]}]},
])
def test_load_malformed_header_structure(tmp_path, header):
    # Valid JSON without the expected tables is a LoadError, not a raw
    # KeyError or AttributeError.
    path = tmp_path / "h.ptp"
    blob = json.dumps(header).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(LoadError):
        load_checkpoint(path)


def test_load_truncated_param_payload(tmp_path):
    path = tmp_path / "p.ptp"
    save_checkpoint(path, sample_params(), {})
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(LoadError):
        load_checkpoint(path)


def test_load_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "x.ptp"
    save_checkpoint(path, sample_params(), {})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(LoadError):
        load_checkpoint(path)


def test_empty_params(tmp_path):
    path = tmp_path / "e.ptp"
    save_checkpoint(path, [], {"note": "empty"})
    params, meta = load_checkpoint(path)
    assert params == {}
    assert meta == {"note": "empty"}
