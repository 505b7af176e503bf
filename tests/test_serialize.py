"""Binary snapshot container: format details and round trips."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memfuse.errors import ParameterError
from memfuse.serialize import MAGIC, VERSION, dump_arrays, load_arrays, parse_arrays, save_arrays


def sample_arrays():
    rng = np.random.default_rng(3)
    return {
        "weights": rng.standard_normal((3, 4)),
        "bias": rng.standard_normal(4),
        "scalarish": np.array([42.0]),
    }


class TestFormat:
    def test_magic_and_version_header(self):
        blob = dump_arrays(sample_arrays())
        assert blob[:4] == MAGIC
        version, count = struct.unpack_from("<II", blob, 4)
        assert version == VERSION
        assert count == 3

    def test_little_endian_payload(self):
        blob = dump_arrays({"x": np.array([1.0])})
        # name header: len=1, 'x', ndim=1, shape=(1,)
        offset = 12 + 2 + 1 + 1 + 8
        (value,) = struct.unpack_from("<d", blob, offset)
        assert value == 1.0

    def test_deterministic_bytes(self):
        assert dump_arrays(sample_arrays()) == dump_arrays(sample_arrays())

    def test_entry_order_preserved(self):
        out = parse_arrays(dump_arrays(sample_arrays()))
        assert list(out) == ["weights", "bias", "scalarish"]


class TestRoundTrip:
    def test_values_exact(self):
        arrays = sample_arrays()
        out = parse_arrays(dump_arrays(arrays))
        for k in arrays:
            np.testing.assert_array_equal(out[k], arrays[k])
            assert out[k].dtype == np.float64

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "snap.bin"
        arrays = sample_arrays()
        save_arrays(path, arrays)
        out = load_arrays(path)
        for k in arrays:
            np.testing.assert_array_equal(out[k], arrays[k])

    def test_empty_container(self):
        assert parse_arrays(dump_arrays({})) == {}


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(ParameterError):
            parse_arrays(b"NOPE" + b"\x00" * 20)

    def test_truncated(self):
        blob = dump_arrays(sample_arrays())
        with pytest.raises(ParameterError):
            parse_arrays(blob[: len(blob) // 2])

    def test_trailing_garbage(self):
        blob = dump_arrays(sample_arrays()) + b"\x00"
        with pytest.raises(ParameterError):
            parse_arrays(blob)

    def test_wrong_version(self):
        blob = bytearray(dump_arrays(sample_arrays()))
        blob[4] = 9
        with pytest.raises(ParameterError):
            parse_arrays(bytes(blob))


# derandomized and without an example database, so every run draws the same cases
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)
VALID = dump_arrays(sample_arrays())


def parses_or_refuses(blob):
    """parse_arrays either returns float64 arrays or raises ParameterError."""
    try:
        out = parse_arrays(blob)
    except ParameterError:
        return None
    assert all(a.dtype == np.float64 for a in out.values())
    return out


class TestFuzz:
    def test_shape_of_two_to_the_63_is_refused(self):
        blob = bytearray(dump_arrays({"x": np.array([1.0])}))
        struct.pack_into("<Q", blob, 12 + 2 + 1 + 1, 2**63)
        with pytest.raises(ParameterError):
            parse_arrays(bytes(blob))

    @FUZZ
    @given(cut=st.integers(0, len(VALID) - 1))
    def test_any_truncation_is_refused(self, cut):
        with pytest.raises(ParameterError):
            parse_arrays(VALID[:cut])

    @FUZZ
    @given(dims=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3), tail=st.binary(max_size=64))
    def test_any_shape_field_is_parsed_or_refused(self, dims, tail):
        blob = MAGIC + struct.pack("<II", VERSION, 1) + struct.pack("<H", 1) + b"x"
        blob += struct.pack("<B", len(dims)) + struct.pack(f"<{len(dims)}Q", *dims) + tail
        out = parses_or_refuses(blob)
        if out is not None:
            assert out["x"].shape == tuple(dims)
            assert out["x"].tobytes() == tail

    @FUZZ
    @given(edits=st.lists(st.tuples(st.integers(0, len(VALID) - 1), st.integers(0, 255)), min_size=1, max_size=8))
    def test_any_corrupted_byte_is_parsed_or_refused(self, edits):
        blob = bytearray(VALID)
        for pos, value in edits:
            blob[pos] = value
        parses_or_refuses(bytes(blob))

    @FUZZ
    @given(count=st.integers(0, 2**32 - 1), body=st.binary(max_size=200))
    def test_any_body_after_a_valid_header_is_parsed_or_refused(self, count, body):
        parses_or_refuses(MAGIC + struct.pack("<II", VERSION, count) + body)

    @FUZZ
    @given(blob=st.binary(max_size=64))
    def test_any_bytes_are_parsed_or_refused(self, blob):
        parses_or_refuses(blob)
