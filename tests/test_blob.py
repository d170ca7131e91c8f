"""Parameter blob wire format: round trips, layout checks, malformed input."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_blob
from dfnas.blob import ParameterBlob, check_layout
from dfnas.errors import SerializationError


def test_round_trip_is_bit_exact():
    blob = make_blob(
        ("w", (2, 2), [[1.0, -2.5], [3.25, 1e-300]]),
        ("b", (2,), [0.0, -0.0]),
    )
    raw = blob.to_bytes()
    again = ParameterBlob.from_bytes(raw)
    assert again.to_bytes() == raw
    assert again.layout[0] == ("w", (2, 2))
    assert again.values.tobytes() == blob.values.tobytes()


def test_nbytes_matches_serialized_length():
    blob = make_blob(("stem.weight", (3, 1, 1, 1), np.arange(3.0)), ("x", (), [4.0]))
    assert blob.nbytes() == len(blob.to_bytes())


def test_bad_magic_rejected():
    raw = b"XXXX" + b"\x00" * 20
    with pytest.raises(SerializationError):
        ParameterBlob.from_bytes(raw)


def test_version_mismatch_rejected():
    blob = make_blob(("w", (1,), [1.0]))
    raw = bytearray(blob.to_bytes())
    raw[4] = 99
    with pytest.raises(SerializationError) as exc:
        ParameterBlob.from_bytes(bytes(raw))
    assert "99" in str(exc.value)


def test_truncation_reports_offset():
    blob = make_blob(("w", (4,), [1.0, 2.0, 3.0, 4.0]))
    raw = blob.to_bytes()
    with pytest.raises(SerializationError) as exc:
        ParameterBlob.from_bytes(raw[:-5])
    assert "truncated" in str(exc.value)


def test_trailing_bytes_rejected():
    blob = make_blob(("w", (1,), [1.0]))
    with pytest.raises(SerializationError):
        ParameterBlob.from_bytes(blob.to_bytes() + b"\x00")


def test_non_utf8_record_name_reports_offset():
    raw = bytearray(make_blob(("w", (1,), [1.0]), ("b", (1,), [2.0])).to_bytes())
    name_at = 12 + (2 + 1 + 1 + 4 + 8) + 2  # second record's name
    assert raw[name_at] == ord("b")
    raw[name_at] = 0xFF
    with pytest.raises(SerializationError) as exc:
        ParameterBlob.from_bytes(bytes(raw))
    assert f"byte {name_at}" in str(exc.value)


def test_non_finite_payload_names_first_bad_record():
    for bad in (np.nan, np.inf, -np.inf):
        blob = make_blob(("w", (2,), [1.0, 2.0]), ("b", (3,), [3.0, bad, 4.0]),
                         ("c", (1,), [bad]))
        with pytest.raises(SerializationError) as exc:
            ParameterBlob.from_bytes(blob.to_bytes())
        assert "'b'" in str(exc.value)


def test_layout_check_names_first_divergent_record():
    a = make_blob(("w", (1,), [1.0]), ("b", (1,), [2.0]))
    b = make_blob(("w", (1,), [1.0]), ("c", (1,), [2.0]))
    with pytest.raises(SerializationError) as exc:
        check_layout(a.layout, b)
    assert "'b'" in str(exc.value) and "'c'" in str(exc.value)

    c = make_blob(("w", (2,), [1.0, 2.0]))
    with pytest.raises(SerializationError) as exc:
        check_layout(make_blob(("w", (1,), [1.0])).layout, c)
    assert "'w'" in str(exc.value)

    w_only = make_blob(("w", (1,), [1.0]))
    with pytest.raises(SerializationError, match="missing record 'b'"):
        check_layout(a.layout, w_only)
    with pytest.raises(SerializationError, match="unexpected record 'b'"):
        check_layout(w_only.layout, a)


def test_record_name_over_the_u16_length_is_rejected():
    # 0x8000 characters, 0x10000 UTF-8 bytes: the limit counts bytes
    with pytest.raises(SerializationError, match="record name too long"):
        make_blob(("é" * 0x8000, (1,), [1.0])).to_bytes()


# --- properties over arbitrary valid blobs ---


@st.composite
def wire_blobs(draw) -> bytes:
    records = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.text(alphabet="ab.0é", max_size=6))
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        values = draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=int(np.prod(shape)), max_size=int(np.prod(shape)),
        ))
        records.append((name, shape, values))
    return make_blob(*records).to_bytes()


@settings(max_examples=200, deadline=None)
@given(wire_blobs(), st.data())
def test_any_truncation_is_rejected(raw, data):
    cut = data.draw(st.integers(0, len(raw) - 1))
    with pytest.raises(SerializationError):
        ParameterBlob.from_bytes(raw[:cut])


@settings(max_examples=300, deadline=None)
@given(wire_blobs(), st.data())
def test_single_byte_change_is_rejected_or_round_trips(raw, data):
    at = data.draw(st.integers(0, len(raw) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]))
    changed = raw[:at] + bytes([byte]) + raw[at + 1 :]
    try:
        blob = ParameterBlob.from_bytes(changed)
    except SerializationError:
        return
    assert blob.to_bytes() == changed
