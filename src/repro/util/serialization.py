"""Self-describing record codec for the MetaStore.

HAC persists per-directory state (query text, permanent/transient/prohibited
target sets, the global directory map) to disk; the paper charges that I/O to
the Makedir phase of the Andrew benchmark.  We serialise those records with a
tiny, dependency-free codec rather than pickle so that (a) the byte counts we
report in the space-overhead bench are honest and stable, and (b) records are
forward-readable in tests.

Supported values: ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
and ``list`` / ``dict`` (string keys) of the same.  The format is a one-byte
type tag followed by a big-endian length/value — deliberately boring.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

from repro.errors import CorruptRecord

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_LIST = b"L"
_TAG_DICT = b"M"


class SerializationError(ValueError):
    """Raised for unsupported values or corrupt byte streams."""


def dumps(value: Any) -> bytes:
    """Encode *value* to bytes."""
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def loads(data: bytes) -> Any:
    """Decode bytes produced by :func:`dumps`."""
    value, offset = _decode(data, 0)
    if offset != len(data):
        raise SerializationError(f"{len(data) - offset} trailing bytes")
    return value


def loads_record(key: str, raw: bytes, build=lambda obj: obj) -> Any:
    """*build* over record *raw* decoded; any decode, type or shape failure
    raises :class:`~repro.errors.CorruptRecord` naming *key*."""
    try:
        return build(loads(raw))
    except (ValueError, TypeError, KeyError, AttributeError,
            IndexError) as exc:     # SerializationError is a ValueError
        raise CorruptRecord(key, f"unreadable record: {exc}") from None


def _encode(value: Any, out: bytearray) -> None:
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
        out += _TAG_INT + struct.pack(">I", len(raw)) + raw
    elif isinstance(value, float):
        out += _TAG_FLOAT + struct.pack(">d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _TAG_STR + struct.pack(">I", len(raw)) + raw
    elif isinstance(value, (bytes, bytearray)):
        out += _TAG_BYTES + struct.pack(">I", len(value)) + bytes(value)
    elif isinstance(value, (list, tuple)):
        out += _TAG_LIST + struct.pack(">I", len(value))
        for item in value:
            _encode(item, out)
    elif isinstance(value, dict):
        out += _TAG_DICT + struct.pack(">I", len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(f"dict keys must be str, got {type(key).__name__}")
            _encode(key, out)
            _encode(item, out)
    else:
        raise SerializationError(f"unsupported type: {type(value).__name__}")


def _need(data: bytes, offset: int, count: int) -> None:
    if offset + count > len(data):
        raise SerializationError("truncated record")


def _decode(data: bytes, offset: int) -> Tuple[Any, int]:
    _need(data, offset, 1)
    tag = data[offset:offset + 1]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_FLOAT:
        _need(data, offset, 8)
        return struct.unpack(">d", data[offset:offset + 8])[0], offset + 8
    if tag in (_TAG_INT, _TAG_STR, _TAG_BYTES, _TAG_LIST, _TAG_DICT):
        _need(data, offset, 4)
        length = struct.unpack(">I", data[offset:offset + 4])[0]
        offset += 4
        if tag == _TAG_INT:
            _need(data, offset, length)
            raw = data[offset:offset + length]
            return int.from_bytes(raw, "big", signed=True), offset + length
        if tag == _TAG_STR:
            _need(data, offset, length)
            return data[offset:offset + length].decode("utf-8"), offset + length
        if tag == _TAG_BYTES:
            _need(data, offset, length)
            return bytes(data[offset:offset + length]), offset + length
        if tag == _TAG_LIST:
            items: List[Any] = []
            for _ in range(length):
                item, offset = _decode(data, offset)
                items.append(item)
            return items, offset
        mapping: Dict[str, Any] = {}
        for _ in range(length):
            key, offset = _decode(data, offset)
            if not isinstance(key, str):
                raise SerializationError("corrupt dict key")
            value, offset = _decode(data, offset)
            mapping[key] = value
        return mapping, offset
    raise SerializationError(f"unknown tag {tag!r} at offset {offset - 1}")
