"""Compact versioned binary codec for inter-process artifacts.

Every hop in the data plane — shard payloads and results
(:mod:`repro.engine.sharding`), worker
configs and model snapshots (:mod:`repro.core.persistence`), and the
content-addressed result cache (:mod:`repro.engine.cache`) — ships
values encoded by this module instead of full pickles.  The format is a
self-describing msgpack-style tagged encoding over the JSON value
domain plus ``bytes``, with three properties pickle does not give us:

* **Versioned framing.**  Every payload starts with a 5-byte header
  (``ENCB`` magic + version byte).  A reader that meets a payload from
  a future codec version fails with a clean :class:`CodecError` naming
  both versions instead of misinterpreting bytes — the forward-compat
  contract that lets workers and coordinators be upgraded separately.
* **Typed failure.**  Truncated, corrupt, or alien payloads always
  raise :class:`CodecError` (never ``struct.error`` or a silently wrong
  value), so the quarantine machinery in :mod:`repro.core.resilience`
  can route a poisoned artifact to an auditable record (stage
  ``codec``) rather than crashing the run.
* **Compactness.**  Strings that repeat — attribute names, type labels,
  metric names — are emitted once and back-referenced (a 3-byte ref)
  afterwards, which roughly halves typical shard-result payloads
  relative to pickled object graphs.

Unlike pickle the format encodes *no* code references, so decoding
untrusted bytes can produce at worst a wrong value, never an arbitrary
object.  Exactness: ``float`` values travel as IEEE-754 binary64 and
round-trip bit-for-bit; ``int``/``float``/``bool`` types are preserved
distinctly; dict insertion order is preserved.  That is what pins rules
byte-identical across serial, sharded, and cached runs.

Wire format (one value after the header)::

    0x00-0x7f  positive fixint          0xc0  None
    0xe0-0xff  negative fixint          0xc2  False   0xc3  True
    0x80-0x8f  fixmap  (N pairs)        0xcb  float64 (big-endian)
    0x90-0x9f  fixarray (N items)       0xd0-0xd3  int8/16/32/64
    0xa0-0xbf  fixstr  (N utf-8 bytes)  0xd4  bigint (len32 + signed bytes)
    0xd9/da/db str  8/16/32-bit length  0xd7  strref (uint16 table index)
    0xc4/c5/c6 bytes 8/16/32-bit length
    0xdc/0xdd  array 16/32              0xde/0xdf  map 16/32

Map keys must be strings.  The string table is built identically by
encoder and decoder: every inline string of length >= 2 is appended (up
to 65536 entries), and later occurrences refer back by index.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, List, Tuple

MAGIC = b"ENCB"
CODEC_VERSION = 1
SUPPORTED_VERSIONS = (1,)

#: Header size in bytes: magic + one version byte.
HEADER_SIZE = len(MAGIC) + 1

#: Strings shorter than this are cheaper inline than via the table.
_MIN_REF_LEN = 2
#: Table capacity — a uint16 index; longer payloads keep encoding
#: inline past the cap (still correct, just less compact).
_MAX_TABLE = 0xFFFF


class CodecError(ValueError):
    """A payload could not be encoded or decoded.

    Carries a human-readable :attr:`reason`.  Subclasses
    :class:`ValueError` so broad artifact-loading handlers keep working;
    :func:`repro.core.resilience.classify_stage` maps it to the
    ``codec`` stage so per-image decode failures quarantine cleanly.
    """

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(f"codec error: {reason}")


_pack_f64 = struct.Struct(">d").pack
_pack_i16 = struct.Struct(">h").pack
_pack_i32 = struct.Struct(">i").pack
_pack_i64 = struct.Struct(">q").pack
_pack_u16 = struct.Struct(">H").pack
_pack_u32 = struct.Struct(">I").pack
_unpack_f64 = struct.Struct(">d").unpack_from
_unpack_i16 = struct.Struct(">h").unpack_from
_unpack_i32 = struct.Struct(">i").unpack_from
_unpack_i64 = struct.Struct(">q").unpack_from
_unpack_u16 = struct.Struct(">H").unpack_from
_unpack_u32 = struct.Struct(">I").unpack_from


def _encode_str(value: str, out: bytearray, table: dict) -> None:
    index = table.get(value)
    if index is not None:
        out.append(0xD7)
        out += _pack_u16(index)
        return
    raw = value.encode("utf-8")
    n = len(raw)
    if n < 32:
        out.append(0xA0 | n)
    elif n < 0x100:
        out.append(0xD9)
        out.append(n)
    elif n < 0x10000:
        out.append(0xDA)
        out += _pack_u16(n)
    elif n <= 0xFFFFFFFF:
        out.append(0xDB)
        out += _pack_u32(n)
    else:
        raise CodecError("string longer than 2**32-1 bytes")
    out += raw
    if len(value) >= _MIN_REF_LEN and len(table) < _MAX_TABLE:
        table[value] = len(table)


def _encode_int(value: int, out: bytearray) -> None:
    if 0 <= value <= 0x7F:
        out.append(value)
    elif -32 <= value < 0:
        out.append(value & 0xFF)
    elif -0x80 <= value <= 0x7F:
        out.append(0xD0)
        out.append(value & 0xFF)
    elif -0x8000 <= value <= 0x7FFF:
        out.append(0xD1)
        out += _pack_i16(value)
    elif -0x80000000 <= value <= 0x7FFFFFFF:
        out.append(0xD2)
        out += _pack_i32(value)
    elif -(2 ** 63) <= value <= 2 ** 63 - 1:
        out.append(0xD3)
        out += _pack_i64(value)
    else:
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        if len(raw) > 0xFFFFFFFF:
            raise CodecError("integer too large to encode")
        out.append(0xD4)
        out += _pack_u32(len(raw))
        out += raw


def _encode_value(value: Any, out: bytearray, table: dict) -> None:
    kind = type(value)
    if kind is str:
        _encode_str(value, out, table)
    elif kind is bool:
        out.append(0xC3 if value else 0xC2)
    elif kind is int:
        _encode_int(value, out)
    elif kind is dict:
        _encode_map(value, out, table)
    elif kind is list or kind is tuple:
        _encode_array(value, out, table)
    elif kind is float:
        out.append(0xCB)
        out += _pack_f64(value)
    elif value is None:
        out.append(0xC0)
    elif kind is bytes:
        _encode_bytes(value, out)
    # Subclass fallbacks (Counter, OrderedDict, namedtuple, bool-like):
    elif isinstance(value, bool):
        out.append(0xC3 if value else 0xC2)
    elif isinstance(value, int):
        _encode_int(value, out)
    elif isinstance(value, float):
        out.append(0xCB)
        out += _pack_f64(value)
    elif isinstance(value, str):
        _encode_str(value, out, table)
    elif isinstance(value, dict):
        _encode_map(value, out, table)
    elif isinstance(value, (list, tuple)):
        _encode_array(value, out, table)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        _encode_bytes(bytes(value), out)
    else:
        raise CodecError(f"unencodable type: {type(value).__name__}")


def _encode_map(value: dict, out: bytearray, table: dict) -> None:
    n = len(value)
    if n < 16:
        out.append(0x80 | n)
    elif n < 0x10000:
        out.append(0xDE)
        out += _pack_u16(n)
    elif n <= 0xFFFFFFFF:
        out.append(0xDF)
        out += _pack_u32(n)
    else:
        raise CodecError("map with more than 2**32-1 entries")
    for key, item in value.items():
        if not isinstance(key, str):
            raise CodecError(
                f"map keys must be strings, got {type(key).__name__}"
            )
        _encode_str(key, out, table)
        _encode_value(item, out, table)


def _encode_array(value, out: bytearray, table: dict) -> None:
    n = len(value)
    if n < 16:
        out.append(0x90 | n)
    elif n < 0x10000:
        out.append(0xDC)
        out += _pack_u16(n)
    elif n <= 0xFFFFFFFF:
        out.append(0xDD)
        out += _pack_u32(n)
    else:
        raise CodecError("array with more than 2**32-1 items")
    for item in value:
        _encode_value(item, out, table)


def _encode_bytes(value: bytes, out: bytearray) -> None:
    n = len(value)
    if n < 0x100:
        out.append(0xC4)
        out.append(n)
    elif n < 0x10000:
        out.append(0xC5)
        out += _pack_u16(n)
    elif n <= 0xFFFFFFFF:
        out.append(0xC6)
        out += _pack_u32(n)
    else:
        raise CodecError("bytes longer than 2**32-1")
    out += value


def encode(value: Any) -> bytes:
    """Encode *value* (JSON domain + bytes) as a framed binary payload."""
    out = bytearray(MAGIC)
    out.append(CODEC_VERSION)
    _encode_value(value, out, {})
    return bytes(out)


def _decode_value(data, pos: int, table: List[str]) -> Tuple[Any, int]:
    try:
        tag = data[pos]
    except IndexError:
        raise CodecError("truncated payload (value tag missing)") from None
    pos += 1
    if tag <= 0x7F:
        return tag, pos
    if tag >= 0xE0:
        return tag - 0x100, pos
    high = tag & 0xF0
    if high == 0xA0 or high == 0xB0:  # fixstr
        return _decode_str(data, pos, tag & 0x1F, table)
    if high == 0x80:  # fixmap
        return _decode_map(data, pos, tag & 0x0F, table)
    if high == 0x90:  # fixarray
        return _decode_array(data, pos, tag & 0x0F, table)
    try:
        if tag == 0xD7:  # strref
            (index,) = _unpack_u16(data, pos)
            try:
                return table[index], pos + 2
            except IndexError:
                raise CodecError(
                    f"string back-reference {index} out of range"
                ) from None
        if tag == 0xC0:
            return None, pos
        if tag == 0xC2:
            return False, pos
        if tag == 0xC3:
            return True, pos
        if tag == 0xCB:
            return _unpack_f64(data, pos)[0], pos + 8
        if tag == 0xD0:
            value = data[pos]
            return (value - 0x100 if value > 0x7F else value), pos + 1
        if tag == 0xD1:
            return _unpack_i16(data, pos)[0], pos + 2
        if tag == 0xD2:
            return _unpack_i32(data, pos)[0], pos + 4
        if tag == 0xD3:
            return _unpack_i64(data, pos)[0], pos + 8
        if tag == 0xD4:
            (n,) = _unpack_u32(data, pos)
            pos += 4
            raw = bytes(data[pos:pos + n])
            if len(raw) != n:
                raise CodecError("truncated payload (bigint body)")
            return int.from_bytes(raw, "big", signed=True), pos + n
        if tag == 0xD9:
            return _decode_str(data, pos + 1, data[pos], table)
        if tag == 0xDA:
            return _decode_str(data, pos + 2, _unpack_u16(data, pos)[0], table)
        if tag == 0xDB:
            return _decode_str(data, pos + 4, _unpack_u32(data, pos)[0], table)
        if tag == 0xC4:
            n = data[pos]
            pos += 1
            return _decode_bytes(data, pos, n)
        if tag == 0xC5:
            (n,) = _unpack_u16(data, pos)
            return _decode_bytes(data, pos + 2, n)
        if tag == 0xC6:
            (n,) = _unpack_u32(data, pos)
            return _decode_bytes(data, pos + 4, n)
        if tag == 0xDC:
            return _decode_array(data, pos + 2, _unpack_u16(data, pos)[0], table)
        if tag == 0xDD:
            return _decode_array(data, pos + 4, _unpack_u32(data, pos)[0], table)
        if tag == 0xDE:
            return _decode_map(data, pos + 2, _unpack_u16(data, pos)[0], table)
        if tag == 0xDF:
            return _decode_map(data, pos + 4, _unpack_u32(data, pos)[0], table)
    except (struct.error, IndexError):
        raise CodecError("truncated payload") from None
    raise CodecError(f"unknown tag byte 0x{tag:02x}")


def _decode_str(data, pos: int, n: int, table: List[str]) -> Tuple[str, int]:
    raw = bytes(data[pos:pos + n])
    if len(raw) != n:
        raise CodecError("truncated payload (string body)")
    try:
        value = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid utf-8 in string ({exc})") from None
    if len(value) >= _MIN_REF_LEN and len(table) < _MAX_TABLE:
        table.append(value)
    return value, pos + n


def _decode_bytes(data, pos: int, n: int) -> Tuple[bytes, int]:
    raw = bytes(data[pos:pos + n])
    if len(raw) != n:
        raise CodecError("truncated payload (bytes body)")
    return raw, pos + n


def _decode_map(data, pos: int, n: int, table: List[str]) -> Tuple[dict, int]:
    out = {}
    for _ in range(n):
        key, pos = _decode_value(data, pos, table)
        if not isinstance(key, str):
            raise CodecError(
                f"map key decoded to {type(key).__name__}, expected str"
            )
        out[key], pos = _decode_value(data, pos, table)
    return out, pos


def _decode_array(data, pos: int, n: int, table: List[str]) -> Tuple[list, int]:
    out = []
    append = out.append
    for _ in range(n):
        value, pos = _decode_value(data, pos, table)
        append(value)
    return out, pos


def decode(data: bytes) -> Any:
    """Decode one framed payload produced by :func:`encode`.

    Raises :class:`CodecError` on a bad magic, an unsupported (e.g.
    future) version, truncation, unknown tags, or trailing bytes.
    """
    if len(data) < HEADER_SIZE:
        raise CodecError(
            f"payload too short for header ({len(data)} < {HEADER_SIZE} bytes)"
        )
    if bytes(data[:len(MAGIC)]) != MAGIC:
        raise CodecError(f"bad magic {bytes(data[:len(MAGIC)])!r}")
    version = data[len(MAGIC)]
    if version not in SUPPORTED_VERSIONS:
        raise CodecError(
            f"unsupported codec version {version} (this reader supports "
            f"{', '.join(str(v) for v in SUPPORTED_VERSIONS)}); "
            "upgrade the reader or re-encode the artifact"
        )
    value, pos = _decode_value(data, HEADER_SIZE, [])
    if pos != len(data):
        raise CodecError(
            f"{len(data) - pos} trailing byte(s) after payload"
        )
    return value


def is_encoded(data: bytes) -> bool:
    """Does *data* start with this codec's frame header?"""
    return len(data) >= HEADER_SIZE and bytes(data[:len(MAGIC)]) == MAGIC


def digest(data: bytes) -> str:
    """SHA-256 hex digest of an encoded payload — the content address
    the result cache and the worker-side artifact caches key on."""
    return hashlib.sha256(data).hexdigest()
