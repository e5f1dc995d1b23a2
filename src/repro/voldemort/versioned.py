"""Versioned values: a payload plus its vector clock.

Also the one binary codec for a keyed ``Versioned`` — the record body
the log-structured engine and the slop store both frame through
:mod:`repro.common.wal` (little-endian)::

    [key_len : 4B][key]
    [clock_count : 2B][(node_id : 8B, counter : 8B) * count]
    [flags : 1B]                # bit 0: tombstone
    [value_len : 4B][value]
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.common.vectorclock import Occurred, VectorClock

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")
_CLOCK_ENTRY = struct.Struct("<QQ")
_FLAG_TOMBSTONE = 0x01


@dataclass(frozen=True)
class Versioned:
    """An immutable (value, vector clock) pair.

    ``value`` is opaque bytes at the storage layer; richer types live in
    the client's serializers.  A ``None`` value is a tombstone.
    """

    value: bytes | None
    clock: VectorClock

    def dominates(self, other: "Versioned") -> bool:
        return self.clock.compare(other.clock) is Occurred.AFTER

    def concurrent_with(self, other: "Versioned") -> bool:
        return self.clock.concurrent_with(other.clock)

    @property
    def is_tombstone(self) -> bool:
        return self.value is None

    @staticmethod
    def initial(value: bytes, node_id: int) -> "Versioned":
        """First write of a key, attributed to ``node_id``."""
        return Versioned(value, VectorClock().incremented(node_id))

    def next_version(self, value: bytes | None, node_id: int) -> "Versioned":
        """A successor version written at ``node_id``."""
        return Versioned(value, self.clock.incremented(node_id))


def encode_versioned(key: bytes, versioned: Versioned) -> bytes:
    """One record body: key, sorted clock entries, tombstone flag, value."""
    value = versioned.value if versioned.value is not None else b""
    entries = sorted(versioned.clock.entries.items())
    body = bytearray(_U32.pack(len(key)))
    body.extend(key)
    body.extend(_U16.pack(len(entries)))
    for node, counter in entries:
        body.extend(_CLOCK_ENTRY.pack(node, counter))
    body.append(_FLAG_TOMBSTONE if versioned.is_tombstone else 0)
    body.extend(_U32.pack(len(value)))
    body.extend(value)
    return bytes(body)


def decode_versioned(body: bytes) -> tuple[bytes, Versioned]:
    """Inverse of :func:`encode_versioned`."""
    (key_len,) = _U32.unpack_from(body, 0)
    offset = _U32.size
    key = body[offset:offset + key_len]
    offset += key_len
    (count,) = _U16.unpack_from(body, offset)
    offset += _U16.size
    entries = {}
    for _ in range(count):
        node, counter = _CLOCK_ENTRY.unpack_from(body, offset)
        offset += _CLOCK_ENTRY.size
        entries[node] = counter
    flags = body[offset]
    offset += 1
    (value_len,) = _U32.unpack_from(body, offset)
    offset += _U32.size
    if flags & _FLAG_TOMBSTONE:
        return key, Versioned(None, VectorClock(entries))
    return key, Versioned(bytes(body[offset:offset + value_len]),
                          VectorClock(entries))
