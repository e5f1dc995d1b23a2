"""Kafka message framing and compression (§V.A, §V.B).

"A message is defined to contain just a payload of bytes."  On the
wire and on disk each message is

    [length : 4B][crc32 : 4B][attributes : 1B][payload]

where ``length`` counts crc + attributes + payload.  A *message set* is
a concatenation of framed messages; producers send sets ("the producer
can send a set of messages in a single publish request") and the broker
appends the set verbatim — which is what makes the produce path cheap.

Compression (§V.B): "each producer can compress a set of messages and
send it to the broker.  The compressed data is stored in the broker and
is eventually delivered to the consumer, where it is uncompressed."  A
compressed set is one wrapper message whose attributes mark gzip and
whose payload is the deflated inner message set.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterator

from repro.common.errors import ChecksumError, SerializationError

_HEADER = struct.Struct("<II")   # length, crc
ATTR_NONE = 0x00
ATTR_GZIP = 0x01
FRAME_OVERHEAD = _HEADER.size + 1  # + attributes byte


@dataclass(frozen=True)
class Message:
    """An immutable payload (plus compression attribute)."""

    payload: bytes
    attributes: int = ATTR_NONE

    def encode(self) -> bytes:
        body = bytes([self.attributes]) + self.payload
        return _HEADER.pack(len(body), zlib.crc32(body)) + body

    @property
    def wire_size(self) -> int:
        return FRAME_OVERHEAD + len(self.payload)

    @property
    def is_compressed(self) -> bool:
        return bool(self.attributes & ATTR_GZIP)


@dataclass(frozen=True)
class MessageAndOffset:
    """A decoded message plus the offset of the *next* message —
    what a consumer checkpoints after processing this one."""

    message: Message
    next_offset: int


class MessageSet:
    """A batch of messages serialized back-to-back."""

    def __init__(self, messages: list[Message] | None = None):
        self.messages = list(messages or [])

    def append(self, message: Message) -> None:
        self.messages.append(message)

    def encode(self) -> bytes:
        return b"".join(m.encode() for m in self.messages)

    @property
    def wire_size(self) -> int:
        return sum(m.wire_size for m in self.messages)

    def __len__(self) -> int:
        return len(self.messages)

    @classmethod
    def compressed(cls, messages: list[Message], level: int = 6) -> "MessageSet":
        """Wrap ``messages`` into a single gzip wrapper message."""
        inner = cls(messages).encode()
        deflated = zlib.compress(inner, level)
        return cls([Message(deflated, attributes=ATTR_GZIP)])


def iter_messages(data: bytes, base_offset: int = 0
                  ) -> Iterator[MessageAndOffset]:
    """Decode a fetched byte range into consumable messages.

    Stops silently at a trailing partial frame (fetches read fixed byte
    ranges, so the tail may be cut mid-message — the consumer just
    re-fetches from the last complete offset).  Raises
    :class:`ChecksumError` on CRC mismatch of a complete frame.

    Compressed wrapper messages are expanded transparently; every
    message produced from one wrapper shares the wrapper's
    ``next_offset`` (the consumer can only checkpoint at wrapper
    granularity, exactly like early Kafka).
    """
    position = 0
    total = len(data)
    while position + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(data, position)
        if length < 1:
            raise SerializationError(f"invalid frame length {length}")
        end = position + _HEADER.size + length
        if end > total:
            return
        body = data[position + _HEADER.size:end]
        if zlib.crc32(body) != crc:
            raise ChecksumError(
                f"corrupt message at offset {base_offset + position}")
        message = Message(body[1:], attributes=body[0])
        next_offset = base_offset + end
        if message.is_compressed:
            inner = zlib.decompress(message.payload)
            for wrapped in iter_messages(inner, base_offset=0):
                yield MessageAndOffset(wrapped.message, next_offset)
        else:
            yield MessageAndOffset(message, next_offset)
        position = end


def scan_valid_bytes(data: bytes) -> int:
    """Length of the valid CRC-framed prefix of a segment's bytes.

    Walks the frames like :func:`iter_messages` but never raises: it
    stops at the first incomplete or CRC-corrupt frame — the recovery
    truncation point.  Everything past a bad frame is unreachable
    (frames are not self-synchronizing), exactly the WAL torn-tail rule.
    """
    position = 0
    total = len(data)
    while position + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(data, position)
        end = position + _HEADER.size + length
        if length < 1 or end > total:
            break
        if zlib.crc32(data[position + _HEADER.size:end]) != crc:
            break
        position = end
    return position
