"""A CRC32-framed, length-prefixed write-ahead log on a :class:`Disk`.

Every durable component in the reproduction shares one record-log
format, so crash recovery has one set of semantics to reason about:

    [crc32 : 4B][length : 4B][payload]

``crc32`` covers the payload only.  Appends buffer in the (simulated or
real) page cache; :meth:`fsync` moves the durability line.  The repo's
durability contract — stated in DESIGN.md §9 and enforced by the
``durability-unsynced-ack`` lint rule — is *ack ⇒ fsync ⇒ recoverable*:
a component may only acknowledge a write after the WAL frame holding it
has been fsynced.

Recovery (run automatically when the log is opened) replays frames from
the start and **stops at the first bad frame** — a short header, a
length that overruns the file, or a CRC mismatch — then truncates the
torn tail and fsyncs the truncation, so a second crash cannot
resurrect the garbage.  Everything before the bad frame is intact by
construction; everything after it is unreachable (frames are not
self-synchronizing), which is exactly the torn-tail semantics of
Kafka's recovery scan and BDB-JE's log cleaner.

Files that are rewritten whole rather than appended to — compacted
logs and snapshots — go through :func:`write_frames`: the frames land
in a fresh temp file that is fsynced before the caller renames it into
place, so a crash leaves either the old file or the new one.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator

from repro.common.errors import ChecksumError, ConfigurationError
from repro.common.storage import Disk, LocalDisk

_FRAME = struct.Struct("<II")   # crc32(payload), payload length
FRAME_OVERHEAD = _FRAME.size


def frame(payload: bytes) -> bytes:
    """One encoded frame: header + payload."""
    return _FRAME.pack(zlib.crc32(payload), len(payload)) + payload


def scan_frames(data: bytes) -> tuple[list[tuple[int, bytes]], int]:
    """Parse ``data`` into ``(offset, payload)`` frames.

    Returns the valid frames and the byte offset where the first bad
    frame (or clean EOF) begins — the recovery truncation point.
    """
    frames: list[tuple[int, bytes]] = []
    position = 0
    total = len(data)
    while position + _FRAME.size <= total:
        crc, length = _FRAME.unpack_from(data, position)
        end = position + _FRAME.size + length
        if end > total:
            break  # torn tail: length overruns the file
        payload = data[position + _FRAME.size:end]
        if zlib.crc32(payload) != crc:
            break  # corrupt frame: stop, everything after is unreachable
        frames.append((position, payload))
        position = end
    return frames, position


def _makedirs_parent(disk: Disk, path: str) -> None:
    parent = path.rsplit("/", 1)[0] if "/" in path else ""
    if parent:
        disk.makedirs(parent)


def write_frames(disk: Disk, path: str, payloads: list[bytes]) -> list[int]:
    """Write ``payloads`` as frames to a fresh file at ``path`` and
    fsync it; returns each frame's offset.

    The file is opened ``"wb"``, so a leftover from an attempt that
    died before its rename is discarded, never appended to.  Callers
    ``disk.replace`` the file into place once this returns.
    """
    offsets = []
    position = 0
    for payload in payloads:
        offsets.append(position)
        position += FRAME_OVERHEAD + len(payload)
    _makedirs_parent(disk, path)
    with disk.open(path, "wb") as out:
        out.write(b"".join(map(frame, payloads)))
        out.fsync()
    return offsets


class WriteAheadLog:
    """Append / fsync / replay over one framed log file."""

    def __init__(self, path: str, disk: Disk | None = None):
        if not path:
            raise ConfigurationError("WAL needs a path")
        self.path = path
        if disk is None:
            disk = LocalDisk()
        self.disk = disk
        _makedirs_parent(disk, path)
        self.appends = 0
        self.fsyncs = 0
        self.recovered_frames = 0
        self.truncated_bytes = 0
        #: the ``(offset, payload)`` frames the opening scan found, for
        #: an owner that rebuilds an index from them without reading
        #: the file again; the owner drops the list once it is indexed
        self.recovered: list[tuple[int, bytes]] = []
        self._synced_end = 0
        self._end = 0
        self._file = self.disk.open(self.path, "ab+")
        self._recover()

    # -- recovery ---------------------------------------------------------

    def _recover(self) -> None:
        """Find the good end, truncate the torn tail, fsync the cut."""
        self._file.seek(0)
        data = self._file.read()
        frames, good_end = scan_frames(data)
        self.recovered = frames
        self.recovered_frames = len(frames)
        self.truncated_bytes = len(data) - good_end
        if self.truncated_bytes:
            self._file.truncate(good_end)
            self._file.fsync()
        self._end = good_end
        self._synced_end = good_end
        self._file.seek(0, 2)

    def replay(self) -> Iterator[bytes]:
        """Yield every durable payload in append order (re-read from
        disk, so a reopened log and a live one replay identically)."""
        reader = self.disk.open(self.path, "rb")
        try:
            frames, _ = scan_frames(reader.read())
        finally:
            reader.close()
        for _, payload in frames:
            yield payload

    def read(self, offset: int) -> bytes:
        """The payload of the frame at ``offset``, CRC-checked: raises
        :class:`ChecksumError` if the frame is corrupt or cut short."""
        self._file.seek(offset)
        header = self._file.read(FRAME_OVERHEAD)
        if len(header) == FRAME_OVERHEAD:
            crc, length = _FRAME.unpack(header)
            payload = self._file.read(length)
            if len(payload) == length and zlib.crc32(payload) == crc:
                return payload
        raise ChecksumError(f"corrupt frame at offset {offset} of {self.path}")

    # -- append path ------------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Stage one record; returns its byte offset.  NOT yet durable —
        callers must :meth:`fsync` before acknowledging."""
        offset = self._end
        self._file.write(frame(payload))
        self._end += FRAME_OVERHEAD + len(payload)
        self.appends += 1
        return offset

    def fsync(self) -> None:
        """Make every staged record crash-durable."""
        self._file.fsync()
        self._synced_end = self._end
        self.fsyncs += 1

    # -- introspection ----------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self._end

    @property
    def synced_bytes(self) -> int:
        return self._synced_end

    @property
    def unsynced_bytes(self) -> int:
        return self._end - self._synced_end

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()
