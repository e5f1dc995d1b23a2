"""Log-structured on-disk engine — the BerkeleyDB JE stand-in.

The paper uses BDB-JE (itself a log-structured B-tree) for read-write
traffic (§II.B).  We reproduce the properties that matter to Voldemort:
durable writes via an append-only log, fast point reads via an
in-memory key index, crash recovery by log replay, CRC detection of
torn writes, and compaction that drops superseded versions.

On disk, ``data.log`` is a :class:`~repro.common.wal.WriteAheadLog`:
each record is one ``[crc32][len][payload]`` frame (see
:mod:`repro.common.wal`) whose payload is the keyed ``Versioned`` body
of :func:`repro.voldemort.versioned.encode_versioned`.

The in-memory index maps key -> list of (clock, offset, length,
tombstone) so the multi-version merge never touches disk; only value
reads do.
"""

from __future__ import annotations

import os
from typing import Iterator

from repro.common.errors import ChecksumError, KeyNotFoundError
from repro.common.vectorclock import VectorClock
from repro.common.wal import FRAME_OVERHEAD, WriteAheadLog, write_frames
from repro.simnet.disk import Disk, LocalDisk
from repro.voldemort.engines.base import StorageEngine
from repro.voldemort.versioned import (
    Versioned,
    decode_versioned,
    encode_versioned,
)


class _IndexEntry:
    __slots__ = ("clock", "offset", "length", "tombstone")

    def __init__(self, clock: VectorClock, offset: int, length: int,
                 tombstone: bool):
        self.clock = clock
        self.offset = offset
        self.length = length
        self.tombstone = tombstone


class LogStructuredEngine(StorageEngine):
    """Append-only log + in-memory index, with recovery and compaction."""

    name = "log-structured"
    LOG_NAME = "data.log"

    def __init__(self, directory: str, disk: Disk | None = None):
        self.directory = directory
        self.disk = disk if disk is not None else LocalDisk()
        self.disk.makedirs(directory)
        self._path = os.path.join(directory, self.LOG_NAME)
        self.torn_bytes_truncated = 0
        self._open_log()

    # -- recovery ---------------------------------------------------------

    def _open_log(self) -> None:
        """Open the log (the WAL truncates a torn tail) and rebuild the
        index from the frames its recovery scan found."""
        self._log = WriteAheadLog(self._path, disk=self.disk)
        self.torn_bytes_truncated += self._log.truncated_bytes
        self._index: dict[bytes, list[_IndexEntry]] = {}
        for offset, payload in self._log.recovered:
            key, versioned = decode_versioned(payload)
            self._index_put(key, versioned, offset,
                            FRAME_OVERHEAD + len(payload))
        self._log.recovered = []  # indexed: only offsets stay in memory

    def _index_put(self, key: bytes, versioned: Versioned, offset: int,
                   length: int) -> None:
        """Index update during recovery: apply merge rules, but a stale
        replayed record is skipped rather than raising (the log already
        accepted it once)."""
        existing = self._index.get(key, [])
        for entry in existing:
            if entry.clock.descends_from(versioned.clock):
                return  # record superseded later in the log
        survivors = [e for e in existing
                     if e.clock.concurrent_with(versioned.clock)]
        survivors.append(_IndexEntry(versioned.clock, offset, length,
                                     versioned.is_tombstone))
        self._index[key] = survivors

    # -- StorageEngine interface ------------------------------------------

    def get(self, key: bytes) -> list[Versioned]:
        entries = [e for e in self._index.get(key, []) if not e.tombstone]
        if not entries:
            raise KeyNotFoundError(repr(key))
        out = []
        for entry in entries:
            out.append(Versioned(self._read_value(key, entry), entry.clock))
        return out

    def _read_value(self, key: bytes, entry: _IndexEntry) -> bytes:
        stored_key, versioned = decode_versioned(self._log.read(entry.offset))
        if stored_key != key:
            raise ChecksumError(f"index pointed {key!r} at record for {stored_key!r}")
        return versioned.value or b""

    def put(self, key: bytes, versioned: Versioned) -> None:
        # enforce the version contract against the in-memory clocks first
        existing_versions = [Versioned(None, e.clock)
                             for e in self._index.get(key, [])]
        self.merge_version(existing_versions, versioned)  # raises if obsolete
        payload = encode_versioned(key, versioned)
        offset = self._log.append(payload)
        self._log.fsync()  # ack ⇒ fsync ⇒ recoverable (DESIGN.md §9)
        entry = _IndexEntry(versioned.clock, offset,
                            FRAME_OVERHEAD + len(payload),
                            versioned.is_tombstone)
        survivors = [e for e in self._index.get(key, [])
                     if e.clock.concurrent_with(versioned.clock)]
        survivors.append(entry)
        self._index[key] = survivors

    def record_span(self, key: bytes) -> tuple[int, int]:
        """(offset, length) of the newest live on-disk record for
        ``key`` — the targeting information a fault injector needs to
        corrupt one specific key's bytes (the CRC on the read path is
        what must catch the damage)."""
        entries = self._index.get(key)
        if not entries:
            raise KeyNotFoundError(repr(key))
        entry = entries[-1]
        return entry.offset, entry.length

    def keys(self) -> Iterator[bytes]:
        for key, entries in self._index.items():
            if any(not e.tombstone for e in entries):
                yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # -- maintenance ---------------------------------------------------------

    def log_size_bytes(self) -> int:
        return self._log.size_bytes

    def compact(self) -> int:
        """Rewrite only live versions; returns bytes reclaimed.

        A put may interleave with the fsync below; the compacted file
        would then be missing its record while the swap discards the
        index entry that points at it.  Snapshot the index up front and
        abort the swap if the live index moved while we were on disk —
        the next compaction picks the garbage up.
        """
        before = self.log_size_bytes()
        compact_path = self._path + ".compact"
        frozen = {key: tuple(entries) for key, entries in self._index.items()}
        write_frames(self.disk, compact_path, [
            encode_versioned(key, Versioned(self._read_value(key, entry),
                                            entry.clock))
            for key, entries in frozen.items()
            for entry in entries
            if not entry.tombstone  # compaction drops tombstones
        ])
        if {k: tuple(v) for k, v in self._index.items()} != frozen:
            self.disk.remove(compact_path)
            return 0
        self._log.close()
        self.disk.replace(compact_path, self._path)
        self._open_log()
        return before - self.log_size_bytes()

    def close(self) -> None:
        self._log.close()
