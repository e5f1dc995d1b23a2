"""WriteAheadLog: framing, torn-tail recovery, durability boundary."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ChecksumError
from repro.common.wal import (
    FRAME_OVERHEAD,
    WriteAheadLog,
    frame,
    scan_frames,
    write_frames,
)
from repro.simnet.disk import SimDisk


@pytest.fixture
def disk():
    return SimDisk(clock=SimClock(), seed=1)


class TestFraming:
    def test_scan_roundtrip(self):
        data = frame(b"one") + frame(b"two") + frame(b"")
        frames, good_end = scan_frames(data)
        assert [p for _, p in frames] == [b"one", b"two", b""]
        assert good_end == len(data)

    def test_scan_stops_at_corrupt_frame(self):
        good = frame(b"good")
        bad = bytearray(frame(b"bad!"))
        bad[-1] ^= 0xFF
        frames, good_end = scan_frames(good + bytes(bad) + frame(b"after"))
        assert [p for _, p in frames] == [b"good"]
        assert good_end == len(good)

    def test_scan_stops_at_overrun_length(self):
        good = frame(b"good")
        torn = frame(b"a-full-record")[:-5]
        frames, good_end = scan_frames(good + torn)
        assert [p for _, p in frames] == [b"good"]
        assert good_end == len(good)

    def test_scan_short_header(self):
        frames, good_end = scan_frames(b"\x01\x02")
        assert frames == []
        assert good_end == 0


class TestAppendReplay:
    def test_append_fsync_replay(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        offset_a = wal.append(b"alpha")
        offset_b = wal.append(b"beta")
        wal.fsync()
        assert offset_a == 0
        assert offset_b == FRAME_OVERHEAD + 5
        assert list(wal.replay()) == [b"alpha", b"beta"]

    def test_append_is_not_durable_until_fsync(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"acked")
        wal.fsync()
        wal.append(b"staged")
        assert wal.unsynced_bytes == FRAME_OVERHEAD + 6
        disk.crash_node("node")
        recovered = WriteAheadLog("node/x.wal", disk=disk)
        assert list(recovered.replay()) == [b"acked"]

    def test_reopen_resumes_appending(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"first")
        wal.fsync()
        wal.close()
        wal2 = WriteAheadLog("node/x.wal", disk=disk)
        assert wal2.recovered_frames == 1
        wal2.append(b"second")
        wal2.fsync()
        assert list(wal2.replay()) == [b"first", b"second"]


class TestRecovery:
    def test_torn_tail_truncated(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"durable-record")
        wal.fsync()
        wal.append(b"torn-away-record")
        disk.arm_torn_write("node", path="x.wal", keep_bytes=6)
        disk.crash_node("node")

        recovered = WriteAheadLog("node/x.wal", disk=disk)
        assert recovered.recovered_frames == 1
        assert recovered.truncated_bytes == 6
        assert list(recovered.replay()) == [b"durable-record"]

    def test_truncation_is_fsynced(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"keep")
        wal.fsync()
        wal.append(b"lose")
        disk.arm_torn_write("node", path="x.wal", keep_bytes=2)
        disk.crash_node("node")
        WriteAheadLog("node/x.wal", disk=disk)  # truncates + fsyncs the cut
        # a second crash must not resurrect the torn garbage
        disk.crash_node("node")
        again = WriteAheadLog("node/x.wal", disk=disk)
        assert list(again.replay()) == [b"keep"]
        assert again.truncated_bytes == 0

    def test_corrupt_middle_frame_cuts_everything_after(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"first")
        second_offset = wal.append(b"second")
        wal.append(b"third")
        wal.fsync()
        wal.close()
        # flip a payload byte of the middle record
        disk.flip_bit("node", "x.wal",
                      offset=second_offset + FRAME_OVERHEAD, bit=0)
        recovered = WriteAheadLog("node/x.wal", disk=disk)
        assert list(recovered.replay()) == [b"first"]
        assert recovered.truncated_bytes > 0

    def test_append_after_recovery_reuses_good_end(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"a")
        wal.fsync()
        wal.append(b"b")
        disk.crash_node("node")
        recovered = WriteAheadLog("node/x.wal", disk=disk)
        offset = recovered.append(b"c")
        recovered.fsync()
        assert offset == FRAME_OVERHEAD + 1
        assert list(recovered.replay()) == [b"a", b"c"]


class TestRead:
    def test_read_returns_payload_at_offset(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"first")
        offset = wal.append(b"second")
        wal.fsync()
        assert wal.read(offset) == b"second"
        wal.append(b"third")  # reads do not disturb the append position
        assert list(wal.replay()) == [b"first", b"second", b"third"]

    def test_read_raises_on_flipped_bit(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"first")
        offset = wal.append(b"second")
        wal.fsync()
        disk.flip_bit("node", "x.wal", offset=offset + FRAME_OVERHEAD + 2,
                      bit=3)
        with pytest.raises(ChecksumError):
            wal.read(offset)
        assert wal.read(0) == b"first"

    def test_recovery_keeps_the_scanned_frames(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        offsets = [wal.append(p) for p in (b"a", b"bb", b"ccc")]
        wal.fsync()
        reopened = WriteAheadLog("node/x.wal", disk=disk)
        assert reopened.recovered == list(zip(offsets, [b"a", b"bb", b"ccc"]))


class TestWriteFrames:
    def test_offsets_match_scan(self, disk):
        payloads = [b"alpha", b"", b"gamma" * 10]
        offsets = write_frames(disk, "node/snap.tmp", payloads)
        with disk.open("node/snap.tmp", "rb") as f:
            frames, good_end = scan_frames(f.read())
        assert offsets == [offset for offset, _ in frames]
        assert [payload for _, payload in frames] == payloads
        assert good_end == disk.getsize("node/snap.tmp")

    def test_leftover_file_is_discarded(self, disk):
        # a synced leftover from an attempt that died before its rename
        leftover = WriteAheadLog("node/snap.tmp", disk=disk)
        leftover.append(b"stale")
        leftover.fsync()
        leftover.close()
        write_frames(disk, "node/snap.tmp", [b"fresh"])
        with disk.open("node/snap.tmp", "rb") as f:
            frames, _ = scan_frames(f.read())
        assert [payload for _, payload in frames] == [b"fresh"]

    def test_file_survives_crash_right_after(self, disk):
        write_frames(disk, "node/snap.tmp", [b"one", b"two"])
        assert disk.crash_node("node") == 0
        with disk.open("node/snap.tmp", "rb") as f:
            frames, _ = scan_frames(f.read())
        assert [payload for _, payload in frames] == [b"one", b"two"]


class TestLocalDiskWal:
    def test_wal_on_real_filesystem(self, tmp_path):
        path = str(tmp_path / "logs" / "test.wal")
        wal = WriteAheadLog(path)
        wal.append(b"payload")
        wal.fsync()
        wal.close()
        reopened = WriteAheadLog(path)
        assert list(reopened.replay()) == [b"payload"]
        reopened.close()
