"""Model-based check of SimDisk against a whole-file-copy reference.

The reference keeps, per file, the live bytes, the fsynced image and
the lowest offset written since the last fsync.  Its ``fsync`` copies
the whole file and its crash rebuilds the file from scratch; SimDisk
copies only the dirty range and patches in place.  After every step
both must agree on each file's bytes, its synced image, its at-risk
count, and the disk's ``bytes_lost``.
"""

import random

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.clock import SimClock
from repro.simnet.disk import SimDisk

SEED = 11
NODES = ("a", "b")
NAMES = ("f", "g")

nodes = st.sampled_from(NODES)
names = st.sampled_from(NAMES)
payloads = st.binary(min_size=1, max_size=12)
offsets = st.integers(0, 40)


class ModelFile:
    def __init__(self):
        self.data = b""
        self.synced = b""
        self.dirty = 0

    def mark_dirty(self, offset: int) -> None:
        self.dirty = min(self.dirty, offset)

    def write_at(self, offset: int, payload: bytes) -> None:
        self.mark_dirty(offset)
        data = self.data.ljust(offset, b"\x00")
        self.data = data[:offset] + payload + data[offset + len(payload):]

    def sync(self) -> None:
        self.synced = self.data
        self.dirty = len(self.data)

    @property
    def at_risk(self) -> int:
        return len(self.data) - self.dirty


class SimDiskModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.disk = SimDisk(clock=SimClock(), seed=SEED)
        self.rng = random.Random(SEED)   # mirrors the disk's fault draws
        self.files: dict[str, ModelFile] = {}
        self.bytes_lost = 0

    def _model(self, path: str) -> ModelFile:
        return self.files.setdefault(path, ModelFile())

    @rule(node=nodes, name=names, payload=payloads)
    def append(self, node, name, payload):
        path = f"{node}/{name}"
        self.disk.open(path, "ab").write(payload)
        model = self._model(path)
        model.write_at(len(model.data), payload)

    @rule(node=nodes, name=names, offset=offsets, payload=payloads)
    def seek_write(self, node, name, offset, payload):
        path = f"{node}/{name}"
        handle = self.disk.open(path, "rb+")
        handle.seek(offset)
        handle.write(payload)
        self._model(path).write_at(offset, payload)

    @rule(node=nodes, name=names, size=offsets)
    def truncate(self, node, name, size):
        path = f"{node}/{name}"
        self.disk.open(path, "rb+").truncate(size)
        model = self._model(path)
        model.data = model.data[:size]
        model.mark_dirty(size)

    @rule(node=nodes, name=names, payload=st.binary(max_size=12))
    def reopen_wb(self, node, name, payload):
        path = f"{node}/{name}"
        self.disk.open(path, "wb").write(payload)
        model = self._model(path)
        model.data = b""
        model.dirty = 0
        model.write_at(0, payload)

    @rule(node=nodes, name=names)
    def fsync(self, node, name):
        path = f"{node}/{name}"
        self.disk.open(path, "ab").fsync()
        self._model(path).sync()

    @rule(node=nodes, name=names, offset=st.none() | offsets,
          bit=st.none() | st.integers(0, 7))
    def flip_bit(self, node, name, offset, bit):
        path = f"{node}/{name}"
        model = self.files.get(path)
        if model is None or not model.data:
            return
        if offset is not None:
            offset %= len(model.data)
        got = self.disk.flip_bit(node, name, offset, bit)
        if offset is None:
            offset = self.rng.randrange(len(model.data))
        if bit is None:
            bit = self.rng.randrange(8)
        assert got == offset
        mask = 1 << bit
        data = bytearray(model.data)
        data[offset] ^= mask
        model.data = bytes(data)
        if offset < len(model.synced):
            synced = bytearray(model.synced)
            synced[offset] ^= mask
            model.synced = bytes(synced)

    @rule(node=nodes)
    def replace(self, node):
        src, dst = f"{node}/f", f"{node}/g"
        if src not in self.files:
            return
        self.disk.replace(src, dst)
        model = self.files.pop(src)
        model.sync()
        self.files[dst] = model

    @rule(node=nodes,
          torn=st.none() | st.tuples(st.none() | names,
                                     st.none() | st.integers(0, 20)))
    def crash(self, node, torn):
        if torn is not None:
            self.disk.arm_torn_write(node, *torn)
        lost = self.disk.crash_node(node)

        paths = sorted(p for p in self.files if p.startswith(node + "/"))
        target = keep_bytes = None
        if torn is not None:
            torn_name, keep_bytes = torn
            if torn_name is not None:
                target = f"{node}/{torn_name}"
            else:
                at_risk = [p for p in paths if self.files[p].at_risk > 0]
                if at_risk:
                    target = max(at_risk,
                                 key=lambda p: (self.files[p].at_risk, p))
        expected = 0
        for path in paths:
            model = self.files[path]
            start = model.dirty
            tail = model.data[start:]
            keep = b""
            if path == target and tail:
                cut = keep_bytes if keep_bytes is not None \
                    else self.rng.randrange(1, len(tail) + 1)
                keep = tail[:cut]
            synced = model.synced
            model.data = synced[:start] + keep + synced[start + len(keep):] \
                if keep else synced
            model.dirty = start if keep else len(synced)
            expected += len(tail) - len(keep)
        self.bytes_lost += expected
        assert lost == expected

    @invariant()
    def matches_model(self):
        assert sorted(self.disk._files) == sorted(self.files)
        for path, model in self.files.items():
            state = self.disk._files[path]
            assert bytes(state.data) == model.data, path
            assert bytes(state.synced) == model.synced, path
            assert state.unsynced_bytes == model.at_risk, path
        for node in NODES:
            assert self.disk.unsynced_bytes(node) == sum(
                m.at_risk for p, m in self.files.items()
                if p.startswith(node + "/"))
        assert self.disk.bytes_lost == self.bytes_lost


SimDiskModel.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None)
TestSimDiskModel = SimDiskModel.TestCase
