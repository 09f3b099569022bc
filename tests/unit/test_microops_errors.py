"""Tests for the micro-op IR, error hierarchy, and torn-entry handling."""

import pytest

from repro.core.logrecord import LogRecord, RecordKind
from repro.errors import (
    AddressError,
    ConfigError,
    LogError,
    RecoveryError,
    ReproError,
    SimulationError,
    TransactionError,
    WorkloadError,
)
from repro.sim.microops import (
    CLWB,
    Compute,
    Fence,
    Load,
    LogStore,
    MicroOp,
    Store,
    TxBegin,
    TxCommit,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigError,
            AddressError,
            LogError,
            TransactionError,
            RecoveryError,
            SimulationError,
            WorkloadError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")


class TestMicroOps:
    def test_all_are_microops(self):
        ops = [
            Compute(1),
            Load(0, 8),
            Store(0, b"x"),
            LogStore(0, b"x"),
            CLWB(0),
            Fence(),
            TxBegin(txid=1),
            TxCommit(txid=1),
        ]
        for op in ops:
            assert isinstance(op, MicroOp)

    def test_frozen(self):
        op = Load(0x100, 8)
        with pytest.raises(AttributeError):
            op.addr = 0x200

    def test_store_defaults(self):
        op = Store(0x100, b"data")
        assert not op.persistent
        assert op.txid == 0 and op.tid == 0

    def test_tx_commit_defaults(self):
        op = TxCommit(txid=5)
        assert op.tid == 0 and op.overhead_instrs == 0

    def test_load_default_word(self):
        assert Load(0).size == 8


class TestTornEntries:
    """Recovery must reject partially-written (torn) log entries."""

    def _entry(self):
        return LogRecord(
            RecordKind.DATA, 1, 0, 0x100, b"O" * 8, b"N" * 8, torn=1
        ).encode(64)

    def test_intact_entry_decodes(self):
        assert LogRecord.decode(self._entry()) is not None

    @pytest.mark.parametrize("torn_at", [5, 8, 12, 20, 28])
    def test_partial_entry_rejected(self, torn_at):
        """An entry whose tail bytes never arrived fails its checksum."""
        raw = bytearray(self._entry())
        raw[torn_at:32] = bytes(32 - torn_at)
        if raw[4] == 0xA5:  # magic survived: checksum must catch it
            assert LogRecord.decode(bytes(raw)) is None

    def test_single_bitflip_rejected(self):
        raw = bytearray(self._entry())
        raw[16] ^= 0x01  # flip a bit in the undo value
        assert LogRecord.decode(bytes(raw)) is None

    def test_torn_entry_ends_recovery_window(self):
        from repro.core.nvlog import CircularLog
        from repro.core.recovery import RecoveryManager
        from repro.sim.config import NVDimmConfig
        from repro.sim.nvram import NVRAM

        nvram = NVRAM(NVDimmConfig(size_bytes=1024 * 1024))
        log = CircularLog(0x8000, 8, 64)
        for kind in (RecordKind.BEGIN, RecordKind.DATA, RecordKind.COMMIT):
            placed = log.place(
                LogRecord(kind, 1, 0, 0x100 if kind == RecordKind.DATA else 0,
                          b"O" * 8 if kind == RecordKind.DATA else b"",
                          b"N" * 8 if kind == RecordKind.DATA else b"")
            )
            nvram.poke(placed.addr, placed.payload)
        # A fourth entry arrives torn: its header landed but its undo and
        # redo values (bytes 16-31) did not.
        placed = log.place(
            LogRecord(RecordKind.DATA, 2, 0, 0x200, b"U" * 8, b"R" * 8)
        )
        nvram.poke(placed.addr, placed.payload[:12])
        window = RecoveryManager(nvram, log).scan_window()
        assert len(window) == 3  # the torn record is not part of the window
        assert window[-1].kind == RecordKind.COMMIT