"""Log record format (Figure 3(a) of the paper).

Each record holds the undo and redo information of a single word update
plus: a torn bit, a 16-bit transaction ID, an 8-bit thread ID and the
48-bit physical address of the data.  We add a 2-bit record kind (BEGIN /
DATA / COMMIT) and two presence flags so that undo-only and redo-only
logs (the ``hw-rlog`` / ``hw-ulog`` / software baselines) reuse the same
format, and a magic byte so that never-written (zeroed) NVRAM decodes as
"no record".

Binary layout (little-endian, within a 32- or 64-byte log entry):

====== ====== ==============================================
offset size   field
====== ====== ==============================================
0      1      flags: bit0 torn, bits1-2 kind, bit3 has_undo,
              bit4 has_redo
1      2      transaction ID (16 bits)
3      1      thread ID (8 bits)
4      1      magic (0xA5)
5      1      value size (bytes)
6      1      checksum (XOR over all meaningful bytes)
7      1      reserved
8      6      physical address (48 bits)
14     2      reserved
16     8      undo value (old data word)
24     8      redo value (new data word)
====== ====== ==============================================

The checksum lets recovery reject a *torn* entry — one whose write was
in flight at the crash and only partially reached NVRAM — as the end of
the valid window (the role the paper assigns to consistent torn-bit
values over complete records).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import LogError

MAGIC = 0xA5
RESET_MAGIC = 0x3C
"""Magic byte of the *reset marker* written to slot 0 while the log is
being cleared after recovery.  Scanning treats a marker as "log empty",
which makes the multi-entry reset crash-safe: a crash mid-reset leaves
the marker in place, so a second recovery replays nothing instead of
replaying a partially zeroed (and therefore misleading) window."""
HEADER_BYTES = 32
"""Meaningful bytes of a record; the rest of the entry is padding."""


def _checksum(buf: bytes) -> int:
    """Position-sensitive rolling checksum over the meaningful bytes.

    A plain XOR would cancel on repeated-byte payloads (a zeroed tail of
    ``b"OO...O"`` keeps the XOR intact); the multiplicative roll makes
    every byte's position matter, so a torn tail is detected.
    """
    value = 0x5C
    for offset in range(min(len(buf), HEADER_BYTES)):
        if offset != 6:
            value = (value * 31 + buf[offset]) & 0xFF
    return value


class RecordKind(enum.IntEnum):
    """Record type stored in the flags byte."""

    INVALID = 0
    BEGIN = 1
    DATA = 2
    COMMIT = 3


class DecodeStatus(enum.Enum):
    """Why a log entry did or did not decode to a record.

    Recovery uses the distinction to place torn entries (in-flight writes
    partially applied at the crash) at the window boundary while merely
    *corrupt* entries elsewhere are skipped and counted, instead of
    silently truncating the valid window at the first bad slot.
    """

    OK = "ok"
    EMPTY = "empty"          # magic byte absent: never written (or wiped)
    CHECKSUM = "checksum"    # magic present but checksum mismatch: torn/corrupt
    CORRUPT = "corrupt"      # checksum fine but fields impossible (bad size/kind)
    RESET_MARKER = "reset"   # the crash-safe log-reset marker


def reset_marker(entry_size: int) -> bytes:
    """The reset-marker entry payload (all zeros except the magic)."""
    if entry_size < HEADER_BYTES:
        raise LogError(f"entry size {entry_size} below {HEADER_BYTES}")
    buf = bytearray(entry_size)
    buf[4] = RESET_MAGIC
    buf[6] = _checksum(buf)
    return bytes(buf)


@dataclass(frozen=True)
class LogRecord:
    """One decoded log record."""

    kind: RecordKind
    txid: int
    tid: int
    addr: int = 0
    undo: bytes = b""
    redo: bytes = b""
    torn: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.txid < (1 << 16):
            raise LogError(f"txid {self.txid} does not fit in 16 bits")
        if not 0 <= self.tid < (1 << 8):
            raise LogError(f"tid {self.tid} does not fit in 8 bits")
        if not 0 <= self.addr < (1 << 48):
            raise LogError(f"addr {self.addr:#x} does not fit in 48 bits")
        if len(self.undo) > 8 or len(self.redo) > 8:
            raise LogError("undo/redo values must be at most one word")
        if self.torn not in (0, 1):
            raise LogError("torn bit must be 0 or 1")

    @property
    def has_undo(self) -> bool:
        """True when the record carries an old (undo) value."""
        return len(self.undo) > 0

    @property
    def has_redo(self) -> bool:
        """True when the record carries a new (redo) value."""
        return len(self.redo) > 0

    @property
    def value_size(self) -> int:
        """Size in bytes of the logged word piece (0 for BEGIN/COMMIT)."""
        return max(len(self.undo), len(self.redo))

    def with_torn(self, torn: int) -> "LogRecord":
        """Return a copy with the torn bit set to ``torn``."""
        return LogRecord(
            self.kind, self.txid, self.tid, self.addr, self.undo, self.redo, torn
        )

    # ------------------------------------------------------------------
    # Binary encoding
    # ------------------------------------------------------------------
    def encode(self, entry_size: int) -> bytes:
        """Encode into an ``entry_size``-byte log entry."""
        if entry_size < HEADER_BYTES:
            raise LogError(f"entry size {entry_size} below {HEADER_BYTES}")
        flags = (
            (self.torn & 1)
            | (int(self.kind) << 1)
            | (int(self.has_undo) << 3)
            | (int(self.has_redo) << 4)
        )
        size = self.value_size
        buf = bytearray(entry_size)
        buf[0] = flags
        buf[1:3] = self.txid.to_bytes(2, "little")
        buf[3] = self.tid
        buf[4] = MAGIC
        buf[5] = size
        buf[8:14] = self.addr.to_bytes(6, "little")
        buf[16:16 + len(self.undo)] = self.undo
        buf[24:24 + len(self.redo)] = self.redo
        buf[6] = _checksum(buf)
        return bytes(buf)

    @classmethod
    def decode(cls, raw: bytes, verify_checksum: bool = True) -> "LogRecord | None":
        """Decode a log entry; returns None for never-written or torn
        (checksum-failing) entries.  ``verify_checksum=False`` decodes on
        the magic byte alone (the paper's bare torn-bit scheme, with no
        per-record integrity check)."""
        record, _status = cls.classify(raw, verify_checksum)
        return record

    @classmethod
    def classify(
        cls, raw: bytes, verify_checksum: bool = True
    ) -> "tuple[LogRecord | None, DecodeStatus]":
        """Decode a log entry and report *why* when it does not decode.

        Returns ``(record, status)``; ``record`` is None unless ``status``
        is :attr:`DecodeStatus.OK`.
        """
        if len(raw) < HEADER_BYTES:
            raise LogError(f"log entry of {len(raw)} bytes is too short")
        if raw[4] != MAGIC:
            if raw[4] == RESET_MAGIC:
                return None, DecodeStatus.RESET_MARKER
            return None, DecodeStatus.EMPTY
        if verify_checksum and _checksum(raw[:HEADER_BYTES]) != raw[6]:
            return None, DecodeStatus.CHECKSUM
        flags = raw[0]
        kind = RecordKind((flags >> 1) & 0x3)
        if kind == RecordKind.INVALID:
            return None, DecodeStatus.CORRUPT
        size = raw[5]
        if size > 8:
            return None, DecodeStatus.CORRUPT
        undo = bytes(raw[16:16 + size]) if flags & 0x8 else b""
        redo = bytes(raw[24:24 + size]) if flags & 0x10 else b""
        record = cls(
            kind=kind,
            txid=int.from_bytes(raw[1:3], "little"),
            tid=raw[3],
            addr=int.from_bytes(raw[8:14], "little"),
            undo=undo,
            redo=redo,
            torn=flags & 1,
        )
        return record, DecodeStatus.OK
