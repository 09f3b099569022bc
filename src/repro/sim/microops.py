"""Micro-op intermediate representation executed by :class:`~repro.sim.core.Core`.

Workloads emit *abstract* operations through the transaction runtime
(:mod:`repro.txn.runtime`); the per-policy expansion lowers them to these
micro-ops.  Hardware-logging policies lower a persistent write to a plain
:class:`Store` (the HWL engine reacts inside the cache hierarchy); software
policies insert :class:`Load`/:class:`LogStore`/:class:`CLWB`/:class:`Fence`
micro-ops explicitly, which is exactly the pipeline overhead the paper's
Figure 2 illustrates.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MicroOp:
    """Base class for all micro-ops (marker only)."""


@dataclass(frozen=True)
class Compute(MicroOp):
    """``count`` ALU/branch instructions with no memory access."""

    count: int


@dataclass(frozen=True)
class Load(MicroOp):
    """A cacheable read of ``size`` bytes at ``addr``."""

    addr: int
    size: int = 8


@dataclass(frozen=True)
class Store(MicroOp):
    """A cacheable write of ``data`` at ``addr``.

    ``persistent`` marks stores inside a persistent transaction; under
    hardware-logging policies the machine routes these through the HWL
    engine.  ``txid`` carries the owning transaction for log records.
    """

    addr: int
    data: bytes
    persistent: bool = False
    txid: int = 0
    tid: int = 0


@dataclass(frozen=True)
class LogStore(MicroOp):
    """An uncacheable software log-record store (goes through the WCB).

    ``addr`` is the placed location inside the circular log region and
    ``payload`` the encoded record; ``record_kind`` is informational for
    statistics.  Software logging issues one of these per logged word plus
    header/commit records (Figure 2(a) of the paper).
    """

    addr: int
    payload: bytes
    record_kind: str = "data"


@dataclass(frozen=True)
class CLWB(MicroOp):
    """Force write-back of the cache line containing ``addr`` (clwb)."""

    addr: int


@dataclass(frozen=True)
class Fence(MicroOp):
    """Wait until this core's previously posted writes are durable (sfence)."""


@dataclass(frozen=True)
class TxBegin(MicroOp):
    """Transaction begin: sets the txid special register."""

    txid: int
    tid: int = 0
    overhead_instrs: int = 0


@dataclass(frozen=True)
class TxCommit(MicroOp):
    """Transaction commit; under hardware logging it appends the commit
    record and returns its durability time (Section III-D, "free ride")."""

    txid: int
    tid: int = 0
    overhead_instrs: int = 0
