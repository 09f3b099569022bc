"""Core execution model.

Each core executes micro-ops in program order, charging a calibrated
latency per op.  The model is not cycle-accurate out-of-order; instead,
``*_exposed`` factors in :class:`~repro.sim.config.CoreConfig` express the
fraction of a miss latency the instruction window cannot hide.  This is
sufficient because the paper's results are relative across persistence
designs running identical workloads.

Per-core state relevant to persistence:

* ``pending_completion`` — the latest durability time of writes this core
  has posted via clwb or the WCB; ``sfence`` waits for it;
* a private write-combining buffer for uncacheable software log stores.

Each op is a scalar ``exec_*`` method taking plain arguments, the single
source of its timing/stat formulas.  :class:`~repro.txn.runtime.ThreadAPI`
calls them directly; :meth:`Core.execute` dispatches a
:class:`~repro.sim.microops.MicroOp` to them for unit tests.
"""

from __future__ import annotations

from typing import Optional

from ..errors import SimulationError
from .config import CoreConfig
from .energy import EnergyModel
from .hierarchy import CacheHierarchy
from .microops import CLWB, Compute, Fence, Load, LogStore, MicroOp, Store, TxBegin, TxCommit
from .stats import MachineStats
from .wcb import WriteCombiningBuffer


class Core:
    """One simulated core with a local clock and retired-instruction count."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        hierarchy: CacheHierarchy,
        wcb: WriteCombiningBuffer,
        stats: MachineStats,
        energy: EnergyModel,
        hwl=None,
    ) -> None:
        self.core_id = core_id
        self._config = config
        self._hierarchy = hierarchy
        self.wcb = wcb
        self._stats = stats
        self._energy = energy
        self._hwl = hwl
        self.time = 0.0
        self.instret = 0
        self.pending_completion = 0.0
        self.tracer = None
        """Optional tracer (set by the machine's ``tracer`` property);
        emits one ``store`` event per retired cacheable store."""

    # ------------------------------------------------------------------
    def execute(self, op: MicroOp) -> Optional[object]:
        """Execute one micro-op; returns load data or commit time if any."""
        if isinstance(op, Compute):
            return self.exec_compute(op.count)
        if isinstance(op, Load):
            return self.exec_load(op.addr, op.size)
        if isinstance(op, Store):
            return self.exec_store(op.addr, op.data, op.persistent, op.txid, op.tid)
        if isinstance(op, LogStore):
            return self.exec_logstore(op.addr, op.payload)
        if isinstance(op, CLWB):
            return self.exec_clwb(op.addr)
        if isinstance(op, Fence):
            return self.exec_fence()
        if isinstance(op, TxBegin):
            return self.exec_tx_begin(op.txid, op.tid, op.overhead_instrs)
        if isinstance(op, TxCommit):
            return self.exec_tx_commit(op.txid, op.tid, op.overhead_instrs)
        raise SimulationError(f"unknown micro-op {op!r}")

    # ------------------------------------------------------------------
    def _retire(self, count: int) -> None:
        self.instret += count
        self._stats.instructions += count
        self._energy.instructions(count)

    def exec_compute(self, count: int) -> None:
        """``count`` ALU/branch instructions."""
        self._retire(count)
        self.time += count * self._config.cpi_alu

    def exec_load(self, addr: int, size: int) -> bytes:
        """Cacheable read; returns the loaded bytes."""
        result = self._hierarchy.load(self.core_id, addr, size, self.time)
        self._retire(1)
        if result.level == "l1":
            charge = self._config.load_issue_cycles + 1.0
        else:
            extra = result.latency - self._hierarchy.l1_latency
            charge = self._config.load_issue_cycles + self._config.load_miss_exposed * extra
        self.time += charge
        return result.data

    def exec_load_fast(self, addr: int, line_addr: int) -> None:
        """Timing/stat-identical :meth:`exec_load` that skips materialising
        the loaded bytes (trace replay never consumes them).  ``line_addr``
        is the precomputed line base."""
        latency, l1_hit = self._hierarchy.load_fast(
            self.core_id, addr, self.time, line_addr
        )
        self._retire(1)
        if l1_hit:
            self.time += self._config.load_issue_cycles + 1.0
        else:
            extra = latency - self._hierarchy.l1_latency
            self.time += (
                self._config.load_issue_cycles + self._config.load_miss_exposed * extra
            )

    def exec_store(
        self, addr: int, data: bytes, persistent: bool = False, txid: int = 0, tid: int = 0
    ) -> None:
        """Cacheable write; persistent stores route through the HWL engine."""
        # Two-phase store: allocate the line and capture the old value
        # first; for persistent stores the HWL engine logs undo+redo
        # before the new value becomes visible to write-backs (so a
        # log-wrap force in between can never leak an unlogged value).
        result = self._hierarchy.store_prepare(self.core_id, addr, len(data), self.time)
        self._retire(1)
        charge = self._config.store_issue_cycles
        if result.level != "l1":
            extra = result.latency - self._hierarchy.l1_latency
            charge += self._config.store_miss_exposed * extra
        self.time += charge
        release = 0.0
        if persistent and self._hwl is not None:
            stall, release = self._hwl.on_store(
                self.core_id,
                txid,
                tid,
                addr,
                result.old_data,
                data,
                result.line_addr,
                self.time,
            )
            self.time += stall
        self._hierarchy.store_finish(self.core_id, addr, data, release)
        if self.tracer is not None:
            self.tracer.emit(
                self.time,
                "store",
                self.core_id,
                addr=addr,
                size=len(data),
                persistent=persistent,
                txid=txid if persistent else None,
                tid=tid if persistent else None,
                line=result.line_addr,
                old=result.old_data.hex(),
                new=data.hex(),
                release=release,
            )

    def exec_logstore(self, addr: int, payload: bytes) -> None:
        """Uncacheable software log-record store through the WCB."""
        self._retire(1)
        self.time += self._config.uncached_store_issue_cycles
        stall = self.wcb.push(addr, payload, self.time)
        self.time += stall
        self._stats.log_records += 1
        self._stats.log_bytes += len(payload)

    def exec_clwb(self, addr: int) -> None:
        """Force write-back of the line containing ``addr``."""
        self._retire(1)
        self.time += self._config.clwb_issue_cycles
        completion = self._hierarchy.clwb(self.core_id, addr, self.time)
        if completion is not None:
            self.pending_completion = max(self.pending_completion, completion)

    def exec_fence(self) -> None:
        """Wait for this core's posted writes to become durable (sfence)."""
        self._retire(1)
        self.time += self._config.fence_issue_cycles
        self.wcb.flush(self.time)
        self.pending_completion = max(self.pending_completion, self.wcb.last_completion)
        if self.pending_completion > self.time:
            self._stats.fence_stall_cycles += self.pending_completion - self.time
            self.time = self.pending_completion

    def exec_tx_begin(self, txid: int, tid: int, overhead_instrs: int) -> None:
        """Transaction begin (sets the txid special register)."""
        self._stats.transactions_started += 1
        if overhead_instrs:
            self._retire(overhead_instrs)
            self.time += overhead_instrs * self._config.cpi_alu
        if self._hwl is not None:
            self._hwl.on_tx_begin(txid, tid, self.time)

    def exec_tx_commit(self, txid: int, tid: int, overhead_instrs: int) -> Optional[float]:
        """Transaction commit; returns the HWL durability time, if any."""
        self._stats.transactions_committed += 1
        if overhead_instrs:
            self._retire(overhead_instrs)
            self.time += overhead_instrs * self._config.cpi_alu
        if self._hwl is not None:
            return self._hwl.on_tx_commit(txid, tid, self.time)
        return None
