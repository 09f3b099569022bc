"""WHISPER "exim" kernel: mail-spool churn over a PMFS-like layout.

Exim accepts a message (create a spool entry, append the body in
chunks), then a delivery pass removes it — a create/append/delete churn
over filesystem state.  Each accept transaction writes a spool-index
entry plus 2-6 body chunks; each delivery transaction tombstones the
entry and accounts the delivery.

60% accepts / 40% deliveries over a bounded spool (deliveries pick the
oldest live message), so spool occupancy stays bounded.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from ...txn.runtime import PersistentMemory, ThreadAPI
from ..base import SetupAccessor, Workload
from ..rng import thread_rng
from .base import MAX_PARTITIONS, AppendLog, ProbingTable

CHUNK = 128
HEADER_COMPUTE = 14  # envelope parsing per message


class EximKernel(Workload):
    """Mail-spool accept/deliver churn."""

    name = "exim"
    description = "Mail server: spool create/append/delete churn (WHISPER exim)."

    def __init__(
        self, seed: int = 42, value_kind: str = "int", spool_slots: int = 1024
    ) -> None:
        super().__init__(seed, value_kind)
        self.spool_slots = spool_slots
        self._index = ProbingTable(self, capacity=spool_slots * 2, value_size=16)
        self._bodies = AppendLog(self, entries=spool_slots * 8, entry_size=CHUNK)
        self._stats_base = 0  # per-partition delivered counter

    def setup(self, pm: PersistentMemory) -> None:
        """Empty spool; allocate the index, body region, and counters."""
        acc = SetupAccessor(pm)
        self._index.allocate(pm.heap)
        self._index.clear(acc)
        self._bodies.allocate(pm.heap)
        self._stats_base = pm.heap.alloc(MAX_PARTITIONS * 8)
        for part in range(MAX_PARTITIONS):
            acc.write_word(self._stats_base + part * 8, 0)

    def reset_run_state(self) -> None:
        """Rewind the append-log cursors (volatile per-run state)."""
        self._bodies.reset()

    def run_state(self) -> tuple:
        """Checkpoint the spool cursors (see ``Workload.run_state``)."""
        return self._bodies.snapshot()

    def restore_run_state(self, state: tuple) -> None:
        """Reinstate spool cursors captured by :meth:`run_state`."""
        self._bodies.restore(state)

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        """One accept (multi-chunk) or delivery transaction per iteration."""
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        live: deque = deque()
        next_id = 1
        for _txn in range(num_txns):
            deliver = live and (rng.random() < 0.4 or len(live) > 64)
            with api.transaction():
                api.compute(HEADER_COMPUTE)
                if deliver:
                    message = live.popleft()
                    self._index.remove(api, part, message)
                    delivered_addr = self._stats_base + part * 8
                    delivered = api.read_word(delivered_addr)
                    api.write_word(delivered_addr, delivered + 1)
                else:
                    message = next_id
                    next_id += 1
                    chunks = rng.randint(2, 6)
                    for seq in range(chunks):
                        body = message.to_bytes(8, "little") + seq.to_bytes(8, "little")
                        self._bodies.append(api, part, body + bytes(CHUNK - len(body)))
                    entry = message.to_bytes(8, "little") + chunks.to_bytes(8, "little")
                    self._index.put(api, part, message, entry)
                    live.append(message)
            yield

    def delivered_count(self, acc, part: int) -> int:
        """Persisted delivery counter (for tests)."""
        return acc.read_word(self._stats_base + part * 8)

    @property
    def index(self) -> ProbingTable:
        """Spool index (for tests)."""
        return self._index
