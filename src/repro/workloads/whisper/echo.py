"""WHISPER "echo" kernel: scalable KV store with a persist queue.

Echo batches client updates into per-worker persistent queues before
merging them into a master index.  Each transaction appends a record to
the thread's queue region and updates the index entry — small
transactions, one append plus one index write, with light computation.
"""

from __future__ import annotations

from typing import Iterator

from ...txn.runtime import PersistentMemory, ThreadAPI
from ..base import SetupAccessor, Workload
from ..rng import thread_rng
from ..rng import ZipfGenerator
from .base import MAX_PARTITIONS, AppendLog, ProbingTable

RECORD_SIZE = 32
COMPUTE_PER_TXN = 10


class EchoKernel(Workload):
    """Append-then-index update transactions."""

    name = "echo"
    description = "Scalable KV store: queue append + index update (WHISPER echo)."

    def __init__(
        self, seed: int = 42, value_kind: str = "int", keys_per_partition: int = 2048
    ) -> None:
        super().__init__(seed, value_kind)
        self.keys_per_partition = keys_per_partition
        self._queue = AppendLog(self, entries=1024, entry_size=RECORD_SIZE)
        self._index = ProbingTable(self, capacity=keys_per_partition * 2, value_size=8)

    def setup(self, pm: PersistentMemory) -> None:
        """Allocate queue and index; seed every key."""
        acc = SetupAccessor(pm)
        self._queue.allocate(pm.heap)
        self._index.allocate(pm.heap)
        self._index.clear(acc)
        rng = thread_rng(self.seed, 0xEC0)
        for part in range(MAX_PARTITIONS):
            for key in range(1, self.keys_per_partition + 1):
                self._index.put(acc, part, key, self.make_value(rng, key)[:8])

    def reset_run_state(self) -> None:
        """Rewind the append-log cursors (volatile per-run state)."""
        self._queue.reset()

    def run_state(self) -> tuple:
        """Checkpoint the queue cursors (see ``Workload.run_state``)."""
        return self._queue.snapshot()

    def restore_run_state(self, state: tuple) -> None:
        """Reinstate queue cursors captured by :meth:`run_state`."""
        self._queue.restore(state)

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        """One queue-append + index-update transaction per iteration."""
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        zipf = ZipfGenerator(self.keys_per_partition, rng=rng)
        for txn in range(num_txns):
            key = zipf.next() + 1
            with api.transaction():
                api.compute(COMPUTE_PER_TXN)
                record = key.to_bytes(8, "little") + (txn & 0xFFFFFFFF).to_bytes(
                    8, "little"
                ) + bytes(16)
                self._queue.append(api, part, record)
                self._index.put(api, part, key, (txn & ((1 << 64) - 1)).to_bytes(8, "little"))
            yield
