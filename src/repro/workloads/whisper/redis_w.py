"""WHISPER "redis" kernel: KV updates with an append-only-file log.

Redis persists every mutation to its AOF before updating the in-memory
(here: persistent) dictionary — each transaction is one sequential AOF
append plus one hash update.  80% writes / 20% reads, moderate skew.
"""

from __future__ import annotations

from typing import Iterator

from ...txn.runtime import PersistentMemory, ThreadAPI
from ..base import SetupAccessor, Workload
from ..rng import ZipfGenerator, thread_rng
from .base import MAX_PARTITIONS, AppendLog, ProbingTable

WRITE_RATIO = 0.8
AOF_RECORD = 48
COMMAND_COMPUTE = 16


class RedisKernel(Workload):
    """AOF-append plus dictionary update transactions."""

    name = "redis"
    description = "KV store with append-only-file persistence (WHISPER redis)."
    request_shaped = True

    def __init__(
        self, seed: int = 42, value_kind: str = "int", keys_per_partition: int = 2048
    ) -> None:
        super().__init__(seed, value_kind)
        self.keys_per_partition = keys_per_partition
        self._aof = AppendLog(self, entries=2048, entry_size=AOF_RECORD)
        self._dict = ProbingTable(
            self, capacity=keys_per_partition * 2, value_size=self.value_size
        )

    def setup(self, pm: PersistentMemory) -> None:
        """Allocate AOF region and dictionary; seed every key."""
        acc = SetupAccessor(pm)
        self._aof.allocate(pm.heap)
        self._dict.allocate(pm.heap)
        self._dict.clear(acc)
        rng = thread_rng(self.seed, 0x4ED)
        for part in range(MAX_PARTITIONS):
            for key in range(1, self.keys_per_partition + 1):
                self._dict.put(acc, part, key, self.make_value(rng, key))

    def reset_run_state(self) -> None:
        """Rewind the append-log cursors (volatile per-run state)."""
        self._aof.reset()

    def run_state(self) -> tuple:
        """Checkpoint the AOF cursors (see ``Workload.run_state``)."""
        return self._aof.snapshot()

    def restore_run_state(self, state: tuple) -> None:
        """Reinstate AOF cursors captured by :meth:`run_state`."""
        self._aof.restore(state)

    def _request_ops(self, api, part: int, key: int, is_write: bool, tag: int) -> None:
        """The transaction interior of one command — shared by the
        closed-loop thread body and the open-loop serve path."""
        api.compute(COMMAND_COMPUTE)
        if is_write:
            record = key.to_bytes(8, "little") + bytes(AOF_RECORD - 8)
            self._aof.append(api, part, record)
            self._dict.put(api, part, key, self.make_value(None, tag))
        else:
            self._dict.get(api, part, key)

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        """One AOF-append + dictionary update (or read) per iteration."""
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        zipf = ZipfGenerator(self.keys_per_partition, theta=0.8, rng=rng)
        for txn in range(num_txns):
            key = zipf.next() + 1
            with api.transaction():
                is_write = rng.random() < WRITE_RATIO
                self._request_ops(api, part, key, is_write, txn)
            yield

    def serve_request(self, api: ThreadAPI, tid: int, request) -> None:
        """One client command inside the caller's transaction."""
        if not hasattr(self, "_serve_zipf"):
            self._serve_zipf = ZipfGenerator(self.keys_per_partition, theta=0.8)
        key = self._serve_zipf.rank(request.key_u) + 1
        self._request_ops(
            api, tid % MAX_PARTITIONS, key, request.op_u < WRITE_RATIO, request.seq
        )
