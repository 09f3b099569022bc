"""WHISPER "ycsb" kernel: zipfian 50/50 read/update key-value mix.

YCSB workload-A over a persistent hash table: half the transactions
update a (zipfian-popular) key, half read one.  With the skew, updates
concentrate on a few cache lines — the write-coalescing opportunity the
paper's design preserves and forced write-backs destroy, which is why
ycsb is among the biggest winners in Figure 10.
"""

from __future__ import annotations

from typing import Iterator

from ...txn.runtime import PersistentMemory, ThreadAPI
from ..base import SetupAccessor, Workload
from ..rng import ZipfGenerator, thread_rng
from .base import MAX_PARTITIONS, ProbingTable

UPDATE_RATIO = 0.5
KEY_COMPUTE = 10


class YCSBKernel(Workload):
    """Workload-A style 50/50 read/update mix."""

    name = "ycsb"
    description = "Zipfian 50/50 read/update KV mix (WHISPER ycsb)."
    request_shaped = True

    def __init__(
        self, seed: int = 42, value_kind: str = "int", keys_per_partition: int = 2048
    ) -> None:
        super().__init__(seed, value_kind)
        self.keys_per_partition = keys_per_partition
        self._table = ProbingTable(
            self, capacity=keys_per_partition * 2, value_size=self.value_size
        )

    def setup(self, pm: PersistentMemory) -> None:
        """Load every key once (YCSB load phase)."""
        acc = SetupAccessor(pm)
        self._table.allocate(pm.heap)
        self._table.clear(acc)
        rng = thread_rng(self.seed, 0x4C5B)
        for part in range(MAX_PARTITIONS):
            for key in range(1, self.keys_per_partition + 1):
                self._table.put(acc, part, key, self.make_value(rng, key))

    def _request_ops(self, api, part: int, key: int, update: bool, tag: int) -> None:
        """The transaction interior of one read/update — shared by the
        closed-loop thread body and the open-loop serve path."""
        api.compute(KEY_COMPUTE)
        if update:
            self._table.put(api, part, key, self.make_value(None, tag))
        else:
            self._table.get(api, part, key)

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        """One zipfian read or update transaction per iteration."""
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        zipf = ZipfGenerator(self.keys_per_partition, rng=rng)
        for txn in range(num_txns):
            key = zipf.next() + 1
            update = rng.random() < UPDATE_RATIO
            with api.transaction():
                self._request_ops(api, part, key, update, txn)
            yield

    def serve_request(self, api: ThreadAPI, tid: int, request) -> None:
        """One client request inside the caller's transaction."""
        if not hasattr(self, "_serve_zipf"):
            self._serve_zipf = ZipfGenerator(self.keys_per_partition)
        key = self._serve_zipf.rank(request.key_u) + 1
        self._request_ops(
            api, tid % MAX_PARTITIONS, key, request.op_u < UPDATE_RATIO, request.seq
        )

    @property
    def table(self) -> ProbingTable:
        """Underlying table (for tests)."""
        return self._table
