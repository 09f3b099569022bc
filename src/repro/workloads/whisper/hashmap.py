"""WHISPER "hashmap" kernel: open-addressing hash map insert/remove.

Corresponds to the Hash microbenchmark (the paper notes hashmap
"accurately corresponds to" it) but uses linear probing rather than
chaining — single-structure updates with occasional probe walks.
"""

from __future__ import annotations

from typing import Iterator

from ...txn.runtime import PersistentMemory, ThreadAPI
from ..base import SetupAccessor, Workload
from ..rng import thread_rng
from .base import MAX_PARTITIONS, ProbingTable

HASH_COMPUTE = 14


class HashmapKernel(Workload):
    """Insert-or-remove over an open-addressing hash map."""

    name = "hashmap"
    description = "Open-addressing hash map insert/remove (WHISPER hashmap)."

    def __init__(
        self, seed: int = 42, value_kind: str = "int", keys_per_partition: int = 4096
    ) -> None:
        super().__init__(seed, value_kind)
        self.keys_per_partition = keys_per_partition
        self._table = ProbingTable(
            self, capacity=keys_per_partition * 2, value_size=self.value_size
        )
        self._resident: list[set[int]] = []

    def setup(self, pm: PersistentMemory) -> None:
        """Allocate the table and pre-populate half of each partition."""
        acc = SetupAccessor(pm)
        self._table.allocate(pm.heap)
        self._table.clear(acc)
        self._resident = [set() for _ in range(MAX_PARTITIONS)]
        rng = thread_rng(self.seed, 0x4A5)
        for part in range(MAX_PARTITIONS):
            for key in rng.sample(
                range(1, self.keys_per_partition + 1), self.keys_per_partition // 2
            ):
                self._table.put(acc, part, key, self.make_value(rng, key))
                self._resident[part].add(key)

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        """One insert-or-remove transaction per iteration."""
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        resident = set(self._resident[part])
        for txn in range(num_txns):
            key = rng.randrange(1, self.keys_per_partition + 1)
            with api.transaction():
                api.compute(HASH_COMPUTE)
                if key in resident:
                    self._table.remove(api, part, key)
                    resident.discard(key)
                else:
                    self._table.put(api, part, key, self.make_value(rng, txn))
                    resident.add(key)
            yield

    @property
    def table(self) -> ProbingTable:
        """Underlying table (for tests)."""
        return self._table
