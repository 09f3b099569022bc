"""WHISPER "memcached" kernel: cache gets/sets with LRU maintenance.

A get is read-mostly but still writes — the LRU list splice persists
three pointers; a set updates the value and splices too.  90% gets /
10% sets over a zipfian key popularity, memcached's classic profile.
"""

from __future__ import annotations

from typing import Iterator

from ...txn.runtime import PersistentMemory, ThreadAPI
from ..base import SetupAccessor, Workload
from ..rng import ZipfGenerator, thread_rng
from .base import MAX_PARTITIONS, LRUList, ProbingTable

GET_RATIO = 0.9
HASH_COMPUTE = 12


class MemcachedKernel(Workload):
    """Get/set cache transactions with persistent LRU."""

    name = "memcached"
    description = "Cache get/set with LRU list splices (WHISPER memcached)."
    request_shaped = True

    def __init__(
        self, seed: int = 42, value_kind: str = "int", keys_per_partition: int = 2048
    ) -> None:
        super().__init__(seed, value_kind)
        self.keys_per_partition = keys_per_partition
        self._table = ProbingTable(
            self, capacity=keys_per_partition * 2, value_size=self.value_size
        )
        self._lru = LRUList(self, nodes=keys_per_partition)

    def setup(self, pm: PersistentMemory) -> None:
        """Fill the cache and initialise the LRU chains."""
        acc = SetupAccessor(pm)
        self._table.allocate(pm.heap)
        self._lru.allocate(pm.heap)
        self._table.clear(acc)
        rng = thread_rng(self.seed, 0x3E3)
        for part in range(MAX_PARTITIONS):
            self._lru.init_chain(acc, part)
            for key in range(1, self.keys_per_partition + 1):
                self._table.put(acc, part, key, self.make_value(rng, key))

    def _request_ops(self, api, part: int, index: int, is_get: bool, tag: int) -> None:
        """The transaction interior of one get/set request — shared by
        the closed-loop thread body and the open-loop serve path so both
        issue the identical micro-op stream."""
        api.compute(HASH_COMPUTE)
        key = index + 1
        if is_get:
            self._table.get(api, part, key)
        else:
            self._table.put(api, part, key, self.make_value(None, tag))
        self._lru.move_to_front(api, part, index)

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        """One get/set transaction with an LRU splice per iteration."""
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        zipf = ZipfGenerator(self.keys_per_partition, rng=rng)
        for txn in range(num_txns):
            index = zipf.next()
            is_get = rng.random() < GET_RATIO
            with api.transaction():
                self._request_ops(api, part, index, is_get, txn)
            yield

    def serve_request(self, api: ThreadAPI, tid: int, request) -> None:
        """One client request inside the caller's transaction."""
        if not hasattr(self, "_serve_zipf"):
            self._serve_zipf = ZipfGenerator(self.keys_per_partition)
        index = self._serve_zipf.rank(request.key_u)
        self._request_ops(
            api, tid % MAX_PARTITIONS, index, request.op_u < GET_RATIO, request.seq
        )

    @property
    def lru(self) -> LRUList:
        """Underlying LRU list (for tests)."""
        return self._lru
