"""Open-chain hash table microbenchmark (Table III: "Hash").

"Searches for a value in an open-chain hash table.  Insert if absent,
remove if found."  Each transaction hashes a key, walks the bucket chain,
and either unlinks the found node or links a fresh one at the head.

Layout (all in the persistent heap):

* bucket array — one word (head pointer, 0 = empty) per bucket;
* node — ``key(8) | next(8) | value(value_size)``.

Buckets are partitioned per thread (the paper's Figure 4 runs one
persistent transaction per thread on per-thread data), so transactions
never contend on the same words.
"""

from __future__ import annotations

from typing import Iterator

from ..txn.runtime import PersistentMemory, ThreadAPI
from .base import SetupAccessor, Workload
from .rng import thread_rng

MAX_PARTITIONS = 8
HASH_COMPUTE = 18  # instructions to hash a key
COMPARE_COMPUTE = 3  # instructions per chain-node comparison


class HashTableWorkload(Workload):
    """Insert-if-absent / remove-if-found over an open-chain hash table."""

    name = "hash"
    paper_footprint = "256 MB"
    description = (
        "Searches for a value in an open-chain hash table. "
        "Insert if absent, remove if found."
    )

    def __init__(
        self,
        seed: int = 42,
        value_kind: str = "int",
        buckets_per_partition: int = 4096,
        keys_per_partition: int = 65536,
    ) -> None:
        super().__init__(seed, value_kind)
        self.buckets_per_partition = buckets_per_partition
        self.keys_per_partition = keys_per_partition
        self._buckets_base = 0
        self._heap = None
        self._resident: list[set[int]] = []

    @property
    def node_size(self) -> int:
        """Bytes per chain node."""
        return 16 + self.value_size

    # ------------------------------------------------------------------
    def setup(self, pm: PersistentMemory) -> None:
        """Allocate buckets and pre-populate half of each partition."""
        self._heap = pm.heap
        acc = SetupAccessor(pm)
        total_buckets = MAX_PARTITIONS * self.buckets_per_partition
        self._buckets_base = pm.heap.alloc(total_buckets * 8)
        # One bulk write of zeros instead of a word-at-a-time loop over
        # every bucket head (same bytes).
        acc.write(self._buckets_base, bytes(total_buckets * 8))
        self._resident = [set() for _ in range(MAX_PARTITIONS)]
        rng = thread_rng(self.seed, 0xBEEF)
        for part in range(MAX_PARTITIONS):
            for key in rng.sample(
                range(self.keys_per_partition), self.keys_per_partition // 2
            ):
                self._insert(acc, part, key, self.make_value(rng, key))
                self._resident[part].add(key)

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        """One insert-or-remove transaction per iteration."""
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        resident = set(self._resident[part])
        for txn in range(num_txns):
            key = rng.randrange(self.keys_per_partition)
            with api.transaction():
                api.compute(HASH_COMPUTE)
                if key in resident:
                    self._remove(api, part, key)
                    resident.discard(key)
                else:
                    self._insert(api, part, key, self.make_value(rng, txn))
                    resident.add(key)
            yield

    # ------------------------------------------------------------------
    # Structure operations (work on any accessor)
    # ------------------------------------------------------------------
    def _bucket_addr(self, part: int, key: int) -> int:
        index = part * self.buckets_per_partition + (
            (key * 2654435761) % self.buckets_per_partition
        )
        return self._buckets_base + index * 8

    def _insert(self, acc, part: int, key: int, value: bytes) -> None:
        bucket = self._bucket_addr(part, key)
        head = acc.read_word(bucket)
        node = acc.alloc(self.node_size)
        acc.write_word(node, key)
        acc.write_word(node + 8, head)
        acc.write(node + 16, value)
        acc.write_word(bucket, node)

    def _remove(self, acc, part: int, key: int) -> None:
        bucket = self._bucket_addr(part, key)
        prev = 0
        node = acc.read_word(bucket)
        while node != 0:
            node_key = acc.read_word(node)
            acc.compute(COMPARE_COMPUTE)
            if node_key == key:
                nxt = acc.read_word(node + 8)
                if prev == 0:
                    acc.write_word(bucket, nxt)
                else:
                    acc.write_word(prev + 8, nxt)
                acc.free(node, self.node_size)
                return
            prev = node
            node = acc.read_word(node + 8)

    def lookup(self, acc, part: int, key: int) -> bytes:
        """Return the value stored for ``key`` or b'' (for tests)."""
        node = acc.read_word(self._bucket_addr(part, key))
        while node != 0:
            if acc.read_word(node) == key:
                return acc.read(node + 16, self.value_size)
            node = acc.read_word(node + 8)
        return b""
