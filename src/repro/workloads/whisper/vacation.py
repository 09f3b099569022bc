"""WHISPER "vacation" kernel: travel-reservation transactions.

Vacation (from STAMP, carried into WHISPER) makes reservations across
car / flight / room tables: each transaction reads several candidate
records across the tables, computes a choice, and writes a small
reservation — a read-heavy mix with only a few persistent stores.
"""

from __future__ import annotations

from typing import Iterator

from ...txn.runtime import PersistentMemory, ThreadAPI
from ..base import SetupAccessor, Workload
from ..rng import thread_rng
from .base import MAX_PARTITIONS, AppendLog

TABLES = 3  # cars, flights, rooms
RECORD_SIZE = 16  # price(8) | available(8)
RESERVATION_RECORD = 32
CANDIDATES = 4  # records consulted per table
CHOICE_COMPUTE = 6  # per candidate comparison


class VacationKernel(Workload):
    """Read-heavy reservation transactions."""

    name = "vacation"
    description = "Travel reservations: read-heavy, few writes (WHISPER vacation)."

    def __init__(
        self, seed: int = 42, value_kind: str = "int", records_per_table: int = 1024
    ) -> None:
        super().__init__(seed, value_kind)
        self.records_per_table = records_per_table
        self._tables_base = 0
        self._reservations = AppendLog(self, entries=2048, entry_size=RESERVATION_RECORD)

    def _record_addr(self, part: int, table: int, record: int) -> int:
        index = (part * TABLES + table) * self.records_per_table + record
        return self._tables_base + index * RECORD_SIZE

    def setup(self, pm: PersistentMemory) -> None:
        """Populate the three tables with prices and availability."""
        acc = SetupAccessor(pm)
        total = MAX_PARTITIONS * TABLES * self.records_per_table
        self._tables_base = pm.heap.alloc(total * RECORD_SIZE)
        self._reservations.allocate(pm.heap)
        rng = thread_rng(self.seed, 0xACA)
        for part in range(MAX_PARTITIONS):
            for table in range(TABLES):
                for record in range(self.records_per_table):
                    addr = self._record_addr(part, table, record)
                    acc.write_word(addr, rng.randrange(50, 500))
                    acc.write_word(addr + 8, rng.randrange(1, 100))

    def reset_run_state(self) -> None:
        """Rewind the append-log cursors (volatile per-run state)."""
        self._reservations.reset()

    def run_state(self) -> tuple:
        """Checkpoint the reservation cursors (see ``Workload.run_state``)."""
        return self._reservations.snapshot()

    def restore_run_state(self, state: tuple) -> None:
        """Reinstate cursors captured by :meth:`run_state`."""
        self._reservations.restore(state)

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        """One reservation transaction (reads-heavy) per iteration."""
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        for txn in range(num_txns):
            picks = [
                [rng.randrange(self.records_per_table) for _ in range(CANDIDATES)]
                for _ in range(TABLES)
            ]
            with api.transaction():
                chosen = []
                for table in range(TABLES):
                    best_record, best_price = -1, 1 << 62
                    for record in picks[table]:
                        api.compute(CHOICE_COMPUTE)
                        addr = self._record_addr(part, table, record)
                        price = api.read_word(addr)
                        available = api.read_word(addr + 8)
                        if available > 0 and price < best_price:
                            best_record, best_price = record, price
                    chosen.append(best_record)
                for table, record in enumerate(chosen):
                    if record < 0:
                        continue
                    addr = self._record_addr(part, table, record)
                    available = api.read_word(addr + 8)
                    api.write_word(addr + 8, max(0, available - 1))
                reservation = (
                    txn.to_bytes(8, "little")
                    + b"".join(
                        max(0, record).to_bytes(8, "little") for record in chosen
                    )
                )
                self._reservations.append(api, part, reservation)
            yield
