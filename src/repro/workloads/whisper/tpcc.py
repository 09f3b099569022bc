"""WHISPER "tpcc" kernel: new-order style transactions.

TPC-C's new-order is the write-intensive heavyweight of the suite: one
order header, 5-15 order lines, and a stock read-modify-write per line,
all persisted in one transaction.  The paper's Figure 10 highlights tpcc
(with ycsb) as gaining the most memory energy from the design because of
this write intensity.

Tables: ``orders`` (header records in an append region), ``order_lines``
(append region), ``stock`` (array of ``quantity(8) | ytd(8)`` records).
"""

from __future__ import annotations

from typing import Iterator

from ...txn.runtime import PersistentMemory, ThreadAPI
from ..base import SetupAccessor, Workload
from ..rng import thread_rng
from .base import MAX_PARTITIONS, AppendLog

ORDER_RECORD = 32
ORDER_LINE_RECORD = 40
STOCK_RECORD = 16
PRICING_COMPUTE = 8  # per order line


class TPCCKernel(Workload):
    """New-order transactions over orders, order-lines, and stock."""

    name = "tpcc"
    description = "TPC-C new-order: multi-record, write-intensive (WHISPER tpcc)."

    def __init__(
        self, seed: int = 42, value_kind: str = "int", items_per_partition: int = 4096
    ) -> None:
        super().__init__(seed, value_kind)
        self.items_per_partition = items_per_partition
        self._orders = AppendLog(self, entries=1024, entry_size=ORDER_RECORD)
        self._lines = AppendLog(self, entries=8192, entry_size=ORDER_LINE_RECORD)
        self._stock_base = 0

    def _stock_addr(self, part: int, item: int) -> int:
        index = part * self.items_per_partition + item
        return self._stock_base + index * STOCK_RECORD

    def setup(self, pm: PersistentMemory) -> None:
        """Allocate tables; stock starts at quantity 100, ytd 0."""
        acc = SetupAccessor(pm)
        self._orders.allocate(pm.heap)
        self._lines.allocate(pm.heap)
        total = MAX_PARTITIONS * self.items_per_partition
        self._stock_base = pm.heap.alloc(total * STOCK_RECORD)
        for part in range(MAX_PARTITIONS):
            for item in range(self.items_per_partition):
                addr = self._stock_addr(part, item)
                acc.write_word(addr, 100)
                acc.write_word(addr + 8, 0)

    def reset_run_state(self) -> None:
        """Rewind the append-log cursors (volatile per-run state)."""
        self._orders.reset()
        self._lines.reset()

    def run_state(self) -> tuple:
        """Checkpoint both append cursors (see ``Workload.run_state``)."""
        return (self._orders.snapshot(), self._lines.snapshot())

    def restore_run_state(self, state: tuple) -> None:
        """Reinstate cursors captured by :meth:`run_state`."""
        orders, lines = state
        self._orders.restore(orders)
        self._lines.restore(lines)

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        """One new-order transaction (5-15 order lines) per iteration."""
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        for order_id in range(num_txns):
            n_lines = rng.randint(5, 15)
            items = [rng.randrange(self.items_per_partition) for _ in range(n_lines)]
            with api.transaction():
                header = (
                    order_id.to_bytes(8, "little")
                    + n_lines.to_bytes(8, "little")
                    + bytes(ORDER_RECORD - 16)
                )
                self._orders.append(api, part, header)
                for line_no, item in enumerate(items):
                    api.compute(PRICING_COMPUTE)
                    line = (
                        order_id.to_bytes(8, "little")
                        + line_no.to_bytes(8, "little")
                        + item.to_bytes(8, "little")
                        + bytes(ORDER_LINE_RECORD - 24)
                    )
                    self._lines.append(api, part, line)
                    stock = self._stock_addr(part, item)
                    quantity = api.read_word(stock)
                    ytd = api.read_word(stock + 8)
                    new_quantity = quantity - 1 if quantity > 10 else quantity + 91
                    api.write_word(stock, new_quantity)
                    api.write_word(stock + 8, ytd + 1)
            yield

    def stock_state(self, acc, part: int, item: int) -> tuple:
        """(quantity, ytd) for tests."""
        addr = self._stock_addr(part, item)
        return acc.read_word(addr), acc.read_word(addr + 8)
