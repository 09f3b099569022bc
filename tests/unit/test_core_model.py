"""Unit tests for repro.sim.core (micro-op execution model)."""

import pytest

from repro import Machine
from repro.core.design import FWB, NON_PERS
from repro.errors import SimulationError
from repro.sim.microops import CLWB, Compute, Fence, Load, LogStore, Store, TxBegin, TxCommit
from tests.conftest import tiny_system


@pytest.fixture
def machine():
    return Machine(tiny_system(), NON_PERS)


@pytest.fixture
def hw_machine():
    return Machine(tiny_system(), FWB)


class TestCompute:
    def test_advances_time_and_instret(self, machine):
        machine.execute(0, Compute(100))
        core = machine.cores[0]
        assert core.instret == 100
        assert core.time == pytest.approx(100 * 0.35)

    def test_cores_independent(self, machine):
        machine.execute(0, Compute(100))
        assert machine.cores[1].time == 0.0


class TestLoadStore:
    def test_load_returns_data(self, machine):
        machine.nvram.poke(0x2000, b"ABCDEFGH")
        data = machine.execute(0, Load(0x2000, 8))
        assert data == b"ABCDEFGH"

    def test_l1_hit_cheaper_than_miss(self, machine):
        machine.execute(0, Load(0x2000, 8))
        miss_time = machine.cores[0].time
        machine.execute(0, Load(0x2000, 8))
        hit_cost = machine.cores[0].time - miss_time
        assert hit_cost < miss_time

    def test_store_updates_cache_not_nvram(self, machine):
        machine.execute(0, Store(0x2000, b"HELLO!!!"))
        assert machine.execute(0, Load(0x2000, 8)) == b"HELLO!!!"
        assert machine.nvram.peek(0x2000, 8) == bytes(8)

    def test_persistent_store_triggers_hwl(self, hw_machine):
        hw_machine.execute(0, TxBegin(txid=1, tid=0))
        hw_machine.execute(0, Store(0x2000, b"P" * 8, persistent=True, txid=1))
        assert hw_machine.stats.log_records >= 1

    def test_plain_store_skips_hwl(self, hw_machine):
        hw_machine.execute(0, Store(0x2000, b"V" * 8))
        assert hw_machine.stats.log_records == 0


class TestLogStoreOp:
    def test_goes_through_wcb(self, machine):
        machine.execute(0, LogStore(machine.log_base, b"R" * 64))
        assert machine.cores[0].wcb.occupancy == 1
        assert machine.stats.log_records == 1

    def test_charges_uncached_issue(self, machine):
        before = machine.cores[0].time
        machine.execute(0, LogStore(machine.log_base, b"R" * 64))
        assert machine.cores[0].time - before >= 8.0


class TestFenceAndClwb:
    def test_fence_drains_wcb(self, machine):
        machine.execute(0, LogStore(machine.log_base, b"R" * 64))
        machine.execute(0, Fence())
        assert machine.cores[0].wcb.occupancy == 0
        assert machine.nvram.peek(machine.log_base, 1) == b"R"

    def test_fence_waits_for_durability(self, machine):
        machine.execute(0, Store(0x2000, b"D" * 8))
        machine.execute(0, CLWB(0x2000))
        before = machine.cores[0].time
        machine.execute(0, Fence())
        assert machine.cores[0].time > before
        assert machine.stats.fence_stall_cycles > 0

    def test_clwb_persists_line(self, machine):
        machine.execute(0, Store(0x2000, b"D" * 8))
        machine.execute(0, CLWB(0x2000))
        machine.execute(0, Fence())
        assert machine.nvram.peek(0x2000, 8) == b"D" * 8

    def test_fence_after_drain_is_cheap(self, machine):
        machine.execute(0, Store(0x2000, b"D" * 8))
        machine.execute(0, CLWB(0x2000))
        machine.execute(0, Fence())
        before = machine.cores[0].time
        machine.execute(0, Fence())
        assert machine.cores[0].time - before < 5.0


class TestTransactionsOps:
    def test_tx_ops_count_stats(self, hw_machine):
        hw_machine.execute(0, TxBegin(txid=1, tid=0, overhead_instrs=4))
        result = hw_machine.execute(0, TxCommit(txid=1, tid=0, overhead_instrs=2))
        assert hw_machine.stats.transactions_started == 1
        assert hw_machine.stats.transactions_committed == 1
        assert hw_machine.cores[0].instret == 6
        assert result is not None  # hw commit returns durable time

    def test_non_pers_commit_returns_none(self, machine):
        machine.execute(0, TxBegin(txid=1, tid=0))
        assert machine.execute(0, TxCommit(txid=1, tid=0)) is None

    def test_unknown_op_rejected(self, machine):
        class Bogus:
            pass

        with pytest.raises(SimulationError):
            machine.cores[0].execute(Bogus())
