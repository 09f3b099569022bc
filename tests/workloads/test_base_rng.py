"""Tests for the workload base (accessors) and RNG helpers."""

import pytest

from repro.core.design import NON_PERS
from repro.workloads.base import SetupAccessor, Workload
from repro.workloads.rng import ZipfGenerator, thread_rng
from tests.conftest import make_pm


class TestSetupAccessor:
    def test_read_write_roundtrip(self):
        pm = make_pm(NON_PERS)
        acc = SetupAccessor(pm)
        acc.write(0x2000, b"setup!")
        assert acc.read(0x2000, 6) == b"setup!"
        assert pm.machine.stats.instructions == 0  # untimed

    def test_compute_is_noop(self):
        pm = make_pm(NON_PERS)
        SetupAccessor(pm).compute(1000)
        assert pm.machine.stats.instructions == 0

    def test_transaction_context_is_noop(self):
        pm = make_pm(NON_PERS)
        acc = SetupAccessor(pm)
        with acc.transaction() as inner:
            assert inner is acc

    def test_alloc_free(self):
        pm = make_pm(NON_PERS)
        acc = SetupAccessor(pm)
        addr = acc.alloc(32)
        acc.free(addr, 32)
        assert acc.alloc(32) == addr


class TestWorkloadBase:
    def test_value_kind_validation(self):
        with pytest.raises(ValueError):
            from repro.workloads.hashtable import HashTableWorkload

            HashTableWorkload(value_kind="float")

    def test_value_sizes(self):
        from repro.workloads.hashtable import HashTableWorkload

        assert HashTableWorkload(value_kind="int").value_size == 8
        assert HashTableWorkload(value_kind="string").value_size == 96

    def test_word_helpers(self):
        pm = make_pm(NON_PERS)
        acc = SetupAccessor(pm)
        Workload.write_word(acc, 0x2000, 0xDEADBEEF)
        assert Workload.read_word(acc, 0x2000) == 0xDEADBEEF


class TestThreadRng:
    def test_deterministic(self):
        assert thread_rng(7, 1).random() == thread_rng(7, 1).random()

    def test_threads_decorrelated(self):
        a = [thread_rng(7, 0).randrange(100) for _ in range(5)]
        b = [thread_rng(7, 1).randrange(100) for _ in range(5)]
        assert a != b

    def test_seeds_decorrelated(self):
        assert thread_rng(1, 0).random() != thread_rng(2, 0).random()


class TestZipf:
    def test_in_range(self):
        zipf = ZipfGenerator(100, rng=thread_rng(1, 0))
        for _ in range(500):
            assert 0 <= zipf.next() < 100

    def test_skew_toward_zero(self):
        zipf = ZipfGenerator(100, theta=0.99, rng=thread_rng(1, 0))
        draws = [zipf.next() for _ in range(3000)]
        head = sum(1 for d in draws if d < 10)
        tail = sum(1 for d in draws if d >= 90)
        assert head > 4 * tail

    def test_higher_theta_more_skew(self):
        mild = ZipfGenerator(100, theta=0.5, rng=thread_rng(1, 0))
        steep = ZipfGenerator(100, theta=1.3, rng=thread_rng(1, 0))
        mild_head = sum(1 for _ in range(2000) if mild.next() == 0)
        steep_head = sum(1 for _ in range(2000) if steep.next() == 0)
        assert steep_head > mild_head

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0)
