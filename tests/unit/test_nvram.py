"""Unit tests for repro.sim.nvram."""

import pytest

from repro.errors import AddressError
from repro.sim.config import NVDimmConfig
from repro.sim.nvram import NVRAM


@pytest.fixture
def nvram():
    return NVRAM(NVDimmConfig(size_bytes=1024 * 1024))


class TestFunctionalAccess:
    def test_starts_zeroed(self, nvram):
        assert nvram.read(0, 16) == bytes(16)

    def test_write_then_read(self, nvram):
        nvram.write(100, b"hello", completion_time=1.0)
        assert nvram.read(100, 5) == b"hello"

    def test_peek_does_not_count_traffic(self, nvram):
        nvram.peek(0, 64)
        assert nvram.total_read_bytes == 0

    def test_read_counts_traffic(self, nvram):
        nvram.read(0, 64)
        assert nvram.total_read_bytes == 64

    def test_write_counts_traffic(self, nvram):
        nvram.write(0, bytes(64))
        assert nvram.total_write_bytes == 64

    def test_poke_does_not_count_or_journal(self, nvram):
        nvram.poke(0, b"xyz")
        assert nvram.total_write_bytes == 0
        assert nvram.journal_length == 0
        assert nvram.peek(0, 3) == b"xyz"

    def test_out_of_range_read(self, nvram):
        with pytest.raises(AddressError):
            nvram.read(1024 * 1024 - 4, 8)

    def test_out_of_range_write(self, nvram):
        with pytest.raises(AddressError):
            nvram.write(1024 * 1024, b"x")


class TestWordAccess:
    """``peek_word``/``poke_word``: the set-up path's one-word accesses."""

    def test_round_trip_is_little_endian(self, nvram):
        nvram.poke_word(100, 0x0102030405060708)
        assert nvram.peek(100, 8) == bytes([8, 7, 6, 5, 4, 3, 2, 1])
        assert nvram.peek_word(100) == 0x0102030405060708

    def test_unaligned_and_last_word(self, nvram):
        last = nvram.config.size_bytes - 8
        nvram.poke_word(last, 2**64 - 1)
        nvram.poke_word(3, 77)
        assert nvram.peek_word(last) == 2**64 - 1
        assert nvram.peek_word(3) == 77

    def test_no_counters_or_journal(self, nvram):
        nvram.poke_word(0, 5)
        nvram.peek_word(0)
        assert nvram.total_read_bytes == nvram.total_write_bytes == 0
        assert nvram.journal_length == 0

    def test_out_of_range(self, nvram):
        for addr in (-1, nvram.config.size_bytes - 7):
            with pytest.raises(AddressError):
                nvram.peek_word(addr)
            with pytest.raises(AddressError):
                nvram.poke_word(addr, 1)

    @pytest.mark.parametrize("value", [-1, 2**64])
    def test_value_out_of_range_does_not_wrap(self, nvram, value):
        nvram.poke_word(64, 0x55)
        with pytest.raises(OverflowError):
            nvram.poke_word(64, value)
        assert nvram.peek_word(64) == 0x55

    def test_widens_both_extent_windows(self, nvram):
        size = nvram.config.size_bytes
        assert nvram.written_extent() == (0, size)
        nvram.poke_word(1000, 1)
        nvram.poke_word(size // 2 + 64, 2)
        assert nvram.written_extent() == (1008, size // 2 + 64)

    def test_recycled_buffer_comes_back_zeroed(self):
        # A size no other test uses, so the pool entry is this test's own.
        config = NVDimmConfig(size_bytes=1024 * 1024 + 16384)
        NVRAM._image_pool.pop(config.size_bytes, None)
        try:
            first = NVRAM(config)
            image = first.image
            first.poke_word(8, 2**64 - 1)
            first.poke_word(config.size_bytes - 8, 0xABCDEF)
            first.recycle()
            second = NVRAM(config)
            assert second.image is image
            assert second.image == bytes(config.size_bytes)
        finally:
            NVRAM._image_pool.pop(config.size_bytes, None)


class TestGeometry:
    def test_line_interleaved_banks(self, nvram):
        banks = [nvram.bank_of(line * 64) for line in range(8)]
        assert banks == list(range(8))

    def test_bank_wraps(self, nvram):
        assert nvram.bank_of(8 * 64) == 0

    def test_row_covers_stripe(self, nvram):
        stripe = 2048 * 8
        assert nvram.row_of(0) == nvram.row_of(stripe - 1)
        assert nvram.row_of(stripe) == 1


class TestRowBuffers:
    def test_first_access_misses(self, nvram):
        assert nvram.row_buffer_access(0, 5) is False

    def test_second_access_hits(self, nvram):
        nvram.row_buffer_access(0, 5)
        assert nvram.row_buffer_access(0, 5) is True

    def test_lru_eviction(self):
        nvram = NVRAM(NVDimmConfig(size_bytes=1024 * 1024, row_buffers_per_bank=2))
        nvram.row_buffer_access(0, 1)
        nvram.row_buffer_access(0, 2)
        nvram.row_buffer_access(0, 3)  # evicts row 1
        assert nvram.row_buffer_access(0, 1) is False
        assert nvram.row_buffer_access(0, 3) is True

    def test_touch_refreshes_lru(self):
        nvram = NVRAM(NVDimmConfig(size_bytes=1024 * 1024, row_buffers_per_bank=2))
        nvram.row_buffer_access(0, 1)
        nvram.row_buffer_access(0, 2)
        nvram.row_buffer_access(0, 1)  # refresh row 1
        nvram.row_buffer_access(0, 3)  # evicts row 2
        assert nvram.row_buffer_access(0, 1) is True
        assert nvram.row_buffer_access(0, 2) is False


class TestCrashJournal:
    def test_revert_discards_late_writes(self, nvram):
        nvram.write(0, b"AAAA", completion_time=10.0)
        nvram.write(0, b"BBBB", completion_time=20.0)
        reverted = nvram.revert_after(15.0)
        assert reverted == 1
        assert nvram.peek(0, 4) == b"AAAA"

    def test_revert_keeps_durable_writes(self, nvram):
        nvram.write(0, b"AAAA", completion_time=10.0)
        assert nvram.revert_after(10.0) == 0
        assert nvram.peek(0, 4) == b"AAAA"

    def test_revert_restores_in_reverse_order(self, nvram):
        nvram.write(0, b"11", completion_time=5.0)
        nvram.write(0, b"22", completion_time=6.0)
        nvram.write(0, b"33", completion_time=7.0)
        nvram.revert_after(5.5)
        assert nvram.peek(0, 2) == b"11"

    def test_retire_journal_bounds_memory(self, nvram):
        for i in range(10):
            nvram.write(i * 8, bytes(8), completion_time=float(i))
        nvram.retire_journal(5.0)
        assert nvram.journal_length == 4

    def test_revert_disabled_without_tracking(self):
        nvram = NVRAM(NVDimmConfig(size_bytes=1024 * 1024), track_crash_state=False)
        nvram.write(0, b"A", completion_time=1.0)
        with pytest.raises(AddressError):
            nvram.revert_after(0.0)


class TestRegions:
    def test_region_accounting(self, nvram):
        nvram.register_region("log", 0, 1024)
        nvram.register_region("heap", 1024, 1024)
        nvram.write(100, bytes(8))
        nvram.write(1500, bytes(16))
        assert nvram.region_write_bytes["log"] == 8
        assert nvram.region_write_bytes["heap"] == 16

    def test_region_out_of_range(self, nvram):
        with pytest.raises(AddressError):
            nvram.register_region("bad", 0, 2 * 1024 * 1024)
