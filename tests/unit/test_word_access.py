"""``read_word``/``write_word`` are an 8-byte ``read``/``write`` on every
accessor: the timed interpreter and the trace recorder see exactly the
op stream the byte calls produce."""

import dataclasses

import pytest

from repro.core.design import HWL, UNDO_CLWB
from repro.sim.ctrace import SYM_BASE, CompiledThread
from repro.sim.replay import RecordingAccessor, _RecordingMemory
from repro.workloads.base import SetupAccessor
from tests.conftest import make_pm, word

#: Word addresses, one straddling a cache-line boundary.
ADDRS = [0x2000, 0x2008, 0x2040, 0x2080 - 4, 0x3000]


def _word_ops(acc, bump):
    for addr in ADDRS:
        acc.write_word(addr, acc.read_word(addr) + bump)


def _byte_ops(acc, bump):
    for addr in ADDRS:
        value = int.from_bytes(acc.read(addr, 8), "little")
        acc.write(addr, (value + bump).to_bytes(8, "little"))


@pytest.mark.parametrize("design", [HWL, UNDO_CLWB], ids=lambda d: d.value)
def test_thread_api_word_calls_match_byte_calls(design):
    def run(ops):
        pm = make_pm(design)
        for addr in ADDRS:
            pm.setup_write(addr, word(addr))
        api = pm.api(0)
        with api.transaction():
            ops(api, 3)
        with api.transaction():
            ops(api, 2**40)
        stats = pm.machine.finalize()
        values = [pm.machine.nvram.peek_word(addr) for addr in ADDRS]
        return dataclasses.asdict(stats), values

    by_word = run(_word_ops)
    assert by_word == run(_byte_ops)
    assert by_word[1] == [addr + 3 + 2**40 for addr in ADDRS]


def _columns(col):
    return {
        name: list(getattr(col, name))
        for name in (
            "kinds", "a", "b", "piece_addr", "piece_len", "piece_sym", "piece_val"
        )
    }


def test_recording_accessor_word_calls_match_byte_calls():
    prefix = b"".join(word(i * 7) for i in range(0x3008 // 8))

    def record(ops, link_word):
        col = CompiledThread()
        acc = RecordingAccessor(_RecordingMemory(prefix), col)
        with acc.transaction():
            ops(acc, 5)
            # A symbolic pointer token stored and chased back.
            token = acc.alloc(24)
            link_word(acc, 0x2000, token)
            link_word(acc, token + 8, 0x2040)
            assert acc.read_word(0x2000) == token
            assert acc.read_word(token + 8) == 0x2040
        return _columns(col)

    by_word = record(_word_ops, lambda acc, addr, v: acc.write_word(addr, v))
    by_byte = record(_byte_ops, lambda acc, addr, v: acc.write(addr, word(v)))
    assert by_word == by_byte
    assert by_word["piece_sym"].count(1) == 1
    assert max(by_word["piece_val"]) >= SYM_BASE


def test_out_of_range_values_raise_on_every_accessor():
    pm = make_pm(HWL)
    api = pm.api(0)
    col = CompiledThread()
    rec = RecordingAccessor(_RecordingMemory(b""), col)
    for acc in (SetupAccessor(pm), api, rec):
        with acc.transaction():
            for value in (-1, 2**64):
                with pytest.raises(OverflowError):
                    acc.write_word(0x2000, value)
