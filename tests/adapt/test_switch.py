"""The safe-switch barrier on a live machine: legality, barrier
cleanliness, trace events, and log truncation on content switches."""

from __future__ import annotations

import pytest

from repro.core.design import (
    check_switch_transition,
    legal_switch_targets,
    resolve_design,
    switch_legal,
)
from repro.core.recovery import RecoveryManager
from repro.errors import SimulationError

from .conftest import run_with_switches

NOWB = "hw+undo+redo+nowb"
CLWB = "hw+undo+redo+clwb"
FWB = "hw+undo+redo+fwb"
SW_UNDO = "sw+undo+clwb"
SW_BOTH = "sw+undo+redo+clwb"


class TestLegality:
    def test_writeback_family_is_closed(self):
        for old in (NOWB, CLWB, FWB):
            for new in (NOWB, CLWB, FWB):
                if old != new:
                    assert switch_legal(resolve_design(old), resolve_design(new))

    def test_backend_change_is_illegal(self):
        assert not switch_legal(resolve_design(CLWB), resolve_design(SW_BOTH))
        with pytest.raises(Exception):
            check_switch_transition(
                resolve_design(CLWB), resolve_design(SW_BOTH)
            )

    def test_legal_targets_filter_candidates(self):
        spec = resolve_design(CLWB)
        candidates = [resolve_design(name) for name in (NOWB, FWB, SW_BOTH)]
        targets = legal_switch_targets(spec, candidates)
        assert resolve_design(NOWB) in targets
        assert resolve_design(FWB) in targets
        assert resolve_design(SW_BOTH) not in targets


class TestBarrier:
    def test_switch_advances_all_cores_to_barrier(self):
        machine, _pm = run_with_switches([NOWB, CLWB], [10])
        stats = machine.finalize()
        assert stats.design_switches == 1
        assert stats.switch_barrier_cycles >= 0.0
        assert machine.policy == resolve_design(CLWB)

    def test_switch_to_same_design_is_a_noop(self, machine):
        before = machine.stats.design_switches
        machine.switch_design(machine.policy)
        assert machine.stats.design_switches == before

    def test_switch_after_crash_raises(self, machine):
        machine.crash()
        with pytest.raises(SimulationError):
            machine.switch_design(resolve_design(NOWB))

    def test_barrier_covers_inflight_bank_writes(self):
        # The barrier must end at or after every posted NVRAM write.
        machine, _pm = run_with_switches([CLWB, NOWB], [10])
        # After the run the switch happened mid-way; nothing to assert
        # beyond consistency here (psan covers the invariant); the
        # barrier accounting must at least be monotonic.
        assert machine.stats.switch_barrier_cycles >= 0.0

    def test_trace_event_carries_designs_and_truncation(self):
        events = []

        class _Tracer:
            def emit(self, time, kind, core=-1, /, **detail):
                if kind == "design_switch":
                    events.append((time, detail))

        def hook(machine):
            machine.tracer = _Tracer()

        run_with_switches([NOWB, FWB], [10], machine_hook=hook)
        assert len(events) == 1
        _, detail = events[0]
        assert detail["old"] == NOWB
        assert detail["new"] == FWB
        assert detail["truncated"] is False


class TestLogTruncation:
    def test_content_switch_truncates_the_ring(self):
        machine, _pm = run_with_switches(
            [SW_BOTH, SW_UNDO], [1_000_000], txns_per_thread=8
        )
        # Threshold beyond the run: the switch fired at the tail, after
        # records were placed — the content change must empty the ring.
        window = RecoveryManager(machine.nvram, machine.log).scan_window()
        assert machine.stats.design_switches == 1
        assert window == []
        assert machine.log.live_entries == 0
        assert machine.log.tail == 0 and machine.log.head == 0
        assert not machine.log.wrapped

    def test_policy_switch_keeps_the_ring(self):
        machine, _pm = run_with_switches(
            [NOWB, CLWB], [1_000_000], txns_per_thread=8
        )
        window = RecoveryManager(machine.nvram, machine.log).scan_window()
        assert machine.stats.design_switches == 1
        assert window != []

    def test_post_truncation_records_are_scannable(self):
        # Finish a run *after* a content switch: the new epoch's records
        # must decode cleanly from the reset ring.
        machine, _pm = run_with_switches([SW_UNDO, SW_BOTH], [8])
        window = RecoveryManager(machine.nvram, machine.log).scan_window()
        assert machine.stats.design_switches == 1
        assert window, "post-switch epoch placed no scannable records"
        data = [r for r in window if r.kind.name == "DATA"]
        # The ring was truncated at the switch, so every surviving DATA
        # record belongs to the undo+redo epoch and carries a redo side.
        assert data and all(record.has_redo for record in data)


class TestSwitchDriver:
    @staticmethod
    def _recording_hook(seen):
        def hook(machine):
            switch = machine.switch_design

            def record(spec):
                seen.append(
                    (machine.stats.transactions_committed, spec.mechanism_string())
                )
                return switch(spec)

            machine.switch_design = record

        return hook

    def test_unreached_thresholds_fire_at_the_tail(self):
        # 2 threads x 8 txns = 16 commits: the threshold at 4 fires at
        # that boundary, the two past the run's end after its last one.
        seen = []
        machine, _pm = run_with_switches(
            [NOWB, CLWB, FWB, NOWB],
            [4, 100, 200],
            txns_per_thread=8,
            machine_hook=self._recording_hook(seen),
        )
        assert seen == [(4, CLWB), (16, FWB), (16, NOWB)]
        assert machine.stats.design_switches == 3
        assert machine.policy == resolve_design(NOWB)

    def test_thresholds_reached_together_fire_at_one_boundary(self):
        seen = []
        machine, _pm = run_with_switches(
            [NOWB, CLWB, FWB],
            [6, 6],
            txns_per_thread=8,
            machine_hook=self._recording_hook(seen),
        )
        assert seen == [(6, CLWB), (6, FWB)]
        assert machine.stats.design_switches == 2
