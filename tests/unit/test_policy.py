"""Unit tests for repro.core.policy: the microbenchmark design order."""

from repro.core.design import (
    FWB,
    HW_RLOG,
    HW_ULOG,
    HWL,
    NON_PERS,
    REDO_CLWB,
    UNDO_CLWB,
    UNSAFE_BASE,
)
from repro.core.policy import MICROBENCH_POLICIES


class TestNames:
    def test_paper_names(self):
        assert {p.value for p in MICROBENCH_POLICIES} == {
            "non-pers",
            "unsafe-base",
            "redo-clwb",
            "undo-clwb",
            "hw-rlog",
            "hw-ulog",
            "hwl",
            "fwb",
        }

    def test_paper_order(self):
        assert MICROBENCH_POLICIES[0] is NON_PERS
        assert MICROBENCH_POLICIES[-1] is FWB


class TestStructure:
    def test_hw_vs_sw_partition(self):
        for policy in MICROBENCH_POLICIES:
            assert not (policy.uses_hw_logging and policy.uses_sw_logging)

    def test_non_pers_logs_nothing(self):
        assert not NON_PERS.logs_undo
        assert not NON_PERS.logs_redo

    def test_hwl_and_fwb_log_both_sides(self):
        for policy in (HWL, FWB):
            assert policy.logs_undo and policy.logs_redo

    def test_single_side_hw(self):
        assert HW_RLOG.logs_redo and not HW_RLOG.logs_undo
        assert HW_ULOG.logs_undo and not HW_ULOG.logs_redo

    def test_clwb_users(self):
        assert {p for p in MICROBENCH_POLICIES if p.uses_clwb_at_commit} == {
            REDO_CLWB,
            UNDO_CLWB,
            HWL,
        }

    def test_only_fwb_uses_fwb(self):
        assert [p for p in MICROBENCH_POLICIES if p.uses_fwb] == [FWB]

    def test_persistence_guarantees(self):
        guaranteed = {p for p in MICROBENCH_POLICIES if p.persistence_guaranteed}
        assert guaranteed == {REDO_CLWB, UNDO_CLWB, HWL, FWB}

    def test_unsafe_designs_not_guaranteed(self):
        for policy in (UNSAFE_BASE, HW_RLOG, HW_ULOG):
            assert not policy.persistence_guaranteed

    def test_only_redo_defers_stores(self):
        assert [p for p in MICROBENCH_POLICIES if p.defers_in_place_stores] == [
            REDO_CLWB
        ]

    def test_wrap_protection_matches_guarantee(self):
        for policy in MICROBENCH_POLICIES:
            assert policy.protects_log_wrap == policy.persistence_guaranteed
