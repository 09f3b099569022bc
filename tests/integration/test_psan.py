"""End-to-end tests for the persistency-ordering sanitizer.

The acceptance bar from the paper reproduction: the guaranteed designs
(hwl, fwb, and the software-logging baselines) run every microbenchmark
clean, while each deliberately-broken design trips exactly the rule its
missing mechanism implies.  A subset of that matrix runs here; the full
5-benchmark x 4-thread sweep is the CI ``repro psan`` job.
"""

import json

import pytest

from repro.__main__ import main
from repro.core.design import (
    FWB,
    HWL,
    HW_RLOG,
    HW_ULOG,
    REDO_CLWB,
    UNDO_CLWB,
    UNSAFE_BASE,
)
from repro.harness.sweep import run_micro_sweep
from repro.sanitizer.checker import (
    PersistOrderChecker,
    PsanSweepReport,
    run_psan,
)
from repro.sanitizer.rules import PsanReport
from repro.sim.trace import Tracer

TXNS = 15  # enough to wrap nothing but exercise every rule's machinery


def psan(policy, benchmark="hash", threads=1, **kw):
    return run_psan(benchmark, policy, threads=threads,
                    txns_per_thread=TXNS, **kw)


class TestGuaranteedDesignsClean:
    @pytest.mark.parametrize("policy", [HWL, FWB])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_hardware_designs_clean(self, policy, threads):
        report = psan(policy, threads=threads)
        assert report.clean, report.render()
        assert report.txns_checked == TXNS * threads

    @pytest.mark.parametrize("policy", [UNDO_CLWB, REDO_CLWB])
    def test_software_baselines_clean(self, policy):
        report = psan(policy)
        assert report.clean, report.render()

    @pytest.mark.parametrize("bench", ["rbtree", "sps"])
    def test_other_microbenchmarks_clean_under_hwl(self, bench):
        report = psan(HWL, benchmark=bench)
        assert report.clean, report.render()


class TestBrokenDesignsTrip:
    def test_unsafe_base_trips_commit_durability(self):
        # No clwb ordering at all: commits are reported durable while the
        # records sit in volatile buffers.
        report = psan(UNSAFE_BASE)
        assert not report.clean
        assert "commit-durability" in report.rules_fired()

    def test_hw_rlog_trips_undo_missing(self):
        # Redo-only hardware logging steals dirty lines it cannot undo.
        report = psan(HW_RLOG)
        assert report.rules_fired() == {"undo-missing"}

    def test_hw_ulog_trips_redo_missing(self):
        # Undo-only hardware logging commits without forcing data back.
        report = psan(HW_ULOG)
        assert report.rules_fired() == {"redo-missing"}

    def test_diagnostics_carry_provenance(self):
        report = psan(HW_RLOG)
        diag = report.diagnostics[0]
        assert diag.provenance  # the event chain that led here
        assert diag.addr is not None
        assert "undo" in diag.message


class TestOfflineTraces:
    def test_saved_trace_rechecks_identically(self, tmp_path):
        path = str(tmp_path / "hwl.jsonl")
        live = psan(HWL, trace_path=path)
        replayed = PersistOrderChecker.check_events(
            Tracer.from_jsonl(path).events()
        )
        assert live.clean and replayed.clean
        assert replayed.events_processed == live.events_processed
        assert replayed.txns_checked == live.txns_checked

    def test_saved_violating_trace_rechecks_identically(self, tmp_path):
        path = str(tmp_path / "rlog.jsonl")
        live = psan(HW_RLOG, trace_path=path)
        replayed = PersistOrderChecker.check_events(
            Tracer.from_jsonl(path).events()
        )
        assert replayed.rules_fired() == live.rules_fired()
        assert len(replayed.diagnostics) == len(live.diagnostics)


class TestEngineChoice:
    @pytest.mark.parametrize("policy", [FWB, HW_RLOG])
    def test_interpreted_and_replayed_reports_identical(self, policy, monkeypatch):
        # run_psan ships its cell through the sweep's one engine choice:
        # REPRO_TRACE=0 interprets the prepared snapshot (no trace
        # fetched), the default replays the compiled trace.
        import repro.harness.cache as cache_module

        fetches = []
        fetch = cache_module.fetch_trace

        def counting(*args, **kwargs):
            fetches.append(args)
            return fetch(*args, **kwargs)

        monkeypatch.setattr(cache_module, "fetch_trace", counting)
        monkeypatch.setenv("REPRO_TRACE", "0")
        interpreted = psan(policy, threads=2)
        assert fetches == []
        monkeypatch.setenv("REPRO_TRACE", "1")
        replayed = psan(policy, threads=2)
        assert len(fetches) == 1
        assert interpreted == replayed
        assert interpreted.to_dict() == replayed.to_dict()


class TestSweepIntegration:
    def test_sweep_psan_collects_reports_in_matrix_order(self):
        sweep = PsanSweepReport()
        run_micro_sweep(
            benchmarks=("hash",),
            threads=(1, 2),
            policies=(HWL, FWB),
            txns_per_thread=TXNS,
            psan_report=sweep,
        )
        assert [(r.benchmark, r.threads, r.policy) for r in sweep.reports] == [
            ("hash", 1, "hwl"), ("hash", 1, "fwb"),
            ("hash", 2, "hwl"), ("hash", 2, "fwb"),
        ]
        assert sweep.clean

    def test_sweep_clean_ignores_unguaranteed_designs(self):
        sweep = PsanSweepReport()
        run_micro_sweep(
            benchmarks=("hash",),
            threads=(1,),
            policies=(HWL, HW_RLOG),
            txns_per_thread=TXNS,
            psan_report=sweep,
        )
        by_policy = {r.policy: r for r in sweep.reports}
        assert by_policy["hwl"].clean
        assert not by_policy["hw-rlog"].clean  # expected: no guarantee
        assert sweep.clean
        assert "no guarantee claimed" in sweep.render()

    def test_sweep_psan_parallel_matches_serial(self):
        serial, parallel = PsanSweepReport(), PsanSweepReport()
        kw = dict(
            benchmarks=("hash",), threads=(1,), policies=(HWL,),
            txns_per_thread=TXNS,
        )
        run_micro_sweep(psan_report=serial, **kw)
        run_micro_sweep(psan_report=parallel, jobs=2, **kw)
        a, b = serial.reports[0], parallel.reports[0]
        assert (a.clean, a.events_processed, a.txns_checked) == (
            b.clean, b.events_processed, b.txns_checked
        )


class TestCli:
    def test_psan_command_passes_on_guaranteed_designs(self, capsys):
        rc = main([
            "psan", "--benchmarks", "hash", "--threads", "1",
            "--txns", str(TXNS),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "psan: PASS" in out
        assert "adversarial unsafe-base" in out  # probes ran and tripped

    def test_psan_json_output(self, capsys):
        rc = main([
            "psan", "--benchmarks", "hash", "--threads", "1",
            "--policies", "hwl", "--txns", str(TXNS),
            "--no-adversarial", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["matrix"]["clean"] is True
        cell = payload["matrix"]["cells"][0]
        assert (cell["policy"], cell["benchmark"]) == ("hwl", "hash")

    def test_psan_reports_unguaranteed_rows_without_failing(self, capsys):
        rc = main([
            "psan", "--benchmarks", "hash", "--threads", "1",
            "--policies", "hw-rlog,hwl", "--txns", str(TXNS),
            "--no-adversarial",
        ])
        out = capsys.readouterr().out
        # hw-rlog claims no guarantee, so the matrix is still a PASS --
        # the row is annotated instead of failing the gate.
        assert rc == 0
        assert "no guarantee claimed" in out

    def test_from_trace_roundtrip(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        rc = main([
            "psan", "--benchmarks", "hash", "--threads", "1",
            "--policies", "hwl", "--txns", str(TXNS),
            "--no-adversarial", "--save-trace", str(traces),
        ])
        assert rc == 0
        saved = list(traces.glob("*.jsonl"))
        assert len(saved) == 1
        capsys.readouterr()
        rc = main(["psan", "--from-trace", str(saved[0])])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean" in out

    def test_lint_command_clean_tree(self, capsys):
        assert main(["lint"]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_lint_command_finds_violations(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim"
        bad.mkdir(parents=True)
        (bad / "x.py").write_text("import random\n")
        rc = main(["lint", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "wall-clock" in out

    def test_figure_psan_flag(self, capsys):
        rc = main(["figure", "6", "--quick", "--psan", "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hwl" in out and "clean" in out


class TestSweepReportRendering:
    def make_sweep(self, *policies):
        sweep = PsanSweepReport()
        for policy in policies:
            sweep.reports.append(PsanReport(
                policy=policy, benchmark="hash", threads=1,
                events_processed=1234, txns_checked=20,
            ))
        return sweep

    def test_policy_column_fits_longest_composed_name(self):
        long_name = "hw+undo+redo+clwb+instant"
        sweep = self.make_sweep("hwl", long_name)
        lines = sweep.render().splitlines()
        header, short_row, long_row = lines[0], lines[2], lines[3]
        # The verdict column starts at the same offset in every row:
        # no shearing even when one policy name dwarfs the others.
        assert header.index("verdict") == short_row.index("clean")
        assert short_row.index("clean") == long_row.index("clean")
        assert long_name in long_row

    def test_short_names_keep_compact_layout(self):
        sweep = self.make_sweep("hwl", "fwb")
        separator = sweep.render().splitlines()[1]
        # Column width collapses back to the header word when every
        # policy name is short.
        assert len(separator) == len("policy") + 50
