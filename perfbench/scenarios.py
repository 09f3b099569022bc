"""The benchmark's three workloads.

Each scenario splits one pass of its workload into *pieces*, each a
direct call into a public ``repro`` entry point, and checks every piece's
output.  The runner (``run.py``) times the pieces; a scenario only knows
how to run, check and count them.

* ``sweep-micro``: ``run_micro_sweep`` over the five microbenchmarks x
  the eight paper designs x {1, 4} threads, serial and uncached; one
  piece per microbenchmark.
* ``serve-ycsb``: ``run_serve`` for the ``ycsb`` kernel under ``fwb``,
  2 shards x 2 threads, seeded Poisson open loop below saturation.
* ``crash-recover``: ``run_fault_campaign`` on ``hash`` over the four
  guaranteed designs, without its torn-write points (see
  :data:`CRASH_POINTS`); one piece per design.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
from typing import Dict, List, Optional

SWEEP_BENCHMARKS = ("hash", "rbtree", "sps", "btree", "ssca2")
SWEEP_THREADS = (1, 4)
SWEEP_TXNS = 90

SERVE_REQUESTS = 8000
SERVE_RATE = 0.002  # requests per simulated cycle, below saturation
SERVE_SHARDS = 2
SERVE_THREADS = 2

#: Campaign budget per design.  The campaign's torn-write points are
#: dropped from it (:meth:`CrashRecover.run`), which leaves 15 points per
#: design: on about half of all seeds a torn log write under hwl or fwb
#: recovers to a wrong state (``python -m repro faults --seed 3``), a
#: simulator defect that would fail the workload on those seeds.
CRASH_POINTS = 18

#: MachineStats fields summed into the per-layer counters.
COUNTER_FIELDS = (
    "instructions",
    "l1_hits",
    "l1_misses",
    "llc_hits",
    "llc_misses",
    "writebacks",
    "nvram_write_bytes",
    "nvram_row_hits",
    "nvram_row_conflicts",
    "write_queue_stall_cycles",
    "log_records",
    "log_bytes",
    "log_buffer_stall_cycles",
    "log_wrap_forced_writebacks",
    "clwb_count",
    "fence_stall_cycles",
    "fwb_scans",
    "fwb_lines_scanned",
    "fwb_writebacks",
    "fwb_tax_cycles",
)


def stats_digest(stats) -> str:
    """Digest of every counter of a ``MachineStats``."""
    blob = json.dumps(dataclasses.asdict(stats), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class PieceOutcome:
    """What one checked piece contributes to the run's result."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digests: Dict[str, str] = {}
        """Label -> digest of each checked operation."""
        self.counters: Dict[str, float] = {}
        """Simulated counters (deterministic), summed by the runner."""
        self.ops = 0
        """Operations completed (cells, requests or crash points)."""
        self.instructions = 0
        self.cycles = 0.0
        """Simulated cycles as ``sim_cycles`` reports them."""
        self.ipc_cycles = 0.0
        """The cycles ``instructions`` ran over, the ``sim_ipc`` base."""


def sum_stats(stats_list, counters: Dict[str, float]) -> None:
    for stats in stats_list:
        for name in COUNTER_FIELDS:
            counters[name] = counters.get(name, 0) + getattr(stats, name)


class _Hook:
    """Collects return values or receivers of a few rarely called
    methods during a pass (cheap: once per machine or recovery)."""

    def __init__(self) -> None:
        self.finalized: list = []
        self.crashed: list = []
        self.recoveries: list = []
        self._saved: list = []

    def install(self) -> None:
        from repro.core.recovery import RecoveryManager
        from repro.sim.machine import Machine

        hook = self

        finalize = Machine.finalize
        crash = Machine.crash
        recover = RecoveryManager.recover

        def finalize_hook(machine, *args, **kwargs):
            stats = finalize(machine, *args, **kwargs)
            hook.finalized.append(stats)
            return stats

        def crash_hook(machine, *args, **kwargs):
            crash_time = crash(machine, *args, **kwargs)
            hook.crashed.append((machine.stats, crash_time))
            return crash_time

        def recover_hook(manager, *args, **kwargs):
            report = recover(manager, *args, **kwargs)
            hook.recoveries.append(report)
            return report

        for owner, name, value in (
            (Machine, "finalize", finalize_hook),
            (Machine, "crash", crash_hook),
            (RecoveryManager, "recover", recover_hook),
        ):
            self._saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()

    def reset(self) -> None:
        self.finalized.clear()
        self.crashed.clear()
        self.recoveries.clear()


class Scenario:
    """Base: a named workload made of pieces."""

    name = ""
    cold_passes = 1
    """Passes that start from an empty trace cache (set-up included)."""

    def __init__(self, seed: int, golden: Optional[dict]) -> None:
        self.seed = seed
        self.golden = golden
        """Golden digests for this seed, or None when none were captured."""
        self.hook = _Hook()
        self.first: Dict[str, str] = {}
        """Digests of the first pass: later passes must repeat them."""

    def pieces(self) -> List[str]:
        raise NotImplementedError

    def begin_pass(self, cold: bool) -> None:
        """Called before each pass; ``cold`` asks for set-up to happen."""

    def run(self, piece: str):
        raise NotImplementedError

    def check(self, piece: str, result) -> PieceOutcome:
        raise NotImplementedError

    def final_check(self) -> PieceOutcome:
        """Extra checks after the timed passes (outside timing)."""
        return PieceOutcome()

    # ------------------------------------------------------------------
    def compare(self, outcome: PieceOutcome, label: str, digest: str) -> bool:
        """Record ``digest`` for ``label``; False when it disagrees with
        the golden value or with the first pass."""
        outcome.digests[label] = digest
        first = self.first.setdefault(label, digest)
        if digest != first:
            outcome.errors.append(f"{label}: digest {digest} != first pass {first}")
            return False
        if self.golden is not None:
            expected = self.golden.get(label)
            if digest != expected:
                outcome.errors.append(f"{label}: digest {digest} != golden {expected}")
                return False
        return True


class SweepMicro(Scenario):
    name = "sweep-micro"
    cold_passes = 2

    def __init__(self, seed: int, golden: Optional[dict]) -> None:
        super().__init__(seed, golden)
        from repro.core.policy import MICROBENCH_POLICIES

        self.designs = MICROBENCH_POLICIES

    def pieces(self) -> List[str]:
        return list(SWEEP_BENCHMARKS)

    def begin_pass(self, cold: bool) -> None:
        if cold:
            # A fresh in-memory trace cache: the pass prepares and
            # compiles every benchmark, as a cold ``repro figure`` does.
            # Later passes find the traces here and only replay them.
            import repro.harness.cache as cache

            fresh = cache.TraceCache(use_disk=False)
            fresh.MEMO_ENTRIES = len(SWEEP_BENCHMARKS) * len(SWEEP_THREADS)
            cache._SHARED_TRACE_CACHE = fresh

    def run(self, piece: str):
        from repro.harness.sweep import run_micro_sweep

        return run_micro_sweep(
            benchmarks=(piece,),
            threads=SWEEP_THREADS,
            policies=self.designs,
            txns_per_thread=SWEEP_TXNS,
            seed=self.seed,
            jobs=1,
            cache=None,
        )

    def check(self, piece: str, result) -> PieceOutcome:
        outcome = PieceOutcome()
        expected_cells = len(SWEEP_THREADS) * len(self.designs)
        if len(result.cells) != expected_cells:
            outcome.errors.append(
                f"{piece}: {len(result.cells)} cells, expected {expected_cells}"
            )
        for cell, stats in result.cells.items():
            outcome.attempted += 1
            label = f"{cell.benchmark}/{cell.threads}/{cell.policy.value}"
            if not self.compare(outcome, label, stats_digest(stats)):
                outcome.failed += 1
        outcome.ops = len(result.cells)
        stats_list = list(result.cells.values())
        sum_stats(stats_list, outcome.counters)
        outcome.instructions = sum(s.instructions for s in stats_list)
        outcome.cycles = sum(s.cycles for s in stats_list)
        outcome.ipc_cycles = outcome.cycles
        return outcome

    def final_check(self) -> PieceOutcome:
        """Run one seed-sampled cell through the interpreter and compare
        it with its replayed stats (the ``REPRO_TRACE=0`` path)."""
        from repro.harness.sweep import run_micro_sweep

        rng = random.Random(self.seed)
        benchmark = rng.choice(SWEEP_BENCHMARKS)
        threads = rng.choice(SWEEP_THREADS)
        design = rng.choice(self.designs)
        outcome = PieceOutcome()
        outcome.attempted = 1
        label = f"{benchmark}/{threads}/{design.value}"
        previous = os.environ.get("REPRO_TRACE")
        os.environ["REPRO_TRACE"] = "0"
        try:
            result = run_micro_sweep(
                benchmarks=(benchmark,),
                threads=(threads,),
                policies=(design,),
                txns_per_thread=SWEEP_TXNS,
                seed=self.seed,
                jobs=1,
                cache=None,
            )
        finally:
            if previous is None:
                del os.environ["REPRO_TRACE"]
            else:
                os.environ["REPRO_TRACE"] = previous
        (stats,) = result.cells.values()
        digest = stats_digest(stats)
        replayed = self.first.get(label)
        if digest != replayed:
            outcome.failed = 1
            outcome.errors.append(
                f"interpreted {label}: digest {digest} != replayed {replayed}"
            )
        return outcome


class ServeYCSB(Scenario):
    name = "serve-ycsb"

    def pieces(self) -> List[str]:
        return ["serve"]

    def run(self, piece: str):
        from repro.sched.serve import ServeConfig, run_serve
        from repro.sched.traffic import TrafficConfig

        config = ServeConfig(
            workload="ycsb",
            policy="fwb",
            shards=SERVE_SHARDS,
            threads=SERVE_THREADS,
            traffic=TrafficConfig(
                requests=SERVE_REQUESTS, rate=SERVE_RATE, arrival="poisson", seed=self.seed
            ),
            seed=self.seed,
        )
        return run_serve(config)

    def check(self, piece: str, report) -> PieceOutcome:
        outcome = PieceOutcome()
        outcome.attempted = report.offered
        if report.offered != SERVE_REQUESTS:
            outcome.errors.append(f"offered {report.offered} != {SERVE_REQUESTS}")
        if report.offered != report.admitted + report.rejected:
            outcome.errors.append(
                f"offered {report.offered} != admitted {report.admitted} "
                f"+ rejected {report.rejected}"
            )
        outcome.failed = report.rejected + (report.admitted - report.completed)
        if not self.compare(outcome, "serve", report.digest()[:16]):
            outcome.failed = report.offered
        outcome.ops = report.completed
        stats_list = list(self.hook.finalized)
        if len(stats_list) != SERVE_SHARDS:
            outcome.errors.append(f"{len(stats_list)} shard stats, expected {SERVE_SHARDS}")
        sum_stats(stats_list, outcome.counters)
        outcome.counters["rejected"] = report.rejected
        outcome.counters["p50"] = report.p50
        outcome.counters["p99"] = report.p99
        outcome.counters["completed"] = report.completed
        outcome.instructions = sum(s.instructions for s in stats_list)
        outcome.ipc_cycles = sum(s.cycles for s in stats_list)
        outcome.cycles = report.makespan_cycles
        return outcome


class CrashRecover(Scenario):
    name = "crash-recover"

    def __init__(self, seed: int, golden: Optional[dict]) -> None:
        super().__init__(seed, golden)
        from repro.faults.campaign import GUARANTEED_POLICIES

        self.designs = {design.value: design for design in GUARANTEED_POLICIES}

    def pieces(self) -> List[str]:
        return list(self.designs)

    def run(self, piece: str):
        import repro.faults.campaign as campaign

        enumerate_points = campaign.enumerate_points

        def without_torn_writes(*args, **kwargs):
            points = enumerate_points(*args, **kwargs)
            return [point for point in points if point.fault != campaign.FAULT_TORN]

        campaign.enumerate_points = without_torn_writes
        try:
            return campaign.run_fault_campaign(
                policies=(self.designs[piece],),
                workload="hash",
                points=CRASH_POINTS,
                seed=self.seed,
            )
        finally:
            campaign.enumerate_points = enumerate_points

    def check(self, piece: str, result) -> PieceOutcome:
        outcome = PieceOutcome()
        points = [point for report in result.reports for point in report.points]
        outcome.attempted = len(points)
        outcome.failed = sum(1 for point in points if not point.consistent)
        # The digest covers the simulated crash states (which points ran
        # and when they crashed); whether recovery reproduced a golden
        # state is the per-point verdict counted in ``failed``.
        rows = [
            (
                point.point.label,
                point.crash_time,
                point.triggered,
                point.fault_applied,
                point.recovery_interrupted,
            )
            for point in points
        ]
        for point in points:
            if not point.consistent:
                outcome.errors.append(
                    f"{piece} {point.point.label}: recovery left {point.mismatches} "
                    f"mismatching word(s), converged={point.converged}"
                )
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
        if not self.compare(outcome, piece, digest):
            outcome.failed = len(points)
        outcome.ops = len(points)
        crashed = list(self.hook.crashed)
        sum_stats([stats for stats, _ in crashed], outcome.counters)
        reports = list(self.hook.recoveries)
        outcome.counters["recoveries"] = len(reports)
        outcome.counters["records_scanned"] = sum(r.records_scanned for r in reports)
        outcome.counters["replay_writes"] = sum(r.total_writes for r in reports)
        outcome.instructions = sum(stats.instructions for stats, _ in crashed)
        outcome.ipc_cycles = sum(crash_time for _, crash_time in crashed)
        outcome.cycles = sum(point.crash_time for point in points)
        return outcome


SCENARIOS = {cls.name: cls for cls in (SweepMicro, ServeYCSB, CrashRecover)}
