"""Host-time benchmark of the simulator: sweep, serve and crash recovery.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-micro --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` also runs one
pass with every layer wrapped and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; progress goes to standard error.

Method (see README.md): a pass of a workload is split into pieces, each a
direct call into a public ``repro`` entry point.  Passes repeat until the
timed work adds up to ``--seconds``.  A short calibration loop runs every
25 ms throughout, and host times are scaled by how fast it ran
(:class:`Calibrator`).  Set-up (workload preparation and trace
compilation) is timed by wrappers, excluded from ``wall_s`` and reported
as ``setup_s``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare_environment() -> None:
    """Point the process at the checkout's sources and turn every
    on-disk cache off, so no state outside this run can make it faster."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no simulator sources at {src}; run from a full checkout")
    os.environ["REPRO_SWEEP_CACHE"] = "0"
    os.environ["REPRO_TRACE_CACHE"] = "0"
    os.environ["REPRO_CACHE_DIR"] = str(OUT / "unused-cache")
    os.environ.pop("REPRO_TRACE", None)
    sys.path.insert(0, str(src))


#: Iterations of the calibration loop, the seconds it takes on the
#: reference host (a 2.0 GHz Xeon vCPU under CPython 3.11, at its
#: fastest), and how often it runs while a workload is timed.
CALIBRATION_LOOPS = 10_000
CALIBRATION_REFERENCE_S = 0.00075
CALIBRATION_INTERVAL_S = 0.025


class Calibrator:
    """Samples host speed throughout a run with a fixed calibration loop.

    The host this benchmark was written on runs the same code up to 1.6x
    slower for stretches of a fraction of a second to tens of seconds.
    Interpreted code slows about in step with a pure-Python loop, so a
    timer signal runs a short loop every ``CALIBRATION_INTERVAL_S``
    seconds, between two bytecodes of whatever is running, and records
    how long it took.  :meth:`clock` is ``perf_counter`` minus the time
    spent in those loops, so the loops never count as workload time.
    """

    def __init__(self) -> None:
        self.bursts: List[float] = []
        self.spent = 0.0

    def _burst(self, _signum, _frame) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i % 7
        seconds = time.perf_counter() - start
        self.bursts.append(seconds)
        self.spent += seconds

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Mean over the run of reference loop time / sampled loop time.

        Work done at a sampled speed counts for its reference seconds,
        so the factor averages the speed ratio itself, not its inverse.
        """
        return statistics.mean(CALIBRATION_REFERENCE_S / burst for burst in self.bursts)


class Sample(NamedTuple):
    """One timed piece, in seconds that exclude calibration loops."""

    pass_no: int
    piece: str
    elapsed: float
    setup: float


def calibrated(samples: List[Sample], scale: float) -> Tuple[float, float]:
    """``(wall_s, setup_s)`` of a run, in calibrated seconds.

    ``wall_s`` is the mean pass time without set-up (the run's total
    over its number of passes); ``setup_s`` is the median, over the
    passes that set up, of a pass's set-up time.  Both are multiplied
    by the run's calibration ``scale``.
    """
    timed: Dict[int, float] = {}
    setup: Dict[int, float] = {}
    for sample in samples:
        timed[sample.pass_no] = timed.get(sample.pass_no, 0.0) + sample.elapsed - sample.setup
        if sample.setup > 0:
            setup[sample.pass_no] = setup.get(sample.pass_no, 0.0) + sample.setup
    wall_s = statistics.mean(timed.values()) * scale
    setup_s = statistics.median(setup.values()) * scale if setup else 0.0
    return wall_s, setup_s


def _run_pass(scenario, timer, clock, pass_no, samples, outcomes) -> float:
    """One pass over every piece; returns its timed (non-set-up) seconds."""
    timed = 0.0
    for piece in scenario.pieces():
        gc.collect()
        scenario.hook.reset()
        timer.take()
        start = clock()
        result = scenario.run(piece)
        elapsed = clock() - start
        spent_in_setup = timer.take()
        samples.append(Sample(pass_no, piece, elapsed, spent_in_setup))
        outcomes.append(scenario.check(piece, result))
        timed += elapsed - spent_in_setup
    return timed


def _totals(outcomes):
    counters = {}
    totals = {"ops": 0, "instructions": 0, "cycles": 0.0, "ipc_cycles": 0.0}
    for outcome in outcomes:
        for name, value in outcome.counters.items():
            counters[name] = counters.get(name, 0) + value
        totals["ops"] += outcome.ops
        totals["instructions"] += outcome.instructions
        totals["cycles"] += outcome.cycles
        totals["ipc_cycles"] += outcome.ipc_cycles
    return counters, totals


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_counters(counters, label_calls):
    """Per-layer simulated counters, each ratio next to its base."""
    c = counters.get
    l1 = c("l1_hits", 0) + c("l1_misses", 0)
    llc = c("llc_hits", 0) + c("llc_misses", 0)
    rows = c("nvram_row_hits", 0) + c("nvram_row_conflicts", 0)
    return {
        "sim.hierarchy.l1_accesses": (l1, "count"),
        "sim.hierarchy.l1_hit_ratio": (_ratio(c("l1_hits", 0), l1), "ratio"),
        "sim.hierarchy.llc_accesses": (llc, "count"),
        "sim.hierarchy.llc_hit_ratio": (_ratio(c("llc_hits", 0), llc), "ratio"),
        "sim.hierarchy.writebacks": (c("writebacks", 0), "count"),
        "sim.memctrl.nvram_write_bytes": (c("nvram_write_bytes", 0), "B"),
        "sim.memctrl.row_accesses": (rows, "count"),
        "sim.memctrl.row_hit_ratio": (_ratio(c("nvram_row_hits", 0), rows), "ratio"),
        "sim.memctrl.write_queue_stall_cycles": (c("write_queue_stall_cycles", 0), "cycles"),
        "core.log.records": (c("log_records", 0), "count"),
        "core.log.bytes": (c("log_bytes", 0), "B"),
        "core.log.buffer_stall_cycles": (c("log_buffer_stall_cycles", 0), "cycles"),
        "core.log.wrap_forced_writebacks": (c("log_wrap_forced_writebacks", 0), "count"),
        "core.log.clwb_count": (c("clwb_count", 0), "count"),
        "core.log.fence_stall_cycles": (c("fence_stall_cycles", 0), "cycles"),
        "core.fwb.scans": (c("fwb_scans", 0), "count"),
        "core.fwb.lines_scanned": (c("fwb_lines_scanned", 0), "count"),
        "core.fwb.writebacks": (c("fwb_writebacks", 0), "count"),
        "core.fwb.useful_ratio": (
            _ratio(c("fwb_writebacks", 0), c("fwb_lines_scanned", 0)),
            "ratio",
        ),
        "core.fwb.tax_cycles": (c("fwb_tax_cycles", 0), "cycles"),
        "sched.steps": (label_calls.get("repro.sched.shard.ShardMachine.step", 0), "count"),
        "sched.rejected": (c("rejected", 0), "count"),
        "sched.latency_samples": (c("completed", 0), "count"),
        "sched.p50_cycles": (c("p50", 0), "cycles"),
        "sched.p99_cycles": (c("p99", 0), "cycles"),
        "core.recovery.recoveries": (c("recoveries", 0), "count"),
        "core.recovery.records_scanned": (c("records_scanned", 0), "count"),
        "core.recovery.replay_writes": (c("replay_writes", 0), "count"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _prepare_environment()

    import golden as golden_store
    import scenarios
    import tracing

    if args.workload not in scenarios.SCENARIOS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(scenarios.SCENARIOS)}"
        )
    tracing.import_repro()
    tracing.check_targets()

    scenario = scenarios.SCENARIOS[args.workload](
        args.seed, golden_store.load(args.workload, args.seed)
    )
    calibrator = Calibrator()
    timer = tracing.SetupTimer(calibrator.clock)
    timer.install()
    scenario.hook.install()

    samples: List[Sample] = []
    outcomes = []
    first_pass = None
    timed = 0.0
    passes = 0
    min_passes = max(scenario.cold_passes + 1, 3)
    calibrator.start()
    try:
        while passes < min_passes or timed < args.seconds:
            scenario.begin_pass(cold=passes < scenario.cold_passes)
            pass_outcomes = []
            timed += _run_pass(scenario, timer, calibrator.clock, passes, samples, pass_outcomes)
            outcomes.extend(pass_outcomes)
            if first_pass is None:
                first_pass = pass_outcomes
            passes += 1
    finally:
        calibrator.stop()
    outcomes.append(scenario.final_check())

    OUT.mkdir(parents=True, exist_ok=True)
    samples_path = OUT / f"samples-{scenario.name}-{args.seed}.json"
    samples_path.write_text(
        json.dumps(
            {
                "samples": [sample._asdict() for sample in samples],
                "bursts": calibrator.bursts,
            }
        )
    )
    counters, totals = _totals(first_pass)
    scale = calibrator.scale()
    wall_s, setup_s = calibrated(samples, scale)
    print(
        f"{scenario.name} seed={args.seed}: {passes} passes, "
        f"wall_s={wall_s:.4f} setup_s={setup_s:.4f} calibration scale={scale:.4f} "
        f"(uncalibrated pass {sum(sample.elapsed for sample in samples) / passes:.4f})",
        file=sys.stderr,
    )

    errors = []
    if args.trace:
        metrics, traced_outcomes = _traced_pass(
            args, scenario, timer, wall_s + setup_s, scale
        )
        outcomes.extend(traced_outcomes)
        if _totals(traced_outcomes)[0] != counters:
            errors.append("traced pass counters differ from the untraced pass")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "sim_instr_per_s": (totals["instructions"] / wall_s, "1/s"),
            "ops_per_s": (totals["ops"] / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "sim_cycles": (totals["cycles"], "cycles"),
            "sim_ipc": (totals["instructions"] / totals["ipc_cycles"], "instr/cycle"),
        }
    timer.restore()
    scenario.hook.restore()

    errors += [error for outcome in outcomes for error in outcome.errors]
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    print(f"attempted={attempted} failed={failed}", file=sys.stderr)
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def _traced_pass(args, scenario, timer, untraced_total_s, scale):
    """One cold pass with every layer wrapped.

    Returns the per-layer metrics and the pass's checked outcomes.  No
    calibration loop runs during this pass, so spans hold only workload
    time; the overhead ratio reuses the untraced run's scale.
    """
    import tracing

    tracer = tracing.Tracer()
    scenario.begin_pass(cold=True)
    samples: List[Sample] = []
    outcomes = []
    tracer.install()
    origin = time.perf_counter()
    try:
        _run_pass(scenario, timer, time.perf_counter, 0, samples, outcomes)
    finally:
        tracer.restore()
    traced_total_s = sum(sample.elapsed for sample in samples)
    calibrated_total_s = sum(calibrated(samples, scale))
    counters, _ = _totals(outcomes)
    tracer.write_spans(OUT / f"spans-{scenario.name}-{args.seed}.jsonl", origin)

    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
    unattributed = traced_total_s - sum(tracer.self_s.values())
    metrics["unattributed.self_s"] = (unattributed, "s")
    metrics["trace.wall_s"] = (traced_total_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_total_s, "s")
    metrics["trace.overhead_ratio"] = (calibrated_total_s / untraced_total_s, "ratio")
    metrics.update(layer_counters(counters, tracer.label_calls))
    return metrics, outcomes


if __name__ == "__main__":
    sys.exit(main())
