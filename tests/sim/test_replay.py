"""Execution-engine guarantees beyond raw stats equivalence.

* replay reproduces the **full tracer event stream** of an interpreted
  run (time, kind, core, detail — not just counters), so every tracer
  consumer (psan included) sees identical input;
* the persistency-ordering sanitizer reaches the same verdicts (and the
  same diagnostics) over the compiled path;
* an untraced replay leaves the same final NVRAM image and the same
  golden model as the interpreter, and an event-indexed fault monitor
  crashes both at the same cycle with the same surviving image;
* the trace codec and pickling round-trip without changing replay
  behaviour.
"""

import dataclasses
import hashlib
import pickle

import pytest

from repro.core.design import CANONICAL_DESIGNS, FWB, HWL, UNDO_CLWB, UNSAFE_BASE
from repro.errors import SimulatedCrash, WorkloadError
from repro.faults.crashpoints import CrashPoint, EventKind, FaultMonitor
from repro.harness.runner import RunConfig, prepare_workload, run_workload
from repro.sanitizer.checker import PersistOrderChecker
from repro.sim.ctrace import CompiledTrace
from repro.sim.replay import compile_trace, run_compiled
from repro.sim.trace import Tracer
from repro.workloads.hashtable import HashTableWorkload
from tests.conftest import tiny_system

THREADS = 2
TXNS = 6


@pytest.fixture(scope="module")
def prepared():
    return prepare_workload(
        HashTableWorkload(seed=11, buckets_per_partition=16, keys_per_partition=64),
        tiny_system(),
    )


@pytest.fixture(scope="module")
def trace(prepared):
    return compile_trace(prepared, THREADS, TXNS)


def _config(design, system):
    return RunConfig(
        policy=design,
        threads=THREADS,
        txns_per_thread=TXNS,
        system=system,
    )


def _event_tuples(tracer):
    return [
        (event.time, event.kind, event.core, tuple(sorted(event.detail.items())))
        for event in tracer.events()
    ]


class TestEventStreams:
    @pytest.mark.parametrize("design", CANONICAL_DESIGNS, ids=lambda d: d.name)
    def test_tracer_stream_identical(self, prepared, trace, design):
        streams = []
        for runner in ("interpret", "replay"):
            tracer = Tracer()

            def hook(machine):
                machine.tracer = tracer

            config = _config(design, prepared.system)
            if runner == "interpret":
                outcome = run_workload(
                    prepared.workload, config, prepared=prepared, machine_hook=hook
                )
            else:
                outcome = run_compiled(trace, config, machine_hook=hook)
            streams.append((_event_tuples(tracer), dataclasses.asdict(outcome.stats)))
        (events_a, stats_a), (events_b, stats_b) = streams
        assert len(events_a) > 0
        assert events_a == events_b
        assert stats_a == stats_b

    @pytest.mark.parametrize(
        "design", [HWL, FWB, UNSAFE_BASE], ids=lambda d: d.name
    )
    def test_psan_verdicts_identical(self, prepared, trace, design):
        reports = []
        for runner in ("interpret", "replay"):
            holder = {}

            def hook(machine):
                holder["checker"] = PersistOrderChecker.attach(machine)

            config = _config(design, prepared.system)
            if runner == "interpret":
                run_workload(
                    prepared.workload, config, prepared=prepared, machine_hook=hook
                )
            else:
                run_compiled(trace, config, machine_hook=hook)
            reports.append(holder["checker"].finish())
        first, second = reports
        assert first.events_processed == second.events_processed > 0
        assert first.txns_checked == second.txns_checked > 0
        assert first.clean == second.clean
        assert [d.to_dict() for d in first.diagnostics] == [
            d.to_dict() for d in second.diagnostics
        ]


def _image_digest(machine):
    nvram = machine.nvram
    return hashlib.sha256(nvram.peek(0, machine.config.nvram.size_bytes)).hexdigest()


def _run(runner, prepared, trace, design, hook=None):
    config = _config(design, prepared.system)
    if runner == "interpret":
        return run_workload(prepared.workload, config, prepared=prepared, machine_hook=hook)
    return run_compiled(trace, config, machine_hook=hook)


class TestUntracedEquivalence:
    @pytest.mark.parametrize("design", CANONICAL_DESIGNS, ids=lambda d: d.name)
    def test_image_and_golden_identical(self, prepared, trace, design):
        results = []
        for runner in ("interpret", "replay"):
            outcome = _run(runner, prepared, trace, design)
            results.append(
                (
                    dataclasses.asdict(outcome.stats),
                    _image_digest(outcome.machine),
                    outcome.pm.golden.commits,
                )
            )
        (stats_a, image_a, golden_a), (stats_b, image_b, golden_b) = results
        assert stats_a == stats_b
        assert image_a == image_b
        assert len(golden_a) == THREADS * TXNS
        assert golden_a == golden_b


class TestCrashThroughReplay:
    @pytest.mark.parametrize("design", [HWL, UNDO_CLWB], ids=lambda d: d.name)
    @pytest.mark.parametrize("kind", [EventKind.RETIRE, EventKind.LOG_DRAIN])
    def test_same_crash_cycle_and_image(self, prepared, trace, design, kind):
        profile = FaultMonitor()

        def attach_profile(machine):
            machine.fault_monitor = profile

        _run("interpret", prepared, trace, design, attach_profile)
        index = profile.counts[kind] // 2
        assert index > 0

        crashes = []
        for runner in ("interpret", "replay"):
            holder = {}

            def attach(machine):
                machine.fault_monitor = FaultMonitor(CrashPoint(kind, index))
                holder["machine"] = machine

            with pytest.raises(SimulatedCrash) as raised:
                _run(runner, prepared, trace, design, attach)
            machine = holder["machine"]
            crash_time = machine.crash_at_point(raised.value)
            crashes.append((crash_time, _image_digest(machine)))
        assert crashes[0] == crashes[1]


class TestShapeChecks:
    """A trace replays only at the shape it was recorded at, on a
    machine with a core per thread."""

    def test_rejects_other_thread_count(self, prepared, trace):
        run = dataclasses.replace(_config(FWB, prepared.system), threads=1)
        with pytest.raises(WorkloadError, match="compiled for 2 threads"):
            run_compiled(trace, run)

    def test_rejects_other_txn_count(self, prepared, trace):
        run = dataclasses.replace(
            _config(FWB, prepared.system), txns_per_thread=TXNS + 1
        )
        with pytest.raises(WorkloadError, match="compiled for 6 txns/thread"):
            run_compiled(trace, run)

    def test_rejects_more_threads_than_cores(self, trace):
        with pytest.raises(WorkloadError, match="2 threads need 2 cores"):
            run_compiled(trace, _config(FWB, tiny_system(num_cores=1)))


class TestCodec:
    def test_roundtrips_preserve_replay(self, prepared, trace):
        config = _config(HWL, prepared.system)
        want = dataclasses.asdict(run_compiled(trace, config).stats)
        decoded = CompiledTrace.from_bytes(trace.to_bytes())
        unpickled = pickle.loads(pickle.dumps(trace))
        for clone in (decoded, unpickled):
            assert dataclasses.asdict(run_compiled(clone, config).stats) == want

    def test_codec_structural_identity(self, trace):
        clone = CompiledTrace.from_bytes(trace.to_bytes())
        assert clone.workload_key == trace.workload_key
        assert clone.threads == trace.threads
        assert clone.txns_per_thread == trace.txns_per_thread
        assert clone.op_count() == trace.op_count()
        assert clone.piece_count() == trace.piece_count()
        assert clone.image_prefix == trace.image_prefix
        assert clone.heap_state == trace.heap_state
        for mine, theirs in zip(trace.thread_cols, clone.thread_cols):
            assert mine.column_blobs() == theirs.column_blobs()
