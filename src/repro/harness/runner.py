"""Single-experiment driver.

Builds a machine under a design spec, sets a workload up (untimed), then runs
one transaction-generator per thread, always advancing the thread whose
core clock is furthest behind — a fair interleaving in which the shared
LLC and NVRAM banks see time-ordered contention.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass, field
from typing import Optional

from ..core.design import NON_PERS, DesignSpec, resolve_design
from ..errors import WorkloadError
from ..sim.config import SystemConfig
from ..sim.machine import Machine
from ..sim.stats import MachineStats
from ..txn.runtime import PersistentMemory
from ..workloads.base import Workload


def default_experiment_config(**overrides) -> SystemConfig:
    """Scaled-down Table II configuration used by the experiments.

    The LLC and footprints are scaled together (1 MB LLC against multi-MB
    footprints preserves the paper's footprint >> LLC regime) so that runs
    finish in seconds under the Python simulator; all latency, bank and
    energy parameters stay at their Table II values.  See EXPERIMENTS.md.
    """
    from ..sim.config import CacheConfig, LoggingConfig, NVDimmConfig

    base = SystemConfig(
        num_cores=8,
        llc=CacheConfig(size_bytes=256 * 1024, ways=16, line_size=64, latency_ns=4.4),
        nvram=NVDimmConfig(size_bytes=64 * 1024 * 1024),
        logging=LoggingConfig(log_entries=16384),
    )
    return base.scaled(**overrides) if overrides else base


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one simulated run.

    ``policy`` accepts a :class:`~repro.core.design.DesignSpec` or a
    name / mechanism string and normalizes to the spec.
    """

    policy: DesignSpec
    threads: int = 1
    txns_per_thread: int = 200
    system: Optional[SystemConfig] = None

    def __post_init__(self) -> None:
        if not isinstance(self.policy, DesignSpec):
            object.__setattr__(self, "policy", resolve_design(self.policy))


@dataclass
class PreparedWorkload:
    """A workload with its setup phase already executed.

    Setup can dominate sweep time (it builds megabytes of persistent
    structures); preparing once and restoring the NVRAM image per run
    keeps every policy/thread cell bit-identical at start.

    Only the non-zero prefix of the image is stored (setup writes into a
    zeroed device, so everything past the last touched byte is zero) and
    restored into the freshly zeroed machine of each run — the tail of a
    mostly empty multi-megabyte device is never copied or even paged in.
    Instances pickle with the prefix zlib-compressed, so shipping a
    prepared workload to a sweep worker process costs far less than the
    raw device size.
    """

    workload: Workload
    system: SystemConfig
    image_prefix: bytes
    image_size: int
    heap_state: tuple

    @property
    def image(self) -> bytes:
        """The full initial NVRAM image (reconstructed; test/debug use)."""
        return self.image_prefix + bytes(self.image_size - len(self.image_prefix))

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["image_prefix"] = zlib.compress(self.image_prefix, 1)
        state["_compressed"] = True
        return state

    def __setstate__(self, state: dict) -> None:
        if state.pop("_compressed", False):
            state["image_prefix"] = zlib.decompress(state["image_prefix"])
        self.__dict__.update(state)


def prepare_workload(
    workload: Workload, system: Optional[SystemConfig] = None
) -> PreparedWorkload:
    """Run ``workload.setup`` once and capture the initial NVRAM state."""
    system = system or default_experiment_config()
    machine = Machine(system, NON_PERS)
    pm = PersistentMemory(machine)
    workload.setup(pm)
    # Setup writes into a zeroed device, so only the written extent can
    # be non-zero; strip trailing zeros off that extent rather than
    # copying and scanning the whole (mostly empty) image.
    lo_end, hi_start = machine.nvram.written_extent()
    if hi_start < system.nvram.size_bytes:
        lo_end = system.nvram.size_bytes
    prefix = bytes(machine.nvram.image[:lo_end]).rstrip(b"\x00")
    prepared = PreparedWorkload(
        workload, system, prefix, system.nvram.size_bytes, pm.heap.snapshot()
    )
    machine.nvram.recycle()
    return prepared


@dataclass
class RunOutcome:
    """Everything a finished run exposes."""

    policy: DesignSpec
    threads: int
    stats: MachineStats
    machine: Machine = field(repr=False)
    pm: PersistentMemory = field(repr=False)

    @property
    def throughput(self) -> float:
        """Committed transactions per million cycles."""
        return self.stats.throughput

    @property
    def ipc(self) -> float:
        """Aggregate instructions per cycle."""
        return self.stats.ipc


def _build_run(
    workload: Workload,
    run: RunConfig,
    prepared: Optional[PreparedWorkload],
    machine_hook,
):
    """Shared run construction: machine, memory, and a ready workload.

    The one snapshot restore: batch runs, trace replay, fault points,
    serve and drift shards and the mid-run-switch loops all build
    their machines here, so every cell starts from the same image.
    With ``prepared``, the setup phase is skipped and the prepared NVRAM
    image and heap state are restored instead (the workload must have the
    same identity key as the prepared one; see
    :meth:`~repro.workloads.base.Workload.identity_key`).

    ``machine_hook(machine)``, when given, is called on the freshly built
    machine before any setup or execution — the attachment point for
    tracers and the persistency-ordering sanitizer (setup uses untimed
    pokes, so a tracer attached here sees only timed execution).

    Returns ``(machine, pm, workload)`` with ``reset_run_state`` already
    applied (the post-reset state is the baseline checkpoint shards
    capture at construction).
    """
    system = run.system or (prepared.system if prepared else default_experiment_config())
    if run.threads > system.num_cores:
        raise WorkloadError(
            f"{run.threads} threads need {run.threads} cores, "
            f"config has {system.num_cores}"
        )
    machine = Machine(system, run.policy)
    if machine_hook is not None:
        machine_hook(machine)
    pm = PersistentMemory(machine)
    if prepared is not None:
        # Identity-key comparison (not object identity): a prepared
        # workload that crossed a pickle boundary — e.g. shipped to a
        # sweep worker process — is a different object with the same
        # configuration and post-setup state, and must be accepted.
        if prepared.workload.identity_key() != workload.identity_key():
            raise WorkloadError("prepared state belongs to a different workload")
        # The prepared instance carries the post-setup host-side state
        # (layout addresses, resident sets); run that one even if the
        # caller passed an equivalent fresh instance.
        workload = prepared.workload
        machine.nvram.load_image_prefix(prepared.image_prefix)
        pm.heap.restore(prepared.heap_state)
        workload.attach(pm)
    else:
        workload.setup(pm)
    workload.reset_run_state()
    return machine, pm, workload


def run_workload(
    workload: Workload,
    run: RunConfig,
    prepared: Optional[PreparedWorkload] = None,
    machine_hook=None,
) -> RunOutcome:
    """Execute ``workload`` under ``run`` and return the outcome.

    Since the service-layer refactor this is a thin adapter: the run is
    a single :class:`~repro.sched.shard.ShardMachine` in batch mode,
    drained to completion by the event-loop scheduler.  The shard's step
    loop replicates the historical core-clock min-heap drive order, so
    outcomes are bit-identical to the pre-refactor monolithic loop
    (kept below as :func:`run_workload_monolithic`; the differential
    gate in ``tests/integration`` compares the two).
    """
    # Local imports: harness is a lower layer that sched builds on for
    # serve mode; the adapter pulls sched in lazily to avoid the cycle.
    from ..sched.loop import EventLoopScheduler
    from ..sched.shard import ShardMachine

    machine, pm, workload = _build_run(workload, run, prepared, machine_hook)
    shard = ShardMachine(machine, pm, workload, threads=run.threads)
    shard.start_batch(run.txns_per_thread)
    EventLoopScheduler([shard]).drain()
    stats = machine.finalize()
    return RunOutcome(run.policy, run.threads, stats, machine, pm)


def run_workload_monolithic(
    workload: Workload,
    run: RunConfig,
    prepared: Optional[PreparedWorkload] = None,
    machine_hook=None,
) -> RunOutcome:
    """The pre-refactor single-loop runner, kept as the reference.

    Drives every thread generator to completion with one private
    min-heap on ``(core_time, tid)``.  The differential gate runs this
    against :func:`run_workload` to prove the steppable-shard path is
    bit-identical in cost counters; it is not used by any entry point.
    """
    machine, pm, workload = _build_run(workload, run, prepared, machine_hook)

    generators = []
    for tid in range(run.threads):
        api = pm.api(core_id=tid, tid=tid)
        generators.append(workload.thread_body(api, tid, run.txns_per_thread))

    # Min-heap on core clock; tie-break on thread id for determinism.
    ready = [(machine.core_time(tid), tid) for tid in range(run.threads)]
    heapq.heapify(ready)
    while ready:
        _, tid = heapq.heappop(ready)
        try:
            next(generators[tid])
        except StopIteration:
            continue
        heapq.heappush(ready, (machine.core_time(tid), tid))

    stats = machine.finalize()
    return RunOutcome(run.policy, run.threads, stats, machine, pm)
