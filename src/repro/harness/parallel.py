"""Parallel sweep execution over worker processes, with self-healing.

Sweep cells are embarrassingly parallel: each one builds a private
machine, restores a prepared NVRAM snapshot and runs to completion with
no shared mutable state.  :func:`run_cells_parallel` fans a list of cells
over a :class:`~concurrent.futures.ProcessPoolExecutor`.

The prepared workloads (the expensive part — megabytes of set-up NVRAM
image) are shipped **once per worker** through the pool initializer
rather than once per cell; :class:`~repro.harness.runner.PreparedWorkload`
pickles with its image prefix zlib-compressed, so even spawn-based start
methods pay far less than the raw device size.  Results are plain
:class:`~repro.sim.stats.MachineStats` dataclasses, cheap to return.

Self-healing: long sweeps die ugly when one worker is OOM-killed or
wedges on a pathological cell.  The driver therefore

* bounds each cell's wait with ``cell_timeout`` (hung workers are
  terminated, not joined forever),
* retries the failed remainder up to ``max_retries`` times on a fresh
  pool, with exponential backoff starting at ``retry_backoff`` seconds,
* finally runs whatever still failed **serially in-process**, where no
  pool machinery can eat the result,

and records what happened in a :class:`SweepHealth`.  Because a cell's
outcome is a pure function of its configuration, a retried or
serially-recovered cell returns bit-identical stats to a first-try run
(covered by ``tests/harness/test_parallel_sweep.py``).

Determinism: a cell's outcome depends only on its configuration, never on
which process runs it, so ``jobs=N`` is bit-identical to the serial loop.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, TimeoutError
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from ..sim.stats import MachineStats
from .runner import PreparedWorkload, RunConfig, run_workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweep imports us)
    from .sweep import SweepCell

#: Per-worker prepared state, installed by :func:`_init_worker`: prepared
#: workloads keyed by benchmark, compiled traces keyed
#: ``trace:<benchmark>@<threads>`` (as ``(system, trace)`` pairs).
_WORKER_PREPARED: Dict[str, object] = {}

#: Test-only fault hook (see :func:`_apply_test_fault`).
ENV_FAULT_DIR = "REPRO_SWEEP_FAULT_DIR"


@dataclass
class SweepHealth:
    """What the self-healing driver had to do to finish a sweep."""

    worker_deaths: int = 0
    timeouts: int = 0
    retry_rounds: int = 0
    serial_fallback_cells: int = 0

    @property
    def degraded(self) -> bool:
        """True when any cell needed more than one attempt."""
        return bool(
            self.worker_deaths
            or self.timeouts
            or self.retry_rounds
            or self.serial_fallback_cells
        )

    def merge(self, other: "SweepHealth") -> None:
        """Accumulate ``other`` into this record (multi-sweep CLIs)."""
        self.worker_deaths += other.worker_deaths
        self.timeouts += other.timeouts
        self.retry_rounds += other.retry_rounds
        self.serial_fallback_cells += other.serial_fallback_cells

    def summary(self) -> str:
        """One-line report for CLI output."""
        if not self.degraded:
            return "sweep health: clean (no retries needed)"
        return (
            f"sweep health: {self.worker_deaths} worker death(s), "
            f"{self.timeouts} timeout(s), {self.retry_rounds} retry "
            f"round(s), {self.serial_fallback_cells} cell(s) recovered "
            f"serially"
        )


def _init_worker(prepared_map: Dict[str, object]) -> None:
    """Pool initializer: receive the prepared workloads once."""
    global _WORKER_PREPARED
    _WORKER_PREPARED = prepared_map


def _apply_test_fault(cell: "SweepCell") -> None:
    """Deterministic worker-fault hook, armed only via environment.

    When ``REPRO_SWEEP_FAULT_DIR`` names a directory, a file
    ``kill-<benchmark>-<threads>-<policy>`` inside it makes the worker
    consume the file and die (``os._exit``) — exactly one death per
    armed file — and ``hang-<...>`` makes it sleep far past any sane
    ``cell_timeout``.  Only :func:`_run_cell` (worker processes) consults
    the hook, so the serial fallback is immune by construction.  This
    exists so the retry/fallback machinery is testable; production runs
    never set the variable.
    """
    root = os.environ.get(ENV_FAULT_DIR)
    if not root:
        return
    name = f"{cell.benchmark}-{cell.threads}-{cell.policy.value}"
    kill = os.path.join(root, f"kill-{name}")
    if os.path.exists(kill):
        try:
            os.unlink(kill)
        except OSError:
            pass
        os._exit(1)
    if os.path.exists(os.path.join(root, f"hang-{name}")):
        time.sleep(3600)


def _psan_hook(holder: dict):
    """A ``machine_hook`` that attaches a psan checker into ``holder``."""
    from ..sanitizer.checker import PersistOrderChecker

    def hook(machine) -> None:
        holder["checker"] = PersistOrderChecker.attach(machine)

    return hook


def _finish_psan(
    holder: dict,
    stats: MachineStats,
    benchmark: str,
    threads: int,
    trace_path: Optional[str] = None,
):
    """Evaluate an attached checker and stash its report on the stats.

    The report rides back to the driver as an extra attribute —
    :class:`~repro.sim.stats.MachineStats` pickles with its instance
    dict, so worker-process results carry it across the pool boundary.
    ``trace_path`` first saves the checked event stream as JSONL.
    """
    checker = holder.pop("checker")
    if trace_path is not None:
        checker.tracer.to_jsonl(trace_path)
    report = checker.finish()
    report.benchmark = benchmark
    report.threads = threads
    stats.psan_report = report


def cell_entry(prepared_map: Dict[str, object], cell: "SweepCell"):
    """The shipped entry a cell runs from: its compiled trace, shipped
    under ``trace:<benchmark>@<threads>`` as a ``(system, trace)`` pair,
    or else its benchmark's prepared workload."""
    entry = prepared_map.get(f"trace:{cell.benchmark}@{cell.threads}")
    return prepared_map[cell.benchmark] if entry is None else entry


def run_cell(
    entry,
    cell: "SweepCell",
    txns_per_thread: int,
    psan: bool = False,
    trace_path: Optional[str] = None,
) -> MachineStats:
    """Run one sweep cell from its shipped entry; returns its stats.

    A ``(system, trace)`` entry replays the trace (bit-identical stats,
    far cheaper); a :class:`PreparedWorkload` entry interprets the
    workload from its snapshot.  The finished machine's NVRAM buffer is
    recycled, saving an allocate+zero of the full device for the next
    cell.  Worker processes, the serial sweep, the serial fallback and
    ``run_psan`` all run cells through here; ``psan`` and ``trace_path``
    go to :func:`_psan_hook` / :func:`_finish_psan`.
    """
    holder: dict = {}
    hook = _psan_hook(holder) if psan else None
    if isinstance(entry, PreparedWorkload):
        outcome = run_workload(
            entry.workload,
            RunConfig(cell.policy, cell.threads, txns_per_thread, entry.system),
            prepared=entry,
            machine_hook=hook,
        )
    else:
        from ..sim.replay import run_compiled

        system, trace = entry
        outcome = run_compiled(
            trace,
            RunConfig(cell.policy, cell.threads, txns_per_thread, system),
            machine_hook=hook,
        )
    outcome.machine.nvram.recycle()
    if psan:
        _finish_psan(
            holder, outcome.stats, cell.benchmark, cell.threads, trace_path
        )
    return outcome.stats


def _run_cell(cell: "SweepCell", txns_per_thread: int, psan: bool) -> MachineStats:
    """Worker-process entry: run one cell from the worker's shipped map."""
    _apply_test_fault(cell)
    return run_cell(cell_entry(_WORKER_PREPARED, cell), cell, txns_per_thread, psan)


def default_jobs(cells: int) -> int:
    """CPU-aware worker count for sweeps that don't pin ``jobs``.

    One worker per pending cell, capped at ``os.cpu_count() - 1`` so the
    driver process keeps a core, and never below 1 (which callers treat
    as the serial in-process path — no pool is spun up at all).
    """
    return max(1, min(cells, (os.cpu_count() or 2) - 1))


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard: hung workers are terminated, not joined."""
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass


def _parallel_round(
    prepared_map: Dict[str, object],
    cells: List["SweepCell"],
    txns_per_thread: int,
    jobs: int,
    cell_timeout: Optional[float],
    health: SweepHealth,
    results: Dict["SweepCell", MachineStats],
    psan: bool = False,
) -> List["SweepCell"]:
    """One pool attempt over ``cells``; returns the cells that failed."""
    failed: List["SweepCell"] = []
    pool = ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(prepared_map,)
    )
    broken = False
    timed_out = False
    try:
        futures: List[Tuple["SweepCell", object]] = [
            (
                cell,
                pool.submit(_run_cell, cell, txns_per_thread, psan),
            )
            for cell in cells
        ]
        for cell, future in futures:
            try:
                results[cell] = future.result(timeout=cell_timeout)
            except TimeoutError:
                health.timeouts += 1
                timed_out = True
                failed.append(cell)
            except BrokenExecutor:
                if not broken:
                    # One death breaks the whole pool; every unfinished
                    # future fails fast, so count the death once.
                    health.worker_deaths += 1
                    broken = True
                failed.append(cell)
    finally:
        if timed_out or broken:
            _terminate_pool(pool)
        else:
            pool.shutdown(wait=True)
    return failed


def run_cells_parallel(
    prepared_map: Dict[str, object],
    cells: Iterable["SweepCell"],
    txns_per_thread: int,
    jobs: int,
    cell_timeout: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff: float = 0.5,
    health: Optional[SweepHealth] = None,
    psan: bool = False,
) -> Dict["SweepCell", MachineStats]:
    """Execute ``cells`` across ``jobs`` worker processes, self-healing.

    ``psan=True`` runs every cell under the persistency-ordering
    sanitizer; each returned stats object carries its cell's
    :class:`~repro.sanitizer.rules.PsanReport` as ``psan_report``.

    ``cell_timeout`` bounds the wait for each cell's result (None waits
    forever); cells lost to a timeout or a worker death are retried on a
    fresh pool up to ``max_retries`` times with exponential backoff
    (``retry_backoff * 2**round`` seconds), and whatever still fails is
    recovered serially in the driver process.  ``health`` (optional)
    accumulates what happened for CLI reporting.

    Returns ``{cell: stats}``; callers impose their own ordering (dict
    iteration order here is submission order, which the sweep re-sorts
    into canonical matrix order anyway).  Results are bit-identical to
    the serial loop regardless of how many attempts a cell needed.
    """
    if health is None:
        health = SweepHealth()
    remaining = list(cells)
    results: Dict["SweepCell", MachineStats] = {}
    attempt = 0
    while remaining and attempt <= max_retries:
        if attempt:
            health.retry_rounds += 1
            time.sleep(retry_backoff * (2 ** (attempt - 1)))
        remaining = _parallel_round(
            prepared_map,
            remaining,
            txns_per_thread,
            jobs,
            cell_timeout,
            health,
            results,
            psan,
        )
        attempt += 1
    # Last resort: no pool machinery between us and the result.
    for cell in remaining:
        health.serial_fallback_cells += 1
        results[cell] = run_cell(
            cell_entry(prepared_map, cell), cell, txns_per_thread, psan
        )
    return results
