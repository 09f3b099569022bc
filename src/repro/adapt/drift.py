"""Drift scenarios: workload phase shifts the controller must catch.

A drift scenario is an ordinary open-loop serve run whose request stream
changes character mid-run: each :class:`DriftPhase` remaps the uniform
draws the traffic generator already emits (``op_u`` through the phase's
update ratio, ``key_u`` into a sub-range of the key-popularity table),
so a write-mix shift or hot-key churn costs no new workload code and
stays a pure function of the configuration.

These are exactly the scenarios ROADMAP items 1 and 4 name: no static
:class:`~repro.core.design.DesignSpec` wins every phase — ``nowb`` is
cheapest while the log ring has headroom (no clwb instructions, full
write coalescing), ``clwb`` is cheapest once log wrap starts forcing
dirty lines back — so the adaptive controller, switching at the phase
boundary it *observes* (not one it is told about), beats every static
design on total simulated cycles.  :func:`compare_drift` measures
precisely that claim.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from ..core.design import legal_switch_targets, resolve_design
from ..errors import ConfigError
from ..sched.loop import AdmissionConfig
from ..sched.serve import ServeConfig, default_serve_config, run_serve
from ..sched.traffic import TrafficConfig, open_loop_schedule
from ..sim.config import LoggingConfig, SystemConfig
from ..txn.runtime import ThreadAPI
from ..workloads.rng import ZipfGenerator, thread_rng
from ..workloads.whisper.base import MAX_PARTITIONS
from ..workloads.whisper.ycsb import UPDATE_RATIO, YCSBKernel
from .table import PolicyTable


@dataclass(frozen=True)
class DriftPhase:
    """One phase of the request stream."""

    requests: int
    update_ratio: float
    """Fraction of requests that are updates (the write mix)."""
    key_lo: float = 0.0
    key_hi: float = 1.0
    """``key_u`` is remapped into ``[key_lo, key_hi)``: a narrow range
    near 0 concentrates on the popular head of the key distribution
    (write coalescing), a range near 1 spreads over the tail (distinct
    lines, wrap pressure)."""

    def validate(self) -> None:
        if self.requests <= 0:
            raise ConfigError("phase requests must be positive")
        if not 0.0 <= self.update_ratio <= 1.0:
            raise ConfigError("update_ratio must be in [0, 1]")
        if not 0.0 <= self.key_lo < self.key_hi <= 1.0:
            raise ConfigError("phase key range needs 0 <= lo < hi <= 1")


def remap_op(op_u: float, update_ratio: float) -> float:
    """Reshape a uniform draw so ``P(op_u' < UPDATE_RATIO) == update_ratio``.

    Piecewise-linear and order-preserving within each half, so the draw
    stays uniform conditioned on the operation chosen.
    """
    if update_ratio <= 0.0:
        return UPDATE_RATIO + op_u * (1.0 - UPDATE_RATIO)
    if update_ratio >= 1.0:
        return op_u * UPDATE_RATIO
    if op_u < update_ratio:
        return op_u * (UPDATE_RATIO / update_ratio)
    return UPDATE_RATIO + (op_u - update_ratio) * (
        (1.0 - UPDATE_RATIO) / (1.0 - update_ratio)
    )


def remap_key(key_u: float, key_lo: float, key_hi: float) -> float:
    """Compress a uniform draw into the phase's key sub-range."""
    return key_lo + key_u * (key_hi - key_lo)


#: The write-back family the drift scenarios (and their statics) range
#: over: hardware undo+redo logging, every write-back discipline.
WRITEBACK_FAMILY = ("hw+undo+redo+nowb", "hw+undo+redo+clwb", "hw+undo+redo+fwb")


def drift_system(threads: int = 2) -> SystemConfig:
    """The serve-scale system with a log ring small enough to wrap.

    Wrap pressure is the drift signal; the default serve ring (1 Ki
    entries) would take thousands of requests to fill, 512 do not.
    """
    return default_serve_config(threads, logging=LoggingConfig(log_entries=512))


def drift_serve_config(
    threads: int = 2, seed: int = 42, window_txns: int = 4
) -> ServeConfig:
    """The serve configuration a drift scenario runs under.

    Admission is effectively lossless: every design must serve the whole
    schedule, so total simulated cycles compares equal completed work (a
    bounded queue would let slow designs shed load and look cheap).
    ``seed`` seeds both the workload and the traffic.
    """
    return ServeConfig(
        workload="ycsb",
        policy=WRITEBACK_FAMILY[0],
        threads=threads,
        seed=seed,
        traffic=TrafficConfig(rate=0.02, arrival="uniform", seed=seed),
        admission=AdmissionConfig(max_queue_depth=1 << 20),
        system=drift_system(threads),
        adapt_window_txns=window_txns,
    )


@dataclass
class DriftConfig:
    """One drift scenario: a phase list over a serve configuration."""

    phases: Tuple[DriftPhase, ...] = (
        DriftPhase(256, 0.9, 0.30, 0.65),
        DriftPhase(384, 0.9, 0.65, 1.0),
    )
    """Default drift: a mid-tail update phase whose records fit the log
    ring (``nowb`` free, ``clwb`` pays a write-back per commit on every
    distinct line) into a far-tail update storm that wraps the ring
    (``nowb`` pays inline wrap-force stalls on the first phase's — and
    then its own — still-dirty lines, ``clwb`` clean)."""
    serve: ServeConfig = field(default_factory=drift_serve_config)
    """Everything but the phases; ``serve.policy`` is the starting design
    (also the static baseline family's member) and ``serve.traffic``'s
    request count is replaced by the phases' total."""

    def validate(self) -> None:
        if not self.phases:
            raise ConfigError("a drift scenario needs at least one phase")
        for phase in self.phases:
            phase.validate()

    @property
    def requests(self) -> int:
        return sum(phase.requests for phase in self.phases)


def drift_schedule(config: DriftConfig) -> list:
    """The open-loop schedule with per-phase draw remapping applied."""
    traffic = dataclasses.replace(config.serve.traffic, requests=config.requests)
    phase_of = [phase for phase in config.phases for _ in range(phase.requests)]
    return [
        dataclasses.replace(
            request,
            key_u=remap_key(request.key_u, phase.key_lo, phase.key_hi),
            op_u=remap_op(request.op_u, phase.update_ratio),
        )
        for request, phase in zip(
            open_loop_schedule(traffic, config.serve.shards), phase_of
        )
    ]


# ----------------------------------------------------------------------
# Closed-loop prefix proxy (the trainer's oracle workload)
# ----------------------------------------------------------------------
class DriftSequenceWorkload(YCSBKernel):
    """A closed-loop *prefix* of a drift scenario.

    The offline optimizer can't grid a phase in isolation: a phase's
    cost depends on the state earlier phases left behind (above all the
    log-ring fill — a wrap storm only exists because the previous phase
    filled the ring).  So the oracle cell for phase *k* plays phases
    ``0..k`` in order and stops; the cell for ``k-1`` issues a
    byte-identical transaction stream up to the phase boundary, and
    differencing the two cells' finalized stats yields phase *k*'s
    **in-context** cost and feature vector, full ring and warm caches
    included.  The harness's ``txns_per_thread`` budget is the whole
    sequence's; it is split across phases by request share.
    """

    name = "ycsb-drift-seq"
    description = "Cumulative drift-phase prefix of the zipfian KV mix."

    def __init__(
        self,
        phases: Tuple[DriftPhase, ...],
        upto: int,
        seed: int = 42,
        value_kind: str = "int",
        keys_per_partition: int = 2048,
    ) -> None:
        super().__init__(seed, value_kind, keys_per_partition)
        self.phases = tuple(phases)
        if not 0 <= upto < len(self.phases):
            raise ConfigError("upto must index one of the phases")
        self.upto = int(upto)

    def phase_budgets(self, num_txns: int) -> list:
        """Per-phase transaction counts for a ``num_txns`` budget."""
        total = sum(phase.requests for phase in self.phases)
        return [
            max(1, round(num_txns * phase.requests / total))
            for phase in self.phases
        ]

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        zipf = ZipfGenerator(self.keys_per_partition)
        budgets = self.phase_budgets(num_txns)
        for index in range(self.upto + 1):
            phase = self.phases[index]
            for txn in range(budgets[index]):
                key_u = remap_key(rng.random(), phase.key_lo, phase.key_hi)
                op_u = remap_op(rng.random(), phase.update_ratio)
                key = zipf.rank(key_u) + 1
                with api.transaction():
                    self._request_ops(api, part, key, op_u < UPDATE_RATIO, txn)
                yield


# ----------------------------------------------------------------------
# Scenario execution
# ----------------------------------------------------------------------
#: The finalized shard-stat counters a drift report sums over shards.
_REPORT_COUNTERS = (
    "transactions_committed", "instructions", "log_records",
    "log_wrap_forced_writebacks", "clwb_count", "fwb_writebacks",
    "nvram_write_bytes", "design_switches",
)


def run_drift(config: DriftConfig, table: Optional[PolicyTable] = None) -> dict:
    """Run one drift scenario through :func:`~repro.sched.serve.run_serve`;
    adaptive when ``table`` is given.

    Returns a JSON-ready report: total simulated cycles (the comparison
    metric), completion counts, deterministic cost counters, and — in
    adaptive mode — the controller's full decision log.
    """
    config.validate()
    serve = dataclasses.replace(config.serve, policy_table=table)
    if table is not None and table.start is not None:
        serve = dataclasses.replace(serve, policy=table.start)
    machines = []
    served = run_serve(
        serve,
        lambda _shard_id, machine: machines.append(machine),
        schedule=drift_schedule(config),
    )
    report = {
        "workload": serve.workload,
        "phases": [dataclasses.asdict(phase) for phase in config.phases],
        "start_design": serve.policy.mechanism_string(),
        "adaptive": table is not None,
        "offered": served.offered,
        "admitted": served.admitted,
        "rejected": served.rejected,
        "completed": served.completed,
        "total_cycles": served.makespan_cycles,
        "final_designs": [m.policy.mechanism_string() for m in machines],
        "counters": {
            name: sum(getattr(machine.stats, name) for machine in machines)
            for name in _REPORT_COUNTERS
        },
    }
    if table is not None:
        # start_design / final_designs already head the report.
        report["adaptation"] = {
            key: value
            for key, value in served.adaptation.items()
            if key not in ("start_design", "final_designs")
        }
    return report


def compare_drift(
    config: DriftConfig,
    table: Optional[PolicyTable] = None,
    statics=None,
) -> dict:
    """Adaptive run vs. every static design the controller could pick.

    ``statics`` defaults to the scenario's legal switch family (the
    start design plus every spec the table names, closed under
    legality).  The adaptive claim is ``adaptive_wins``: strictly fewer
    total simulated cycles than *each* static run.
    """
    from .table import default_policy_table

    if table is None:
        table = default_policy_table()
    if statics is None:
        family = [resolve_design(name) for name in WRITEBACK_FAMILY]
        for spec in table.specs():
            if spec not in family:
                family.append(spec)
        statics = legal_switch_targets(config.serve.policy, family)
    adaptive = run_drift(config, table=table)
    static_reports = {}
    for spec in statics:
        static_config = dataclasses.replace(
            config, serve=dataclasses.replace(config.serve, policy=spec)
        )
        static_reports[spec.mechanism_string()] = run_drift(static_config)

    best_cycles, best_name = min(
        (report["total_cycles"], name) for name, report in static_reports.items()
    )
    adaptive_cycles = adaptive["total_cycles"]
    return {
        "adaptive": adaptive,
        "static": static_reports,
        "best_static": best_name,
        "best_static_cycles": best_cycles,
        "adaptive_cycles": adaptive_cycles,
        "adaptive_wins": adaptive_cycles < best_cycles,
        "margin": (
            (best_cycles - adaptive_cycles) / best_cycles if best_cycles else 0.0
        ),
    }
