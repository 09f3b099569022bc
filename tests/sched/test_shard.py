"""ShardMachine semantics: horizons, run-state isolation, serve queue."""

import dataclasses

import pytest

from repro.core.design import DESIGNS
from repro.errors import WorkloadError
from repro.harness.runner import (
    RunConfig,
    _build_run,
    prepare_workload,
    run_workload_monolithic,
)
from repro.sched.shard import ShardMachine
from repro.workloads.whisper import make_whisper_kernel
from tests.conftest import tiny_system

FWB = DESIGNS.resolve("fwb")
TXNS = 8


@pytest.fixture(scope="module")
def prepared_redis():
    # redis has real volatile run state (the AOF append cursor), so
    # shard-interleaving bugs that leak state show up in its stats.
    kernel = make_whisper_kernel("redis", seed=2, keys_per_partition=64)
    return prepare_workload(kernel, tiny_system())


def _shard_for(prepared, threads=2):
    machine, pm, workload = _build_run(
        prepared.workload, RunConfig(FWB, threads), prepared, None
    )
    return ShardMachine(machine, pm, workload, threads=threads)


def _reference_stats(prepared, threads=2):
    run = RunConfig(
        policy=FWB, threads=threads, txns_per_thread=TXNS,
        system=prepared.system,
    )
    outcome = run_workload_monolithic(prepared.workload, run, prepared=prepared)
    stats = dataclasses.asdict(outcome.stats)
    outcome.machine.nvram.recycle()
    return stats


def test_horizon_stepping_reaches_the_same_end_state(prepared_redis):
    """Chopping execution into small until_cycle windows must not change
    a single counter relative to one uninterrupted drain."""
    reference = _reference_stats(prepared_redis)
    shard = _shard_for(prepared_redis)
    shard.start_batch(TXNS)
    horizon = 0.0
    while not shard.done:
        horizon += 150.0
        shard.step(horizon)
    stats = dataclasses.asdict(shard.machine.finalize())
    assert stats == reference
    shard.machine.nvram.recycle()


def test_interleaved_shards_cannot_leak_run_state(prepared_redis):
    """Two shards sharing one workload instance, stepped alternately in
    small windows, must each end bit-identical to a solo run — the
    per-shard run-state checkpoint swap is what isolates them."""
    reference = _reference_stats(prepared_redis)
    shard_a = _shard_for(prepared_redis)
    shard_b = _shard_for(prepared_redis)
    shard_a.start_batch(TXNS)
    shard_b.start_batch(TXNS)
    horizon = 0.0
    while not (shard_a.done and shard_b.done):
        horizon += 97.0
        shard_a.step(horizon)
        shard_b.step(horizon)
    stats_a = dataclasses.asdict(shard_a.machine.finalize())
    stats_b = dataclasses.asdict(shard_b.machine.finalize())
    assert stats_a == reference
    assert stats_b == reference
    shard_a.machine.nvram.recycle()
    shard_b.machine.nvram.recycle()


def test_step_counts_generator_advances(prepared_redis):
    shard = _shard_for(prepared_redis)
    shard.start_batch(2)
    total = shard.step(None)
    assert total > 0 and shard.done
    assert shard.step(None) == 0  # idempotent once drained
    shard.machine.nvram.recycle()


def test_too_many_threads_rejected(prepared_redis):
    with pytest.raises(WorkloadError):
        _shard_for(prepared_redis, threads=3)  # tiny system has 2 cores


def test_step_before_start_rejected(prepared_redis):
    shard = _shard_for(prepared_redis)
    with pytest.raises(WorkloadError):
        shard.step(None)
    shard.machine.nvram.recycle()


def test_inject_requires_serve_mode(prepared_redis):
    shard = _shard_for(prepared_redis)
    shard.start_batch(1)
    with pytest.raises(WorkloadError):
        shard.inject(object())
    shard.machine.nvram.recycle()


def test_double_start_rejected(prepared_redis):
    shard = _shard_for(prepared_redis)
    shard.start_batch(1)
    with pytest.raises(WorkloadError):
        shard.start_serve()
    shard.machine.nvram.recycle()
