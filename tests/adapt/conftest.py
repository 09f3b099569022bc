"""Shared helper for the adaptive-logging tests: a closed-loop run with
one (or several) mid-run design switches, built the same way the switch
fault campaign builds its runs."""

from __future__ import annotations

from repro.adapt.faults import run_with_switches as drive_with_switches
from repro.core.design import resolve_design
from repro.faults.campaign import campaign_workload, default_campaign_system
from repro.harness.runner import RunConfig, _build_run, prepare_workload


def run_with_switches(
    specs,
    switch_at,
    threads: int = 2,
    txns_per_thread: int = 24,
    workload: str = "hash",
    seed: int = 7,
    machine_hook=None,
):
    """Run ``workload`` under ``specs[0]``, switching to each later spec
    at the matching commit count in ``switch_at``; returns the machine
    and persistent-memory handle after a finished run.
    """
    specs = [resolve_design(spec) for spec in specs]
    assert len(switch_at) == len(specs) - 1
    system = default_campaign_system()
    wl = campaign_workload(workload, seed)
    prepared = prepare_workload(wl, system)
    machine, pm, wl = _build_run(
        wl, RunConfig(specs[0], threads, txns_per_thread), prepared, machine_hook
    )
    drive_with_switches(
        machine, pm, wl, threads, txns_per_thread, list(zip(switch_at, specs[1:]))
    )
    return machine, pm
