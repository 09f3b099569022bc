"""Self-test of the benchmark's own checks (about ten seconds).

    python3 perfbench/selftest.py

Shows that the checks can fail: a perturbed golden digest or counter is
counted as a failed operation, a wrapped function that disappears stops
the benchmark, and layer self times add up to the time they cover.
"""

from __future__ import annotations

import copy
import sys
import time

import run

run._prepare_environment()

import golden  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402

SEED = 0


def _one_piece(scenario, piece):
    scenario.hook.install()
    try:
        scenario.begin_pass(cold=True)
        scenario.hook.reset()
        result = scenario.run(piece)
        return result, scenario.check(piece, result)
    finally:
        scenario.hook.restore()


def _perturbed(table, label):
    table = dict(table)
    table[label] = "0" * 16
    return table


def test_sweep_golden_and_counter() -> None:
    table = golden.load("sweep-micro", SEED)
    assert table, "no sweep-micro golden for the self-test seed"
    result, outcome = _one_piece(scenarios.SweepMicro(SEED, table), "hash")
    assert (outcome.attempted, outcome.failed) == (16, 0), outcome.errors

    label = next(iter(outcome.digests))
    checker = scenarios.SweepMicro(SEED, _perturbed(table, label))
    outcome = checker.check("hash", result)
    assert outcome.failed == 1, "a perturbed golden digest must fail one cell"

    changed = copy.deepcopy(result)
    next(iter(changed.cells.values())).l1_hits += 1
    outcome = scenarios.SweepMicro(SEED, table).check("hash", changed)
    assert outcome.failed == 1, "a perturbed counter must fail one cell"


def test_serve_golden() -> None:
    table = golden.load("serve-ycsb", SEED)
    assert table, "no serve-ycsb golden for the self-test seed"
    report, outcome = _one_piece(scenarios.ServeYCSB(SEED, table), "serve")
    assert outcome.failed == 0 and not outcome.errors, outcome.errors
    scenario = scenarios.ServeYCSB(SEED, _perturbed(table, "serve"))
    outcome = scenario.check("serve", report)
    assert outcome.failed == report.offered, "a perturbed serve digest must fail every request"


def test_crash_golden_and_verdict() -> None:
    table = golden.load("crash-recover", SEED)
    assert table, "no crash-recover golden for the self-test seed"
    result, outcome = _one_piece(scenarios.CrashRecover(SEED, table), "redo-clwb")
    assert outcome.attempted > 0 and outcome.failed == 0 and not outcome.errors, outcome.errors
    outcome = scenarios.CrashRecover(SEED, _perturbed(table, "redo-clwb")).check("redo-clwb", result)
    assert outcome.failed == outcome.attempted, "a perturbed digest must fail every point"

    broken = copy.deepcopy(result)
    broken.reports[0].points[0].mismatches = 1
    outcome = scenarios.CrashRecover(SEED, table).check("redo-clwb", broken)
    assert outcome.failed == 1, "a point that recovers to a wrong state must fail"


def test_missing_target_fails() -> None:
    from repro.sim.hierarchy import CacheHierarchy

    original = CacheHierarchy.__dict__["load_fast"]
    del CacheHierarchy.load_fast
    try:
        tracing.check_targets()
    except tracing.MissingTarget as exc:
        assert "load_fast" in str(exc)
    else:
        raise AssertionError("a missing wrapped method must raise MissingTarget")
    finally:
        CacheHierarchy.load_fast = original


def test_self_time_adds_up() -> None:
    tracer = tracing.Tracer()

    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    inner = tracer._make("sim.memctrl", lambda: spin(0.02), "inner")

    def outer_body():
        spin(0.01)
        inner()
        inner()

    outer = tracer._make("sim.core", outer_body, "outer")
    start = time.perf_counter()
    outer()
    total = time.perf_counter() - start
    assert tracer.calls["sim.core"] == 1 and tracer.calls["sim.memctrl"] == 2
    covered = tracer.self_s["sim.core"] + tracer.self_s["sim.memctrl"]
    assert abs(covered - total) < 0.005, (covered, total)
    assert tracer.self_s["sim.memctrl"] >= 0.04
    outer_span = [span for span in tracer.spans if span[3] == "outer"][0]
    assert all(span[1] == outer_span[0] for span in tracer.spans if span[3] == "inner")


def main() -> int:
    tracing.import_repro()
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
