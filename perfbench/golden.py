"""Golden output digests of the benchmark workloads, per seed.

The digests in ``golden.json`` were captured from the simulator before any
host-time optimisation; a run whose outputs differ counts the affected
operations as failed.  A crash-recover digest covers the crash states
(which points ran and when they crashed), not the recovery verdicts,
which are checked point by point on every run.  Seeds without a golden entry are still checked for
repeatability within the run (and, on ``sweep-micro``, against the
interpreter).

Recapture only when a change means to alter simulated results:

    python3 perfbench/golden.py --seeds 0-15
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def load(workload: str, seed: int) -> Optional[dict]:
    """Golden ``label -> digest`` for one workload and seed, or None."""
    with open(GOLDEN) as handle:
        table = json.load(handle)
    return table.get(workload, {}).get(str(seed))


def _seeds(spec: str) -> list:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def capture(workloads, seeds) -> dict:
    """Run one checked pass per workload and seed; return the digests."""
    import scenarios

    table = {}
    for name in workloads:
        for seed in seeds:
            scenario = scenarios.SCENARIOS[name](seed, None)
            scenario.hook.install()
            try:
                scenario.begin_pass(cold=True)
                digests = {}
                for piece in scenario.pieces():
                    scenario.hook.reset()
                    outcome = scenario.check(piece, scenario.run(piece))
                    for error in outcome.errors:
                        print(f"{name} seed {seed}: {error}", file=sys.stderr)
                    digests.update(outcome.digests)
            finally:
                scenario.hook.restore()
            table.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} digests", file=sys.stderr)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Recapture golden digests.")
    parser.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    parser.add_argument("--workloads", default="sweep-micro,serve-ycsb,crash-recover")
    args = parser.parse_args(argv)
    import run

    run._prepare_environment()
    table = capture(args.workloads.split(","), _seeds(args.seeds))
    if GOLDEN.exists():
        with open(GOLDEN) as handle:
            merged = json.load(handle)
    else:
        merged = {}
    for name, per_seed in table.items():
        merged.setdefault(name, {}).update(per_seed)
    with open(GOLDEN, "w") as handle:
        json.dump(merged, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
