"""Drift reports must match the golden captured before drift scenarios
were routed through ``run_serve``: every cycle count, counter and
controller decision, exactly."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.adapt import DriftConfig, compare_drift, run_drift
from repro.adapt.table import default_policy_table

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "drift_golden.json"


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def _as_json(report: dict) -> dict:
    # Tuples become lists and keys strings, as in the stored file.
    return json.loads(json.dumps(report))


def test_default_comparison_matches_golden():
    assert _as_json(compare_drift(DriftConfig())) == _golden()["compare_default"]


def test_two_shard_adaptive_run_matches_golden():
    base = DriftConfig()
    config = DriftConfig(serve=dataclasses.replace(base.serve, shards=2))
    report = run_drift(config, table=default_policy_table())
    assert _as_json(report) == _golden()["two_shard_adaptive"]
