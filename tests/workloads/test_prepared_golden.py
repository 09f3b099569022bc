"""Prepared-image golden: workload set-up builds exactly the pinned bytes.

``tests/data/prepared_golden.json`` holds, per workload, the sha256 of a
prepared snapshot's NVRAM image prefix followed by ``repr`` of its heap
allocator state, for the five microbenchmarks in both element kinds and
the ten WHISPER kernels at reduced sizes.  The digests were captured
from the byte-granular set-up code (``int.from_bytes``/``to_bytes``
around 8-byte reads and writes) before the accessors gained
``read_word``/``write_word``.  Any change to how set-up reads or writes
persistent words must leave every digest unchanged.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.runner import prepare_workload
from repro.workloads import MICROBENCHMARKS
from repro.workloads.whisper import WHISPER_KERNELS

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "prepared_golden.json"

#: Reduced set-up sizes, keyed by workload name (the one size knob each
#: workload exposes), so the whole matrix prepares in about a second.
SIZES = {
    "hash": {"buckets_per_partition": 256, "keys_per_partition": 2048},
    "rbtree": {"keys_per_partition": 1024},
    "sps": {"entries_per_partition": 1024},
    "btree": {"keys_per_partition": 1024},
    "ssca2": {"vertices_per_partition": 256},
    "ctree": {"keys_per_partition": 512},
    "hashmap": {"keys_per_partition": 512},
    "echo": {"keys_per_partition": 512},
    "exim": {"spool_slots": 256},
    "memcached": {"keys_per_partition": 512},
    "nfs": {"files_per_partition": 128},
    "redis": {"keys_per_partition": 512},
    "tpcc": {"items_per_partition": 512},
    "vacation": {"records_per_table": 256},
    "ycsb": {"keys_per_partition": 512},
}


def cases():
    """``(label, workload)`` for every pinned prepared image."""
    for name, factory in MICROBENCHMARKS.items():
        for kind in ("int", "string"):
            yield f"{name}|{kind}", factory(seed=1, value_kind=kind, **SIZES[name])
    for name, factory in WHISPER_KERNELS.items():
        yield name, factory(seed=1, **SIZES[name])


def prepared_digest(workload) -> str:
    """sha256 over the prepared image prefix and the heap state."""
    prepared = prepare_workload(workload)
    digest = hashlib.sha256(prepared.image_prefix)
    digest.update(repr(prepared.heap_state).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_workload(golden):
    assert sorted(golden) == sorted(label for label, _ in cases())
    assert len(golden) == 2 * len(MICROBENCHMARKS) + len(WHISPER_KERNELS) == 20


@pytest.mark.parametrize("label", [label for label, _ in cases()])
def test_prepared_image_matches_golden(golden, label):
    workload = dict(cases())[label]
    assert prepared_digest(workload) == golden[label]
