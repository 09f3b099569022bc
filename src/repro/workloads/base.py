"""Workload protocol and accessors.

A workload builds its initial persistent state in :meth:`Workload.setup`
(untimed, via :class:`SetupAccessor`) and then runs timed transactions
through per-thread generators (:meth:`Workload.thread_body`), which the
harness interleaves across cores in core-clock order.

Structure code is written once against the *accessor* protocol —
``read(addr, size)``, ``write(addr, data)``, ``read_word(addr)``,
``write_word(addr, value)``, ``compute(n)`` and ``transaction()`` — and
works both in the untimed setup phase and in the timed run phase (where
the accessor is a :class:`~repro.txn.runtime.ThreadAPI`).  A word is
one little-endian unsigned 64-bit integer; ``read_word``/``write_word``
behave exactly like an 8-byte ``read``/``write`` plus the decode or
encode, and exist so set-up can pack words straight into the image.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..errors import AddressError, WorkloadError
from ..txn.runtime import PersistentMemory, ThreadAPI


class SetupAccessor:
    """Untimed accessor used while building initial workload state.

    Setup issues millions of functional accesses for paper-scale
    footprints, so every access goes straight to the NVRAM device (bound
    at construction) instead of through the :class:`PersistentMemory`
    facade — one call frame fewer each.  ``read_word``/``write_word``
    are :meth:`~repro.sim.nvram.NVRAM.peek_word` and
    :meth:`~repro.sim.nvram.NVRAM.poke_word`, one ``struct`` call on the
    image per word; ``write`` is :meth:`~repro.sim.nvram.NVRAM.poke`.
    ``read`` is a closure over the device image returning a (mutable,
    caller-owned) ``bytearray`` slice: setup readers only decode or
    compare the result, and skipping the immutable-``bytes`` wrap of
    :meth:`~repro.sim.nvram.NVRAM.peek` halves the per-read copy cost.
    """

    def __init__(self, pm: PersistentMemory) -> None:
        self._pm = pm
        nvram = pm.machine.nvram
        image = nvram.image
        size = len(image)

        def read(addr: int, length: int) -> bytearray:
            end = addr + length
            if addr < 0 or length < 0 or end > size:
                raise AddressError(
                    f"setup read out of range: addr={addr:#x} size={length} "
                    f"limit={size:#x}"
                )
            return image[addr:end]

        self.read = read
        self.write = nvram.poke
        self.read_word = nvram.peek_word
        self.write_word = nvram.poke_word

    def compute(self, count: int) -> None:
        """No-op during setup."""

    def alloc(self, size: int) -> int:
        """Allocate from the shared heap (setup has no txn constraints)."""
        return self._pm.heap.alloc(size)

    def free(self, addr: int, size: int) -> None:
        """Return a block to the shared heap immediately."""
        self._pm.heap.free(addr, size)

    @contextmanager
    def transaction(self):
        """No-op transaction context during setup."""
        yield self


@dataclass
class WorkloadResult:
    """What a finished run exposes to tests (beyond machine stats)."""

    transactions: int
    operations: dict


class Workload(abc.ABC):
    """One benchmark: persistent state plus a per-thread transaction mix.

    Every workload must keep its thread bodies partitioned and
    deterministic per ``(seed, tid)``: each thread touches only its own
    partition, only through the accessor protocol, and never reads
    uninitialised memory.  Each thread's operation stream is then
    independent of the interleaving, so the trace-compilation engine
    (:mod:`repro.sim.replay`) records each thread once and replays the
    stream under every design, bit-identically to interpretation.
    Cross-thread coupling or direct heap/NVRAM access breaks that.  The
    static verifier's race detector (:mod:`repro.sanitizer.hb`) checks
    the partitioning of a compiled trace, and the interpreted path
    (``REPRO_TRACE=0``) stays the reference replay is compared against.
    """

    #: paper name (e.g. ``"hash"``); subclasses override.
    name: str = "abstract"
    #: memory footprint reported in Table III (informational).
    paper_footprint: str = "-"
    #: one-line description for Table III.
    description: str = ""
    #: True when the workload's transactions are client-request shaped
    #: and it implements :meth:`serve_request`, so the service layer
    #: (:mod:`repro.sched`) can drive it from an open-loop traffic
    #: generator instead of per-thread closed-loop generators.
    request_shaped: bool = False

    def __init__(self, seed: int = 42, value_kind: str = "int") -> None:
        if value_kind not in ("int", "string"):
            raise ValueError(f"value_kind must be 'int' or 'string', not {value_kind!r}")
        self.seed = seed
        self.value_kind = value_kind

    @property
    def value_size(self) -> int:
        """Element payload size: one word for ints, multi-line for strings."""
        return 8 if self.value_kind == "int" else 96

    @abc.abstractmethod
    def setup(self, pm: PersistentMemory) -> None:
        """Allocate and initialise persistent state (untimed)."""

    def attach(self, pm: PersistentMemory) -> None:
        """Re-bind to a fresh machine whose NVRAM image was restored from
        a prepared snapshot (see :func:`repro.harness.runner.prepare_workload`)."""
        self._heap = pm.heap

    def reset_run_state(self) -> None:
        """Reset volatile per-run state to the post-setup baseline.

        A prepared workload instance is run many times — once per sweep
        cell, plus once by the trace compiler.  Anything host-side that
        thread bodies mutate (append cursors, free-slot rotors) must be
        re-derivable from ``(seed, tid)`` alone, or the second run sees
        the first run's leftovers and the class contract (identical stream
        per run) silently breaks.  Subclasses with such
        state override this; the harness calls it before every run and
        before trace recording.

        The contract extends to **checkpointable** run state for the
        steppable-shard scheduler: :meth:`run_state` captures the same
        volatile state as an immutable value and :meth:`restore_run_state`
        reinstates it, so N shard machines sharing one prepared workload
        instance can interleave stepping without leaking cursors across
        shards (each shard swaps its own checkpoint in around every step
        window).  The triple must agree: ``reset_run_state()`` followed by
        ``run_state()`` is the baseline checkpoint, and
        ``restore_run_state(run_state())`` is an identity.
        """

    def run_state(self) -> tuple:
        """Checkpoint of the volatile per-run state (see
        :meth:`reset_run_state`).  Must return an immutable, equality-
        comparable value; subclasses with volatile state override this
        together with :meth:`restore_run_state`.  The default is the
        empty checkpoint for stateless workloads."""
        return ()

    def restore_run_state(self, state: tuple) -> None:
        """Reinstate a checkpoint captured by :meth:`run_state`."""
        if state != ():
            raise WorkloadError(
                f"{type(self).__name__} has no volatile run state to "
                f"restore, got checkpoint {state!r}"
            )

    def serve_request(self, api: ThreadAPI, tid: int, request) -> None:
        """Execute one client request's operations inside the caller's
        transaction (request-shaped workloads only).

        ``request`` carries uniform draws (``key_u``, ``op_u``) that the
        workload maps through its own key-popularity and operation-mix
        distributions, so the traffic generator stays
        workload-agnostic.  The caller (a :class:`repro.sched.shard.
        ShardMachine` serve thread) owns the surrounding transaction and
        request batching."""
        raise WorkloadError(
            f"{type(self).__name__} is not request-shaped; it cannot be "
            "driven by the open-loop service layer"
        )

    def identity_key(self) -> tuple:
        """Stable identity of this workload's configuration.

        Two workload instances with equal keys build identical persistent
        state and issue identical transaction streams, so prepared
        snapshots and cached sweep results may be shared between them.
        The key covers the concrete class plus every public (non-derived)
        attribute — derived run state uses underscored names by
        convention.  Used by the prepared-state check in
        :func:`repro.harness.runner.run_workload` (which must accept a
        pickle-round-tripped workload in a worker process) and by the
        sweep result cache.
        """
        public = tuple(
            (name, repr(value))
            for name, value in sorted(vars(self).items())
            if not name.startswith("_")
        )
        return (type(self).__module__, type(self).__qualname__, public)

    @abc.abstractmethod
    def thread_body(
        self, api: ThreadAPI, tid: int, num_txns: int
    ) -> Iterator[None]:
        """Generator running ``num_txns`` transactions, yielding after each."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def make_value(self, rng, tag: int) -> bytes:
        """Build an element payload (int word or multi-line string)."""
        if self.value_kind == "int":
            return (tag & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        body = (tag & 0xFF).to_bytes(1, "little") * self.value_size
        return body
