"""Trace-compilation engine: record a workload once, replay it per design.

The interpreted path (:func:`repro.harness.runner.run_workload`) re-walks
every workload data structure — hashing keys, chasing pointers, consulting
RNGs — once per sweep cell, even though the resulting micro-op stream is
identical for every cell that differs only in
:class:`~repro.core.design.DesignSpec`.  This module splits that work:

* :func:`compile_trace` runs each thread's generator **once** against a
  functional memory model and records the accessor-level operation stream
  into :class:`~repro.sim.ctrace.CompiledTrace` columns;
* :func:`run_compiled` replays the columns under any design, producing
  **bit-identical** :class:`~repro.sim.stats.MachineStats` to the
  interpreted run.

Replay decodes the columns and drives one
:class:`~repro.txn.runtime.ThreadAPI` per thread — the same per-design
lowering the interpreter uses — so the micro-op stream, the tracer/psan
event stream, fault-monitor crash points, the golden model and the final
NVRAM image all match the interpreted run.  Only the workload logic
(hashing, pointer chasing, RNG draws) is skipped.

Validity of sequential recording: every workload (the
:class:`~repro.workloads.base.Workload` contract) partitions its data per
thread (``tid % MAX_PARTITIONS``), derives its
RNG from ``(seed, tid)`` and never reads another thread's writes, so each
thread's operation stream is independent of the interleaving and can be
recorded thread-at-a-time.  Allocation is the one cross-thread coupling:
the recorder never models the *shared* heap (interleaving-dependent) —
every shared-heap allocation yields a fresh symbolic token, bound to the
real address the replayed cell obtains (see :mod:`repro.sim.ctrace`).
Replayed allocations go through :meth:`~repro.txn.runtime.ThreadAPI.alloc`
and ``free``, whose thread-local recycling the recorder mirrors.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..errors import TransactionError, WorkloadError
from ..utils import align_up, split_words
from ..workloads.base import Workload
from .ctrace import (
    K_ALLOC,
    K_COMPUTE,
    K_FREE,
    K_READ,
    K_TX_BEGIN,
    K_TX_COMMIT,
    K_WRITE,
    K_YIELD,
    SYM_BASE,
    SYM_OFF_MASK,
    CompiledThread,
    CompiledTrace,
    sym_token,
)


# ----------------------------------------------------------------------
# Recording (compile phase)
# ----------------------------------------------------------------------
class _RecordingMemory:
    """Functional memory shared by all recorded threads.

    Real addresses resolve against a mutable copy of the prepared NVRAM
    prefix (reads past the stored prefix are zeros, exactly like the real
    zero-backed device); symbolic blocks are per-allocation bytearrays.
    Pointer-valued words store their symbolic tokens verbatim, so pointer
    chases through recorded structures stay symbolic.
    """

    def __init__(self, image_prefix: bytes) -> None:
        self.image = bytearray(image_prefix)
        self.blocks: list[bytearray] = []
        self.block_sizes: list[int] = []

    def new_block(self, aligned_size: int) -> int:
        block_id = len(self.blocks)
        self.blocks.append(bytearray(aligned_size))
        self.block_sizes.append(aligned_size)
        return sym_token(block_id)

    def read(self, addr: int, size: int) -> bytes:
        if addr >= SYM_BASE:
            offset = addr & SYM_OFF_MASK
            return bytes(self.blocks[(addr - SYM_BASE) >> 24][offset:offset + size])
        image = self.image
        end = addr + size
        if end > len(image):
            image.extend(bytes(end - len(image)))
        return bytes(image[addr:end])

    def write(self, addr: int, data: bytes) -> None:
        if addr >= SYM_BASE:
            offset = addr & SYM_OFF_MASK
            self.blocks[(addr - SYM_BASE) >> 24][offset:offset + len(data)] = data
            return
        image = self.image
        end = addr + len(data)
        if end > len(image):
            image.extend(bytes(end - len(image)))
        image[addr:end] = data


class RecordingAccessor:
    """Accessor that records one thread's operation stream.

    Implements the same protocol as :class:`~repro.txn.runtime.ThreadAPI`
    (``read``/``write``/``read_word``/``write_word``/``compute``/
    ``alloc``/``free``/``transaction``) but charges no time — it appends
    column entries and serves reads from the functional memory.  A word
    call records exactly the 8-byte ``read``/``write`` it stands for.
    Thread-local allocation recycling mirrors ``ThreadAPI`` exactly (LIFO
    per aligned size, frees quarantined until commit) so the replayed
    ``alloc`` call sequence pops the same blocks.
    """

    def __init__(self, memory: _RecordingMemory, column: CompiledThread) -> None:
        self._memory = memory
        self._col = column
        self._local_free: dict[int, list[int]] = {}
        self._pending_frees: list[tuple[int, int]] = []
        self._in_txn = False

    def read(self, addr: int, size: int) -> bytes:
        col = self._col
        col.kinds.append(K_READ)
        col.a.append(addr)
        col.b.append(size)
        return self._memory.read(addr, size)

    def write(self, addr: int, data: bytes) -> None:
        if not self._in_txn:
            raise TransactionError("persistent writes require a transaction")
        col = self._col
        memory = self._memory
        pieces = split_words(addr, data)
        col.kinds.append(K_WRITE)
        col.a.append(len(col.piece_addr))
        col.b.append(len(pieces))
        n_blocks = len(memory.blocks)
        for piece_addr, piece in pieces:
            value = int.from_bytes(piece, "little")
            symbolic = (
                len(piece) == 8
                and value >= SYM_BASE
                and (value - SYM_BASE) >> 24 < n_blocks
            )
            col.piece_addr.append(piece_addr)
            col.piece_len.append(len(piece))
            col.piece_sym.append(1 if symbolic else 0)
            col.piece_val.append(value)
            memory.write(piece_addr, piece)

    def read_word(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_word(self, addr: int, value: int) -> None:
        self.write(addr, int(value).to_bytes(8, "little"))

    def compute(self, count: int) -> None:
        if count > 0:
            col = self._col
            col.kinds.append(K_COMPUTE)
            col.a.append(count)
            col.b.append(0)

    def alloc(self, size: int) -> int:
        aligned = align_up(size, 8)
        bucket = self._local_free.get(aligned)
        if bucket:
            token = bucket.pop()
        else:
            token = self._memory.new_block(aligned)
        col = self._col
        col.kinds.append(K_ALLOC)
        col.a.append(size)
        col.b.append(token)
        return token

    def free(self, addr: int, size: int) -> None:
        col = self._col
        col.kinds.append(K_FREE)
        col.a.append(addr)
        col.b.append(size)
        aligned = align_up(size, 8)
        if self._in_txn:
            self._pending_frees.append((addr, aligned))
        else:
            self._local_free.setdefault(aligned, []).append(addr)

    def tx_begin(self) -> None:
        if self._in_txn:
            raise TransactionError("nested transactions are not supported")
        self._in_txn = True
        col = self._col
        col.kinds.append(K_TX_BEGIN)
        col.a.append(0)
        col.b.append(0)

    def tx_commit(self) -> None:
        if not self._in_txn:
            raise TransactionError("tx_commit outside a transaction")
        self._in_txn = False
        col = self._col
        col.kinds.append(K_TX_COMMIT)
        col.a.append(0)
        col.b.append(0)
        for addr, size in self._pending_frees:
            self._local_free.setdefault(size, []).append(addr)
        self._pending_frees = []

    @contextmanager
    def transaction(self):
        self.tx_begin()
        yield self
        self.tx_commit()


def compile_trace(prepared, threads: int, txns_per_thread: int) -> CompiledTrace:
    """Record ``prepared``'s workload into a design-independent trace.

    Runs every thread generator to completion against the functional
    memory, one thread at a time (valid for partitioned workloads; see
    the module docstring).  ``prepared`` is a
    :class:`~repro.harness.runner.PreparedWorkload`.
    """
    workload = prepared.workload
    workload.reset_run_state()
    memory = _RecordingMemory(prepared.image_prefix)
    columns = []
    for tid in range(threads):
        column = CompiledThread()
        accessor = RecordingAccessor(memory, column)
        generator = workload.thread_body(accessor, tid, txns_per_thread)
        while True:
            try:
                next(generator)
            except StopIteration:
                break
            column.kinds.append(K_YIELD)
            column.a.append(0)
            column.b.append(0)
        columns.append(column)
    return CompiledTrace(
        workload_key=workload.identity_key(),
        threads=threads,
        txns_per_thread=txns_per_thread,
        image_prefix=prepared.image_prefix,
        image_size=prepared.image_size,
        heap_state=prepared.heap_state,
        block_sizes=list(memory.block_sizes),
        thread_cols=columns,
    )


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def _replay_thread(api, col: CompiledThread, bind: dict, line_mask: int):
    """Generator replaying one thread through its :class:`ThreadAPI`.

    The API's per-design lowering turns each recorded op into core ops,
    exactly as in the interpreted run.  Recorded writes are already split
    into word pieces (relocation preserves 8-alignment, so a piece never
    crosses a word) and go straight to ``write_piece``; reads confined to
    one line take the data-less ``load_line`` entry, since replay never
    consumes load data.
    """
    kinds = col.kinds
    av = col.a
    bv = col.b
    read_line = col.read_line
    pa_col = col.piece_addr
    ps_col = col.piece_sym
    pv_col = col.piece_val
    piece_data = col.piece_data
    load_line = api.load_line
    write_piece = api.write_piece
    for i in range(len(kinds)):
        kind = kinds[i]
        if kind == K_READ:
            line = read_line[i]
            if line >= 0:
                load_line(av[i], line)
                continue
            addr = av[i]
            if addr >= SYM_BASE:
                addr = bind[(addr - SYM_BASE) >> 24] + (addr & SYM_OFF_MASK)
            line = addr & line_mask
            if (addr + bv[i] - 1) & line_mask == line:
                load_line(addr, line)
            else:
                api.read(addr, bv[i])
        elif kind == K_WRITE:
            start = av[i]
            for j in range(start, start + bv[i]):
                piece_addr = pa_col[j]
                if piece_addr >= SYM_BASE:
                    piece_addr = bind[(piece_addr - SYM_BASE) >> 24] + (
                        piece_addr & SYM_OFF_MASK
                    )
                if ps_col[j]:
                    value = pv_col[j]
                    data = (
                        bind[(value - SYM_BASE) >> 24] + (value & SYM_OFF_MASK)
                    ).to_bytes(8, "little")
                else:
                    data = piece_data[j]
                write_piece(piece_addr, data)
        elif kind == K_COMPUTE:
            api.compute(av[i])
        elif kind == K_TX_BEGIN:
            api.tx_begin()
        elif kind == K_TX_COMMIT:
            api.tx_commit()
        elif kind == K_ALLOC:
            result = api.alloc(av[i])
            token = bv[i]
            if token >= SYM_BASE:
                block_id = (token - SYM_BASE) >> 24
                if block_id not in bind:
                    bind[block_id] = result
        elif kind == K_FREE:
            addr = av[i]
            if addr >= SYM_BASE:
                addr = bind[(addr - SYM_BASE) >> 24] + (addr & SYM_OFF_MASK)
            api.free(addr, bv[i])
        else:  # K_YIELD
            yield


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
class _ReplayWorkload(Workload):
    """A compiled trace posing as the workload it was recorded from.

    Thread ``tid``'s body replays column ``tid`` through the thread's
    API, so the shared runner (snapshot restore, ``ShardMachine`` drive
    order) runs replay exactly as it runs interpretation.  The trace
    carries no volatile run state, and setup is never run: the trace's
    image prefix and heap state are the prepared snapshot.
    """

    def __init__(self, trace: CompiledTrace, bind: dict, line_mask: int) -> None:
        self.trace = trace
        self.bind = bind
        self.line_mask = line_mask

    def identity_key(self) -> tuple:
        return self.trace.workload_key

    def setup(self, pm) -> None:
        raise WorkloadError("a compiled trace replays from its own snapshot")

    def thread_body(self, api, tid: int, num_txns: int):
        return _replay_thread(
            api, self.trace.thread_cols[tid], self.bind, self.line_mask
        )


def run_compiled(trace: CompiledTrace, run, machine_hook=None, bind_out=None):
    """Replay ``trace`` under ``run`` (a :class:`RunConfig`); returns the
    same :class:`~repro.harness.runner.RunOutcome` as
    :func:`~repro.harness.runner.run_workload` with bit-identical stats.

    The trace runs *as* a workload through ``run_workload``: its image
    prefix and heap state are the prepared snapshot, and its thread
    bodies replay the columns, so the machine build and drive order are
    the interpreter's own.  ``machine_hook`` runs before replay starts,
    so a tracer or fault monitor it attaches sees the same event stream,
    and the same crash points, as in the interpreted run.

    ``bind_out`` (a dict, filled in place) receives the symbolic
    block-id -> real-address binding the replay establishes; the static
    verifier uses it to translate a counterexample's symbolic addresses
    into the addresses the dynamic checker diagnosed.
    """
    from ..harness.runner import PreparedWorkload, default_experiment_config, run_workload

    system = run.system or default_experiment_config()
    if run.threads != trace.threads:
        raise WorkloadError(
            f"trace was compiled for {trace.threads} threads, run wants {run.threads}"
        )
    if run.txns_per_thread != trace.txns_per_thread:
        raise WorkloadError(
            f"trace was compiled for {trace.txns_per_thread} txns/thread, "
            f"run wants {run.txns_per_thread}"
        )
    if trace.derived_line_size != system.line_size:
        trace.derive(system.line_size)

    workload = _ReplayWorkload(
        trace, {} if bind_out is None else bind_out, ~(system.line_size - 1)
    )
    prepared = PreparedWorkload(
        workload, system, trace.image_prefix, trace.image_size, trace.heap_state
    )
    return run_workload(workload, run, prepared, machine_hook)
