"""SSCA2 microbenchmark (Table III: "SSCA2").

"A transactional implementation of SSCA 2.2, performing several analyses
of a large, scale-free graph."  We implement the transactional flavour of
its kernels over a persistent adjacency-list graph:

* kernel 1 (graph construction) — transactions insert weighted edges,
  with endpoints drawn from a scale-free (preferential-attachment-like)
  distribution;
* kernel 2 (classify large edges) — transactions scan a vertex's
  adjacency list for the maximum weight and persist it in the vertex's
  record;
* kernel 3/4-flavoured analysis — transactions walk a short
  multi-hop neighbourhood, accumulate into a per-vertex metric, and
  persist the result.

SSCA2 transactions read and compute far more than they write, which is
why the paper sees the smallest logging gains on it.

Layout: a vertex table (``head(8) | degree(8) | metric(8)`` per vertex)
and edge nodes ``dest(8) | weight(8) | next(8)``.
"""

from __future__ import annotations

from typing import Iterator

from ..txn.runtime import PersistentMemory, ThreadAPI
from .base import SetupAccessor, Workload
from .rng import thread_rng

MAX_PARTITIONS = 8
VERTEX_SIZE = 24
_HEAD = 0
_DEGREE = 8
_METRIC = 16
EDGE_SIZE = 24
_DEST = 0
_WEIGHT = 8
_NEXT = 16

KERNEL_COMPUTE = 12  # instructions of kernel bookkeeping per transaction
PER_EDGE_COMPUTE = 6  # instructions per scanned edge (weight compare etc.)


class SSCA2Workload(Workload):
    """Transactional SSCA 2.2-style graph analyses."""

    name = "ssca2"
    paper_footprint = "16 MB"
    description = (
        "A transactional implementation of SSCA 2.2, performing several "
        "analyses of a large, scale-free graph."
    )

    def __init__(
        self,
        seed: int = 42,
        value_kind: str = "int",
        vertices_per_partition: int = 4096,
        initial_edges_per_vertex: int = 6,
    ) -> None:
        super().__init__(seed, value_kind)
        self.vertices_per_partition = vertices_per_partition
        self.initial_edges_per_vertex = initial_edges_per_vertex
        self._vertices_base = 0
        self._heap = None

    def _vertex_addr(self, part: int, v: int) -> int:
        index = part * self.vertices_per_partition + v
        return self._vertices_base + index * VERTEX_SIZE

    def _pick_vertex(self, rng) -> int:
        """Scale-free-ish endpoint choice: square the uniform draw so low
        vertex ids act as hubs."""
        u = rng.random()
        return int(u * u * self.vertices_per_partition) % self.vertices_per_partition

    # ------------------------------------------------------------------
    def setup(self, pm: PersistentMemory) -> None:
        """Build the initial scale-free graph in each partition."""
        self._heap = pm.heap
        acc = SetupAccessor(pm)
        total = MAX_PARTITIONS * self.vertices_per_partition
        self._vertices_base = pm.heap.alloc(total * VERTEX_SIZE)
        for part in range(MAX_PARTITIONS):
            for v in range(self.vertices_per_partition):
                base = self._vertex_addr(part, v)
                acc.write_word(base + _HEAD, 0)
                acc.write_word(base + _DEGREE, 0)
                acc.write_word(base + _METRIC, 0)
        rng = thread_rng(self.seed, 0x55CA)
        for part in range(MAX_PARTITIONS):
            for v in range(self.vertices_per_partition):
                for _ in range(self.initial_edges_per_vertex):
                    self._insert_edge(
                        acc, part, v, self._pick_vertex(rng), rng.randrange(1, 1 << 16)
                    )

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        """Mix of edge-insert (50%), classify (25%), analysis (25%) txns."""
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        for _txn in range(num_txns):
            kind = rng.random()
            with api.transaction():
                api.compute(KERNEL_COMPUTE)
                if kind < 0.5:
                    self._insert_edge(
                        api,
                        part,
                        self._pick_vertex(rng),
                        self._pick_vertex(rng),
                        rng.randrange(1, 1 << 16),
                    )
                elif kind < 0.75:
                    self._classify_edges(api, part, self._pick_vertex(rng))
                else:
                    self._analyze_neighbourhood(api, part, self._pick_vertex(rng))
            yield

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _insert_edge(self, acc, part: int, src: int, dst: int, weight: int) -> None:
        """Kernel 1: prepend an edge node to src's adjacency list."""
        vertex = self._vertex_addr(part, src)
        head = acc.read_word(vertex + _HEAD)
        edge = acc.alloc(EDGE_SIZE)
        acc.write_word(edge + _DEST, dst)
        acc.write_word(edge + _WEIGHT, weight)
        acc.write_word(edge + _NEXT, head)
        acc.write_word(vertex + _HEAD, edge)
        degree = acc.read_word(vertex + _DEGREE)
        acc.write_word(vertex + _DEGREE, degree + 1)

    def _classify_edges(self, acc, part: int, v: int) -> None:
        """Kernel 2: find the maximum edge weight and persist it."""
        vertex = self._vertex_addr(part, v)
        edge = acc.read_word(vertex + _HEAD)
        best = 0
        hops = 0
        while edge != 0 and hops < 32:
            acc.compute(PER_EDGE_COMPUTE)
            weight = acc.read_word(edge + _WEIGHT)
            if weight > best:
                best = weight
            edge = acc.read_word(edge + _NEXT)
            hops += 1
        acc.write_word(vertex + _METRIC, best)

    def _analyze_neighbourhood(self, acc, part: int, v: int) -> None:
        """Kernel 3/4 flavour: two-hop walk accumulating a centrality-ish
        metric, persisted on the start vertex."""
        total = 0
        frontier = [v]
        for _depth in range(2):
            next_frontier = []
            for u in frontier[:4]:
                vertex = self._vertex_addr(part, u)
                edge = acc.read_word(vertex + _HEAD)
                hops = 0
                while edge != 0 and hops < 8:
                    acc.compute(PER_EDGE_COMPUTE)
                    dest = acc.read_word(edge + _DEST)
                    total += acc.read_word(edge + _WEIGHT)
                    next_frontier.append(dest)
                    edge = acc.read_word(edge + _NEXT)
                    hops += 1
            frontier = next_frontier
        vertex = self._vertex_addr(part, v)
        old = acc.read_word(vertex + _METRIC)
        acc.write_word(vertex + _METRIC, (old + total) & ((1 << 64) - 1))

    # ------------------------------------------------------------------
    def degree_of(self, acc, part: int, v: int) -> int:
        """Persisted degree counter (for tests)."""
        return acc.read_word(self._vertex_addr(part, v) + _DEGREE)

    def adjacency(self, acc, part: int, v: int) -> list:
        """List of (dest, weight) for vertex ``v`` (for tests)."""
        edges = []
        edge = acc.read_word(self._vertex_addr(part, v) + _HEAD)
        while edge != 0:
            edges.append(
                (acc.read_word(edge + _DEST), acc.read_word(edge + _WEIGHT))
            )
            edge = acc.read_word(edge + _NEXT)
        return edges
