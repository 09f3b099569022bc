"""Red-black tree microbenchmark (Table III: "RBTree").

"Searches for a value in a red-black tree.  Insert if absent, remove if
found."  The tree is a full CLRS red-black tree living in persistent
memory: every node field access is a persistent-memory load, every
mutation (link, recolor, rotation) a persistent store inside the
transaction — so rebalancing directly exercises the logging machinery
with scattered small writes.

Node layout: ``key(8) | left(8) | right(8) | parent(8) | color(8) |
value(value_size)``.  The null pointer is address 0 and is black by
convention.  Each thread owns an independent tree (per-thread
partitioning, as in the paper's Figure 4).
"""

from __future__ import annotations

from typing import Iterator

from ..txn.runtime import PersistentMemory, ThreadAPI
from .base import SetupAccessor, Workload
from .rng import thread_rng

MAX_PARTITIONS = 8
RED = 1
BLACK = 0

_KEY = 0
_LEFT = 8
_RIGHT = 16
_PARENT = 24
_COLOR = 32
_VALUE = 40

SEARCH_COMPUTE = 4  # instructions per comparison while descending


class RBTreeWorkload(Workload):
    """Insert-if-absent / remove-if-found over a red-black tree."""

    name = "rbtree"
    paper_footprint = "256 MB"
    description = (
        "Searches for a value in a red-black tree. "
        "Insert if absent, remove if found."
    )

    def __init__(
        self,
        seed: int = 42,
        value_kind: str = "int",
        keys_per_partition: int = 16384,
    ) -> None:
        super().__init__(seed, value_kind)
        self.keys_per_partition = keys_per_partition
        self._roots_base = 0
        self._heap = None
        self._resident: list[set[int]] = []

    @property
    def node_size(self) -> int:
        """Bytes per tree node."""
        return _VALUE + self.value_size

    # ------------------------------------------------------------------
    # Field accessors
    # ------------------------------------------------------------------
    def _root_addr(self, part: int) -> int:
        return self._roots_base + part * 8

    def _color(self, acc, node: int) -> int:
        if node == 0:
            return BLACK
        return acc.read_word(node + _COLOR)

    # ------------------------------------------------------------------
    def setup(self, pm: PersistentMemory) -> None:
        """Allocate root pointers and pre-populate half of each tree."""
        self._heap = pm.heap
        acc = SetupAccessor(pm)
        self._roots_base = pm.heap.alloc(MAX_PARTITIONS * 8)
        acc.write(self._roots_base, bytes(MAX_PARTITIONS * 8))
        self._resident = [set() for _ in range(MAX_PARTITIONS)]
        rng = thread_rng(self.seed, 0x5B7)
        for part in range(MAX_PARTITIONS):
            for key in rng.sample(
                range(self.keys_per_partition), self.keys_per_partition // 2
            ):
                self.insert(acc, part, key, self.make_value(rng, key))
                self._resident[part].add(key)

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        """One insert-or-remove transaction per iteration."""
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        resident = set(self._resident[part])
        for txn in range(num_txns):
            key = rng.randrange(self.keys_per_partition)
            with api.transaction():
                if key in resident:
                    self.delete(api, part, key)
                    resident.discard(key)
                else:
                    self.insert(api, part, key, self.make_value(rng, txn))
                    resident.add(key)
            yield

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def find(self, acc, part: int, key: int) -> int:
        """Return the node address holding ``key`` or 0."""
        node = acc.read_word(self._root_addr(part))
        while node != 0:
            acc.compute(SEARCH_COMPUTE)
            node_key = acc.read_word(node + _KEY)
            if key == node_key:
                return node
            node = acc.read_word(node + (_LEFT if key < node_key else _RIGHT))
        return 0

    # ------------------------------------------------------------------
    # Rotations
    # ------------------------------------------------------------------
    def _rotate_left(self, acc, part: int, x: int) -> None:
        y = acc.read_word(x + _RIGHT)
        yl = acc.read_word(y + _LEFT)
        acc.write_word(x + _RIGHT, yl)
        if yl != 0:
            acc.write_word(yl + _PARENT, x)
        xp = acc.read_word(x + _PARENT)
        acc.write_word(y + _PARENT, xp)
        if xp == 0:
            acc.write_word(self._root_addr(part), y)
        elif x == acc.read_word(xp + _LEFT):
            acc.write_word(xp + _LEFT, y)
        else:
            acc.write_word(xp + _RIGHT, y)
        acc.write_word(y + _LEFT, x)
        acc.write_word(x + _PARENT, y)

    def _rotate_right(self, acc, part: int, x: int) -> None:
        y = acc.read_word(x + _LEFT)
        yr = acc.read_word(y + _RIGHT)
        acc.write_word(x + _LEFT, yr)
        if yr != 0:
            acc.write_word(yr + _PARENT, x)
        xp = acc.read_word(x + _PARENT)
        acc.write_word(y + _PARENT, xp)
        if xp == 0:
            acc.write_word(self._root_addr(part), y)
        elif x == acc.read_word(xp + _RIGHT):
            acc.write_word(xp + _RIGHT, y)
        else:
            acc.write_word(xp + _LEFT, y)
        acc.write_word(y + _RIGHT, x)
        acc.write_word(x + _PARENT, y)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, acc, part: int, key: int, value: bytes) -> bool:
        """Insert ``key``; returns False if it was already present."""
        parent = 0
        node = acc.read_word(self._root_addr(part))
        while node != 0:
            acc.compute(SEARCH_COMPUTE)
            node_key = acc.read_word(node + _KEY)
            if key == node_key:
                return False
            parent = node
            node = acc.read_word(node + (_LEFT if key < node_key else _RIGHT))
        z = acc.alloc(self.node_size)
        acc.write_word(z + _KEY, key)
        acc.write_word(z + _LEFT, 0)
        acc.write_word(z + _RIGHT, 0)
        acc.write_word(z + _PARENT, parent)
        acc.write_word(z + _COLOR, RED)
        acc.write(z + _VALUE, value)
        if parent == 0:
            acc.write_word(self._root_addr(part), z)
        elif key < acc.read_word(parent + _KEY):
            acc.write_word(parent + _LEFT, z)
        else:
            acc.write_word(parent + _RIGHT, z)
        self._insert_fixup(acc, part, z)
        return True

    def _insert_fixup(self, acc, part: int, z: int) -> None:
        while True:
            zp = acc.read_word(z + _PARENT)
            if zp == 0 or self._color(acc, zp) == BLACK:
                break
            zpp = acc.read_word(zp + _PARENT)
            if zp == acc.read_word(zpp + _LEFT):
                uncle = acc.read_word(zpp + _RIGHT)
                if self._color(acc, uncle) == RED:
                    acc.write_word(zp + _COLOR, BLACK)
                    acc.write_word(uncle + _COLOR, BLACK)
                    acc.write_word(zpp + _COLOR, RED)
                    z = zpp
                else:
                    if z == acc.read_word(zp + _RIGHT):
                        z = zp
                        self._rotate_left(acc, part, z)
                        zp = acc.read_word(z + _PARENT)
                        zpp = acc.read_word(zp + _PARENT)
                    acc.write_word(zp + _COLOR, BLACK)
                    acc.write_word(zpp + _COLOR, RED)
                    self._rotate_right(acc, part, zpp)
            else:
                uncle = acc.read_word(zpp + _LEFT)
                if self._color(acc, uncle) == RED:
                    acc.write_word(zp + _COLOR, BLACK)
                    acc.write_word(uncle + _COLOR, BLACK)
                    acc.write_word(zpp + _COLOR, RED)
                    z = zpp
                else:
                    if z == acc.read_word(zp + _LEFT):
                        z = zp
                        self._rotate_right(acc, part, z)
                        zp = acc.read_word(z + _PARENT)
                        zpp = acc.read_word(zp + _PARENT)
                    acc.write_word(zp + _COLOR, BLACK)
                    acc.write_word(zpp + _COLOR, RED)
                    self._rotate_left(acc, part, zpp)
        root = acc.read_word(self._root_addr(part))
        if self._color(acc, root) != BLACK:
            acc.write_word(root + _COLOR, BLACK)

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def _transplant(self, acc, part: int, u: int, v: int) -> None:
        up = acc.read_word(u + _PARENT)
        if up == 0:
            acc.write_word(self._root_addr(part), v)
        elif u == acc.read_word(up + _LEFT):
            acc.write_word(up + _LEFT, v)
        else:
            acc.write_word(up + _RIGHT, v)
        if v != 0:
            acc.write_word(v + _PARENT, up)

    def _minimum(self, acc, node: int) -> int:
        while True:
            left = acc.read_word(node + _LEFT)
            if left == 0:
                return node
            node = left

    def delete(self, acc, part: int, key: int) -> bool:
        """Remove ``key``; returns False if absent."""
        z = self.find(acc, part, key)
        if z == 0:
            return False
        y = z
        y_color = self._color(acc, y)
        if acc.read_word(z + _LEFT) == 0:
            x = acc.read_word(z + _RIGHT)
            x_parent = acc.read_word(z + _PARENT)
            self._transplant(acc, part, z, x)
        elif acc.read_word(z + _RIGHT) == 0:
            x = acc.read_word(z + _LEFT)
            x_parent = acc.read_word(z + _PARENT)
            self._transplant(acc, part, z, x)
        else:
            y = self._minimum(acc, acc.read_word(z + _RIGHT))
            y_color = self._color(acc, y)
            x = acc.read_word(y + _RIGHT)
            if acc.read_word(y + _PARENT) == z:
                x_parent = y
                if x != 0:
                    acc.write_word(x + _PARENT, y)
            else:
                x_parent = acc.read_word(y + _PARENT)
                self._transplant(acc, part, y, x)
                zr = acc.read_word(z + _RIGHT)
                acc.write_word(y + _RIGHT, zr)
                acc.write_word(zr + _PARENT, y)
            self._transplant(acc, part, z, y)
            zl = acc.read_word(z + _LEFT)
            acc.write_word(y + _LEFT, zl)
            acc.write_word(zl + _PARENT, y)
            acc.write_word(y + _COLOR, self._color(acc, z))
        if y_color == BLACK:
            self._delete_fixup(acc, part, x, x_parent)
        acc.free(z, self.node_size)
        return True

    def _delete_fixup(self, acc, part: int, x: int, x_parent: int) -> None:
        while x != acc.read_word(self._root_addr(part)) and self._color(acc, x) == BLACK:
            if x_parent == 0:
                break
            if x == acc.read_word(x_parent + _LEFT):
                w = acc.read_word(x_parent + _RIGHT)
                if self._color(acc, w) == RED:
                    acc.write_word(w + _COLOR, BLACK)
                    acc.write_word(x_parent + _COLOR, RED)
                    self._rotate_left(acc, part, x_parent)
                    w = acc.read_word(x_parent + _RIGHT)
                wl = acc.read_word(w + _LEFT)
                wr = acc.read_word(w + _RIGHT)
                if self._color(acc, wl) == BLACK and self._color(acc, wr) == BLACK:
                    acc.write_word(w + _COLOR, RED)
                    x = x_parent
                    x_parent = acc.read_word(x + _PARENT)
                else:
                    if self._color(acc, wr) == BLACK:
                        if wl != 0:
                            acc.write_word(wl + _COLOR, BLACK)
                        acc.write_word(w + _COLOR, RED)
                        self._rotate_right(acc, part, w)
                        w = acc.read_word(x_parent + _RIGHT)
                        wr = acc.read_word(w + _RIGHT)
                    acc.write_word(w + _COLOR, self._color(acc, x_parent))
                    acc.write_word(x_parent + _COLOR, BLACK)
                    if wr != 0:
                        acc.write_word(wr + _COLOR, BLACK)
                    self._rotate_left(acc, part, x_parent)
                    x = acc.read_word(self._root_addr(part))
                    x_parent = 0
            else:
                w = acc.read_word(x_parent + _LEFT)
                if self._color(acc, w) == RED:
                    acc.write_word(w + _COLOR, BLACK)
                    acc.write_word(x_parent + _COLOR, RED)
                    self._rotate_right(acc, part, x_parent)
                    w = acc.read_word(x_parent + _LEFT)
                wl = acc.read_word(w + _LEFT)
                wr = acc.read_word(w + _RIGHT)
                if self._color(acc, wr) == BLACK and self._color(acc, wl) == BLACK:
                    acc.write_word(w + _COLOR, RED)
                    x = x_parent
                    x_parent = acc.read_word(x + _PARENT)
                else:
                    if self._color(acc, wl) == BLACK:
                        if wr != 0:
                            acc.write_word(wr + _COLOR, BLACK)
                        acc.write_word(w + _COLOR, RED)
                        self._rotate_left(acc, part, w)
                        w = acc.read_word(x_parent + _LEFT)
                        wl = acc.read_word(w + _LEFT)
                    acc.write_word(w + _COLOR, self._color(acc, x_parent))
                    acc.write_word(x_parent + _COLOR, BLACK)
                    if wl != 0:
                        acc.write_word(wl + _COLOR, BLACK)
                    self._rotate_right(acc, part, x_parent)
                    x = acc.read_word(self._root_addr(part))
                    x_parent = 0
        if x != 0:
            acc.write_word(x + _COLOR, BLACK)

    # ------------------------------------------------------------------
    # Verification helpers (tests)
    # ------------------------------------------------------------------
    def inorder_keys(self, acc, part: int) -> list:
        """All keys in sorted order (iterative traversal)."""
        keys = []
        stack = []
        node = acc.read_word(self._root_addr(part))
        while node != 0 or stack:
            while node != 0:
                stack.append(node)
                node = acc.read_word(node + _LEFT)
            node = stack.pop()
            keys.append(acc.read_word(node + _KEY))
            node = acc.read_word(node + _RIGHT)
        return keys

    def check_invariants(self, acc, part: int) -> int:
        """Validate red-black invariants; returns the black height.

        Raises AssertionError on violation (root is black, no red node
        has a red child, equal black height on every path).
        """
        root = acc.read_word(self._root_addr(part))
        if root == 0:
            return 0
        assert self._color(acc, root) == BLACK, "root must be black"
        return self._check_node(acc, root)

    def _check_node(self, acc, node: int) -> int:
        if node == 0:
            return 1
        color = self._color(acc, node)
        left = acc.read_word(node + _LEFT)
        right = acc.read_word(node + _RIGHT)
        if color == RED:
            assert self._color(acc, left) == BLACK, "red node with red left child"
            assert self._color(acc, right) == BLACK, "red node with red right child"
        lh = self._check_node(acc, left)
        rh = self._check_node(acc, right)
        assert lh == rh, "unequal black heights"
        return lh + (1 if color == BLACK else 0)
