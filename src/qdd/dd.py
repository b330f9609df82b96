"""Edge-weighted decision diagrams over complex amplitudes.

State vectors and operator matrices are stored as canonical DAGs. Vector
nodes carry two successor edges (the |0> and |1> branch of one qubit),
matrix nodes four in row-major order (00, 01, 10, 11). Qubit 0 is the most
significant bit of a basis index and the topmost level; a nonzero successor
of a level-q node sits exactly at level q+1, or at the terminal when q is
the bottom level. The amplitude of a basis state is the product of edge
weights along the corresponding root-to-terminal path.

Canonical form: a node's successor weights are divided by the first nonzero
successor weight, which is pulled onto the incoming edge, so that first
nonzero successor weight is exactly 1. Successor weights within EPS of zero
(per real/imag component) are snapped to the canonical zero edge
(weight 0, terminal), and a node whose successors are all zero collapses to
the zero edge itself. Structurally identical nodes, with weights compared
after rounding each component to EPS-wide buckets, are interned in a
per-level unique table, so equality of subdiagrams is object identity.

Operation results are memoized in two dicts, each bounded at
COMPUTE_TABLE_LIMIT entries and cleared wholesale when an insert finds it
full. The multiply memo keys on the operand node pair only: incoming edge
weights are scalars that commute through the product, so they are factored
out and multiplied back onto the cached result. The add memo has no such
factoring (only a common scalar could be pulled out of a sum), so its keys
are the full operand edges, weights included, and on phase-rich states it
seldom sees the same key twice. A SWAP between distant wires makes the add
recursion combine subdiagrams under many distinct weight products, each sum
new to the memo; that is the work the swap-elimination rewrite saves.

Garbage collection is explicit: nodes carry a reference count used to pin
roots, and a mark-and-sweep pass runs when the unique tables grow past a
high-water mark (or on request), dropping dead nodes and clearing the
compute tables.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import NamedTuple

from .circuit import Gate, gate_unitary

EPS = 1e-12
_INV_EPS = 1.0 / EPS

COMPUTE_TABLE_LIMIT = 1 << 20
DEFAULT_GC_THRESHOLD = 1 << 22

_C0 = complex(0.0, 0.0)
_C1 = complex(1.0, 0.0)


class SimulationTimeout(RuntimeError):
    """Raised when a deadline set on the package expires mid-computation."""


class Node:
    """Interned DD node; compare with `is`, never construct outside a package."""

    __slots__ = ("level", "edges", "ref")

    def __init__(self, level: int, edges: tuple) -> None:
        self.level = level
        self.edges = edges
        self.ref = 0

    def __repr__(self) -> str:  # debugging aid only
        if self is TERMINAL:
            return "<terminal>"
        return f"<node level={self.level} arity={len(self.edges)} at {id(self):#x}>"


class Edge(NamedTuple):
    """Weighted pointer into the DAG; the unit of every public operation."""

    weight: complex
    node: Node


TERMINAL = Node(-1, ())
ZERO = Edge(_C0, TERMINAL)
ONE = Edge(_C1, TERMINAL)


def _is_vector_edge(e: Edge) -> bool:
    return e.node is TERMINAL or len(e.node.edges) == 2


def _is_matrix_edge(e: Edge) -> bool:
    return e.node is TERMINAL or len(e.node.edges) == 4


class DDPackage:
    """Unique tables, compute tables, and operations for one register size."""

    def __init__(
        self,
        num_qubits: int,
        *,
        gc_threshold: int = DEFAULT_GC_THRESHOLD,
    ) -> None:
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
        self.num_qubits = num_qubits
        self.gc_threshold = gc_threshold
        self.node_count = 0
        self.gc_runs = 0
        self.deadline: float | None = None
        self._unique: list[dict] = [dict() for _ in range(num_qubits)]
        self._mul_cache: dict = {}
        self._add_cache: dict = {}
        self._tick = 0
        # apply/add recurse one frame set per level
        limit = 4 * num_qubits + 200
        if sys.getrecursionlimit() < limit:
            sys.setrecursionlimit(limit)

    # -- node construction -------------------------------------------------

    def _norm_intern(self, level: int, edges: list[Edge]) -> Edge:
        """Normalize successor weights, snap near-zeros, intern the node."""
        pidx = -1
        pivot = _C0
        for i, e in enumerate(edges):
            w = e[0]
            if -EPS <= w.real <= EPS and -EPS <= w.imag <= EPS:
                edges[i] = ZERO
            else:
                pidx = i
                pivot = w
                break
        if pidx < 0:
            return ZERO
        edges[pidx] = Edge(_C1, edges[pidx][1])
        for i in range(pidx + 1, len(edges)):
            e = edges[i]
            w = e[0]
            if w.real == 0.0 and w.imag == 0.0:
                edges[i] = ZERO
                continue
            w = w / pivot
            if -EPS <= w.real <= EPS and -EPS <= w.imag <= EPS:
                edges[i] = ZERO
            else:
                edges[i] = Edge(w, e[1])
        key_parts = []
        for e in edges:
            w = e[0]
            key_parts.append(round(w.real * _INV_EPS))
            key_parts.append(round(w.imag * _INV_EPS))
            key_parts.append(id(e[1]))
        key = tuple(key_parts)
        table = self._unique[level]
        node = table.get(key)
        if node is None:
            node = Node(level, tuple(edges))
            table[key] = node
            self.node_count += 1
        return Edge(pivot, node)

    def _check_child(self, level: int, e: Edge) -> None:
        if e.node is TERMINAL:
            if e.weight != 0 and level != self.num_qubits - 1:
                raise ValueError(f"nonzero edge to terminal from non-bottom level {level}")
        elif e.node.level != level + 1:
            raise ValueError(f"successor of level {level} must sit at level {level + 1}, got {e.node.level}")

    def make_vector_node(self, level: int, e0: Edge, e1: Edge) -> Edge:
        """Intern a vector node with the given |0>/|1> successors."""
        if not 0 <= level < self.num_qubits:
            raise ValueError(f"level {level} out of range for {self.num_qubits} qubits")
        for e in (e0, e1):
            if not _is_vector_edge(e):
                raise TypeError("vector node successors must be vector edges")
            self._check_child(level, e)
        return self._norm_intern(level, [e0, e1])

    def make_matrix_node(self, level: int, e00: Edge, e01: Edge, e10: Edge, e11: Edge) -> Edge:
        """Intern a matrix node with row-major successors."""
        if not 0 <= level < self.num_qubits:
            raise ValueError(f"level {level} out of range for {self.num_qubits} qubits")
        for e in (e00, e01, e10, e11):
            if not _is_matrix_edge(e):
                raise TypeError("matrix node successors must be matrix edges")
            self._check_child(level, e)
        return self._norm_intern(level, [e00, e01, e10, e11])

    def basis_state(self, bits: str) -> Edge:
        """DD of the computational basis state |bits>; exactly n nodes."""
        n = self.num_qubits
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise ValueError(f"need a {n}-char bitstring of 0/1, got {bits!r}")
        e = ONE
        for level in range(n - 1, -1, -1):
            if bits[level] == "0":
                e = self._norm_intern(level, [e, ZERO])
            else:
                e = self._norm_intern(level, [ZERO, e])
        return e

    def gate_dd(self, gate: Gate) -> Edge:
        """Matrix DD of the gate embedded in the full register (identity elsewhere)."""
        wires = gate.wires
        n = self.num_qubits
        if len(set(wires)) != len(wires):
            raise ValueError(f"gate wires must be distinct, got {wires}")
        for w in wires:
            if not 0 <= w < n:
                raise ValueError(f"gate wire {w} out of range for {n} qubits")
        u = gate_unitary(gate)
        k = len(wires)
        # wires[0] is the most significant bit of the small unitary's index
        bitpos = {w: k - 1 - i for i, w in enumerate(wires)}
        entries = [[complex(u[r, c]) for c in range(1 << k)] for r in range(1 << k)]
        memo: dict[tuple[int, int, int], Edge] = {}

        def build(level: int, r: int, c: int) -> Edge:
            if level == n:
                return Edge(entries[r][c], TERMINAL)
            key = (level, r, c)
            got = memo.get(key)
            if got is not None:
                return got
            pos = bitpos.get(level)
            if pos is None:
                e = build(level + 1, r, c)
                res = self._norm_intern(level, [e, ZERO, ZERO, e])
            else:
                bit = 1 << pos
                res = self._norm_intern(
                    level,
                    [
                        build(level + 1, r, c),
                        build(level + 1, r, c | bit),
                        build(level + 1, r | bit, c),
                        build(level + 1, r | bit, c | bit),
                    ],
                )
            memo[key] = res
            return res

        root = build(0, 0, 0)
        del build  # the closure refers to itself; unlink it so refcounting frees it
        return root

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: Edge, b: Edge) -> Edge:
        """Pointwise sum of two vector DDs (or two matrix DDs)."""
        if a.weight != 0 and b.weight != 0 and a.node is not TERMINAL and b.node is not TERMINAL:
            if len(a.node.edges) != len(b.node.edges):
                raise TypeError("cannot add a vector DD to a matrix DD")
            if a.node.level != b.node.level:
                raise ValueError("operands must be rooted at the same level")
        return self._add(a, b)

    def _add(self, ea: Edge, eb: Edge) -> Edge:
        wa = ea[0]
        if wa.real == 0.0 and wa.imag == 0.0:
            return eb
        wb = eb[0]
        if wb.real == 0.0 and wb.imag == 0.0:
            return ea
        na = ea[1]
        nb = eb[1]
        if na is nb:
            w = wa + wb
            if -EPS <= w.real <= EPS and -EPS <= w.imag <= EPS:
                return ZERO
            return Edge(w, na)
        if id(nb) < id(na):
            na, nb = nb, na
            wa, wb = wb, wa
        key = (na, wa, nb, wb)
        cache = self._add_cache
        res = cache.get(key)
        if res is not None:
            return res
        self._tick = tick = self._tick + 1
        if not tick & 0x7FFF:
            self._check_deadline()
        ea_children = na.edges
        eb_children = nb.edges
        parts = []
        for i in range(len(ea_children)):
            ca = ea_children[i]
            cb = eb_children[i]
            parts.append(self._add(Edge(wa * ca[0], ca[1]), Edge(wb * cb[0], cb[1])))
        res = self._norm_intern(na.level, parts)
        if len(cache) >= COMPUTE_TABLE_LIMIT:
            cache.clear()
        cache[key] = res
        return res

    def apply(self, op: Edge, state: Edge) -> Edge:
        """Multiply a matrix DD onto a vector DD."""
        if op.weight != 0 and op.node is not TERMINAL and len(op.node.edges) != 4:
            raise TypeError("op must be a matrix DD")
        if state.weight != 0 and state.node is not TERMINAL and len(state.node.edges) != 2:
            raise TypeError("state must be a vector DD")
        return self._mul(op, state)

    def _mul(self, em: Edge, ev: Edge) -> Edge:
        wm = em[0]
        if wm.real == 0.0 and wm.imag == 0.0:
            return ZERO
        wv = ev[0]
        if wv.real == 0.0 and wv.imag == 0.0:
            return ZERO
        mn = em[1]
        vn = ev[1]
        if mn is TERMINAL:
            return Edge(wm * wv, TERMINAL)
        self._tick = tick = self._tick + 1
        if not tick & 0x7FFF:
            self._check_deadline()
        key = (mn, vn)
        cache = self._mul_cache
        r = cache.get(key)
        if r is not None:
            return Edge(wm * wv * r[0], r[1])
        m00, m01, m10, m11 = mn.edges
        v0, v1 = vn.edges
        r0 = self._add(self._mul(m00, v0), self._mul(m01, v1))
        r1 = self._add(self._mul(m10, v0), self._mul(m11, v1))
        res = self._norm_intern(mn.level, [r0, r1])
        if len(cache) >= COMPUTE_TABLE_LIMIT:
            cache.clear()
        cache[key] = res
        return Edge(wm * wv * res[0], res[1])

    def _check_deadline(self) -> None:
        d = self.deadline
        if d is not None and perf_counter() > d:
            raise SimulationTimeout("deadline exceeded during apply or add")

    def amplitude(self, edge: Edge, bits: str) -> complex:
        """Amplitude of |bits>: the weight product along the selected path."""
        if len(bits) != self.num_qubits or set(bits) - {"0", "1"}:
            raise ValueError(f"need a {self.num_qubits}-char bitstring of 0/1, got {bits!r}")
        return amplitude(edge, bits)

    # -- memory management --------------------------------------------------

    def inc_ref(self, edge: Edge) -> None:
        """Pin edge's root so collect_garbage treats it as live."""
        if edge.node is not TERMINAL:
            edge.node.ref += 1

    def dec_ref(self, edge: Edge) -> None:
        if edge.node is not TERMINAL:
            if edge.node.ref <= 0:
                raise ValueError("dec_ref below zero")
            edge.node.ref -= 1

    def collect_garbage(self, roots: tuple[Edge, ...] = ()) -> int:
        """Mark from roots and ref-pinned nodes, sweep the rest; returns reclaimed count."""
        marked: set[int] = set()
        stack = [e.node for e in roots if e.node is not TERMINAL]
        for table in self._unique:
            for node in table.values():
                if node.ref > 0:
                    stack.append(node)
        while stack:
            node = stack.pop()
            i = id(node)
            if i in marked:
                continue
            marked.add(i)
            for e in node.edges:
                child = e[1]
                if child is not TERMINAL:
                    stack.append(child)
        reclaimed = 0
        for level, table in enumerate(self._unique):
            keep = {k: nd for k, nd in table.items() if id(nd) in marked}
            reclaimed += len(table) - len(keep)
            self._unique[level] = keep
        self.node_count -= reclaimed
        # compute tables key on node identity; drop them wholesale
        self._mul_cache.clear()
        self._add_cache.clear()
        self.gc_runs += 1
        return reclaimed

    def maybe_collect(self, roots: tuple[Edge, ...] = ()) -> int:
        """Run collect_garbage only past the high-water mark; returns reclaimed count."""
        if self.node_count > self.gc_threshold:
            return self.collect_garbage(roots)
        return 0


# -- package-independent helpers --------------------------------------------


def amplitude(edge: Edge, bits: str) -> complex:
    """Weight product along the path selected by bits (one char per level)."""
    w = edge[0]
    node = edge[1]
    for ch in bits:
        if w.real == 0.0 and w.imag == 0.0:
            return _C0
        if node is TERMINAL:
            raise ValueError("bitstring longer than the diagram depth")
        e = node.edges[1 if ch == "1" else 0]
        w = w * e[0]
        node = e[1]
    if w.real == 0.0 and w.imag == 0.0:
        return _C0
    if node is not TERMINAL:
        raise ValueError("bitstring shorter than the diagram depth")
    return w


def count_nodes(edge: Edge) -> int:
    """Number of distinct nonterminal nodes reachable from edge."""
    if edge.node is TERMINAL:
        return 0
    seen = {id(edge.node)}
    stack = [edge.node]
    while stack:
        node = stack.pop()
        for e in node.edges:
            child = e[1]
            if child is not TERMINAL and id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return len(seen)


def to_statevector(edge: Edge, num_qubits: int):
    """Expand a vector DD into a dense numpy array of 2**num_qubits amplitudes."""
    import numpy as np

    out = np.zeros(1 << num_qubits, dtype=np.complex128)
    if edge.weight == 0:
        return out
    stack = [(edge.node, complex(edge.weight), 0)]
    while stack:
        node, w, prefix = stack.pop()
        if node is TERMINAL:
            out[prefix] = w
            continue
        shift = num_qubits - 1 - node.level
        for bit, e in enumerate(node.edges):
            if e.weight != 0:
                stack.append((e.node, w * e.weight, prefix | (bit << shift)))
    return out


def norm_squared(edge: Edge) -> float:
    """Sum of |amplitude|^2 over all basis states, by memoized recursion."""
    memo: dict[int, float] = {}

    def node_sum(node: Node) -> float:
        if node is TERMINAL:
            return 1.0
        got = memo.get(id(node))
        if got is not None:
            return got
        total = 0.0
        for e in node.edges:
            w = e[0]
            mag = w.real * w.real + w.imag * w.imag
            if mag:
                total += mag * node_sum(e[1])
        memo[id(node)] = total
        return total

    w = edge.weight
    return (w.real * w.real + w.imag * w.imag) * node_sum(edge.node)
