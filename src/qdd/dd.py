"""Edge-weighted decision diagrams over complex amplitudes.

State vectors and operator matrices are stored as canonical DAGs. An edge
is a plain `(weight, node)` tuple, read by index or unpacking. Vector
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
roots, and a mark-and-sweep pass runs when the unique tables grow past
GC_THRESHOLD nodes (or on request), dropping dead nodes and clearing the
compute tables.
"""

from __future__ import annotations

from time import perf_counter

from .circuit import Gate, gate_unitary

EPS = 1e-12
_INV_EPS = 1.0 / EPS

COMPUTE_TABLE_LIMIT = 1 << 20
GC_THRESHOLD = 1 << 22

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


Edge = tuple[complex, Node]  # (weight, node), the unit of every operation

TERMINAL = Node(-1, ())
ZERO = (_C0, TERMINAL)
ONE = (_C1, TERMINAL)


def _is_vector_edge(e: Edge) -> bool:
    return e[1] is TERMINAL or len(e[1].edges) == 2


def _is_matrix_edge(e: Edge) -> bool:
    return e[1] is TERMINAL or len(e[1].edges) == 4


class DDPackage:
    """Unique tables, compute tables, and operations for one register size."""

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
        self.num_qubits = num_qubits
        self.node_count = 0
        self.gc_runs = 0
        self.deadline: float | None = None
        self._unique: list[dict] = [dict() for _ in range(num_qubits)]
        self._mul_cache: dict = {}
        self._add_cache: dict = {}
        self._tick = 0

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
        edges[pidx] = (_C1, edges[pidx][1])
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
                edges[i] = (w, e[1])
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
        return (pivot, node)

    def _check_child(self, level: int, e: Edge) -> None:
        w, node = e
        if node is TERMINAL:
            if w != 0 and level != self.num_qubits - 1:
                raise ValueError(f"nonzero edge to terminal from non-bottom level {level}")
        elif node.level != level + 1:
            raise ValueError(f"successor of level {level} must sit at level {level + 1}, got {node.level}")

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
        bit = {w: 1 << (k - 1 - i) for i, w in enumerate(wires)}
        lowest = max(wires)
        # the identity below the lowest wire is one chain, shared by every entry
        chain = ONE
        for level in range(n - 1, lowest, -1):
            chain = self._norm_intern(level, [chain, ZERO, ZERO, chain])
        # blocks[r, c] spans the levels already walked (at first, the chain);
        # r, c hold the row/column bits of the wires not yet folded in
        size = 1 << k
        blocks = {(r, c): (complex(u[r, c]), chain[1]) for r in range(size) for c in range(size)}
        for level in range(lowest, -1, -1):
            b = bit.get(level)
            if b is None:
                blocks = {rc: self._norm_intern(level, [e, ZERO, ZERO, e]) for rc, e in blocks.items()}
            else:
                blocks = {
                    (r, c): self._norm_intern(
                        level, [e, blocks[r, c | b], blocks[r | b, c], blocks[r | b, c | b]]
                    )
                    for (r, c), e in blocks.items()
                    if not (r | c) & b
                }
        return blocks[0, 0]

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: Edge, b: Edge) -> Edge:
        """Pointwise sum of two vector DDs (or two matrix DDs)."""
        (wa, na), (wb, nb) = a, b
        if wa != 0 and wb != 0 and na is not TERMINAL and nb is not TERMINAL:
            if len(na.edges) != len(nb.edges):
                raise TypeError("cannot add a vector DD to a matrix DD")
            if na.level != nb.level:
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
            return (w, na)
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
            parts.append(self._add((wa * ca[0], ca[1]), (wb * cb[0], cb[1])))
        res = self._norm_intern(na.level, parts)
        if len(cache) >= COMPUTE_TABLE_LIMIT:
            cache.clear()
        cache[key] = res
        return res

    def apply(self, op: Edge, state: Edge) -> Edge:
        """Multiply a matrix DD onto a vector DD."""
        (wo, no), (ws, ns) = op, state
        if wo != 0 and no is not TERMINAL and len(no.edges) != 4:
            raise TypeError("op must be a matrix DD")
        if ws != 0 and ns is not TERMINAL and len(ns.edges) != 2:
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
            return (wm * wv, TERMINAL)
        self._tick = tick = self._tick + 1
        if not tick & 0x7FFF:
            self._check_deadline()
        key = (mn, vn)
        cache = self._mul_cache
        r = cache.get(key)
        if r is not None:
            return (wm * wv * r[0], r[1])
        m00, m01, m10, m11 = mn.edges
        v0, v1 = vn.edges
        r0 = self._add(self._mul(m00, v0), self._mul(m01, v1))
        r1 = self._add(self._mul(m10, v0), self._mul(m11, v1))
        res = self._norm_intern(mn.level, [r0, r1])
        if len(cache) >= COMPUTE_TABLE_LIMIT:
            cache.clear()
        cache[key] = res
        return (wm * wv * res[0], res[1])

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
        if edge[1] is not TERMINAL:
            edge[1].ref += 1

    def dec_ref(self, edge: Edge) -> None:
        node = edge[1]
        if node is not TERMINAL:
            if node.ref <= 0:
                raise ValueError("dec_ref below zero")
            node.ref -= 1

    def collect_garbage(self, roots: tuple[Edge, ...] = ()) -> int:
        """Mark from roots and ref-pinned nodes, sweep the rest; returns reclaimed count."""
        marked: set[int] = set()
        stack = [e[1] for e in roots if e[1] is not TERMINAL]
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
        if self.node_count > GC_THRESHOLD:
            return self.collect_garbage(roots)
        return 0


# -- package-independent helpers --------------------------------------------


def amplitude(edge: Edge, bits: str) -> complex:
    """Weight product along the path selected by bits (one char per level)."""
    w, node = edge
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
    if edge[1] is TERMINAL:
        return 0
    seen = {id(edge[1])}
    stack = [edge[1]]
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
    if edge[0] == 0:
        return out
    stack = [(edge[1], complex(edge[0]), 0)]
    while stack:
        node, w, prefix = stack.pop()
        if node is TERMINAL:
            out[prefix] = w
            continue
        shift = num_qubits - 1 - node.level
        for bit, (cw, child) in enumerate(node.edges):
            if cw != 0:
                stack.append((child, w * cw, prefix | (bit << shift)))
    return out


def norm_squared(edge: Edge) -> float:
    """Sum of |amplitude|^2 over all basis states, by an iterative memoized post-order walk."""
    sums: dict[int, float] = {id(TERMINAL): 1.0}
    stack = [edge[1]]
    while stack:
        node = stack[-1]
        mags = [(w.real * w.real + w.imag * w.imag, child) for w, child in node.edges]
        pending = [child for mag, child in mags if mag and id(child) not in sums]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        total = 0.0
        for mag, child in mags:
            if mag:
                total += mag * sums[id(child)]
        sums[id(node)] = total
    w = edge[0]
    return (w.real * w.real + w.imag * w.imag) * sums[id(edge[1])]
