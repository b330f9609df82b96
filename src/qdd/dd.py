"""Edge-weighted decision diagrams over complex amplitudes.

State vectors and operator matrices are stored as canonical DAGs. An edge
is a plain `(weight, node)` tuple, read by index or unpacking. A node's
successors are one flat tuple of weights and nodes: `(w0, n0, w1, n1)` for a
vector node (the |0> and |1> branch of one qubit), and
`(w00, n00, w01, n01, w10, n10, w11, n11)` for a matrix node, in row-major
order. Qubit 0 is the most significant bit of a basis index and the topmost
level; a nonzero successor of a level-q vector node sits exactly at level
q+1, or at the terminal when q is the bottom level. The amplitude of a basis
state is the product of edge weights along the corresponding
root-to-terminal path.

A matrix edge may skip levels, and every level it skips is the identity:
an edge entering level j that points at a node of level k > j stands for
the identity on levels j..k-1 times that node, and `(w, TERMINAL)` stands
for w times the identity on levels j..n-1. The identity is never written as
a node: `[e, 0; 0, e]` (slots 0 and 3 with the same child and weights in
the same EPS bucket) reduces to `e` itself. A gate DD therefore holds nodes
at the gate's own wires only.

Canonical form: a node's successor weights are divided by the first nonzero
successor weight, which is pulled onto the incoming edge, so that first
nonzero successor weight is exactly 1. Successor weights within EPS of zero
(per real/imag component) are snapped to the canonical zero slot
(weight 0, terminal), and a node whose successors are all zero collapses to
the zero edge itself. Structurally identical nodes, with weights compared
after rounding each component to EPS-wide buckets, are interned in a
per-level unique table, so equality of subdiagrams is object identity.
Vector nodes go through one arity-2 routine that builds the unique-table
key directly; matrix nodes go through a general routine.

Matrix DDs have one producer, `gate_dd`, and one consumer, `apply`; `add`
sums vector DDs only. `gate_dd` builds a gate bottom-up from its target
block (circuit.target_unitary), never from a dense 2^k x 2^k unitary. A
target level folds that wire's row and column bit of the block. A control
level makes each block `[d*I, 0; 0, e]`, where d is 1 when the block's
remaining row and column bits agree and 0 otherwise: a control at |0>
leaves the targets and every level below untouched. No other level is
visited, so each wire costs at most 4^targets interning calls, whatever the
number of controls and wherever the wires sit.

The multiply and add recursions take each operand's weight and node as
separate arguments and return one `(weight, node)` edge, so no edge tuple
is built to pass an operand down. Multiplication skips zero matrix slots (a
diagonal gate has two per node). On a level the matrix skips, both vector
branches are multiplied by the same matrix node, and a terminal matrix
successor ends the recursion: the identity times a vector node is that
vector node, scaled.

Operation results are memoized in two dicts that live for one operation:
apply() and add() empty them when they return or raise, so no entry
outlives the call that made it. Within that call each dict is bounded at
COMPUTE_TABLE_LIMIT entries and cleared wholesale when an insert finds it
full: the widest SWAP of `qpe` with m counting qubits, in `none` mode,
fills the add memo with 2^m - 2 entries. The multiply memo keys on the operand node pair
only: incoming edge weights are scalars that commute through the product,
so they are factored out and multiplied back onto the cached result. A sum
could be factored the same way, `a + b = wa*(na + (wb/wa)*nb)`, but the add
memo deliberately keys on the full operand edges, weights included, while
ROADMAP item 1 (measure the paper's claim under a factored key) is open. A
SWAP between distant wires makes the add recursion combine subdiagrams
under many distinct weight products, each sum new to the memo; that is the
work the swap-elimination rewrite saves, so the `qpe` gap rests on this
key. README "Benchmarking" gives the lookups, hits and times measured under
both keys.

Garbage collection is explicit: nodes carry a reference count used to pin
roots, and a mark-and-sweep pass runs when the unique tables grow past
GC_THRESHOLD nodes (or on request), dropping dead nodes.
"""

from __future__ import annotations

from collections.abc import Sequence
from time import perf_counter

from .circuit import Gate, check_gate, target_unitary

EPS = 1e-12
_INV_EPS = 1.0 / EPS

COMPUTE_TABLE_LIMIT = 1 << 20
GC_THRESHOLD = 1 << 22

_C0 = complex(0.0, 0.0)
_C1 = complex(1.0, 0.0)
_KEY_ONE = round(_C1.real * _INV_EPS)  # key of a pivot slot's real part


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
        return f"<node level={self.level} arity={len(self.edges) // 2} at {id(self):#x}>"


Edge = tuple[complex, Node]  # (weight, node), the unit of every operation

TERMINAL = Node(-1, ())
ZERO = (_C0, TERMINAL)
ONE = (_C1, TERMINAL)
_ID_TERMINAL = id(TERMINAL)


def _is_vector_edge(e: Edge) -> bool:
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

    def _intern2(self, level: int, w0: complex, n0: Node, w1: complex, n1: Node) -> Edge:
        """Normalize and intern a vector node; the arity-2 case of _norm_intern, same keys."""
        if -EPS <= w0.real <= EPS and -EPS <= w0.imag <= EPS:
            if -EPS <= w1.real <= EPS and -EPS <= w1.imag <= EPS:
                return ZERO
            pivot = w1
            key = (0, 0, _ID_TERMINAL, _KEY_ONE, 0, id(n1))
            w0, n0, w1 = _C0, TERMINAL, _C1
        else:
            pivot = w0
            w0 = _C1
            if w1:
                w1 = w1 / pivot
                if -EPS <= w1.real <= EPS and -EPS <= w1.imag <= EPS:
                    w1 = _C0
            if w1:
                key = (_KEY_ONE, 0, id(n0), round(w1.real * _INV_EPS), round(w1.imag * _INV_EPS), id(n1))
            else:
                key = (_KEY_ONE, 0, id(n0), 0, 0, _ID_TERMINAL)
                w1, n1 = _C0, TERMINAL
        table = self._unique[level]
        node = table.get(key)
        if node is None:
            node = table[key] = Node(level, (w0, n0, w1, n1))
            self.node_count += 1
        return (pivot, node)

    def _norm_intern(self, level: int, edges: list[Edge]) -> Edge:
        """Normalize successor weights, snap near-zeros, intern a matrix node (or reduce [e, 0; 0, e] to e)."""
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
        if edges[1] is ZERO and edges[2] is ZERO and key[9:] == key[:3]:
            return (pivot, edges[0][1])  # [e, 0; 0, e] is e: the identity on this level is skipped
        table = self._unique[level]
        node = table.get(key)
        if node is None:
            node = Node(level, (*edges[0], *edges[1], *edges[2], *edges[3]))
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
        return self._intern2(level, e0[0], e0[1], e1[0], e1[1])

    def basis_state(self, bits: str) -> Edge:
        """DD of the computational basis state |bits>; exactly n nodes."""
        n = self.num_qubits
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise ValueError(f"need a {n}-char bitstring of 0/1, got {bits!r}")
        w, node = ONE
        for level in range(n - 1, -1, -1):
            if bits[level] == "0":
                w, node = self._intern2(level, w, node, _C0, TERMINAL)
            else:
                w, node = self._intern2(level, _C0, TERMINAL, w, node)
        return (w, node)

    def gate_dd(self, gate: Gate) -> Edge:
        """Matrix DD of the gate embedded in the full register (identity elsewhere)."""
        check_gate(gate, self.num_qubits)
        # targets[0] is the most significant bit of the target block's index
        bit = {w: 1 << (len(gate.targets) - 1 - i) for i, w in enumerate(gate.targets)}
        # blocks[r, c] spans every level below the wires not yet walked (at
        # first only the identity, which the terminal stands for) with every
        # control above them at |1>; r, c hold the row/column bits of the
        # targets not yet folded in. Levels between wires are skipped.
        rows = target_unitary(gate).tolist()
        blocks = {(r, c): (v, TERMINAL) for r, row in enumerate(rows) for c, v in enumerate(row)}
        for level in sorted(gate.wires, reverse=True):
            b = bit.get(level)
            if b is not None:
                blocks = {
                    (r, c): self._norm_intern(
                        level, [e, blocks[r, c | b], blocks[r | b, c], blocks[r | b, c | b]]
                    )
                    for (r, c), e in blocks.items()
                    if not (r | c) & b
                }
            else:
                # a control at |0> leaves the targets and every level below untouched
                blocks = {
                    (r, c): self._norm_intern(level, [ONE if r == c else ZERO, ZERO, ZERO, e])
                    for (r, c), e in blocks.items()
                }
        return blocks[0, 0]

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: Edge, b: Edge) -> Edge:
        """Pointwise sum of two vector DDs."""
        if not (_is_vector_edge(a) and _is_vector_edge(b)):
            raise TypeError("add takes two vector DDs")
        (wa, na), (wb, nb) = a, b
        if wa != 0 and wb != 0 and na is not TERMINAL and nb is not TERMINAL and na.level != nb.level:
            raise ValueError("operands must be rooted at the same level")
        try:
            return self._add(wa, na, wb, nb)
        finally:
            self._add_cache.clear()  # the only memo a sum fills

    def _add(self, wa: complex, na: Node, wb: complex, nb: Node) -> Edge:
        if not wa:
            return (wb, nb)
        if not wb:
            return (wa, na)
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
        a0, c0, a1, c1 = na.edges
        b0, d0, b1, d1 = nb.edges
        w0, n0 = self._add(wa * a0, c0, wb * b0, d0)
        w1, n1 = self._add(wa * a1, c1, wb * b1, d1)
        res = self._intern2(na.level, w0, n0, w1, n1)
        if len(cache) >= COMPUTE_TABLE_LIMIT:
            cache.clear()
        cache[key] = res
        return res

    def apply(self, op: Edge, state: Edge) -> Edge:
        """Multiply a matrix DD onto a vector DD."""
        (wo, no), (ws, ns) = op, state
        if wo != 0 and no is not TERMINAL and len(no.edges) != 8:
            raise TypeError("op must be a matrix DD")
        if ws != 0 and ns is not TERMINAL and len(ns.edges) != 4:
            raise TypeError("state must be a vector DD")
        if not wo:
            return ZERO
        try:
            return self._mul(wo, no, ws, ns)
        finally:
            self._mul_cache.clear()
            self._add_cache.clear()

    def _mul(self, wm: complex, mn: Node, wv: complex, vn: Node) -> Edge:
        # wm is nonzero: callers skip zero matrix slots
        if not wv:
            return ZERO
        w = wm * wv
        if mn is TERMINAL:  # the identity on every level below
            return (w, vn)
        self._tick = tick = self._tick + 1
        if not tick & 0x7FFF:
            self._check_deadline()
        key = (mn, vn)
        cache = self._mul_cache
        r = cache.get(key)
        if r is not None:
            return (w * r[0], r[1])
        v0, d0, v1, d1 = vn.edges
        if mn.level != vn.level:  # the matrix skips this level: the identity here
            w0, n0 = self._mul(_C1, mn, v0, d0)
            w1, n1 = self._mul(_C1, mn, v1, d1)
        else:
            m00, c00, m01, c01, m10, c10, m11, c11 = mn.edges
            if not m00:
                w0, n0 = self._mul(m01, c01, v1, d1) if m01 else ZERO
            elif not m01:
                w0, n0 = self._mul(m00, c00, v0, d0)
            else:
                wa, na = self._mul(m00, c00, v0, d0)
                wb, nb = self._mul(m01, c01, v1, d1)
                w0, n0 = self._add(wa, na, wb, nb)
            if not m10:
                w1, n1 = self._mul(m11, c11, v1, d1) if m11 else ZERO
            elif not m11:
                w1, n1 = self._mul(m10, c10, v0, d0)
            else:
                wa, na = self._mul(m10, c10, v0, d0)
                wb, nb = self._mul(m11, c11, v1, d1)
                w1, n1 = self._add(wa, na, wb, nb)
        res = self._intern2(vn.level, w0, n0, w1, n1)
        if len(cache) >= COMPUTE_TABLE_LIMIT:
            cache.clear()
        cache[key] = res
        return (w * res[0], res[1])

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
            for child in node.edges[1::2]:
                if child is not TERMINAL:
                    stack.append(child)
        reclaimed = 0
        for level, table in enumerate(self._unique):
            keep = {k: nd for k, nd in table.items() if id(nd) in marked}
            reclaimed += len(table) - len(keep)
            self._unique[level] = keep
        self.node_count -= reclaimed
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
        if not w:
            return _C0
        if node is TERMINAL:
            raise ValueError("bitstring longer than the diagram depth")
        if ch == "1":
            _, _, cw, node = node.edges
        else:
            cw, node, _, _ = node.edges
        w = w * cw
    if not w:
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
        for child in node.edges[1::2]:
            if child is not TERMINAL and id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return len(seen)


def to_statevector(edge: Edge, num_qubits: int, positions: Sequence[int] | None = None):
    """Expand a vector DD into a dense numpy array of 2**num_qubits amplitudes.

    Level q's bit is index bit q counted from the most significant end, or
    bit positions[q] when a relabeling is given; writing each amplitude at
    its relabeled index spares a transpose of the whole array.
    """
    import numpy as np

    out = np.zeros(1 << num_qubits, dtype=np.complex128)
    if edge[0] == 0:
        return out
    if positions is None:
        positions = range(num_qubits)
    one_bit = [1 << (num_qubits - 1 - p) for p in positions]
    stack = [(edge[1], complex(edge[0]), 0)]
    while stack:
        node, w, prefix = stack.pop()
        if node is TERMINAL:
            out[prefix] = w
            continue
        w0, n0, w1, n1 = node.edges
        if w0:
            stack.append((n0, w * w0, prefix))
        if w1:
            stack.append((n1, w * w1, prefix | one_bit[node.level]))
    return out


def norm_squared(edge: Edge) -> float:
    """Sum of |amplitude|^2 over all basis states, by an iterative memoized post-order walk."""
    sums: dict[int, float] = {id(TERMINAL): 1.0}
    stack = [edge[1]]
    while stack:
        node = stack[-1]
        e = node.edges
        mags = [(w.real * w.real + w.imag * w.imag, child) for w, child in zip(e[::2], e[1::2])]
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
