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
the zero edge itself.

Vector nodes are interned: structurally identical ones, with weights
compared after rounding each component to EPS-wide buckets, share one entry
of a per-level unique table, so equality of state subdiagrams is object
identity. An entry is keyed on the child nodes themselves and the buckets
x, y of the |1> weight, `(n0, x, y, n1)`, or `(n1,)` when the |0> slot is
zero (the |1> weight is then exactly 1). The key compares children by
identity, and the entry's node keeps them alive through its edges. A
component x's bucket is x / EPS rounded half to even, as the builtin
`round` rounds it. While |x / EPS| < 2^51 it is computed as
`x/EPS + 1.5*2^52 - 1.5*2^52`: IEEE addition rounds half to even too, and
the integral float it leaves hashes and compares like the builtin's int.
Past that, and for nan and inf, the builtin itself is called, so the keys
and the errors are its. Matrix nodes are normalized per gate and not
interned. The multiply memo keys on matrix nodes by identity and lives for
one apply, so sharing within one gate DD is all it can use, and `gate_dd`
provides that itself: equal blocks at a control level get one node (a
control below its target has two equal diagonal blocks and two equal
off-diagonal ones). A table across gates would buy nothing. The unique tables,
`node_count` and the peaks `run()` reads from it therefore count state
nodes only.

Matrix DDs have one producer, `gate_dd`, and one consumer, `apply`; `add`
sums vector DDs only. `gate_dd` builds a gate bottom-up from its target
block (circuit.target_unitary), never from a dense 2^k x 2^k unitary. A
target level folds that wire's row and column bit of the block. A control
level makes each block `[d*I, 0; 0, e]`, where d is 1 when the block's
remaining row and column bits agree and 0 otherwise: a control at |0>
leaves the targets and every level below untouched. A block that is zero
there (an off-diagonal block of a diagonal target block) stays the zero
edge and is not normalized. No other level is visited, so each wire costs at
most 4^targets matrix nodes, whatever the number of controls and wherever
the wires sit.

`run()` builds no matrix DD for a diagonal gate (a kind in
circuit.DIAGONAL_KINDS, target block diag(a, b)): `apply_diagonal` walks the
state alone. It recurses from the root to the gate's lowest wire. At a level
that is not a gate wire both branches recurse; at a gate wire above the
lowest the |0> branch is kept and only |1> recurses; at the lowest wire the
|1> weight is multiplied by r = b/a. The root weight is multiplied by a, and
when r is in the bucket of 1 that is all. This follows the gate DD's shape:
its root edge has weight a (1 for a controlled kind), and each gate wire has
one matrix node [I, 0; 0, w*M], where M is the next wire's node and w is 1,
except on the lowest wire, where M is the identity and w is r. The walk makes
`_mul`'s products on that DD in `_mul`'s order, so it interns the same nodes
with the same weights, bit for bit, and `apply(gate_dd(g), state)` stays the
reference the tests compare it with. Its memo is the multiply memo, keyed on
the state node alone: the node's level fixes the matrix node it meets.

The multiply and add recursions take each operand's weight and node as
separate arguments and return one `(weight, node)` edge, so no edge tuple
is built to pass an operand down. Multiplication skips zero matrix slots (a
diagonal gate has two per node). On a level the matrix skips, both vector
branches are multiplied by the same matrix node, and a terminal matrix
successor ends the recursion: the identity times a vector node is that
vector node, scaled.

Operation results are memoized in two dicts that live for one operation:
apply(), apply_diagonal() and add() empty them when they return or raise, so
no entry outlives the call that made it. Within that call each dict is
bounded at COMPUTE_TABLE_LIMIT entries and cleared wholesale when an insert
finds it full: the widest SWAP of `qpe` with m counting qubits, in `none`
mode, fills the add memo with 2^m - 2 entries. The multiply memo keys on the
operand node pair only: incoming edge weights are scalars that commute
through the product, so they are factored out and multiplied back onto the
cached result. A sum could be factored the same way,
`a + b = wa*(na + (wb/wa)*nb)`, but the add memo deliberately keys on the
full operand edges, weights included, while the ROADMAP item on the
factored add key (measure the paper's claim under it) is open. A SWAP
between distant wires makes the add recursion combine subdiagrams under many
distinct weight products, each sum new to the memo; that is the work the
swap-elimination rewrite saves, so the `qpe` gap rests on this key. README "Benchmarking" gives the lookups,
hits and times measured under both keys.

Garbage collection is explicit: inc_ref and dec_ref count a root's pins in
a package table, nodes themselves carry no count, and a mark-and-sweep pass
marks from the pinned roots and the roots it is passed when the unique
tables grow past GC_THRESHOLD nodes (or on request), dropping dead nodes.
"""

from __future__ import annotations

from collections.abc import Sequence
from time import perf_counter

from .circuit import DIAGONAL_KINDS, Gate, check_bits, check_gate, target_unitary

EPS = 1e-12
_INV_EPS = 1.0 / EPS

COMPUTE_TABLE_LIMIT = 1 << 20
GC_THRESHOLD = 1 << 22

_C0 = complex(0.0, 0.0)
_C1 = complex(1.0, 0.0)
_KEY_ONE = round(_C1.real * _INV_EPS)  # bucket of 1's real part
# For |x| < _FAST, x + _ROUND - _ROUND is x rounded to an integral float: the
# sum lands in (2^52, 2^53), where floats are the integers and addition rounds
# half to even, as the builtin `round` does. An integral float hashes and
# compares like the int, so a bucket found either way finds the same key.
_FAST = 2.0**51
_ROUND = 1.5 * 2.0**52


def _round_buckets(x: float, y: float) -> tuple[int, int]:
    """The buckets of x and y at or past _FAST; nan and inf raise as the builtin does."""
    return round(x), round(y)


class SimulationTimeout(RuntimeError):
    """Raised when a deadline set on the package expires mid-computation."""


class Node:
    """DD node, built only by this module.

    A vector (state) node is interned, so compare vector nodes with `is`. A
    matrix node is built fresh by each gate_dd call and held by no table.
    """

    __slots__ = ("level", "edges")

    def __init__(self, level: int, edges: tuple) -> None:
        self.level = level
        self.edges = edges

    def __repr__(self) -> str:  # debugging aid only
        if self is TERMINAL:
            return "<terminal>"
        return f"<node level={self.level} arity={len(self.edges) // 2} at {id(self):#x}>"


Edge = tuple[complex, Node]  # (weight, node), the unit of every operation

TERMINAL = Node(-1, ())
ZERO = (_C0, TERMINAL)
ONE = (_C1, TERMINAL)
# the node builders fill a bare node's two slots themselves, which spares
# the frame of a Python-level __init__ call per node
_new_node = object.__new__


def _is_vector_edge(e: Edge) -> bool:
    return e[1] is TERMINAL or len(e[1].edges) == 4


def _in_bucket_of_one(w: complex) -> bool:
    """Whether w's components times 1/EPS round (half to even) to 1/EPS and 0, as a vector key's would."""
    return _KEY_ONE - 0.5 <= w.real * _INV_EPS <= _KEY_ONE + 0.5 and -0.5 <= w.imag * _INV_EPS <= 0.5


def _norm_matrix(level: int, e0: Edge, e1: Edge, e2: Edge, e3: Edge) -> Edge:
    """Normalize the matrix node [e0, e1; e2, e3] into a fresh node, or reduce [e, 0; 0, e] to e.

    The pivot is the first slot whose weight is not within EPS of zero, as
    slot 1 is in an X-like block. The slots before it become canonical zeros,
    the pivot slot gets weight exactly 1, and each slot after it is divided by
    the pivot and snapped to the canonical zero when within EPS. No table
    holds the node (see the module docstring).
    """
    edges = [*e0, *e1, *e2, *e3]
    pivot = None
    for i in (0, 2, 4, 6):
        w = edges[i]
        if pivot is not None:
            if w:
                w = w / pivot
                if -EPS <= w.real <= EPS and -EPS <= w.imag <= EPS:
                    w = _C0
            if w:
                edges[i] = w
            else:
                edges[i : i + 2] = ZERO
        elif -EPS <= w.real <= EPS and -EPS <= w.imag <= EPS:
            edges[i : i + 2] = ZERO
        else:
            pivot, p = w, i
            edges[i] = _C1
    if pivot is None:
        return ZERO
    if not (p or edges[2] or edges[4]) and edges[7] is edges[1] and _in_bucket_of_one(edges[6]):
        return (pivot, edges[1])  # [e, 0; 0, e] is e: the identity on this level is skipped
    node = _new_node(Node)
    node.level = level
    node.edges = tuple(edges)
    return (pivot, node)


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
        self._pins: dict[Node, int] = {}  # pinned root -> number of inc_ref calls not yet undone

    # -- node construction -------------------------------------------------

    def _intern2(self, level: int, w0: complex, n0: Node, w1: complex, n1: Node) -> Edge:
        """Normalize and intern a vector node: the pivot, division and zero snap of _norm_matrix."""
        if -EPS <= w0.real <= EPS and -EPS <= w0.imag <= EPS:
            if -EPS <= w1.real <= EPS and -EPS <= w1.imag <= EPS:
                return ZERO
            pivot = w1
            key = (n1,)
            w0, n0, w1 = _C0, TERMINAL, _C1
        else:
            pivot = w0
            w0 = _C1
            if w1:
                w1 = w1 / pivot
                if -EPS <= w1.real <= EPS and -EPS <= w1.imag <= EPS:
                    w1 = _C0
            if w1:
                x = w1.real * _INV_EPS
                y = w1.imag * _INV_EPS
                if -_FAST < x < _FAST and -_FAST < y < _FAST:
                    x = x + _ROUND - _ROUND
                    y = y + _ROUND - _ROUND
                else:
                    x, y = _round_buckets(x, y)
                key = (n0, x, y, n1)
            else:
                key = (n0, 0, 0, TERMINAL)
                w1, n1 = _C0, TERMINAL
        table = self._unique[level]
        node = table.get(key)
        if node is None:
            node = table[key] = _new_node(Node)
            node.level = level
            node.edges = (w0, n0, w1, n1)
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
        check_bits(bits, n)
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
        return self._gate_dd(gate)

    def _gate_dd(self, gate: Gate) -> Edge:
        # gate_dd for a gate already checked
        targets = gate.targets
        block = target_unitary(gate)
        dim = len(block)
        # blocks[r * dim + c] spans every level below the wires not yet walked
        # (at first only the identity, which the terminal stands for) with
        # every control above them at |1>. r and c run over `live`, the block
        # indices whose bits of the targets already folded in are 0. Levels
        # between wires are skipped.
        blocks = [(v, TERMINAL) for row in block for v in row]
        live = range(dim)
        norm = _norm_matrix
        for level in sorted(gate.wires, reverse=True):
            if level in targets:
                # fold this target's row and column bit (targets[0] is the
                # block index's most significant bit); blocks with it set are
                # read, not kept
                b = 1 << (len(targets) - 1 - targets.index(level))
                bd = b * dim
                live = [r for r in live if not r & b]
                for r in live:
                    for c in live:
                        i = r * dim + c
                        blocks[i] = norm(level, blocks[i], blocks[i + b], blocks[i + bd], blocks[i + bd + b])
            else:
                # a control at |0> leaves the targets and every level below
                # untouched; a zero off-diagonal block stays zero, not
                # normalized. Equal blocks get one node (a control below its
                # target sees two equal diagonal and two equal off-diagonal
                # blocks), so the multiply memo, keyed on nodes, serves both.
                made = {}
                for r in live:
                    for c in live:
                        i = r * dim + c
                        e = blocks[i]
                        if r == c:
                            key = (ONE, e)  # [I, 0; 0, e]
                        elif e[0]:
                            key = (ZERO, e)  # [0, 0; 0, e]
                        else:
                            continue
                        edge = made.get(key)
                        if edge is None:
                            edge = made[key] = norm(level, key[0], ZERO, ZERO, e)
                        blocks[i] = edge
        return blocks[0]

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

    def apply_diagonal(self, gate: Gate, state: Edge) -> Edge:
        """apply(gate_dd(gate), state) for a gate in DIAGONAL_KINDS, bit for bit, with no operator DD."""
        if gate.kind not in DIAGONAL_KINDS:
            raise ValueError(f"{gate.kind.value} is not a diagonal gate")
        check_gate(gate, self.num_qubits)
        ws, ns = state
        if ws != 0 and ns is not TERMINAL and len(ns.edges) != 4:
            raise TypeError("state must be a vector DD")
        return self._apply_diagonal(gate, state)

    def _apply_diagonal(self, gate: Gate, state: Edge) -> Edge:
        # apply_diagonal for a checked gate in DIAGONAL_KINDS and a vector DD
        ws, ns = state
        if not ws:
            return ZERO
        (a, _), (_, b) = target_unitary(gate)
        # gate_dd's root weight is a (1 for a controlled kind) and its lowest
        # level's |1> slot is b / a
        r = b / a
        w = a * ws
        if _in_bucket_of_one(r):  # gate_dd reduces the gate to (a, TERMINAL)
            return (w, ns)
        wires = gate.wires
        try:
            res = self._diag(ns, wires, max(wires), r)
        finally:
            self._mul_cache.clear()
        return (w * res[0], res[1])

    def _diag(self, vn: Node, wires: tuple[int, ...], low: int, r: complex) -> Edge:
        # _mul's steps on the gate DD's one matrix node at vn's level, so the
        # memo keys on vn alone; a kept |0> branch is _mul's identity slot
        self._tick = tick = self._tick + 1
        if not tick & 0x7FFF:
            self._check_deadline()
        memo = self._mul_cache
        res = memo.get(vn)
        if res is not None:
            return res
        # v0 is 0 or exactly 1 (a vector node's first nonzero weight), so
        # _mul's 1 * v0 is v0 itself, and the zero slot is ZERO
        v0, d0, v1, d1 = vn.edges
        level = vn.level
        w0, n0 = v0, d0
        if level == low:
            w1, n1 = (r * v1, d1) if v1 else ZERO
        else:
            if v0 and level not in wires:
                x = self._diag(d0, wires, low, r)
                w0, n0 = v0 * x[0], x[1]
            if v1:
                w1 = _C1 * v1  # _mul's product, kept: it can flip the sign of a zero component
                x = self._diag(d1, wires, low, r)
                w1, n1 = w1 * x[0], x[1]
            else:
                w1, n1 = ZERO
        res = self._intern2(level, w0, n0, w1, n1)
        if len(memo) >= COMPUTE_TABLE_LIMIT:
            memo.clear()
        memo[vn] = res
        return res

    def _check_deadline(self) -> None:
        d = self.deadline
        if d is not None and perf_counter() > d:
            raise SimulationTimeout("deadline exceeded during apply, apply_diagonal or add")

    def amplitude(self, edge: Edge, bits: str) -> complex:
        """Amplitude of |bits>: the weight product along the selected path."""
        check_bits(bits, self.num_qubits)
        return amplitude(edge, bits)

    # -- memory management --------------------------------------------------

    def inc_ref(self, edge: Edge) -> None:
        """Pin edge's root so collect_garbage treats it as live."""
        node = edge[1]
        if node is not TERMINAL:
            pins = self._pins
            pins[node] = pins.get(node, 0) + 1

    def dec_ref(self, edge: Edge) -> None:
        """Undo one inc_ref of edge's root."""
        node = edge[1]
        if node is not TERMINAL:
            count = self._pins.pop(node, 0) - 1
            if count < 0:
                raise ValueError("dec_ref below zero")
            if count:
                self._pins[node] = count

    def collect_garbage(self, roots: tuple[Edge, ...] = ()) -> int:
        """Mark from roots and pinned nodes, sweep the rest; returns reclaimed count."""
        marked = {TERMINAL}
        stack = [e[1] for e in roots]
        stack.extend(self._pins)
        while stack:
            node = stack.pop()
            if node not in marked:
                marked.add(node)
                stack.extend(node.edges[1::2])
        reclaimed = 0
        for level, table in enumerate(self._unique):
            keep = {k: nd for k, nd in table.items() if nd in marked}
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
    root = edge[1]
    seen = {TERMINAL, root}
    stack = [root]
    while stack:
        for child in stack.pop().edges[1::2]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return len(seen) - 1


def to_statevector(edge: Edge, num_qubits: int, mapping: Sequence[int] | None = None):
    """Expand a vector DD into a dense numpy array of 2**num_qubits amplitudes.

    Index bit q, counted from the most significant end, is the bit of level q,
    or of level mapping[q] when an output permutation is given (original
    qubit q lives on wire mapping[q]); writing each amplitude at its relabeled
    index spares a transpose of the whole array.
    """
    import numpy as np

    out = np.zeros(1 << num_qubits, dtype=np.complex128)
    if edge[0] == 0:
        return out
    if mapping is None:
        mapping = range(num_qubits)
    one_bit = [0] * num_qubits
    for q, w in enumerate(mapping):
        one_bit[w] = 1 << (num_qubits - 1 - q)
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
    w, root = edge
    if root is TERMINAL:  # the walk below would pop it as a node and overwrite its 1.0
        return w.real * w.real + w.imag * w.imag
    sums: dict[int, float] = {id(TERMINAL): 1.0}
    stack = [root]
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
    return (w.real * w.real + w.imag * w.imag) * sums[id(root)]
