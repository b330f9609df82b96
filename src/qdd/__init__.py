"""Decision-diagram quantum circuit simulator with a swap-elimination pass.

The package simulates pure-state circuits on a QMDD-style representation
(shared nodes, complex edge weights) and ships a rewrite pass that deletes
SWAP gates by relabeling the wires downstream, plus a dense reference
simulator used to cross-check everything.

Bit-order convention, everywhere: qubit 0 is the most significant bit of a
basis-state string, so "100" on three qubits means qubit 0 is |1>.

The package namespace holds the entry points only; everything else is
imported from its submodule (qdd.circuit, qdd.dd, qdd.qasm, ...).
"""

from .generators import build_family
from .reorder import ReorderMode
from .runner import run

__version__ = "0.1.0"

__all__ = ["ReorderMode", "build_family", "run", "__version__"]
