"""Common infrastructure for bit-parallel multiplier generators.

A *generator* turns a defining polynomial into a gate-level
:class:`~repro.netlist.netlist.Netlist` that computes ``C = A·B mod f``.
All generators share the same I/O convention (inputs ``a0..a(m-1)`` /
``b0..b(m-1)``, outputs ``c0..c(m-1)``) and the same functional
specification (:class:`~repro.spec.product_spec.ProductSpec`); they differ
only in *how the XOR network is structured*, which is exactly the dimension
the paper studies.

Every generated multiplier is formally verified against its spec at
generation time (cheap, exact, and catches construction bugs immediately);
pass ``verify=False`` to skip when generating very large fields in tight
loops.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Sequence, TYPE_CHECKING

from ..galois.gf2poly import degree, poly_to_string
from ..netlist.netlist import Netlist
from ..netlist.stats import gather_stats
from ..netlist.verify import verify_netlist
from ..spec.product_spec import ProductSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netlist.stats import NetlistStats
    from ..spec.splitting import SplitTerm
    from ..spec.terms import Atom

__all__ = ["GeneratedMultiplier", "MultiplierGenerator", "OperandNodes"]


@dataclass(frozen=True)
class OperandNodes:
    """Node ids of the primary inputs of both operands."""

    a: Sequence[int]
    b: Sequence[int]


@dataclass
class GeneratedMultiplier:
    """A generated multiplier circuit together with its provenance.

    Attributes
    ----------
    method:
        Short generator name (e.g. ``"thiswork"``, ``"imana2016"``).
    reference:
        Bibliographic reference of the construction (paper citation key).
    modulus:
        The defining polynomial.
    netlist:
        The gate-level circuit.
    spec:
        The functional specification the circuit was verified against.
    """

    method: str
    reference: str
    modulus: int
    netlist: Netlist
    spec: ProductSpec

    @property
    def m(self) -> int:
        """The field degree."""
        return self.spec.m

    def stats(self) -> NetlistStats:
        """Structural statistics (AND/XOR counts, depth) of the circuit."""
        return gather_stats(self.netlist)

    def describe(self) -> str:
        """Human-readable one-liner used by the CLI and examples."""
        stats = self.stats()
        return (
            f"{self.method} multiplier for GF(2^{self.m}) mod {poly_to_string(self.modulus)}: "
            f"{stats.and_gates} AND, {stats.xor_gates} XOR, delay {stats.delay_expression()}"
        )


class MultiplierGenerator(ABC):
    """Base class of every multiplier construction.

    Subclasses define the class attributes ``name``, ``reference``,
    ``description`` and ``restructure_allowed`` and implement :meth:`build`,
    which must add outputs ``c0 .. c(m-1)`` to the netlist.
    """

    #: Short identifier used in tables and the registry.
    name: str = "abstract"
    #: Citation of the original construction (paper reference numbers).
    reference: str = ""
    #: One-line description of the structural idea.
    description: str = ""
    #: Whether the synthesis flow may re-associate the XOR network.  The
    #: paper's proposed method sets this to True ("give XST freedom"); the
    #: restricted baselines keep their hand-crafted structure.
    restructure_allowed: bool = False

    # ------------------------------------------------------------------ public
    def generate(self, modulus: int, verify: bool = True) -> GeneratedMultiplier:
        """Generate (and by default formally verify) a multiplier for ``modulus``."""
        m = degree(modulus)
        if m < 2:
            raise ValueError("bit-parallel multipliers need a modulus of degree >= 2")
        spec = ProductSpec.from_modulus(modulus)
        netlist = Netlist(
            name=f"{self.name}_gf2_{m}",
            attributes={
                "method": self.name,
                "reference": self.reference,
                "modulus": modulus,
                "m": m,
                "restructure_allowed": self.restructure_allowed,
            },
        )
        operands = OperandNodes(
            a=[netlist.add_input(f"a{i}") for i in range(m)],
            b=[netlist.add_input(f"b{i}") for i in range(m)],
        )
        self.build(netlist, modulus, operands)
        produced = {name for name, _ in netlist.outputs}
        expected = {f"c{k}" for k in range(m)}
        if produced != expected:
            raise RuntimeError(
                f"{self.name} generator produced outputs {sorted(produced)} "
                f"instead of {sorted(expected)}"
            )
        multiplier = GeneratedMultiplier(self.name, self.reference, modulus, netlist, spec)
        if verify:
            report = verify_netlist(netlist, spec)
            if not report:
                raise RuntimeError(f"{self.name} generator is functionally incorrect: {report.summary()}")
        return multiplier

    # ----------------------------------------------------------------- helpers
    @abstractmethod
    def build(self, netlist: Netlist, modulus: int, operands: OperandNodes) -> None:
        """Construct the circuit; must register outputs ``c0 .. c(m-1)``."""

    @staticmethod
    def partial_product(netlist: Netlist, operands: OperandNodes, i: int, j: int) -> int:
        """The AND gate computing ``a_i·b_j`` (structural hashing dedups reuse)."""
        return netlist.and2(operands.a[i], operands.b[j])

    @classmethod
    def atom_products(cls, netlist: Netlist, operands: OperandNodes, atom: Atom) -> List[int]:
        """AND nodes of all partial products inside an atom (1 for x, 2 for z)."""
        if atom.is_x:
            return [cls.partial_product(netlist, operands, atom.i, atom.i)]
        return [
            cls.partial_product(netlist, operands, atom.i, atom.j),
            cls.partial_product(netlist, operands, atom.j, atom.i),
        ]

    @classmethod
    def build_atom(cls, netlist: Netlist, operands: OperandNodes, atom: Atom) -> int:
        """Build one atom: an AND gate (x) or the XOR of two AND gates (z)."""
        products = cls.atom_products(netlist, operands, atom)
        if len(products) == 1:
            return products[0]
        return netlist.xor2(products[0], products[1])

    @classmethod
    def build_split_term(cls, netlist: Netlist, operands: OperandNodes, term: SplitTerm) -> int:
        """Build a split term ``S_i^j``/``T_i^j`` as a complete binary XOR tree.

        The term contains exactly ``2^j`` partial products, so the balanced
        reduction below has depth exactly ``j`` — matching the paper's
        definition of the term.
        """
        products: List[int] = []
        for atom in term.atoms:
            products.extend(cls.atom_products(netlist, operands, atom))
        return netlist.xor_reduce(products, style="balanced")

    @classmethod
    def build_products_for_pairs(
        cls, netlist: Netlist, operands: OperandNodes, pairs: Sequence
    ) -> List[int]:
        """AND nodes for an iterable of partial-product pairs, in sorted order."""
        return [cls.partial_product(netlist, operands, i, j) for i, j in sorted(pairs)]

    # ------------------------------------------------------------ introspection
    @classmethod
    def metadata(cls) -> Dict[str, str]:
        """Registry metadata describing this construction."""
        return {
            "name": cls.name,
            "reference": cls.reference,
            "description": cls.description,
            "restructure_allowed": str(cls.restructure_allowed),
        }
