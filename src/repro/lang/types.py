"""Green-Marl type system.

The subset reproduced here covers everything the paper's six algorithms use:
primitive scalars, graph/node/edge handles, and node/edge properties.
Types are immutable values compared structurally.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

from .errors import BadArgument


class Prim(enum.Enum):
    INT = "Int"
    LONG = "Long"
    FLOAT = "Float"
    DOUBLE = "Double"
    BOOL = "Bool"


class Type:
    """Base class for all Green-Marl types."""

    def is_numeric(self) -> bool:
        return False

    def is_boolean(self) -> bool:
        return False

    def is_node(self) -> bool:
        return False

    def is_edge(self) -> bool:
        return False

    def is_graph(self) -> bool:
        return False

    def is_property(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class PrimType(Type):
    prim: Prim

    def is_numeric(self) -> bool:
        return self.prim is not Prim.BOOL

    def is_boolean(self) -> bool:
        return self.prim is Prim.BOOL

    def is_integral(self) -> bool:
        return self.prim in (Prim.INT, Prim.LONG)

    def is_floating(self) -> bool:
        return self.prim in (Prim.FLOAT, Prim.DOUBLE)

    def __str__(self) -> str:
        return self.prim.value


@dataclass(frozen=True, slots=True)
class GraphType(Type):
    def is_graph(self) -> bool:
        return True

    def __str__(self) -> str:
        return "Graph"


@dataclass(frozen=True, slots=True)
class NodeType(Type):
    def is_node(self) -> bool:
        return True

    def __str__(self) -> str:
        return "Node"


@dataclass(frozen=True, slots=True)
class EdgeType(Type):
    def is_edge(self) -> bool:
        return True

    def __str__(self) -> str:
        return "Edge"


@dataclass(frozen=True, slots=True)
class NodePropType(Type):
    elem: Type

    def is_property(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"N_P<{self.elem}>"


@dataclass(frozen=True, slots=True)
class EdgePropType(Type):
    elem: Type

    def is_property(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"E_P<{self.elem}>"


INT = PrimType(Prim.INT)
LONG = PrimType(Prim.LONG)
FLOAT = PrimType(Prim.FLOAT)
DOUBLE = PrimType(Prim.DOUBLE)
BOOL = PrimType(Prim.BOOL)
GRAPH = GraphType()
NODE = NodeType()
EDGE = EdgeType()

_NUMERIC_RANK = {Prim.INT: 0, Prim.LONG: 1, Prim.FLOAT: 2, Prim.DOUBLE: 3}


def join_numeric(a: Type, b: Type) -> Type | None:
    """Usual arithmetic conversion: the wider of two numeric types.

    Returns ``None`` when either side is not numeric.
    """
    if not (isinstance(a, PrimType) and isinstance(b, PrimType)):
        return None
    if not (a.is_numeric() and b.is_numeric()):
        return None
    return a if _NUMERIC_RANK[a.prim] >= _NUMERIC_RANK[b.prim] else b


def assignable(dst: Type, src: Type) -> bool:
    """Whether a value of type ``src`` may be assigned to a slot of ``dst``.

    Numeric types convert freely (as in the reference Green-Marl compiler,
    narrowing emits a warning at most); node/edge/bool/graph require an exact
    match.
    """
    if dst == src:
        return True
    if isinstance(dst, PrimType) and isinstance(src, PrimType):
        return dst.is_numeric() and src.is_numeric()
    return False


def comparable(a: Type, b: Type) -> bool:
    """Whether ``==`` / ``!=`` is defined between the two types."""
    if a == b:
        return True
    if isinstance(a, PrimType) and isinstance(b, PrimType):
        return a.is_numeric() and b.is_numeric()
    return False


#: Runtime representation of the NIL node/edge literal (an invalid id).
NIL = -1


def check_scalar_arg(name: str, t: Type, value, num_nodes: int):
    """``value`` if a scalar parameter ``name`` of type ``t`` can take it,
    else :class:`~repro.lang.errors.BadArgument`: an Int or Long takes an
    int, a Float or Double an int or a float (a bool is neither), a Bool a
    bool, and a Node a vertex id of the graph or NIL."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if t.is_node():
        if not (integral and (value == NIL or 0 <= value < num_nodes)):
            raise BadArgument(name, f"Node (a vertex id in [0, {num_nodes}) or NIL, {NIL})", value)
    elif isinstance(t, PrimType):
        if t.is_boolean():
            ok = isinstance(value, bool)
        elif t.is_integral():
            ok = integral
        else:
            ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not ok:
            raise BadArgument(name, str(t), value)
    return value


def default_value(t: Type):
    """The zero value used when a property or variable is left uninitialized.

    Node/edge slots default to :data:`NIL` (-1), the same representation the
    Pregel backend and the reference interpreter use, so results compare
    directly.
    """
    if isinstance(t, PrimType):
        if t.prim is Prim.BOOL:
            return False
        if t.prim in (Prim.FLOAT, Prim.DOUBLE):
            return 0.0
        return 0
    if isinstance(t, NodeType) or isinstance(t, EdgeType):
        return NIL
    raise ValueError(f"no default value for type {t}")
