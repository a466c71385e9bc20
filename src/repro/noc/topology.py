"""2D mesh topology primitives.

The paper's baseline is a 6x6 2D mesh (36 nodes: 28 compute cores and 8
memory controllers).  This module provides coordinates, directions, and the
mesh geometry helpers shared by routing algorithms and network assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Tuple

#: Interning pool for :class:`Coord` (see ``Coord.__new__``).
_coord_pool: Dict[Tuple[int, int], "Coord"] = {}


class Direction(str, Enum):
    """Mesh port directions plus the generic terminal pseudo-ports.

    ``INJECT``/``EJECT`` are expanded into concrete per-router terminal
    ports (``("inj", k)`` / ``("ej", k)``) during network assembly so that
    multi-port memory-controller routers (Section IV-D) fit the same model.
    """

    NORTH = "N"
    SOUTH = "S"
    EAST = "E"
    WEST = "W"
    INJECT = "INJ"
    EJECT = "EJ"

    def opposite(self) -> "Direction":
        return _OPPOSITE[self]


_OPPOSITE = {
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
}

#: Port identifiers are either a Direction (mesh channels) or a tuple
#: ("inj"|"ej", index) for terminal ports.
PortId = object


def injection_port(index: int = 0) -> Tuple[str, int]:
    """Terminal port id for the ``index``-th injection port."""
    return ("inj", index)


def ejection_port(index: int = 0) -> Tuple[str, int]:
    """Terminal port id for the ``index``-th ejection port."""
    return ("ej", index)


def is_terminal_port(port: PortId) -> bool:
    """True for injection/ejection ports, False for mesh directions."""
    return isinstance(port, tuple)


@dataclass(frozen=True, order=True)
class Coord:
    """Mesh coordinate.  ``x`` is the column, ``y`` the row (0 = top)."""

    x: int
    y: int

    # Interning (see ``_coord_pool``): ``Coord(x, y)`` returns the one
    # canonical instance per coordinate, so Coord-keyed dict lookups hit
    # the identity fast path instead of calling ``__eq__``.  Bounded by
    # the distinct coordinates ever constructed (mesh-sized).  The cycle
    # loop names nodes by integer id (``Mesh.index``), never by Coord.
    def __new__(cls, x: int = 0, y: int = 0) -> "Coord":
        if cls is not Coord:
            return object.__new__(cls)
        self = _coord_pool.get((x, y))
        if self is None:
            self = object.__new__(cls)
            _coord_pool[(x, y)] = self
        return self

    # Interned + immutable: copies are the object itself, and pickling
    # reconstructs through ``__new__`` so unpickled coords are interned
    # too (never create a blank instance and fill its __dict__ — that
    # would mutate the canonical (0,0) instance).
    def __reduce__(self):
        return (Coord, (self.x, self.y))

    def __copy__(self) -> "Coord":
        return self

    def __deepcopy__(self, memo) -> "Coord":
        return self

    def neighbor(self, direction: Direction) -> "Coord":
        if direction is Direction.NORTH:
            return Coord(self.x, self.y - 1)
        if direction is Direction.SOUTH:
            return Coord(self.x, self.y + 1)
        if direction is Direction.EAST:
            return Coord(self.x + 1, self.y)
        if direction is Direction.WEST:
            return Coord(self.x - 1, self.y)
        raise ValueError(f"{direction} is not a mesh direction")

    def manhattan(self, other: "Coord") -> int:
        return abs(self.x - other.x) + abs(self.y - other.y)

    def parity(self) -> int:
        """Checkerboard parity: 0 for full-router tiles, 1 for half-router
        tiles under the checkerboard organization (Section IV-A)."""
        return (self.x + self.y) % 2

    def __repr__(self) -> str:  # compact, used in error messages and logs
        return f"({self.x},{self.y})"


class Mesh:
    """Geometry of a ``cols`` x ``rows`` 2D mesh."""

    def __init__(self, cols: int, rows: int) -> None:
        if cols < 1 or rows < 1:
            raise ValueError("mesh dimensions must be positive")
        self.cols = cols
        self.rows = rows

    @property
    def num_nodes(self) -> int:
        return self.cols * self.rows

    def contains(self, coord: Coord) -> bool:
        return 0 <= coord.x < self.cols and 0 <= coord.y < self.rows

    def coords(self) -> Iterator[Coord]:
        for y in range(self.rows):
            for x in range(self.cols):
                yield Coord(x, y)

    def index(self, coord: Coord) -> int:
        if not self.contains(coord):
            raise ValueError(f"{coord} outside {self.cols}x{self.rows} mesh")
        return coord.y * self.cols + coord.x

    def coord(self, index: int) -> Coord:
        if not 0 <= index < self.num_nodes:
            raise ValueError(f"node index {index} out of range")
        return Coord(index % self.cols, index // self.cols)

    def neighbors(self, coord: Coord) -> List[Tuple[Direction, Coord]]:
        result = []
        for direction in (Direction.NORTH, Direction.SOUTH,
                          Direction.EAST, Direction.WEST):
            n = coord.neighbor(direction)
            if self.contains(n):
                result.append((direction, n))
        return result

    def bisection_links(self) -> int:
        """Number of unidirectional channel pairs crossing the vertical
        bisection cut (the paper sizes channels from this: a 6x6 mesh has a
        12-link bisection, Section III-A footnote 3)."""
        return 2 * self.rows

    def direction_towards(self, src: Coord, dst: Coord, axis: str) -> Direction:
        """First-hop direction along one axis ("x" or "y")."""
        if axis == "x":
            if dst.x > src.x:
                return Direction.EAST
            if dst.x < src.x:
                return Direction.WEST
        elif axis == "y":
            if dst.y > src.y:
                return Direction.SOUTH
            if dst.y < src.y:
                return Direction.NORTH
        else:
            raise ValueError("axis must be 'x' or 'y'")
        raise ValueError(f"no {axis}-offset between {src} and {dst}")
