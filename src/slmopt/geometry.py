"""Axis-aligned box geometry: corners, subdivision grids, the axes of a
run's dyadic lattice, and the one text form of numbers, points and
boxes.

Points are plain tuples of floats. Every enumeration in this module
(corners, grid points, cells, probes) is in lexicographic order so
that downstream tie-breaks are deterministic and output is byte-stable
for identical inputs.
"""

from __future__ import annotations

import functools
import itertools
import sys
from typing import Callable, NamedTuple, Sequence

Point = tuple[float, ...]
Spacing = tuple[float, ...]

MAX_BOUND = sys.float_info.max / 2


class _Frozen:
    """Base of the value classes that check their fields when made:
    SearchBox, SlmConfig, BaselineConfig and AlgorithmSpec. A subclass
    names its fields in __slots__, in constructor order, and its __init__
    sets them, through _set or object.__setattr__, once they pass its
    checks. As on a frozen dataclass, a field cannot be assigned, equal
    fields make equal objects with equal hashes, and repr lists the
    fields. A copy or unpickled object is rebuilt through the
    constructor, so it is checked too."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _set(self, *values: object) -> None:
        """Set every field, in __slots__ order; for __init__ alone."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class SearchBox(_Frozen):
    """Closed axis-aligned box, -MAX_BOUND <= lo[i] < hi[i] <= MAX_BOUND in
    every dimension: there the sum and difference of any two floats are
    finite, and so is every width, centre and midpoint. Every box is
    checked when it is made."""

    __slots__ = ("lo", "hi")
    lo: Point
    hi: Point

    def __init__(self, lo: Sequence[float], hi: Sequence[float]) -> None:
        lo = tuple(map(float, lo))
        hi = tuple(map(float, hi))
        if len(lo) != len(hi):
            raise ValueError("lo and hi must have the same length")
        if not lo:
            raise ValueError("box needs at least one dimension")
        for a, b in zip(lo, hi):
            if not -MAX_BOUND <= a < b <= MAX_BOUND:
                raise ValueError(f"bounds ({a!r}, {b!r}) need -M <= lo < hi <= M = {MAX_BOUND!r}")
        # set directly, not through _set: the run makes a box per refined cell
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def widths(self) -> Spacing:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    def center(self) -> Point:
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    def contains(self, p: Sequence[float]) -> bool:
        if len(p) != self.dimension:
            raise ValueError("point dimension mismatch")
        return all(a <= x <= b for x, a, b in zip(p, self.lo, self.hi))

    def clamp(self, p: Sequence[float]) -> Point:
        """Componentwise projection onto the box."""
        if len(p) != self.dimension:
            raise ValueError("point dimension mismatch")
        return tuple(min(max(float(x), a), b) for x, a, b in zip(p, self.lo, self.hi))


def format_number(v: float) -> str:
    """Integral values without a fraction ("2", not "2.0"), others as repr."""
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def format_point(p: Sequence[float],
                 number: Callable[[float], str] = format_number) -> str:
    """The point's coordinates in parentheses, each as number gives it:
    format_number, or a cache of its texts."""
    return "(" + ", ".join(map(number, p)) + ")"


def format_box(box: SearchBox | Cell) -> str:
    """The box's sides, or a cell's, from its corners lo and hi."""
    return " x ".join(f"[{format_number(a)}, {format_number(b)}]" for a, b in zip(box.lo, box.hi))


class Cell(NamedTuple):
    """One sub-box of a subdivision: its lower and upper corners lo and
    hi, and vertex_indices, the indices of its corners in the
    generation's grid (corner order matches corners(box))."""

    lo: Point
    hi: Point
    vertex_indices: tuple[int, ...]

    @property
    def box(self) -> SearchBox:
        return SearchBox(self.lo, self.hi)


# A Cell from one 3-tuple, built in C: tuple.__new__ skips the
# NamedTuple's generated Python __new__ (a frame per cell) and its arity check.
make_cell = functools.partial(tuple.__new__, Cell)


def corners(box: SearchBox) -> tuple[Point, ...]:
    """The 2**n corners, lexicographic with lo before hi per dimension."""
    return tuple(itertools.product(*zip(box.lo, box.hi)))


@functools.cache
def _cell_corner_indices(n: int) -> tuple[tuple[int, ...], ...]:
    """For each of the 2**n cells of a halved n-box, lexicographic, the
    indices of its corners (corners(box) order) in the 3**n grid."""
    index = {m: i for i, m in enumerate(itertools.product(range(3), repeat=n))}
    bits = tuple(itertools.product((0, 1), repeat=n))
    return tuple(tuple(index[tuple(c + d for c, d in zip(cell, corner))] for corner in bits)
                 for cell in bits)


def subdivide(box: SearchBox) -> tuple[tuple[Point, ...], tuple[Cell, ...]]:
    """Halve the box along every dimension.

    Returns the 3**n grid (per-dimension lo/mid/hi, lexicographic) and
    the 2**n covering cells, each pointing at its corner indices in the
    grid. Midpoints are (lo + hi) / 2, so binary-representable bounds
    subdivide exactly under repeated halving. Raises ValueError unless
    the box is splittable.
    """
    axes = [(a, (a + b) / 2.0, b) for a, b in zip(box.lo, box.hi)]
    for a, m, b in axes:
        if not a < m < b:
            raise ValueError(f"box {format_box(box)} cannot be halved")
    grid = tuple(itertools.product(*axes))
    cells = tuple([make_cell((grid[ix[0]], grid[ix[-1]], ix))
                   for ix in _cell_corner_indices(box.dimension)])
    return grid, cells


def splittable(box: SearchBox) -> bool:
    """True while every dimension's midpoint is strictly inside its
    bounds, i.e. another halving still makes progress in floats."""
    return all(a < (a + b) / 2.0 < b for a, b in zip(box.lo, box.hi))


class LatticeAxis(dict):
    """One axis of a run's dyadic lattice, depth halvings deep: a table
    from each integer index k in [0, 2**depth] to a float.

    The ends hold the domain's lo and hi, and any other k holds
    (x[k - low] + x[k + low]) / 2, where low = k & -k is k's lowest set
    bit. That is the midpoint subdivide computes, so every grid point of
    a run is a lattice point bit for bit, on every domain. An entry is
    made on first lookup, and index maps each float made so far to the
    first index that made it.
    """

    def __init__(self, lo: float, hi: float, depth: int) -> None:
        self.top = 1 << depth
        super().__init__({0: lo, self.top: hi})
        self.index = {lo: 0, hi: self.top}

    def __missing__(self, k: int) -> float:
        if not 0 < k < self.top:
            raise KeyError(k)
        low = k & -k
        x = (self[k - low] + self[k + low]) / 2.0
        self[k] = x
        self.index.setdefault(x, k)
        return x

    def probes(self, step: int, x: float) -> tuple[float, ...]:
        """The floats of indices k - step, k and k + step that lie in
        [0, 2**depth], where k is index[x]; ValueError unless the table
        has made x."""
        k = self.index.get(x)
        if k is None:
            raise ValueError(f"{x!r} is not a lattice point the table has made")
        if step <= k <= self.top - step:
            return self[k - step], self[k], self[k + step]
        return tuple([self[j] for j in (k - step, k, k + step) if 0 <= j <= self.top])
