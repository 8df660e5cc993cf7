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
from dataclasses import dataclass
from typing import Sequence

Point = tuple[float, ...]
Spacing = tuple[float, ...]

MAX_BOUND = sys.float_info.max / 2


@dataclass(frozen=True)
class SearchBox:
    """Closed axis-aligned box, -MAX_BOUND <= lo[i] < hi[i] <= MAX_BOUND in
    every dimension: there the sum and difference of any two floats are
    finite, and so is every width, centre and midpoint."""

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same length")
        if not self.lo:
            raise ValueError("box needs at least one dimension")
        for a, b in zip(self.lo, self.hi):
            if not -MAX_BOUND <= a < b <= MAX_BOUND:
                raise ValueError(f"bounds ({a!r}, {b!r}) need -M <= lo < hi <= M = {MAX_BOUND!r}")

    @classmethod
    def _unchecked(cls, lo: Point, hi: Point) -> SearchBox:
        """A box from float tuples the caller has already checked."""
        box = object.__new__(cls)
        fields = box.__dict__
        fields["lo"] = lo
        fields["hi"] = hi
        return box

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


def format_point(p: Sequence[float]) -> str:
    return "(" + ", ".join(format_number(v) for v in p) + ")"


def format_box(box: SearchBox) -> str:
    return " x ".join(f"[{format_number(a)}, {format_number(b)}]" for a, b in zip(box.lo, box.hi))


@dataclass(frozen=True)
class Cell:
    """One sub-box of a subdivision, with indices of its corners in the
    generation's grid (corner order matches corners(box))."""

    box: SearchBox
    vertex_indices: tuple[int, ...]


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
    the box is splittable; the cells are then valid boxes and are built
    without SearchBox's checks.
    """
    axes = [(a, (a + b) / 2.0, b) for a, b in zip(box.lo, box.hi)]
    for a, m, b in axes:
        if not a < m < b:
            raise ValueError(f"box {format_box(box)} cannot be halved")
    grid = tuple(itertools.product(*axes))
    unchecked = SearchBox._unchecked
    cells = tuple(Cell(unchecked(grid[ix[0]], grid[ix[-1]]), ix)
                  for ix in _cell_corner_indices(box.dimension))
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
        [0, 2**depth], where k is the index of the lattice float x.

        An x the table has not made yet is found by bisecting [0, 2**depth],
        which makes the entries on its path; ValueError if x is not on
        the lattice."""
        k = self.index.get(x)
        if k is None:
            a, b = 0, self.top
            while b - a > 1 and x not in self.index:
                m = (a + b) // 2
                if x < self[m]:
                    b = m
                else:
                    a = m
            k = self.index.get(x)
            if k is None:
                raise ValueError(f"{x!r} is not a lattice point")
        if step <= k <= self.top - step:
            return self[k - step], self[k], self[k + step]
        return tuple([self[j] for j in (k - step, k, k + step) if 0 <= j <= self.top])
