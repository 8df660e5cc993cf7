"""Axis-aligned box geometry: corners, subdivision grids, probe offsets,
and the one text form of numbers, points and boxes.

Points are plain tuples of floats. Every enumeration in this module
(corners, grid points, cells, offsets) is in lexicographic order so
that downstream tie-breaks are deterministic and output is byte-stable
for identical inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

Point = tuple[float, ...]
Spacing = tuple[float, ...]


@dataclass(frozen=True)
class SearchBox:
    """Closed axis-aligned box, lo[i] < hi[i] in every dimension."""

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
            if not a < b:
                raise ValueError(f"degenerate bounds: {a!r} >= {b!r}")

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


def initial_spacing(box: SearchBox) -> Spacing:
    """Generation-zero spacing: the full box width per dimension."""
    return box.widths()


def check_spacing(n: int, s: Sequence[float]) -> None:
    """Raise ValueError unless s is a positive spacing of dimension n."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if len(s) != n:
        raise ValueError("spacing length does not match dimension")
    for v in s:
        if not v > 0:
            raise ValueError("spacing components must be positive")


def probe_offsets(n: int, s: Sequence[float]) -> tuple[Point, ...]:
    """All 3**n - 1 nonzero displacement vectors with components in
    {-s[i], 0, +s[i]}, lexicographic (minus before zero before plus)."""
    check_spacing(n, s)
    zero = (0.0,) * n
    axes = [(-v, 0.0, v) for v in s]
    return tuple(d for d in itertools.product(*axes) if d != zero)


def subdivide(box: SearchBox) -> tuple[tuple[Point, ...], tuple[Cell, ...]]:
    """Halve the box along every dimension.

    Returns the 3**n grid (per-dimension lo/mid/hi, lexicographic) and
    the 2**n covering cells, each pointing at its corner indices in the
    grid. Midpoints are (lo + hi) / 2, so binary-representable bounds
    subdivide exactly under repeated halving.
    """
    n = box.dimension
    axes = [(a, (a + b) / 2.0, b) for a, b in zip(box.lo, box.hi)]
    grid = tuple(itertools.product(*axes))
    strides = [3 ** (n - 1 - i) for i in range(n)]
    cells = []
    for choice in itertools.product((0, 1), repeat=n):
        sub = SearchBox(
            tuple(axes[i][c] for i, c in enumerate(choice)),
            tuple(axes[i][c + 1] for i, c in enumerate(choice)),
        )
        indices = tuple(
            sum((choice[i] + corner[i]) * strides[i] for i in range(n))
            for corner in itertools.product((0, 1), repeat=n)
        )
        cells.append(Cell(sub, indices))
    return grid, tuple(cells)


def splittable(box: SearchBox) -> bool:
    """True while every dimension's midpoint is strictly inside its
    bounds, i.e. another halving still makes progress in floats."""
    return all(a < (a + b) / 2.0 < b for a, b in zip(box.lo, box.hi))
