"""The test suite's one reference for a run's dyadic lattice, coded apart
from geometry.LatticeAxis: its depth, its floats built level by level, the
index of a lattice point, and the labeling of one vertex on it, with
the label rule label_grid is checked against (label_of).

test_engine, test_labeling and test_acceptance import it."""

import itertools

from slmopt.geometry import LatticeAxis
from slmopt.labeling import LabeledVertex


def label_of(displacement):
    """0 if every component is >= 0, else the largest 1-based index
    whose component is negative."""
    label = 0
    for i, d in enumerate(displacement):
        if d < 0:
            label = i + 1
    return label


def lattice_depth(domain, cfg):
    """One more than the last generation the tolerance and the
    generation cap allow: the last generation probes one index apart."""
    spacing, depth = domain.widths(), 1
    while not (max(spacing) <= cfg.tolerance or depth > cfg.max_generations):
        spacing = tuple(v / 2.0 for v in spacing)
        depth += 1
    return depth


def lattice_floats(domain, depth):
    """Per axis, the float of every index in [0, 2**depth], built level
    by level: the bounds at the ends, then each new index at the midpoint
    of its two neighbours on the level above."""
    top = 2 ** depth
    tables = []
    for a, b in zip(domain.lo, domain.hi):
        x = {0: a, top: b}
        step = top
        while step > 1:
            step //= 2
            for k in range(step, top, 2 * step):
                x[k] = (x[k - step] + x[k + step]) / 2.0
        floats = [x[k] for k in range(top + 1)]
        assert all(u < v for u, v in zip(floats, floats[1:])), "lattice floats must be distinct"
        tables.append(floats)
    return tables


def lattice_indices(points, tables):
    """The index tuple of each point; KeyError for a coordinate that is
    not a lattice float."""
    index = [{x: k for k, x in enumerate(floats)} for floats in tables]
    return [tuple(ix[x] for ix, x in zip(index, p)) for p in points]


def lattice_vertex(f, p, step, tables, sense):
    """One vertex labeled on the lattice: p's candidates are the lattice
    points step indices away on each axis, inside the domain, in
    lexicographic offset order; the first strict improvement wins."""
    (ks,) = lattice_indices([p], tables)
    value = best_v = f(p)
    best = p
    for offset in itertools.product((-1, 0, 1), repeat=len(p)):
        js = [k + o * step for k, o in zip(ks, offset)]
        if not any(offset) or not all(0 <= j < len(t) for j, t in zip(js, tables)):
            continue
        q = tuple(t[j] for t, j in zip(tables, js))
        v = f(q)
        if sense.better(v, best_v):
            best, best_v = q, v
    return LabeledVertex(point=p, value=value, probe_target=best,
                         label=label_of([t - x for t, x in zip(best, p)]))


def index_step(domain, spacing, depth):
    """The index step of a float probe spacing that is the same fraction
    of the width on every axis."""
    (step,) = {2 ** depth * s / w for s, w in zip(spacing, domain.widths())}
    assert step == int(step) >= 1, f"{spacing} is not a lattice step"
    return int(step)


def run_lattice(domain, depth, points):
    """The lattice a run on domain builds, one geometry.LatticeAxis per
    axis, with the entry of every coordinate of points made, as earlier
    generations make a grid's entries. Asserts that each coordinate is
    the reference float at its index."""
    axes = tuple(LatticeAxis(a, b, depth) for a, b in zip(domain.lo, domain.hi))
    tables = lattice_floats(domain, depth)
    for p, ks in zip(points, lattice_indices(points, tables)):
        assert tuple(axis[k] for axis, k in zip(axes, ks)) == p
    return axes
