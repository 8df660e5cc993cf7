"""The test suite's one store-free model of the subdivision search,
coded apart from slmopt.engine and slmopt.labeling, as
baseline_reference.py is for the baselines.

reference_run labels every vertex on its own (lattice_vertex), so every
probe calls f; it picks cells with next_cells, the frontier policy, and
applies the complete-cell rule (labels covering {0..n}) itself. From
slmopt it takes only data types, geometry helpers and the termination
names. run_slm must return its RunResult and call f at its distinct
points in the same order. The lattice pieces, coded apart from
geometry.LatticeAxis, give the run's lattice depth, its floats built
level by level, a point's indices and one vertex's labeling, with the
label rule (label_of) that label_grid is checked against.

lattice_floats asserts that a domain's lattice floats are distinct, so
the reference cannot model a box a few ulps wide, where halving repeats
floats. The ulp-wide properties in test_engine,
test_every_grid_point_is_made_before_it_is_labeled and
test_block_path_changes_no_run_result, keep their own checks.

test_engine, test_labeling and test_acceptance import it."""

import itertools

from slmopt.engine import (
    BOX_UNSPLITTABLE,
    GENERATION_CAP,
    TOLERANCE_REACHED,
    GenerationRecord,
    RunResult,
)
from slmopt.geometry import Cell, LatticeAxis, corners, splittable, subdivide
from slmopt.labeling import LabeledVertex, Sense


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


def _rank(value, sense):
    """Lower is better in either sense."""
    return value if sense is Sense.MINIMIZE else -value


def next_cells(staged, cfg):
    """The frontier policy: the cells whose boxes the next generation
    labels. staged holds (box, cells, vertices, complete cells) per box.

    The complete cells of every box come first, then every cell of each
    box that has none. Each group is ordered by its cells' best vertex
    value, then by lower corner. explore_all keeps the first cell_budget
    cells, single descent the first one."""
    def key(cell, vertices):
        return min(_rank(vertices[i].value, cfg.sense) for i in cell.vertex_indices), cell.lo

    sure = [(key(c, vs), c) for _, _, vs, complete in staged for c in complete]
    unsure = [(key(c, vs), c) for _, cells, vs, complete in staged if not complete
              for c in cells]
    ranked = [c for _, c in sorted(sure, key=lambda kc: kc[0])]
    ranked += [c for _, c in sorted(unsure, key=lambda kc: kc[0])]
    return ranked[:cfg.cell_budget if cfg.explore_all else 1]


def reference_run(f, domain, cfg):
    """The search loop without the point store. Returns the RunResult
    run_slm must return, whose evaluations count the distinct points f
    was called at, and those points in the order of their first call."""
    sense = cfg.sense
    values = {}  # each distinct point's first value, in order of first call

    def called(p):
        v = f(p)
        values.setdefault(p, v)
        return v

    depth = lattice_depth(domain, cfg)
    tables = lattice_floats(domain, depth)
    all_labels = set(range(domain.dimension + 1))
    records, frontier, spacing, gen = [], [domain], domain.widths(), 0
    while True:
        staged = []
        for box in sorted(frontier, key=lambda b: (b.lo, b.hi)):
            if gen == 0:
                grid = corners(box)
                cells = (Cell(box.lo, box.hi, tuple(range(len(grid)))),)
            else:
                grid, cells = subdivide(box)
            step = 2 ** (depth - gen - 1)
            vertices = tuple(lattice_vertex(called, p, step, tables, sense) for p in grid)
            complete = tuple(c for c in cells
                             if {vertices[i].label for i in c.vertex_indices} == all_labels)
            staged.append((box, cells, vertices, complete))
        termination = (TOLERANCE_REACHED if max(spacing) <= cfg.tolerance
                       else GENERATION_CAP if gen >= cfg.max_generations else None)
        kept = next_cells(staged, cfg) if termination is None else []
        chosen = kept[0] if kept and not cfg.explore_all else None
        records += [GenerationRecord(gen, box, spacing, vertices, complete, chosen)
                    for box, _, vertices, complete in staged]
        if termination is None and not all(splittable(c.box) for c in kept):
            termination = BOX_UNSPLITTABLE
        if termination is not None:
            break
        frontier = [c.box for c in kept]
        spacing = tuple(v / 2.0 for v in spacing)
        gen += 1

    best_point = min(values, key=lambda p: _rank(values[p], sense))  # the first called of the best
    candidates = ()
    if cfg.explore_all:
        reps = {}
        for _, _, vertices, _ in staged:
            top = min(vertices, key=lambda v: _rank(v.value, sense))
            reps.setdefault(top.point, top.value)
        candidates = tuple(sorted(reps.items(), key=lambda pv: (_rank(pv[1], sense), pv[0])))
    return (RunResult(best_point=best_point, best_value=values[best_point],
                      candidates=candidates, generations=tuple(records),
                      evaluations=len(values), termination=termination),
            list(values))
