"""Human-inspectable run traces: per-generation text tables and, for
2-D runs, standalone SVG drawings of the labeled grid.

Both renderers are pure functions of their inputs; identical records
give identical bytes. Each piece a trace repeats is a plain function of
its key: format_number and format_point in the tables, _frame, _marker
and _arrow in the drawings. The per-record renderers call them as they
are; build_trace_document wraps each in functools.cache, made per
document and dropped with it. Keys that compare equal print alike, so a
cache cannot move a byte. 0.0 and -0.0 are the one pair of equal floats
that differ: format_number prints both as "0", and no SVG key is -0.0
(:.2f prints "-0.00"), since a plot size is a product of positive floats
and a pixel coordinate is PAD plus a float, -0.0 only when both addends
are. So a document is byte for byte its records rendered one by one;
the tests check that.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Callable

from .engine import GenerationRecord, RunResult
from .geometry import Point, format_box, format_number, format_point


PLOT_SIZE = 440.0
PAD = 18.0
LEGEND_HEIGHT = 72.0
# the legend row ends before x = 380; a narrower plot keeps the canvas this wide
LEGEND_WIDTH = 400.0
# marker fill by label: 0, 1, 2 (SVG is 2-D only, so no other label occurs)
PALETTE = ("#2a9d8f", "#e76f51", "#4361ee")
CHOSEN_FILL = "#ffd166"
ARROW_COLOR = "#555555"


def render_generation_table(g: GenerationRecord) -> str:
    """Text table: point | probe_target | label, one row per vertex in
    grid order, under header lines for spacing and the chosen cell."""
    return _table(g, format_point)


def _table(g: GenerationRecord, point: Callable[[Point], str]) -> str:
    lines = [
        f"generation {g.index}",
        f"spacing: {point(g.spacing)}",
        f"box: {format_box(g.box)}",
        f"chosen: {format_box(g.chosen) if g.chosen is not None else 'none'}",
    ]
    if g.fallback_used:
        lines.append("fallback: no completely labeled cell this generation")
    if g.vertices:
        lines.append("")
        lines.append("point | probe_target | label")
        lines += [f"{point(p)} | {point(t)} | {label}" for p, _, t, label in g.vertices]
    return "\n".join(lines) + "\n"


def render_generation_svg(g: GenerationRecord) -> str:
    """Standalone SVG 1.1 of one 2-D generation: box outline, chosen
    cell highlight, label-colored vertex markers, probe arrows for
    vertices whose probe target moved, and a legend."""
    return _svg(g, _frame, _marker, _arrow)


def _svg(g: GenerationRecord, frame, marker, arrow) -> str:
    """g's drawing, its pieces from _frame, _marker and _arrow or caches of them."""
    if g.box.dimension != 2:
        raise ValueError(f"svg rendering supports 2-D only, got {g.box.dimension}-D")

    # viewport covers the box expanded by the probe radius, so arrows
    # to targets just outside the box stay inside the drawing. Each axis
    # is scaled by 2**k, which brings its largest coordinate into
    # [0.5, 1) (k stops at 1023, where 2**k is still a float). That is
    # exact in the normal range, x1 - x0 cannot overflow and a subnormal
    # span stays nonzero. The aspect ratio (sh / sw) * 2**(kx - ky) may
    # exceed the float range, so the longer side is drawn PLOT_SIZE long.
    ex = [s / 2.0 for s in g.spacing]
    x0, y0 = g.box.lo[0] - ex[0], g.box.lo[1] - ex[1]
    x1, y1 = g.box.hi[0] + ex[0], g.box.hi[1] + ex[1]
    kx, ky = (min(-math.frexp(max(abs(a), abs(b)))[1], 1023) for a, b in ((x0, x1), (y0, y1)))
    fx, fy = math.ldexp(1.0, kx), math.ldexp(1.0, ky)
    sx0, sy1 = x0 * fx, y1 * fy
    sw, sh = x1 * fx - sx0, sy1 - y0 * fy
    aspect, shift = sh / sw, kx - ky
    if math.frexp(aspect)[1] + shift <= 1 and math.ldexp(aspect, shift) <= 1:
        plot_w, plot_h = PLOT_SIZE, PLOT_SIZE * math.ldexp(aspect, shift)
    else:
        plot_w, plot_h = PLOT_SIZE * math.ldexp(sw / sh, -shift), PLOT_SIZE

    def px(x: float) -> float:
        return PAD + (x * fx - sx0) / sw * plot_w

    def py(y: float) -> float:
        return PAD + (sy1 - y * fy) / sh * plot_h

    def rect(box, klass: str, fill: str, opacity: str, stroke: str) -> str:
        return (
            f'  <rect class="{klass}" x="{px(box.lo[0]):.2f}" y="{py(box.hi[1]):.2f}"'
            f' width="{px(box.hi[0]) - px(box.lo[0]):.2f}"'
            f' height="{py(box.lo[1]) - py(box.hi[1]):.2f}"'
            f' fill="{fill}" fill-opacity="{opacity}" stroke="{stroke}"/>'
        )

    head, legend = frame(plot_w, plot_h)
    parts = [head]
    if g.chosen is not None:
        parts.append(rect(g.chosen, "chosen", CHOSEN_FILL, "0.35", "none"))
    parts.append(rect(g.box, "box", "none", "1", "#222222"))

    vertex_lines = []
    for p, _, target, label in g.vertices:
        cx, cy = px(p[0]), py(p[1])
        if target != p:
            parts.append(arrow(cx, cy, px(target[0]), py(target[1])))
        vertex_lines.append(marker(cx, cy, label))
    parts += vertex_lines
    parts.append(legend)
    return "\n".join(parts)


def _marker(cx: float, cy: float, label: int) -> str:
    """A vertex's circle, filled by its label, and its label text."""
    return (
        f'  <circle class="vertex" cx="{cx:.2f}" cy="{cy:.2f}"'
        f' r="5" fill="{PALETTE[label]}" stroke="#ffffff" stroke-width="1"/>\n'
        f'  <text class="vlabel" x="{cx + 7:.2f}" y="{cy - 7:.2f}"'
        f' font-family="sans-serif" font-size="11">{label}</text>'
    )


def _arrow(x1: float, y1: float, x2: float, y2: float) -> str:
    """A probe arrow from a vertex to its probe target."""
    return (
        f'  <line class="arrow" x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}"'
        f' stroke="{ARROW_COLOR}" stroke-width="1.5" marker-end="url(#arrowhead)"/>'
    )


def _frame(plot_w: float, plot_h: float) -> tuple[str, str]:
    """The lines before the first rect and, ending the file, the legend
    and closing tag, of a drawing whose plot is plot_w by plot_h."""
    width = max(plot_w + 2 * PAD, LEGEND_WIDTH)
    height = plot_h + 2 * PAD + LEGEND_HEIGHT
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        "  <defs>",
        '    <marker id="arrowhead" markerWidth="8" markerHeight="8" '
        'refX="7" refY="3" orient="auto">'
        f'<path d="M0,0 L7,3 L0,6 z" fill="{ARROW_COLOR}"/></marker>',
        "  </defs>",
        f'  <rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
    ]
    ly = plot_h + 2 * PAD + 16
    legend = [f'  <g id="legend" font-family="sans-serif" font-size="12">']
    lx = PAD
    for label, color in enumerate(PALETTE):
        legend.append(f'    <circle cx="{lx + 6:.2f}" cy="{ly:.2f}" r="5" fill="{color}"/>')
        legend.append(f'    <text x="{lx + 16:.2f}" y="{ly + 4:.2f}">label {label}</text>')
        lx += 88
    legend.append(
        f'    <rect x="{lx:.2f}" y="{ly - 7:.2f}" width="14" height="14"'
        f' fill="{CHOSEN_FILL}" fill-opacity="0.35" stroke="#999999"/>'
    )
    legend.append(f'    <text x="{lx + 20:.2f}" y="{ly + 4:.2f}">chosen cell</text>')
    legend.append("  </g>")
    legend.append("</svg>\n")
    return "\n".join(head), "\n".join(legend)


def build_trace_document(result: RunResult, objective: str, tolerance: float,
                         sense: str) -> dict[str, str]:
    """The trace's files by name: trace.txt with every record's table,
    then gen-<k>.svg per 2-D record. When several records share a
    generation index (explore-all runs) the later files get a
    -<ordinal> suffix."""
    header = (
        f"objective: {objective}\n"
        f"sense: {sense}\n"
        f"tolerance: {format_number(tolerance)}\n"
    )
    # points share coordinates, so the point cache formats through a number cache
    point = functools.cache(functools.partial(format_point, number=functools.cache(format_number)))
    frame, marker, arrow = map(functools.cache, (_frame, _marker, _arrow))
    tables = "\n".join([_table(g, point) for g in result.generations])
    files = {"trace.txt": header + "\n" + tables}
    seen: dict[int, int] = {}
    for g in result.generations:
        if g.box.dimension != 2:
            continue
        ordinal = seen.get(g.index, 0)
        seen[g.index] = ordinal + 1
        name = f"gen-{g.index}.svg" if ordinal == 0 else f"gen-{g.index}-{ordinal}.svg"
        files[name] = _svg(g, frame, marker, arrow)
    return files


# O_BINARY: Windows opens a file descriptor in text mode without it.
# No O_TRUNC: see write_trace.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_file(path: str, text: str) -> None:
    """Write text's UTF-8 bytes to path in place, with no text layer in
    between, then cut off what an older, longer file held past them.
    ftruncate fails on /dev/null and on pipes, whose st_size is 0, so
    it runs only when the file holds more bytes than were written."""
    raw = text.encode()
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        data = memoryview(raw)
        while data:  # os.write may write fewer bytes than it is given
            data = data[os.write(fd, data):]
        if os.fstat(fd).st_size > len(raw):
            os.ftruncate(fd, len(raw))
    finally:
        os.close(fd)


def write_trace(files: dict[str, str], directory: str) -> list[str]:
    """Write each file of a trace document through write_file; returns
    written paths. A file is rewritten in place, never opened with
    O_TRUNC: ext4 (auto_da_alloc) starts writeback of each file that
    was truncated to zero as it closes, which made writing over an
    earlier trace several times slower than writing it in place. Files
    of an earlier trace that this one does not name are left as they are."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, text in files.items():
        path = os.path.join(directory, name)
        write_file(path, text)
        written.append(path)
    return written
