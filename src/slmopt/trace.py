"""Human-inspectable run traces: per-generation text tables and, for
2-D runs, standalone SVG drawings of the labeled grid.

Both renderers are pure functions of their inputs; identical records
and style give identical bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .engine import GenerationRecord, RunResult
from .geometry import format_box, format_number, format_point


class UnsupportedDimensionError(ValueError):
    def __init__(self, dimension: int):
        self.dimension = dimension
        super().__init__(f"svg rendering supports 2-D only, got {dimension}-D")


@dataclass(frozen=True)
class SvgStyle:
    plot_size: float = 440.0
    pad: float = 18.0
    legend_height: float = 72.0
    # marker fill by label: 0, 1, 2
    palette: tuple[str, str, str] = ("#2a9d8f", "#e76f51", "#4361ee")
    chosen_fill: str = "#ffd166"
    arrow_color: str = "#555555"


@dataclass(frozen=True)
class TraceEntry:
    index: int
    table: str
    svg: str | None


@dataclass(frozen=True)
class TraceDocument:
    objective: str
    sense: str
    tolerance: float
    entries: tuple[TraceEntry, ...]


def render_generation_table(g: GenerationRecord) -> str:
    """Text table: point | probe_target | label, one row per vertex in
    grid order, under header lines for spacing and the chosen cell."""
    lines = [
        f"generation {g.index}",
        f"spacing: {format_point(g.spacing)}",
        f"box: {format_box(g.box)}",
        f"chosen: {format_box(g.chosen.box) if g.chosen is not None else 'none'}",
    ]
    if g.fallback_used:
        lines.append("fallback: no completely labeled cell this generation")
    if g.vertices:
        lines.append("")
        lines.append("point | probe_target | label")
        for v in g.vertices:
            lines.append(f"{format_point(v.point)} | {format_point(v.probe_target)} | {v.label}")
    return "\n".join(lines) + "\n"


def render_generation_svg(g: GenerationRecord, style: SvgStyle | None = None) -> str:
    """Standalone SVG 1.1 of one 2-D generation: box outline, chosen
    cell highlight, label-colored vertex markers, probe arrows for
    nonzero displacements, and a legend."""
    if g.box.dimension != 2:
        raise UnsupportedDimensionError(g.box.dimension)
    st = style or SvgStyle()

    # viewport covers the box expanded by the probe radius, so arrows
    # to targets just outside the box stay inside the drawing
    ex = [s / 2.0 for s in g.spacing]
    x0, y0 = g.box.lo[0] - ex[0], g.box.lo[1] - ex[1]
    x1, y1 = g.box.hi[0] + ex[0], g.box.hi[1] + ex[1]
    plot_w = st.plot_size
    plot_h = st.plot_size * (y1 - y0) / (x1 - x0)
    width = plot_w + 2 * st.pad
    height = plot_h + 2 * st.pad + st.legend_height

    def px(x: float) -> float:
        return st.pad + (x - x0) / (x1 - x0) * plot_w

    def py(y: float) -> float:
        return st.pad + (y1 - y) / (y1 - y0) * plot_h

    def rect(box, klass: str, fill: str, opacity: str, stroke: str) -> str:
        return (
            f'  <rect class="{klass}" x="{px(box.lo[0]):.2f}" y="{py(box.hi[1]):.2f}"'
            f' width="{px(box.hi[0]) - px(box.lo[0]):.2f}"'
            f' height="{py(box.lo[1]) - py(box.hi[1]):.2f}"'
            f' fill="{fill}" fill-opacity="{opacity}" stroke="{stroke}"/>'
        )

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        "  <defs>",
        '    <marker id="arrowhead" markerWidth="8" markerHeight="8" '
        'refX="7" refY="3" orient="auto">'
        f'<path d="M0,0 L7,3 L0,6 z" fill="{st.arrow_color}"/></marker>',
        "  </defs>",
        f'  <rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
    ]
    if g.chosen is not None:
        parts.append(rect(g.chosen.box, "chosen", st.chosen_fill, "0.35", "none"))
    parts.append(rect(g.box, "box", "none", "1", "#222222"))

    for v in g.vertices:
        if any(d != 0.0 for d in v.displacement):
            parts.append(
                f'  <line class="arrow" x1="{px(v.point[0]):.2f}" y1="{py(v.point[1]):.2f}"'
                f' x2="{px(v.probe_target[0]):.2f}" y2="{py(v.probe_target[1]):.2f}"'
                f' stroke="{st.arrow_color}" stroke-width="1.5" marker-end="url(#arrowhead)"/>'
            )
    for v in g.vertices:
        color = st.palette[v.label] if v.label < len(st.palette) else "#888888"
        parts.append(
            f'  <circle class="vertex" cx="{px(v.point[0]):.2f}" cy="{py(v.point[1]):.2f}"'
            f' r="5" fill="{color}" stroke="#ffffff" stroke-width="1"/>'
        )
        parts.append(
            f'  <text class="vlabel" x="{px(v.point[0]) + 7:.2f}" y="{py(v.point[1]) - 7:.2f}"'
            f' font-family="sans-serif" font-size="11">{v.label}</text>'
        )

    ly = plot_h + 2 * st.pad + 16
    legend = [f'  <g id="legend" font-family="sans-serif" font-size="12">']
    lx = st.pad
    for label, color in enumerate(st.palette):
        legend.append(f'    <circle cx="{lx + 6:.2f}" cy="{ly:.2f}" r="5" fill="{color}"/>')
        legend.append(f'    <text x="{lx + 16:.2f}" y="{ly + 4:.2f}">label {label}</text>')
        lx += 88
    legend.append(
        f'    <rect x="{lx:.2f}" y="{ly - 7:.2f}" width="14" height="14"'
        f' fill="{st.chosen_fill}" fill-opacity="0.35" stroke="#999999"/>'
    )
    legend.append(f'    <text x="{lx + 20:.2f}" y="{ly + 4:.2f}">chosen cell</text>')
    legend.append("  </g>")
    parts.extend(legend)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def build_trace_document(result: RunResult, objective: str, tolerance: float,
                         sense: str, style: SvgStyle | None = None) -> TraceDocument:
    """One entry per GenerationRecord; SVG only for 2-D records."""
    entries = []
    for g in result.generations:
        svg = render_generation_svg(g, style) if g.box.dimension == 2 else None
        entries.append(TraceEntry(index=g.index, table=render_generation_table(g), svg=svg))
    return TraceDocument(objective=objective, sense=sense, tolerance=tolerance,
                         entries=tuple(entries))


def write_trace(doc: TraceDocument, directory: str) -> list[str]:
    """Write trace.txt plus gen-<k>.svg files; returns written paths.

    When several records share a generation index (explore-all runs)
    the later files get a -<ordinal> suffix.
    """
    os.makedirs(directory, exist_ok=True)
    written = []
    header = (
        f"objective: {doc.objective}\n"
        f"sense: {doc.sense}\n"
        f"tolerance: {format_number(doc.tolerance)}\n"
    )
    text = header + "\n" + "\n".join(e.table for e in doc.entries)
    path = os.path.join(directory, "trace.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    written.append(path)
    seen: dict[int, int] = {}
    for e in doc.entries:
        if e.svg is None:
            continue
        ordinal = seen.get(e.index, 0)
        seen[e.index] = ordinal + 1
        name = f"gen-{e.index}.svg" if ordinal == 0 else f"gen-{e.index}-{ordinal}.svg"
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(e.svg)
        written.append(path)
    return written
