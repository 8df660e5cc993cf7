"""Trace rendering: text tables, SVG drawings, file layout."""

import math
import os
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slmopt.trace
from slmopt.bench import default_tolerance
from slmopt.engine import GenerationRecord, RunResult, SlmConfig, run_slm
from slmopt.geometry import MAX_BOUND, Cell, SearchBox, splittable
from slmopt.labeling import LabeledVertex, Sense
from slmopt.objectives import registry_lookup
from slmopt.trace import (
    LEGEND_HEIGHT,
    LEGEND_WIDTH,
    PAD,
    PALETTE,
    PLOT_SIZE,
    build_trace_document,
    render_generation_svg,
    render_generation_table,
    write_trace,
)

from pins import TRACE_DIGESTS, manifest_digest

SVG_NS = "{http://www.w3.org/2000/svg}"


def sphere_run(tolerance=0.0625, **kw):
    spec = registry_lookup("sphere_min")
    cfg = SlmConfig(sense=spec.sense, tolerance=tolerance, **kw)
    return run_slm(spec.evaluator, spec.domain, cfg), spec


def svg_root(text):
    return ET.fromstring(text)


def by_class(root, name):
    return [el for el in root.iter() if el.get("class") == name]


# ---------------------------------------------------------------------------
# Text tables
# ---------------------------------------------------------------------------

def test_corner_generation_table_is_exact():
    res, _ = sphere_run()
    assert render_generation_table(res.generations[0]) == (
        "generation 0\n"
        "spacing: (4, 4)\n"
        "box: [-2, 2] x [-2, 2]\n"
        "chosen: [-2, 2] x [-2, 2]\n"
        "\n"
        "point | probe_target | label\n"
        "(-2, -2) | (0, 0) | 0\n"
        "(-2, 2) | (0, 0) | 2\n"
        "(2, -2) | (0, 0) | 1\n"
        "(2, 2) | (0, 0) | 2\n"
    )


def test_refined_generation_table_header():
    res, _ = sphere_run()
    lines = render_generation_table(res.generations[1]).splitlines()
    assert lines[0] == "generation 1"
    assert lines[1] == "spacing: (2, 2)"
    assert lines[3] == "chosen: [0, 2] x [0, 2]"
    assert lines[5] == "point | probe_target | label"
    assert len(lines) == 6 + 9  # full 3x3 grid


def test_fallback_marker_appears():
    spec = registry_lookup("trig")
    res = run_slm(spec.evaluator, spec.domain,
                  SlmConfig(sense=spec.sense, tolerance=3.0))
    table = render_generation_table(res.generations[0])
    assert "fallback: no completely labeled cell this generation" in table
    clean = render_generation_table(sphere_run()[0].generations[0])
    assert "fallback" not in clean


def test_final_generation_has_no_chosen_cell():
    res, _ = sphere_run()
    table = render_generation_table(res.generations[-1])
    assert "chosen: none" in table


def test_vertexless_record_renders_header_only():
    record = GenerationRecord(
        index=0, box=SearchBox((0.0, 0.0), (1.0, 1.0)), spacing=(1.0, 1.0),
        vertices=(), complete_cells=(), chosen=None)
    assert record.fallback_used  # derived: no complete cell
    table = render_generation_table(record)
    assert "point | probe_target | label" not in table
    assert table.startswith("generation 0\n")


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

def test_svg_is_well_formed_and_complete():
    res, _ = sphere_run()
    g = res.generations[0]
    root = svg_root(render_generation_svg(g))
    assert root.tag == SVG_NS + "svg"
    assert root.get("version") == "1.1"
    assert len(by_class(root, "vertex")) == len(g.vertices)
    moved = sum(1 for v in g.vertices if v.probe_target != v.point)
    assert len(by_class(root, "arrow")) == moved
    assert len(by_class(root, "chosen")) == 1
    assert len(by_class(root, "box")) == 1
    markers = [el for el in root.iter() if el.tag == SVG_NS + "marker"]
    assert len(markers) == 1 and markers[0].get("id") == "arrowhead"
    legends = [el for el in root.iter() if el.get("id") == "legend"]
    assert len(legends) == 1


def test_svg_vertex_labels_match_record():
    res, _ = sphere_run()
    g = res.generations[1]
    root = svg_root(render_generation_svg(g))
    texts = [el.text for el in by_class(root, "vlabel")]
    assert texts == [str(v.label) for v in g.vertices]


def test_svg_vertex_fill_is_the_label_colour():
    res, _ = sphere_run()
    g = res.generations[1]
    assert {v.label for v in g.vertices} == {0, 1, 2}
    root = svg_root(render_generation_svg(g))
    fills = [el.get("fill") for el in by_class(root, "vertex")]
    assert fills == [PALETTE[v.label] for v in g.vertices]
    assert len(set(PALETTE)) == 3


def test_svg_rejects_non_planar_records():
    domain = SearchBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    res = run_slm(lambda p: sum(p), domain,
                  SlmConfig(sense=Sense.MINIMIZE, tolerance=10.0))
    with pytest.raises(ValueError) as err:
        render_generation_svg(res.generations[0])
    assert str(err.value) == "svg rendering supports 2-D only, got 3-D"


TINY = math.ulp(0.0)  # 5e-324, the least positive float


@pytest.mark.parametrize("lo, hi", (
    ((-MAX_BOUND, -MAX_BOUND), (MAX_BOUND, MAX_BOUND)),
    ((-MAX_BOUND, 0.0), (MAX_BOUND, 1.0)),
    ((0.0, -MAX_BOUND), (1.0, MAX_BOUND)),
    ((0.0, 0.0), (TINY, TINY)),
))
def test_svg_of_the_widest_boxes_is_finite(lo, hi):
    # the viewport, the box grown by half a spacing, is wider than
    # MAX_BOUND, or its aspect ratio is, or it is one ulp wide, so that
    # halving its width gives 0 (and so would an eighth as tolerance)
    domain = SearchBox(lo, hi)
    res = run_slm(lambda p: (p[0] / hi[0]) ** 2 + p[1] / hi[1], domain,
                  SlmConfig(sense=Sense.MINIMIZE,
                            tolerance=max(max(domain.widths()) / 8, TINY)))
    files = build_trace_document(res, "wide", 0.0, "minimize")
    svgs = [text for name, text in files.items() if name.endswith(".svg")]
    # a box one ulp wide cannot be halved, so its run has one generation
    assert len(svgs) == len(res.generations) > (1 if splittable(domain) else 0)
    for text in svgs:
        root = svg_root(text)
        assert "nan" not in text and "inf" not in text
        assert LEGEND_WIDTH <= float(root.get("width")) <= PLOT_SIZE + 2 * PAD
        assert float(root.get("height")) <= PLOT_SIZE + 2 * PAD + LEGEND_HEIGHT


def test_svg_of_a_tall_box_is_the_wide_box_turned():
    # the longer side is drawn PLOT_SIZE long on either axis
    sizes = []
    for hi in ((2.0, 1.0), (1.0, 2.0)):
        res = run_slm(lambda p: p[0] + p[1], SearchBox((0.0, 0.0), hi),
                      SlmConfig(sense=Sense.MINIMIZE, tolerance=0.5))
        [box] = by_class(svg_root(render_generation_svg(res.generations[0])), "box")
        sizes.append((box.get("width"), box.get("height")))
    assert sizes[0] == sizes[1][::-1] == ("220.00", "110.00")


def test_document_skips_svg_for_non_planar_runs():
    domain = SearchBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    res = run_slm(lambda p: sum(p), domain,
                  SlmConfig(sense=Sense.MINIMIZE, tolerance=10.0))
    files = build_trace_document(res, "custom", 10.0, "minimize")
    assert list(files) == ["trace.txt"]
    assert files["trace.txt"].count("generation ") == len(res.generations)


def _record(draw, index):
    """One 2-D record over a box drawn from few corners and widths, so
    records of one document share plot sizes and pixel positions."""
    lo = tuple(draw(st.sampled_from((-0.0, 0.0, -1.0, 0.5, 2.0))) for _ in range(2))
    # unequal widths make tall and wide boxes
    width = tuple(draw(st.sampled_from((0.25, 1.0, 4.0, 1e-3))) for _ in range(2))
    hi = (lo[0] + width[0], lo[1] + width[1])
    box = SearchBox(lo, hi)
    mid = tuple((a + b) / 2.0 for a, b in zip(lo, hi))
    half = tuple(w / 2.0 for w in width)
    axes = [(-0.0, 0.0, a, m, b) for a, m, b in zip(lo, mid, hi)]
    coordinate = [st.sampled_from(axis) for axis in axes]
    point = st.tuples(*coordinate)
    vertices = []
    for _ in range(draw(st.integers(0, 6))):  # 0: a vertexless record
        p = draw(point)
        target = p if draw(st.booleans()) else draw(point)
        vertices.append(LabeledVertex(p, 0.0, target, draw(st.integers(0, 2))))
    chosen = draw(st.sampled_from((None, Cell(lo, mid, (0, 1, 3, 4)), Cell(mid, hi, (4, 5, 7, 8)))))
    return GenerationRecord(index=index, box=box, spacing=draw(st.sampled_from((width, half))),
                            vertices=tuple(vertices),
                            complete_cells=() if chosen is None else (chosen,), chosen=chosen)


@st.composite
def documents(draw):
    indexes = draw(st.lists(st.integers(0, 2), min_size=1, max_size=8))
    return RunResult(best_point=(0.0, 0.0), best_value=0.0, candidates=(),
                     generations=tuple(_record(draw, k) for k in indexes),
                     evaluations=0, termination="tolerance reached")


@settings(max_examples=150, deadline=None)
@given(result=documents())
def test_document_equals_each_record_rendered_alone(result):
    # the document renders through per-document caches of the pieces
    # that the per-record renderers render uncached; -0.0 and 0.0
    # coordinates share the number cache's keys and must print alike
    files = build_trace_document(result, "drawn", 0.5, "minimize")
    tables = "\n".join(render_generation_table(g) for g in result.generations)
    assert files.pop("trace.txt") == (
        "objective: drawn\nsense: minimize\ntolerance: 0.5\n\n" + tables)
    assert list(files.values()) == [render_generation_svg(g) for g in result.generations]


def test_rendering_is_deterministic():
    res1, _ = sphere_run()
    res2, _ = sphere_run()
    files1 = build_trace_document(res1, "sphere_min", 0.0625, "minimize")
    files2 = build_trace_document(res2, "sphere_min", 0.0625, "minimize")
    assert files1 == files2


# ---------------------------------------------------------------------------
# File layout
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, explore_all", TRACE_DIGESTS)
def test_default_traces_are_byte_stable(name, explore_all, tmp_path):
    spec = registry_lookup(name)
    cfg = SlmConfig(sense=spec.sense, tolerance=default_tolerance(spec),
                    explore_all=explore_all)
    res = run_slm(spec.evaluator, spec.domain, cfg)
    files = build_trace_document(res, spec.name, cfg.tolerance, spec.sense.value)
    assert manifest_digest(write_trace(files, str(tmp_path))) == TRACE_DIGESTS[name, explore_all]


def test_write_trace_writes_utf8_bytes(tmp_path):
    res, _ = sphere_run(tolerance=0.5)
    files = build_trace_document(res, "sphère-β", 0.5, "minimize")
    write_trace(files, str(tmp_path))
    data = (tmp_path / "trace.txt").read_bytes()
    assert data.startswith("objective: sphère-β\n".encode("utf-8"))
    assert data == files["trace.txt"].encode("utf-8")


def test_write_trace_replaces_longer_files(tmp_path):
    # a trace written over a longer one keeps none of the old bytes
    spec = registry_lookup("trig")
    cfg = SlmConfig(sense=spec.sense, tolerance=default_tolerance(spec), explore_all=True)
    res = run_slm(spec.evaluator, spec.domain, cfg)
    old = build_trace_document(res, spec.name, cfg.tolerance, spec.sense.value)
    write_trace(old, str(tmp_path))
    res, spec = sphere_run(tolerance=0.5)
    files = build_trace_document(res, spec.name, 0.5, spec.sense.value)
    assert len(old["trace.txt"]) > len(files["trace.txt"])
    written = write_trace(files, str(tmp_path))
    assert [os.path.basename(p) for p in written] == list(files)
    for path in written:
        with open(path, "rb") as fh:
            assert fh.read() == files[os.path.basename(path)].encode("utf-8")


def test_write_trace_finishes_short_writes(tmp_path, monkeypatch):
    # os.write may write fewer bytes than it is given, here over a
    # longer trace that the last short write must still cut off
    res, spec = sphere_run(tolerance=0.5)
    files = build_trace_document(res, spec.name, 0.5, spec.sense.value)
    write_trace({name: text * 2 for name, text in files.items()}, str(tmp_path))
    write = os.write
    monkeypatch.setattr(slmopt.trace.os, "write", lambda fd, data: write(fd, data[:100]))
    write_trace(files, str(tmp_path))
    monkeypatch.undo()
    assert {name: (tmp_path / name).read_bytes() for name in files} == \
        {name: text.encode("utf-8") for name, text in files.items()}


@pytest.mark.parametrize("old", (
    lambda raw: raw + b"stale tail\n" * 40,  # longer
    lambda raw: bytes(255 - b for b in raw),  # the same length, other bytes
    lambda raw: raw[: len(raw) // 3],  # shorter
), ids=("longer", "same-length", "shorter"))
def test_write_trace_over_existing_files_leaves_exactly_the_new_bytes(old, tmp_path):
    res, spec = sphere_run(tolerance=0.5)
    files = build_trace_document(res, spec.name, 0.5, spec.sense.value)
    new = {name: text.encode("utf-8") for name, text in files.items()}
    for name, raw in new.items():
        (tmp_path / name).write_bytes(old(raw))
    write_trace(files, str(tmp_path))
    assert {name: (tmp_path / name).read_bytes() for name in files} == new


def test_write_trace_rewrites_each_file_in_place(tmp_path, monkeypatch):
    # a trace written over another keeps each file's inode and never
    # opens with O_TRUNC, after which ext4 flushes each file as it closes
    res, spec = sphere_run(tolerance=0.5)
    files = build_trace_document(res, spec.name, 0.5, spec.sense.value)
    paths = write_trace({name: text * 2 for name, text in files.items()}, str(tmp_path))
    inodes = [os.stat(p).st_ino for p in paths]
    flags = []
    open_ = os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return open_(path, flag, *args, **kwargs)

    monkeypatch.setattr(slmopt.trace.os, "open", spy)
    assert write_trace(files, str(tmp_path)) == paths
    monkeypatch.undo()
    assert len(flags) == len(files)
    assert not any(flag & os.O_TRUNC for flag in flags)
    assert [os.stat(p).st_ino for p in paths] == inodes
    assert {name: (tmp_path / name).read_bytes() for name in files} == \
        {name: text.encode("utf-8") for name, text in files.items()}


def test_write_trace_single_path(tmp_path):
    res, spec = sphere_run(tolerance=0.5)
    files = build_trace_document(res, spec.name, 0.5, spec.sense.value)
    written = write_trace(files, str(tmp_path))
    names = [os.path.basename(p) for p in written]
    assert names[0] == "trace.txt"
    assert names[1:] == [f"gen-{k}.svg" for k in range(len(res.generations))]
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    text = (tmp_path / "trace.txt").read_text()
    assert text.startswith(
        "objective: sphere_min\nsense: minimize\ntolerance: 0.5\n")
    assert text.count("generation ") == len(res.generations)


def test_write_trace_numbers_explore_all_duplicates(tmp_path):
    spec = registry_lookup("trig")
    cfg = SlmConfig(sense=spec.sense, tolerance=14.0 / 2 ** 3,
                    explore_all=True, cell_budget=4)
    res = run_slm(spec.evaluator, spec.domain, cfg)
    indexes = [g.index for g in res.generations]
    assert len(indexes) > len(set(indexes))  # at least one duplicated index
    files = build_trace_document(res, spec.name, cfg.tolerance, spec.sense.value)
    written = write_trace(files, str(tmp_path))
    names = [os.path.basename(p) for p in written]
    expected, seen = ["trace.txt"], {}
    for k in indexes:
        ordinal = seen.get(k, 0)
        seen[k] = ordinal + 1
        expected.append(f"gen-{k}.svg" if ordinal == 0 else f"gen-{k}-{ordinal}.svg")
    assert names == expected
    assert sorted(os.listdir(tmp_path)) == sorted(expected)
    for path in written:
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == files[os.path.basename(path)]
