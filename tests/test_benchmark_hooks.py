"""The module attributes the benchmark (perfbench/spans.py and
perfbench/workloads.py) imports or rebinds. A rename of any of them breaks
`perfbench/run.py`, so it fails here first. Also what a fresh `import
slmopt`, which the benchmark times as setup_s, loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slmopt
import slmopt.bench
import slmopt.cli
import slmopt.engine
import slmopt.geometry
import slmopt.labeling
import slmopt.objectives

# child interpreters import the same slmopt as this one, installed or not
SRC_DIR = os.path.dirname(os.path.dirname(slmopt.__file__))
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (SRC_DIR, os.environ.get("PYTHONPATH"))))}

# perfbench times `import slmopt` as the load of these modules; read from
# perfbench/run.py's own assignment, without importing run.py
RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
IMPORT_MODULES = ast.literal_eval(next(
    node.value for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body
    if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "IMPORT_MODULES"))

HOOKS = (
    (slmopt.engine, ("label_grid", "subdivide", "corners", "splittable",
                     "TOLERANCE_REACHED", "SlmConfig", "run_slm")),
    (slmopt.geometry, ("Point", "SearchBox")),
    (slmopt.labeling, ("Sense",)),
    (slmopt.objectives, ("builtin_names", "registry_lookup")),
    (slmopt.bench, ("run_slm", "_BASELINE_FNS", "registry_lookup",
                    "FIELD_NAMES", "default_tolerance")),
    (slmopt.cli, ("run_slm", "run_bench", "emit_table", "build_trace_document",
                  "write_trace", "_BASELINES", "registry_lookup", "main")),
)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in HOOKS for n in names],
                         ids=lambda x: getattr(x, "__name__", x))
def test_patched_attribute_exists(module, name):
    assert hasattr(module, name), f"{module.__name__}.{name} is gone"


def fresh_import(code):
    """stdout of a fresh interpreter that imports slmopt, then runs code."""
    return subprocess.run([sys.executable, "-c", f"import slmopt\n{code}"], env=CHILD_ENV,
                          capture_output=True, text=True, check=True).stdout


def test_package_root_binds_only_its_modules():
    """A fresh `import slmopt` loads the timed modules and binds no other
    public name (this file's own imports would bind some of them)."""
    out = fresh_import("print(sorted(n for n in vars(slmopt) if not n.startswith('_')))")
    assert out == f"{sorted(IMPORT_MODULES)}\n"


def test_import_loads_no_emitter_module_and_two_dataclasses():
    """What `import slmopt`, which perfbench's setup_s times, pays for,
    checked without timing it. json and csv load only when a bench
    emitter runs. The only dataclasses are ObjectiveSpec and RunResult,
    because perfbench calls dataclasses.replace on them
    (perfbench/workloads.py on ObjectiveSpec, perfbench/test_perfbench.py
    on RunResult). A frozen dataclass takes 0.3 to 0.5 ms to create; the
    other records are NamedTuples or slotted classes, which take a tenth
    of that or less."""
    out = fresh_import(
        "import sys\n"
        "print(sorted({'json', 'csv'} & set(sys.modules)))\n"
        "print(sorted(f'{m}.{n}' for m, mod in list(sys.modules.items()) if m.startswith('slmopt.')\n"
        "             for n, c in vars(mod).items() if isinstance(c, type) and c.__module__ == m\n"
        "             and '__dataclass_fields__' in vars(c)))")
    assert out == "[]\n['slmopt.engine.RunResult', 'slmopt.objectives.ObjectiveSpec']\n"


def test_label_grid_gets_each_generations_distinct_vertices(monkeypatch):
    """perfbench's labeling.vertices reads len(args[1]) of each
    engine.label_grid call: the distinct vertex points of one generation."""
    grids = []
    label_grid = slmopt.engine.label_grid

    def recorded(*args, **kwargs):
        grids.append(args[1])
        return label_grid(*args, **kwargs)

    monkeypatch.setattr(slmopt.engine, "label_grid", recorded)
    spec = slmopt.objectives.registry_lookup("trig")
    cfg = slmopt.engine.SlmConfig(sense=spec.sense, tolerance=14.0 / 2 ** 5,
                                  explore_all=True, cell_budget=4)
    res = slmopt.engine.run_slm(spec.evaluator, spec.domain, cfg)
    per_gen: dict[int, set] = {}
    for g in res.generations:
        per_gen.setdefault(g.index, set()).update(v.point for v in g.vertices)
    assert len(grids) == len(per_gen)
    for grid, (_, points) in zip(grids, sorted(per_gen.items())):
        assert len(grid) == len(points)
        assert set(grid) == points
