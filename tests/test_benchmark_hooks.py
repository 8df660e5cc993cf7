"""The module attributes the benchmark (perfbench/spans.py and
perfbench/workloads.py) imports or rebinds. A rename of any of them breaks
`perfbench/run.py`, so it fails here first."""

import os
import subprocess
import sys

import pytest

import slmopt
import slmopt.bench
import slmopt.cli
import slmopt.engine
import slmopt.geometry
import slmopt.labeling
import slmopt.objectives

# perfbench times `import slmopt` as the load of these modules
IMPORT_MODULES = ("geometry", "labeling", "objectives", "engine", "baselines", "bench", "trace")

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


def test_package_root_binds_only_its_modules():
    """A fresh `import slmopt` loads the timed modules and binds no other
    public name (this file's own imports would bind some of them)."""
    src = os.path.dirname(os.path.dirname(slmopt.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import slmopt; print(sorted(n for n in vars(slmopt) if not n.startswith('_')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == f"{sorted(IMPORT_MODULES)}\n"
