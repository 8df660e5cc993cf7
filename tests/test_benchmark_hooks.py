"""The module attributes the traced benchmark (perfbench/spans.py and
perfbench/workloads.py) rebinds. A rename of any of them breaks
`perfbench/run.py --trace 1`, so it fails here first."""

import pytest

import slmopt.bench
import slmopt.cli
import slmopt.engine

HOOKS = (
    (slmopt.engine, ("label_grid", "subdivide", "corners", "splittable")),
    (slmopt.bench, ("run_slm", "_BASELINE_FNS", "registry_lookup")),
    (slmopt.cli, ("run_slm", "run_bench", "emit_table", "build_trace_document",
                  "write_trace", "_BASELINES", "registry_lookup")),
)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in HOOKS for n in names],
                         ids=lambda x: getattr(x, "__name__", x))
def test_patched_attribute_exists(module, name):
    assert hasattr(module, name), f"{module.__name__}.{name} is gone"

