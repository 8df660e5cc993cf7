"""slmopt: derivative-free global optimization by subdividing labeled grids.

The core loop labels grid vertices by the direction of local
improvement, keeps a completely labeled cell, halves the spacing, and
repeats until the spacing reaches tolerance. Seeded random-search and
annealing baselines, a benchmark harness, and trace rendering ride
along.
"""

from .baselines import (
    BaselineConfig,
    OptimRunResult,
    random_search,
    random_search_walk,
    simulated_annealing,
)
from .bench import (
    AlgorithmSpec,
    BenchRow,
    BenchSpec,
    deviation,
    emit_table,
    run_bench,
)
from .engine import (
    GenerationRecord,
    RunResult,
    SlmConfig,
    complete_cells,
    run_slm,
    select_cell,
)
from .geometry import (
    Cell,
    Point,
    SearchBox,
    Spacing,
    corners,
    probe_offsets,
    subdivide,
)
from .labeling import (
    LabeledVertex,
    ObjectiveEvaluationError,
    Sense,
    label_grid,
    label_of,
)
from .objectives import (
    ObjectiveSpec,
    UnknownObjectiveError,
    builtin_names,
    register_objective,
    registry_lookup,
)
from .trace import (
    UnsupportedDimensionError,
    build_trace_document,
    render_generation_svg,
    render_generation_table,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmSpec",
    "BaselineConfig",
    "BenchRow",
    "BenchSpec",
    "Cell",
    "GenerationRecord",
    "LabeledVertex",
    "ObjectiveEvaluationError",
    "ObjectiveSpec",
    "OptimRunResult",
    "Point",
    "RunResult",
    "SearchBox",
    "Sense",
    "SlmConfig",
    "Spacing",
    "UnknownObjectiveError",
    "UnsupportedDimensionError",
    "builtin_names",
    "build_trace_document",
    "complete_cells",
    "corners",
    "deviation",
    "emit_table",
    "label_grid",
    "label_of",
    "probe_offsets",
    "random_search",
    "random_search_walk",
    "register_objective",
    "registry_lookup",
    "render_generation_svg",
    "render_generation_table",
    "run_bench",
    "run_slm",
    "select_cell",
    "simulated_annealing",
    "subdivide",
    "write_trace",
]
