"""slmopt: derivative-free global optimization by subdividing labeled grids.

The core loop labels grid vertices by the direction of local
improvement, keeps a completely labeled cell, halves the spacing, and
repeats until the spacing reaches tolerance. Seeded random-search and
annealing baselines, a benchmark harness, and trace rendering ride
along.

Each public name is imported from the module that defines it (for
example ``from slmopt.engine import run_slm``); the package root
re-exports nothing. Importing the package loads its modules.
"""

from . import baselines, bench, engine, geometry, labeling, objectives, trace
