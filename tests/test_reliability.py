"""SLM on shifted spheres whose minimum is not a lattice point.

The miss counts are measured facts of the current labeling, not a goal:
a change that moves them must update them on purpose and say why.

Protocol: centres come from one random.Random(1), in order 60 for
n = 1, 60 for n = 2 and 20 for n = 3, each coordinate uniform in
[-1.9, 1.9]. The objective is sum((x - c)**2) on [-2, 2]^n, minimized
at tolerance 4/2^10. A run misses when some coordinate of best_point
is more than 2 * tolerance from the centre.
"""

import random

import pytest

from slmopt.engine import SlmConfig, run_slm
from slmopt.geometry import SearchBox
from slmopt.labeling import Sense

TOLERANCE = 4.0 / 2**10
_RNG = random.Random(1)
CENTRES = {
    n: tuple(tuple(_RNG.uniform(-1.9, 1.9) for _ in range(n)) for _ in range(count))
    for n, count in ((1, 60), (2, 60), (3, 20))
}


def misses(n, explore_all):
    box = SearchBox((-2.0,) * n, (2.0,) * n)
    config = SlmConfig(sense=Sense.MINIMIZE, tolerance=TOLERANCE, explore_all=explore_all)
    count = 0
    for c in CENTRES[n]:
        res = run_slm(lambda p: sum((x - ci) ** 2 for x, ci in zip(p, c)), box, config)
        if max(abs(b - ci) for b, ci in zip(res.best_point, c)) > 2 * TOLERANCE:
            count += 1
    return count


@pytest.mark.parametrize(("explore_all", "n", "expected"), (
    (False, 1, 19),
    (False, 2, 40),
    (False, 3, 19),
    (True, 1, 19),
    (True, 2, 38),
    (True, 3, 16),
))
def test_shifted_sphere_misses_are_pinned(explore_all, n, expected):
    assert misses(n, explore_all) == expected
