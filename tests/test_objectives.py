"""Builtin objective surfaces and the name registry."""

import math
import random

import pytest

from slmopt.geometry import SearchBox
from slmopt.labeling import Sense
from slmopt.objectives import (
    ObjectiveSpec,
    UnknownObjectiveError,
    builtin_names,
    eval_rosenbrock,
    eval_shekel,
    eval_sphere_min,
    eval_trig,
    register_objective,
    registry_lookup,
)

BASE = (-32.0, -16.0, 0.0, 16.0, 32.0)


def shekel_oracle(x, y):
    """Independent 25-well evaluation, written well-by-well."""
    wells = []
    for row in BASE:
        for col in BASE:
            wells.append((col, row))
    acc = 0.0
    for j, (a, b) in enumerate(wells, start=1):
        acc += 1.0 / (j + (x - a) ** 6 + (y - b) ** 6)
    return 1.0 / (0.002 + acc)


# ---------------------------------------------------------------------------
# Spot values
# ---------------------------------------------------------------------------

def test_sphere_spot_values():
    assert eval_sphere_min((0.0, 0.4)) == 0.0
    assert math.isclose(eval_sphere_min((0.0, 0.0)), 0.16, rel_tol=1e-12)
    assert math.isclose(eval_sphere_min((-2.0, -2.0)), 9.76, rel_tol=1e-12)
    assert registry_lookup("sphere_max").evaluator is eval_sphere_min


def test_rosenbrock_spot_values():
    assert eval_rosenbrock((1.0, 1.0)) == 0.0
    assert eval_rosenbrock((0.0, 0.0)) == 1.0
    # 100 * (1.024^2 - 1.024)^2 + 0.024^2 = 0.0609739776 by hand
    assert math.isclose(eval_rosenbrock((1.024, 1.024)), 0.0609739776,
                        rel_tol=1e-9)


def test_trig_spot_values():
    assert eval_trig((0.0, 0.0)) == 1.0
    assert math.isclose(eval_trig((0.0, 1.0)), 0.0, abs_tol=1e-12)
    for x1 in (-6.0, -2.0, 2.0, 6.0):
        for x2 in (-3.0, 1.0, 5.0):
            assert math.isclose(eval_trig((x1, x2)), -2.0, abs_tol=1e-12)


def test_trig_optima_table_is_complete():
    spec = registry_lookup("trig")
    listed = [point for point, _ in spec.known_optima]
    assert len(listed) == 16
    for point, value in spec.known_optima:
        assert value == -2.0
        assert math.isclose(eval_trig(point), -2.0, abs_tol=1e-12)
    # the minima sit on integer coordinates; every one in the domain is listed
    found = {
        (float(x1), float(x2))
        for x1 in range(-7, 8) for x2 in range(-7, 8)
        if math.isclose(eval_trig((x1, x2)), -2.0, abs_tol=1e-12)
    }
    assert found == set(listed)


def test_trig_periodicity():
    rng = random.Random(3)
    for _ in range(100):
        x = rng.uniform(-3.0, 3.0)
        y = rng.uniform(-3.0, 3.0)
        assert math.isclose(eval_trig((x, y)), eval_trig((x + 4.0, y)), abs_tol=1e-9)
        assert math.isclose(eval_trig((x, y)), eval_trig((x, y + 4.0)), abs_tol=1e-9)


def test_shekel_deep_well_value():
    v = eval_shekel((-32.0, -32.0))
    assert math.isclose(v, 0.9980038388186492, rel_tol=1e-12)
    assert abs(v - 0.998004) < 1e-4


def test_shekel_matches_independent_oracle():
    # exact: the oracle adds the same terms in the same order, so this
    # also pins the well order and the bits of every value
    rng = random.Random(5)
    points = [(-32.768, -32.768), (32.0, 16.0)]
    points += [(a, b) for b in BASE for a in BASE]
    points += [(a, b) for a in (-65.536, 65.536) for b in (-65.536, 65.536)]
    points += [(rng.uniform(-65.536, 65.536), rng.uniform(-65.536, 65.536))
               for _ in range(100)]
    for x, y in points:
        assert eval_shekel((x, y)) == shekel_oracle(x, y)


def test_shekel_near_corner_value():
    # a short step outside the deepest well barely changes the value;
    # the digits come from shekel_oracle, which the cross-check test
    # holds against the production evaluator
    assert math.isclose(eval_shekel((-32.768, -32.768)), 1.4064230731059204,
                        rel_tol=1e-9)


def test_shekel_far_field_plateau():
    for p in ((65.536, 65.536), (0.0, 65.536), (-65.536, 50.0)):
        assert abs(eval_shekel(p) - 500.0) <= 1.0


def test_shekel_range():
    rng = random.Random(9)
    for _ in range(200):
        p = (rng.uniform(-65.536, 65.536), rng.uniform(-65.536, 65.536))
        assert 0.99 < eval_shekel(p) < 500.05


def test_wrong_dimension_rejected():
    for f in (eval_sphere_min, eval_trig, eval_rosenbrock, eval_shekel):
        with pytest.raises(ValueError):
            f((1.0,))
        with pytest.raises(ValueError):
            f((1.0, 2.0, 3.0))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_builtin_names_order():
    assert builtin_names() == ("sphere_min", "trig", "sphere_max", "rosenbrock",
                               "shekel")


def test_registry_lookup_fields():
    spec = registry_lookup("sphere_max")
    assert spec.sense is Sense.MAXIMIZE
    assert spec.domain.dimension == 2
    assert spec.domain.lo == (-2.0, -2.0)
    assert len(spec.known_optima) == 2


def test_known_optima_are_consistent():
    for name in builtin_names():
        spec = registry_lookup(name)
        for point, value in spec.known_optima:
            assert spec.domain.contains(point)
            assert math.isclose(spec.evaluator(point), value, abs_tol=1e-9)


def test_unknown_name_error():
    with pytest.raises(UnknownObjectiveError) as err:
        registry_lookup("nope")
    assert err.value.unknown_name == "nope"
    assert err.value.available == builtin_names()
    assert "unknown objective" in str(err.value.args[0])


def test_unknown_name_error_reads_as_its_message():
    err = UnknownObjectiveError("nope", ("a", "b"))
    assert str(err) == "unknown objective 'nope'; available: a, b"
    assert err.unknown_name == "nope" and err.available == ("a", "b")
    assert isinstance(err, KeyError) and isinstance(err, ValueError)


def test_register_custom_objective():
    name = "test_ridge_xyzzy"
    try:
        registry_lookup(name)
    except UnknownObjectiveError:
        register_objective(ObjectiveSpec(
            name=name,
            domain=SearchBox((0.0,), (1.0,)),
            sense=Sense.MINIMIZE,
            known_optima=(((0.5,), 0.0),),
            evaluator=lambda p: (p[0] - 0.5) ** 2,
        ))
    assert name not in builtin_names()
    assert registry_lookup(name).evaluator((0.5,)) == 0.0
    with pytest.raises(ValueError):
        register_objective(ObjectiveSpec(
            name=name,
            domain=SearchBox((0.0,), (1.0,)),
            sense=Sense.MINIMIZE,
            known_optima=(),
            evaluator=lambda p: 0.0,
        ))


def test_register_rejects_optimum_outside_domain():
    with pytest.raises(ValueError):
        register_objective(ObjectiveSpec(
            name="test_bad_optimum_xyzzy",
            domain=SearchBox((0.0,), (1.0,)),
            sense=Sense.MINIMIZE,
            known_optima=(((2.0,), 0.0),),
            evaluator=lambda p: p[0],
        ))


def test_register_rejects_an_overflowing_domain():
    # the domain is checked as the spec is built, before anything registers
    name = "test_overflowing_domain_xyzzy"
    with pytest.raises(ValueError, match=r"bounds \(0.0, 1.7e\+308\)"):
        register_objective(ObjectiveSpec(
            name=name,
            domain=SearchBox((0.0,), (1.7e308,)),
            sense=Sense.MINIMIZE,
            known_optima=(),
            evaluator=lambda p: p[0],
        ))
    with pytest.raises(UnknownObjectiveError):
        registry_lookup(name)
