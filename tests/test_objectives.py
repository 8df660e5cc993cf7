"""Builtin objective surfaces and the name registry."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmopt.bench import AlgorithmSpec, slm_config
from slmopt.engine import run_slm
from slmopt.geometry import SearchBox
from slmopt.labeling import Sense
from slmopt.objectives import (
    ObjectiveSpec,
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


def sphere_oracle(x, y):
    """x^2 + (y - 0.4)^2, one square at a time."""
    dx = x ** 2
    dy = (y - 0.4) ** 2
    return dx + dy


def trig_oracle(x, y):
    """cos(pi*x/2) - sin(pi*y/2), each angle built as pi*v, then halved."""
    angle_x = math.pi * x
    angle_y = math.pi * y
    return math.cos(angle_x / 2.0) - math.sin(angle_y / 2.0)


def rosenbrock_oracle(x, y):
    """100*(x^2 - y)^2 + (1 - x)^2, term by term."""
    valley = (x ** 2 - y) ** 2
    slope = (1.0 - x) ** 2
    return 100.0 * valley + slope


ORACLES = {
    "sphere_min": sphere_oracle,
    "trig": trig_oracle,
    "sphere_max": sphere_oracle,
    "rosenbrock": rosenbrock_oracle,
    "shekel": shekel_oracle,
}


def assert_same_bits(got, want, point):
    # == and the sign of zero: equal bits for any non-NaN float
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), point


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
# Every builtin evaluator, bit for bit against its oracle
# ---------------------------------------------------------------------------

@st.composite
def domain_points(draw, name):
    """A point of the builtin's domain: bounds, signed zeros or any float
    between the bounds, drawn per coordinate."""
    domain = registry_lookup(name).domain
    return tuple(
        draw(st.one_of(st.sampled_from((lo, hi, 0.0, -0.0)), st.floats(lo, hi)))
        for lo, hi in zip(domain.lo, domain.hi)
    )


@pytest.mark.parametrize("name", ("sphere_min", "trig", "rosenbrock", "shekel"))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_builtin_matches_oracle_over_its_domain(name, data):
    point = data.draw(domain_points(name))
    assert_same_bits(registry_lookup(name).evaluator(point), ORACLES[name](*point), point)


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_matches_oracle_on_every_explore_point(name):
    # every point a default-tolerance explore-all run evaluates
    spec = registry_lookup(name)
    seen = []

    def recording(p):
        value = spec.evaluator(p)
        seen.append((p, value))
        return value

    res = run_slm(recording, spec.domain,
                  slm_config(spec, AlgorithmSpec("slm", explore_all=True)))
    assert len(seen) == res.evaluations > 1000
    for p, value in seen:
        assert_same_bits(value, ORACLES[name](*p), p)


def outcome(f, *args):
    """f's value, or the type and args of the error it raised."""
    try:
        return f(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err), err.args


# any finite float, with the scales of the domains drawn as often as the
# rest: far out, the powers overflow and every term of shekel is 0.0
finite = st.one_of(st.floats(-1e3, 1e3),
                   st.floats(allow_nan=False, allow_infinity=False))


@pytest.mark.parametrize("name", ("sphere_min", "trig", "rosenbrock", "shekel"))
@settings(max_examples=300, deadline=None)
@given(point=st.tuples(finite, finite))
def test_builtin_matches_oracle_on_any_finite_point(name, point):
    # off the domain too: the oracle's bits, or its exception type and args
    # (OverflowError from a power, ValueError from cos or sin of inf)
    got = outcome(registry_lookup(name).evaluator, point)
    want = outcome(ORACLES[name], *point)
    if isinstance(want, float):
        assert isinstance(got, float), point
        assert_same_bits(got, want, point)
    else:
        assert got == want, point


@pytest.mark.parametrize("name", ("sphere_min", "trig", "rosenbrock", "shekel"))
def test_int_points_evaluate_as_their_float_points(name):
    # an int coordinate gives its float's bits; every power and product of
    # these stays below 2**53, where int arithmetic is exact as well
    f = registry_lookup(name).evaluator
    for x in range(-100, 101):
        for y in range(-100, 101):
            assert_same_bits(f((x, y)), f((float(x), float(y))), (x, y))


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
    # a plain ValueError: the message is all a caller reads
    with pytest.raises(ValueError) as err:
        registry_lookup("nope")
    assert type(err.value) is ValueError
    assert err.value.args == (str(err.value),)


def test_unknown_name_error_reads_as_its_message():
    with pytest.raises(ValueError) as err:
        registry_lookup("nope")
    assert type(err.value) is ValueError
    assert str(err.value) == ("unknown objective 'nope'; available: "
                              + ", ".join(builtin_names()))


@pytest.mark.usefixtures("scratch_registry")
def test_unknown_name_error_lists_every_registered_name():
    register_objective(ObjectiveSpec(
        name="custom",
        domain=SearchBox((0.0,), (1.0,)),
        sense=Sense.MINIMIZE,
        known_optima=(),
        evaluator=lambda p: p[0],
    ))
    with pytest.raises(ValueError) as err:
        registry_lookup("custm")
    assert str(err.value) == ("unknown objective 'custm'; available: sphere_min, trig, "
                              "sphere_max, rosenbrock, shekel, custom")


@pytest.mark.usefixtures("scratch_registry")
def test_register_custom_objective():
    name = "test_ridge_xyzzy"
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


@pytest.mark.usefixtures("scratch_registry")
def test_register_rejects_optimum_outside_domain():
    with pytest.raises(ValueError):
        register_objective(ObjectiveSpec(
            name="test_bad_optimum_xyzzy",
            domain=SearchBox((0.0,), (1.0,)),
            sense=Sense.MINIMIZE,
            known_optima=(((2.0,), 0.0),),
            evaluator=lambda p: p[0],
        ))


@pytest.mark.usefixtures("scratch_registry")
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
    with pytest.raises(ValueError, match="^unknown objective "):
        registry_lookup(name)
