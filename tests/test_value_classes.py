"""The four value classes that check their fields when made: SearchBox,
SlmConfig, BaselineConfig and AlgorithmSpec. Each was a frozen dataclass
and is now a slotted class on geometry._Frozen; these tests hold each to
what its dataclass did: repr, read-only fields, equality and hashing,
constructor signature and defaults, and every check with its message."""

import copy
import inspect
import math
import pickle

import pytest

from slmopt.baselines import BaselineConfig
from slmopt.bench import AlgorithmSpec
from slmopt.engine import SlmConfig
from slmopt.geometry import SearchBox
from slmopt.labeling import Sense

# one object of each class, made by position and keyword as callers do,
# and its repr as the frozen dataclass printed it
EXAMPLES = (
    (lambda: SearchBox((0, -1.5), (1, 2.25)),
     "SearchBox(lo=(0.0, -1.5), hi=(1.0, 2.25))"),
    (lambda: SlmConfig(Sense.MAXIMIZE, 0.5),
     "SlmConfig(sense=<Sense.MAXIMIZE: 'maximize'>, tolerance=0.5, max_generations=60, "
     "explore_all=False, cell_budget=32)"),
    (lambda: BaselineConfig(10, 3, (1, 2)),
     "BaselineConfig(iterations=10, seed=3, initial_point=(1, 2))"),
    (lambda: AlgorithmSpec("rsw", 5, initial_point=(0.5,)),
     "AlgorithmSpec(kind='rsw', iterations=5, tolerance=None, explore_all=False, "
     "initial_point=(0.5,), max_generations=60)"),
)
IDS = ("SearchBox", "SlmConfig", "BaselineConfig", "AlgorithmSpec")

# each class's fields in constructor order, with the dataclass's defaults
REQUIRED = inspect.Parameter.empty
SIGNATURES = {
    SearchBox: {"lo": REQUIRED, "hi": REQUIRED},
    SlmConfig: {"sense": REQUIRED, "tolerance": REQUIRED, "max_generations": 60,
                "explore_all": False, "cell_budget": 32},
    BaselineConfig: {"iterations": REQUIRED, "seed": REQUIRED, "initial_point": None},
    AlgorithmSpec: {"kind": REQUIRED, "iterations": None, "tolerance": None, "explore_all": False,
                    "initial_point": None, "max_generations": 60},
}


def values(obj):
    return tuple(getattr(obj, name) for name in SIGNATURES[type(obj)])


@pytest.mark.parametrize("make, text", EXAMPLES, ids=IDS)
def test_repr_is_the_dataclass_repr(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make", [make for make, _ in EXAMPLES], ids=IDS)
def test_fields_are_read_only(make):
    obj = make()
    before = values(obj)
    for name in (*SIGNATURES[type(obj)], "other"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
    assert values(obj) == before


@pytest.mark.parametrize("make", [make for make, _ in EXAMPLES], ids=IDS)
def test_equal_fields_make_equal_objects_with_equal_hashes(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # like a dataclass, and unlike a NamedTuple, it equals no tuple
    assert a != values(a) and values(a) != a
    other = {SearchBox: lambda: SearchBox((0, -1.5), (1, 2.5)),
             SlmConfig: lambda: SlmConfig(Sense.MAXIMIZE, 0.5, cell_budget=31),
             BaselineConfig: lambda: BaselineConfig(10, 4, (1, 2)),
             AlgorithmSpec: lambda: AlgorithmSpec("rsw", 5)}[type(a)]()
    assert a != other and not a == other


@pytest.mark.parametrize("cls", SIGNATURES, ids=IDS)
def test_signature_and_defaults_are_the_dataclasses(cls):
    params = inspect.signature(cls).parameters
    assert tuple(params) == tuple(SIGNATURES[cls]) == cls.__slots__
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    assert {name: p.default for name, p in params.items()} == SIGNATURES[cls]


@pytest.mark.parametrize("make", [make for make, _ in EXAMPLES], ids=IDS)
def test_positional_and_keyword_construction_agree(make):
    obj = make()
    cls = type(obj)
    required = [name for name, default in SIGNATURES[cls].items() if default is REQUIRED]
    given = values(obj)[:len(required)]
    by_position, by_keyword = cls(*given), cls(**dict(zip(required, given)))
    assert by_position == by_keyword
    assert values(by_position) == values(by_keyword)
    assert values(cls(*values(obj))) == values(cls(**dict(zip(SIGNATURES[cls], values(obj)))))


@pytest.mark.parametrize("make, message", (
    (lambda: SearchBox((0.0,), (1.0, 2.0)), "lo and hi must have the same length"),
    (lambda: SearchBox((), ()), "box needs at least one dimension"),
    (lambda: SearchBox((1,), (0,)),
     "bounds (1.0, 0.0) need -M <= lo < hi <= M = 8.988465674311579e+307"),
    (lambda: SearchBox((math.nan,), (1,)),
     "bounds (nan, 1.0) need -M <= lo < hi <= M = 8.988465674311579e+307"),
    (lambda: SearchBox(("x",), (1,)), "could not convert string to float: 'x'"),
    (lambda: SlmConfig(Sense.MINIMIZE, 0), "tolerance must be positive and finite"),
    (lambda: SlmConfig(Sense.MINIMIZE, math.inf), "tolerance must be positive and finite"),
    (lambda: SlmConfig(Sense.MINIMIZE, 1, 0), "max_generations must be at least 1"),
    (lambda: SlmConfig(Sense.MINIMIZE, 1, cell_budget=0), "cell_budget must be at least 1"),
    (lambda: BaselineConfig(0, 1), "iterations must be at least 1"),
    (lambda: BaselineConfig(1, -1), "seed must be nonnegative"),
    (lambda: BaselineConfig(1, 1, (math.nan, 1)), "initial point (nan, 1) has a NaN coordinate"),
    (lambda: AlgorithmSpec("x"), "unknown method 'x'; expected one of slm, rs, rsw, sa"),
    (lambda: AlgorithmSpec("slm", initial_point=(1,)),
     "slm takes no initial point; only rsw and sa start from one"),
    (lambda: AlgorithmSpec("rs", initial_point=(1,)),
     "rs takes no initial point; only rsw and sa start from one"),
))
def test_every_check_keeps_its_message(make, message):
    with pytest.raises(ValueError) as e:
        make()
    assert str(e.value) == message


@pytest.mark.parametrize("make", [make for make, _ in EXAMPLES], ids=IDS)
def test_no_public_constructor_skips_the_check(make):
    obj = make()
    cls = type(obj)
    # no NamedTuple-style constructors that would take fields unchecked
    assert not any(hasattr(cls, name) for name in ("_make", "_replace", "__dataclass_fields__"))
    # copies and pickles are rebuilt by calling the class itself
    rebuild, args = obj.__reduce__()
    assert rebuild is cls and args == values(obj)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls and twin == obj and twin is not obj
