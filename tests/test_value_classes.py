"""tagmon's value classes against dataclass twins, and the start-up they buy.

Every immutable value class is built on ``tagmon._frozen.Frozen``;
``oracles.VALUE_CLASS_TWINS`` spells each one's fields again as a frozen
dataclass.  On random field values both must give the same repr, the same
equality and hash, and the same TypeError or AttributeError on a bad call or
an assignment.  Classes that validate in ``__post_init__`` are compared
through a subclass without it, since random values would not pass it.
"""

import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import VALUE_CLASS_TWINS
from tagmon.formulas import Environment, Lit, Var

CLASSES = sorted(VALUE_CLASS_TWINS, key=lambda cls: cls.__name__)
SRC_DIR = pathlib.Path(__file__).parent.parent / "src"

# few, often equal values, one unhashable and one NaN, so that equal and
# unequal pairs and failing hashes all occur
NAN = math.nan
VALUES = st.sampled_from([0, 1, True, "a", "b", None, (0,), (1, "a"), NAN,
                          [0], frozenset({1})])


def _unchecked(cls):
    if not hasattr(cls, "__post_init__"):
        return cls
    return type(cls.__name__, (cls,), {"__post_init__": None,
                                       "__qualname__": cls.__qualname__})


UNCHECKED = {cls: _unchecked(cls) for cls in CLASSES}


def _names(cls):
    return [f.name for f in dataclasses.fields(VALUE_CLASS_TWINS[cls])]


def _outcome(fn, /, *args, **kwargs):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except (TypeError, AttributeError) as exc:
        return type(exc)


def _hash(obj):
    return _outcome(hash, obj)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=25)
@given(data=st.data())
def test_repr_equality_and_hash_match_the_twin(cls, data):
    ours, twin = UNCHECKED[cls], VALUE_CLASS_TWINS[cls]
    names = _names(cls)
    first = data.draw(st.lists(VALUES, min_size=len(names),
                               max_size=len(names)))
    keep = data.draw(st.lists(st.booleans(), min_size=len(names),
                              max_size=len(names)))
    second = [v if k else data.draw(VALUES) for v, k in zip(first, keep)]
    a, b = ours(*first), ours(*second)
    ta, tb = twin(*first), twin(*second)
    assert repr(a) == repr(ta)
    assert repr(b) == repr(tb)
    assert (a == b) is (ta == tb)
    assert (a != b) is (ta != tb)
    assert _hash(a) == _hash(ta)
    assert _hash(b) == _hash(tb)
    by_keyword = ours(**dict(zip(names, first)))
    assert by_keyword == a
    assert repr(by_keyword) == repr(a)
    assert _hash(by_keyword) == _hash(a)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=25)
@given(data=st.data())
def test_bad_construction_fails_as_the_twin_does(cls, data):
    ours, twin = UNCHECKED[cls], VALUE_CLASS_TWINS[cls]
    names = _names(cls)
    count = data.draw(st.integers(0, len(names) + 1))
    args = data.draw(st.lists(VALUES, min_size=count, max_size=count))
    keys = data.draw(st.lists(st.sampled_from(names + ["bogus"]),
                              unique=True))
    kwargs = {key: data.draw(VALUES) for key in keys}
    got, want = _outcome(ours, *args, **kwargs), _outcome(twin, *args,
                                                           **kwargs)
    if isinstance(want, type):
        assert got is want
    else:
        assert repr(got) == repr(want)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_assignment_fails_as_the_twin_does(cls):
    names = _names(cls)
    values = [0] * len(names)
    obj, twin = UNCHECKED[cls](*values), VALUE_CLASS_TWINS[cls](*values)
    for name in names + ["bogus"]:
        for target in (obj, twin):
            with pytest.raises(AttributeError) as assigned:
                setattr(target, name, 1)
            with pytest.raises(AttributeError) as deleted:
                delattr(target, name)
            assert (str(assigned.value), str(deleted.value)) == (
                f"cannot assign to field {name!r}",
                f"cannot delete field {name!r}")
    assert repr(obj) == repr(twin)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=10)
@given(data=st.data())
def test_construction_keeps_each_field_by_identity(cls, data):
    names = _names(cls)
    values = data.draw(st.lists(VALUES, min_size=len(names),
                                max_size=len(names)))
    order = data.draw(st.permutations(range(len(names))))
    by_position = UNCHECKED[cls](*values)
    by_keyword = UNCHECKED[cls](**{names[i]: values[i] for i in order})
    for name, value in zip(names, values):
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value


SAME_WIDTH = [(a, b) for a in CLASSES for b in CLASSES
              if a is not b and len(_names(a)) == len(_names(b))]


@settings(max_examples=100)
@given(data=st.data())
def test_instances_of_different_classes_are_never_equal(data):
    assert Lit("x") != Var("x")
    a, b = data.draw(st.sampled_from(SAME_WIDTH))
    values = data.draw(st.lists(VALUES, min_size=len(_names(a)),
                                max_size=len(_names(a))))
    x, y = UNCHECKED[a](*values), UNCHECKED[b](*values)
    assert x != y and not x == y
    assert VALUE_CLASS_TWINS[a](*values) != VALUE_CLASS_TWINS[b](*values)


def test_default_dicts_are_not_shared():
    a, b = Environment(), Environment()
    assert a.bindings == b.bindings == {} and a.memo == b.memo == {}
    assert a.bindings is not b.bindings and a.memo is not b.memo


def test_importing_the_cli_loads_no_dataclasses():
    # pins the start-up gain: a @dataclass anywhere in tagmon brings these
    # modules back.  Under -S no site module imports any of them first.
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    code = ("import sys, tagmon.cli; tagmon.cli.build_arg_parser(); "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', "
            "'tokenize'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out == "[]\n"
