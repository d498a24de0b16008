"""Value semantics of the hand-written op and event constructors.

``Read``, ``Write``, ``Work``, ``Alloc`` and ``SimEvent`` are frozen
dataclasses whose ``__init__`` is written by hand for speed.  These
tests hold them to everything the generated constructor gave: the same
signature, frozen fields, equality and hashing by value, the
``dataclasses`` helpers, pickling and the argument checks.
"""

import dataclasses
import inspect
import pickle

import pytest

from repro.runtime import Alloc, Read, SimEvent, Work, Write

#: (class, positional args, a keyword change for ``replace``)
CASES = [
    (Read, (7,), {"addr": 8}),
    (Write, (7, "x"), {"value": "y"}),
    (Work, (12.5,), {"ns": 3.0}),
    (Alloc, (4,), {"cells": 2}),
    (SimEvent, ("abort", 3, 1.5), {"cause": "cpu-conflict"}),
]
IDS = [cls.__name__ for cls, _, _ in CASES]

SIMEVENT_FIELDS = (
    "kind", "tid", "time", "addr", "value", "cause", "label",
    "attempt_index", "wasted", "began", "ns", "attempt", "version",
    "start", "data",
)


@pytest.mark.parametrize("cls,args,change", CASES, ids=IDS)
class TestValueSemantics:
    def test_signature_matches_fields(self, cls, args, change):
        params = list(inspect.signature(cls).parameters.values())
        fields = dataclasses.fields(cls)
        assert [p.name for p in params] == [f.name for f in fields]
        for param, field in zip(params, fields):
            expected = (
                inspect.Parameter.empty
                if field.default is dataclasses.MISSING
                else field.default
            )
            assert param.default == expected
            assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD

    def test_assignment_raises(self, cls, args, change):
        obj = cls(*args)
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, field.name)

    def test_equal_and_hashed_by_value(self, cls, args, change):
        a, b = cls(*args), cls(*args)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        other = dataclasses.replace(a, **change)
        assert other != a

    def test_keywords_equal_positionals(self, cls, args, change):
        names = [f.name for f in dataclasses.fields(cls)]
        assert cls(**dict(zip(names, args))) == cls(*args)

    def test_replace_fields_asdict(self, cls, args, change):
        obj = cls(*args)
        other = dataclasses.replace(obj, **change)
        for name, value in change.items():
            assert getattr(other, name) == value
        as_dict = dataclasses.asdict(obj)
        assert list(as_dict) == [f.name for f in dataclasses.fields(cls)]
        assert cls(**as_dict) == obj
        assert repr(obj).startswith(f"{cls.__name__}(")

    def test_pickle_round_trip(self, cls, args, change):
        obj = cls(*args)
        clone = pickle.loads(pickle.dumps(obj))
        assert clone == obj and hash(clone) == hash(obj)

    def test_unknown_keyword_raises(self, cls, args, change):
        with pytest.raises(TypeError):
            cls(*args, bogus=1)

    def test_missing_positional_raises(self, cls, args, change):
        with pytest.raises(TypeError):
            cls(*args[:-1])


class TestChecks:
    def test_negative_work_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Work(-1)
        with pytest.raises(ValueError):
            dataclasses.replace(Work(5), ns=-0.5)
        assert Work(0).ns == 0

    def test_empty_alloc_rejected(self):
        with pytest.raises(ValueError, match="at least one cell"):
            Alloc(0)
        with pytest.raises(ValueError):
            dataclasses.replace(Alloc(2), cells=0)
        assert Alloc(1).cells == 1


class TestSimEvent:
    def test_field_order_and_defaults(self):
        assert tuple(f.name for f in dataclasses.fields(SimEvent)) == SIMEVENT_FIELDS
        event = SimEvent("commit", 0, 1.0)
        assert (event.addr, event.value, event.cause, event.label) == (None,) * 4
        assert (event.attempt_index, event.wasted, event.began, event.ns) == (0, 0.0, True, 0.0)
        assert (event.attempt, event.version, event.start, event.data) == (None,) * 4

    def test_all_positional_equals_all_keyword(self):
        values = ("abort", 2, 9.0, 64, 5, "cpu-miss", "txn", 3, 4.5, False, 1.0, 7, 8, 2.0, None)
        assert SimEvent(*values) == SimEvent(**dict(zip(SIMEVENT_FIELDS, values)))
