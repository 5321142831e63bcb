"""The value classes' contract: constructors, equality, hashing, immutability, copies, repr.

Each of the package's eight value classes is a frozen record of named
fields.  Construction checks its arguments; after that a record compares
and hashes by its field tuple, refuses assignment and deletion, survives
pickle and deepcopy, and shows every field in its repr.  A field that the
constructor derives, such as TailBound's prob_bound, is not an argument.
A record that holds arrays compares as a tuple of arrays does: equal to
itself, and neither hashable nor truth-valued against a copy.
"""

import copy
import pickle

import numpy as np
import pytest

import quadconc as qc

# (class, constructor arguments by name in order, fields the constructor derives)
CASES = [
    (qc.DiagonalForm, {"a": (1.0, -0.5), "b": (0.0, 2.0)}, ()),
    (qc.FormStats, {"mean": 0.5, "u": 2.0, "a_plus": 1.0, "a_minus": 0.5}, ()),
    (qc.TailBound, {"direction": "lower", "x": 2.0, "threshold": -3.5}, ("prob_bound",)),
    (qc.QuadraticForm, {"matrix": np.array([[1.0, 2.0], [0.0, -1.0]]), "b": np.ones(2)}, ()),
    (
        qc.SpectralReduction,
        {"eigenvalues": np.array([-1.0, 2.0]), "basis": np.eye(2), "rotated_b": np.ones(2)},
        (),
    ),
    (qc.MgfEnvelope, {"u": 1.5, "v": 2.0}, ()),
    (
        qc.EnvelopeCheck,
        {"grid_size": 64, "y_max": 0.4, "max_slack": -1e-3, "worst_y": 0.1, "violations": 0},
        (),
    ),
    (qc.TailEstimate, {"p_hat": 0.1, "ci_low": 0.05, "ci_high": 0.2, "n": 100}, ()),
]


def _same_fields(got, want, fields):
    assert type(got) is type(want)
    for name in fields:
        g, w = getattr(got, name), getattr(want, name)
        if isinstance(w, np.ndarray):
            assert isinstance(g, np.ndarray) and np.array_equal(g, w), name
        else:
            assert type(g) is type(w) and g == w, name


@pytest.mark.parametrize("cls, kwargs, derived", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_class_contract(cls, kwargs, derived):
    fields = list(kwargs) + list(derived)
    by_position, by_name = cls(*kwargs.values()), cls(**kwargs)
    _same_fields(by_position, by_name, fields)
    holds_arrays = any(isinstance(v, np.ndarray) for v in kwargs.values())

    assert by_position == by_position and not by_position != by_position
    assert by_position.__eq__(tuple(kwargs.values())) is NotImplemented
    assert by_position != tuple(kwargs.values())
    if holds_arrays:
        # a tuple of two-entry arrays has no truth value and no hash
        with pytest.raises(ValueError):
            by_position == by_name
        with pytest.raises(TypeError):
            hash(by_position)
    else:
        assert by_position == by_name and hash(by_position) == hash(by_name)
        assert len({by_position, by_name}) == 1

    for name in fields + ["unlisted"]:
        with pytest.raises(AttributeError):
            setattr(by_position, name, 1.0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    _same_fields(by_position, by_name, fields)

    _same_fields(pickle.loads(pickle.dumps(by_position)), by_position, fields)
    _same_fields(copy.deepcopy(by_position), by_position, fields)
    if not holds_arrays:
        assert pickle.loads(pickle.dumps(by_position)) == by_position
        assert copy.deepcopy(by_position) == by_position

    # a derived field is not an argument, by position or by name
    for name in derived:
        with pytest.raises(TypeError):
            cls(*kwargs.values(), 0.5)
        with pytest.raises(TypeError):
            cls(**kwargs, **{name: 0.5})

    text = repr(by_position)
    assert text.startswith(cls.__name__ + "(") and text.endswith(")")
    assert all(name + "=" in text for name in fields)

