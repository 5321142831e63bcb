"""The argument contract of the public API.

Every public callable, given a junk value at any one argument position and
valid values at the others, returns or raises ValidationError or
NumericalError; a value that no argument admits, a look-alike of a record
among them, is refused with ValidationError.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import quadconc as qc
from quadconc.errors import NumericalError, ValidationError

FORM = qc.DiagonalForm([1.0, -0.5], [0.3, 0.0])
STATS = qc.form_stats(FORM)
MATRIX = [[1.0, 0.5], [0.0, -1.0]]

# name -> (callable, valid arguments); every public callable has a row
CALLS = {
    "DiagonalForm": (qc.DiagonalForm, ([1.0, -0.5], [0.3, 0.0])),
    "FormStats": (qc.FormStats, (1.0, 2.0, 1.0, 0.5)),
    "TailBound": (qc.TailBound, ("upper", 1.0, 3.0)),
    "form_stats": (qc.form_stats, (FORM,)),
    "upper_threshold": (qc.upper_threshold, (STATS, 1.0)),
    "lower_threshold": (qc.lower_threshold, (STATS, 1.0)),
    "tail_exponent": (qc.tail_exponent, (STATS, 2.0, "upper")),
    "envelope_threshold": (qc.envelope_threshold, (1.0, 0.5, 1.0)),
    "union_threshold": (qc.union_threshold, ([STATS, STATS], 1.0, "lower")),
    "QuadraticForm": (qc.QuadraticForm, (MATRIX, [0.3, 0.0])),
    "SpectralReduction": (qc.SpectralReduction, ([1.0, -0.5], np.eye(2), [0.3, 0.0])),
    "symmetrize": (qc.symmetrize, (MATRIX,)),
    "eigen_sym": (qc.eigen_sym, ([[1.0, 0.5], [0.5, -1.0]],)),
    "reduce": (qc.reduce, (qc.QuadraticForm(MATRIX, [0.3, 0.0]),)),
    "MgfEnvelope": (qc.MgfEnvelope, (1.0, 0.5)),
    "MgfEnvelope.from_stats": (qc.MgfEnvelope.from_stats, (STATS, "lower")),
    "MgfEnvelope.rhs": (qc.MgfEnvelope(1.0, 0.5).rhs, (0.1,)),
    "EnvelopeCheck": (qc.EnvelopeCheck, (16, 0.9, -0.1, 0.5, 0)),
    "log_mgf_term": (qc.log_mgf_term, (1.0, 0.3, 0.1)),
    "log_mgf_centered": (qc.log_mgf_centered, (FORM, 0.1)),
    "envelope_y_grid": (qc.envelope_y_grid, (1.0, 16)),
    "envelope_grid_check": (qc.envelope_grid_check, (FORM, 16)),
    "TailEstimate": (qc.TailEstimate, (0.5, 0.4, 0.6, 10)),
    "sample": (qc.sample, (FORM, 16, 1)),
    "empirical_tail": (qc.empirical_tail, (np.arange(10.0), 4.5, "upper")),
    "cdf_p1": (qc.cdf_p1, (1.0, 0.3, 0.5)),
    "cdf_cf": (qc.cdf_cf, (FORM, 0.5)),
}
# the exception types take any message
ERRORS = ("ValidationError", "DomainError", "DegenerateFormError", "InputError",
          "NumericalError")


def _look_alike(valid):
    """A SimpleNamespace with the public attributes, bound methods included, of a record.

    The record is `valid` where it is one, each entry of a list, and else a
    FormStats, whose look-alike once made upper_threshold return a threshold
    below the mean.
    """
    if isinstance(valid, list):
        return [_look_alike(v) for v in valid]
    records = (qc.DiagonalForm, qc.FormStats, qc.QuadraticForm)
    record = valid if isinstance(valid, records) else STATS
    return SimpleNamespace(**{k: getattr(record, k) for k in dir(record) if not k.startswith("_")})


def _junk(valid):
    """(value, refused) pairs: refused values are junk wherever they stand."""
    refused = (None, True, "1", 1j, object(), _look_alike(valid), 10**400)
    maybe = (np.array([0.5, 2.0]), 2**61, math.nan, math.inf)
    return [(v, True) for v in refused] + [(v, False) for v in maybe]


def test_every_public_callable_has_a_row():
    public = {name for name in qc.__all__ if callable(getattr(qc, name))}
    assert public == (set(CALLS) | set(ERRORS)) - {"MgfEnvelope.from_stats", "MgfEnvelope.rhs"}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_junk_arguments_end_in_a_value_or_a_typed_error(name):
    # junk once escaped as TypeError, AttributeError, OverflowError or numpy's
    # ValueError at 26 (callable, argument, exception) triples, and 46 refused
    # values, look-alikes of a FormStats among them, were taken as valid
    call, valid = CALLS[name]
    escapes = []
    for position, good in enumerate(valid):
        for value, refused in _junk(good):
            args = list(valid)
            args[position] = value
            try:
                call(*args)
                outcome = "returned"
            except (ValidationError, NumericalError) as exc:
                outcome = exc
            except Exception as exc:  # the escape is what is reported
                escapes.append((position, value, exc))
                continue
            if refused and not isinstance(outcome, ValidationError):
                escapes.append((position, value, outcome))
    assert not escapes, escapes
