"""The result and parameter records: immutable, copyable and picklable as
values, and the validating ones refuse bad fields on every way in."""

import copy
import pickle
from fractions import Fraction

import pytest
from mpmath import mp

import sixvertex as sv
from sixvertex.errors import ParameterDomainError

from conftest import CTX256

FERRO = sv.PhaseParams(sv.Phase.FERROELECTRIC, t=2, gamma=1)


def _records():
    """(record, one of its field names) for each record class."""
    m = sv.phi_derivatives(FERRO, 4, CTX256)
    series = [(n, mp.mpf(n * n) / 3 + n) for n in range(1, 8)]
    return [
        (sv.PrecisionContext(300, claim=150), "bits"),
        (sv.Weights(1, Fraction(3, 2), mp.mpf(2)), "a"),
        (sv.classify(sv.Weights(1, 1, 1)), "phase"),
        (FERRO, "t"),
        (m, "values"),
        (sv.hankel_det(m, 2), "tau"),
        (sv.zn_series(FERRO, 2, CTX256)[-1], "zn"),
        (sv.norms_from_moments(m, 2), "h"),
        (sv.predict_ferro(2, 1, 3, CTX256), "log_prediction"),
        (sv.fit_kappa(series, mp.mpf(1) / 3), "extrapolated"),
    ]


RECORDS = _records()
IDS = [type(rec).__name__ for rec, _ in RECORDS]


def _copies(rec):
    yield copy.copy(rec)
    yield copy.deepcopy(rec)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(rec, protocol))


@pytest.mark.parametrize("rec,field", RECORDS, ids=IDS)
def test_copy_and_pickle_give_an_equal_record(rec, field):
    for dup in _copies(rec):
        assert type(dup) is type(rec)
        assert dup == rec


@pytest.mark.parametrize("rec,field", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(rec, field):
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))


@pytest.mark.parametrize("rec,field", RECORDS, ids=IDS)
def test_repr_names_the_class(rec, field):
    assert repr(rec).startswith(type(rec).__name__ + "(")
    assert f"{field}=" in repr(rec)


@pytest.mark.parametrize(
    "rec,good,bad",
    [
        (sv.PrecisionContext(300), b"I300\n", b"I10\n"),
        (sv.Weights(1, 2, 3), b"I2\n", b"I-2\n"),
        (FERRO, b"I1\n", b"I5\n"),
    ],
)
def test_unpickling_checks_the_fields(rec, good, bad):
    # a pickle edited to hold a value the constructor refuses: copy and
    # pickle rebuild a validating record through its constructor
    data = pickle.dumps(rec, 0)
    assert data.count(good) == 1
    with pytest.raises(ParameterDomainError):
        pickle.loads(data.replace(good, bad))


def test_sequences_index_and_iterate_over_their_values():
    m = sv.phi_derivatives(FERRO, 4, CTX256)
    ns = sv.norms_from_moments(m, 3)
    for seq, values in ((m, m.values), (ns, ns.h)):
        assert not isinstance(seq, tuple)
        assert len(seq) == len(values)
        assert [seq[k] for k in range(len(seq))] == list(seq) == list(values)
    assert m.order == 4 and len(ns) == 3
