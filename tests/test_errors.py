"""The library's exception types: every one survives a pickle round trip."""

import inspect
import pickle

import pytest

from ummlearn import errors

INSTANCES = [
    errors.DimensionError("shapes (2, 3) and (4,) differ"),
    errors.ParameterError("lam must be positive"),
    errors.LabelError("label 7 out of range"),
    errors.DegenerateNormError("zero-length weight row"),
    errors.ConfigurationError("unknown config key 'x'"),
    errors.CsvFormatError("expected 3 fields", line=4),
    errors.CsvFormatError("empty file"),
    errors.TrainingDivergenceError("loss inf diverged", 3),
]


def test_every_type_is_covered():
    defined = {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == errors.__name__
    }
    assert defined == {type(exc) for exc in INSTANCES}


@pytest.mark.parametrize("exc", INSTANCES, ids=lambda exc: type(exc).__name__)
def test_pickle_round_trip(exc):
    # a sweep worker sends its failure to the parent process by pickle
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc)
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert vars(copy) == vars(exc)  # CsvFormatError.line, TrainingDivergenceError.epoch
