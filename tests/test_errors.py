"""Every library exception survives pickling, as a caller's process pool
needs: the library starts none, but may run in one."""

import inspect
import pickle

import pytest

from fermatlab import errors

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, BaseException)
           and cls.__module__ == errors.__name__]


def make(cls):
    if cls is errors.BaseNotCoprimeError:
        return cls("base 641 shares factor 641 with F_5", 641)
    return cls("something went wrong")


def test_classes_are_found():
    assert errors.FermatLabError in CLASSES
    assert errors.BaseNotCoprimeError in CLASSES


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_round_trip(cls):
    err = make(cls)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)


def test_gcd_survives():
    back = pickle.loads(pickle.dumps(make(errors.BaseNotCoprimeError)))
    assert back.gcd == 641
    assert str(back) == "base 641 shares factor 641 with F_5"
