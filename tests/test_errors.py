import inspect
import pickle

import pytest

from fisherwatch import errors

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, errors.FisherwatchError)]
#: constructor arguments of the classes that take more than a message
ARGS = {errors.DegenerateChannelError: (5, "window 101")}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_survives_pickle(cls):
    exc = cls(*ARGS.get(cls, ("window 7 did not fit",)))
    exc.extra = [1, 2]
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert copy.code == exc.code
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert vars(copy) == vars(exc)


def test_degenerate_channel_message_and_row_survive():
    copy = pickle.loads(pickle.dumps(errors.DegenerateChannelError(5, "window 101")))
    assert str(copy) == "channel 5 has zero sample variance (window 101)"
    assert copy.row == 5
