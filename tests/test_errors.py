"""Every error class survives pickling with its message, exit code and
attributes: an error raised in an ablation worker process crosses to the
CLI that way."""

import inspect
import pickle

import pytest

from psdlab import errors

CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
           if issubclass(c, errors.PsdError)]
INSTANCES = ([c("something went wrong") for c in CLASSES if c is not errors.DivergenceError]
             + [errors.DivergenceError(17), errors.DivergenceError(17, "loss is nan at step 17")])


@pytest.mark.parametrize("err", INSTANCES, ids=lambda e: f"{type(e).__name__}-{e}")
def test_round_trips_through_pickle(err):
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert str(back) == str(err)
    assert back.exit_code == err.exit_code
    assert vars(back) == vars(err)
