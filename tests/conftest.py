"""Fixtures shared by the test modules."""

import inspect

import pytest

from fedpex import runner


@pytest.fixture
def mutate_driver(monkeypatch):
    """mutate_driver(old, new) swaps in a copy of the asynchronous driver
    whose source has `old`, found exactly once, replaced by `new`."""

    def mutate(old, new):
        source = inspect.getsource(runner._run_async)
        assert source.count(old) == 1
        namespace = dict(vars(runner))
        exec(compile(source.replace(old, new), runner.__file__, "exec"), namespace)
        monkeypatch.setattr(runner, "_run_async", namespace["_run_async"])

    return mutate
