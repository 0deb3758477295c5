"""Fixtures shared by the test modules."""

import inspect
import sys

import pytest

from fedpex import runner

# the reference simulator's comparisons report their operands when they fail
pytest.register_assert_rewrite("reference")


@pytest.fixture
def mutate_driver(monkeypatch):
    """mutate_driver(old, new, driver=runner._run_async) swaps in a copy of
    `driver`, the asynchronous driver or baselines.run_synchronous, whose
    source has `old`, found exactly once, replaced by `new`."""

    def mutate(old, new, driver=runner._run_async):
        module = sys.modules[driver.__module__]
        source = inspect.getsource(driver)
        assert source.count(old) == 1
        namespace = dict(vars(module))
        exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
        monkeypatch.setattr(module, driver.__name__, namespace[driver.__name__])

    return mutate
