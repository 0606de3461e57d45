"""One Hypothesis profile for the whole suite: derandomized, so every run
draws the same examples, and without deadlines, whose wall-clock limits
depend on the host.  Tests set only ``max_examples``.

The ``count_calls`` fixture is the suite's one call counter."""

import pytest
from hypothesis import settings

settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.name`` for the test and
    returns the list that gets each call's positional arguments.  A name
    that ``owner`` lacks fails the test, so a guard cannot pass by
    counting a function that has moved or gone."""

    def patch(owner, name):
        real = getattr(owner, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return patch
