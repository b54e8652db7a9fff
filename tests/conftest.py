import pytest
from hypothesis import settings

from sgharm.exact import _rational_period

# Property tests draw the same examples on every run, and no example fails on
# its running time, which varies on a loaded machine.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture(autouse=True)
def _fresh_period_memo():
    """Each test starts with no expansion held in exact's memo, so that a
    count of expansions or folds does not depend on the tests run before."""
    _rational_period.cache_clear()
