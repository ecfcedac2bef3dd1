import os

import pytest
from hypothesis import settings

from common import STAR3, TRIPOD
from treeradon import build_tree

# Properties that check a kernel against its reference implementation take
# profile_settings(n): n examples in tier-1 ("solver" profile), and 7.5
# times as many under TREERADON_SOLVER_PROFILE=solver-deep, which CI's deep
# equivalence step sets. That step runs the tests marked deep (-m deep):
# profile_settings marks its tests, and a test that also grows its inputs
# under that profile reads DEEP and marks itself; this module is the only
# reader of the variable.
settings.register_profile("solver", max_examples=40, deadline=None)
settings.register_profile("solver-deep", max_examples=300, deadline=None)
PROFILE = os.environ.get("TREERADON_SOLVER_PROFILE") or "solver"
DEEP = PROFILE == "solver-deep"


def profile_settings(floor):
    """A decorator that gives a property the settings to run ``floor``
    examples in tier-1, and the deep mark.

    The profile named by TREERADON_SOLVER_PROFILE scales the count by its
    examples over the "solver" profile's, never below ``floor``.
    """
    chosen = settings.get_profile(PROFILE)
    scaled = floor * chosen.max_examples // settings.get_profile("solver").max_examples
    scaled_settings = settings(chosen, max_examples=max(floor, scaled))
    return lambda test: pytest.mark.deep(scaled_settings(test))


# Fixture trees used throughout; their edge-id maps are in common.py.


@pytest.fixture
def tripod():
    return build_tree(TRIPOD)


@pytest.fixture
def star3():
    return build_tree(STAR3)
