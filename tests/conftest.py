import pytest

from hypineq import rearrangement


@pytest.fixture(autouse=True)
def empty_breakpoint_cache():
    # the geodesic breakpoints of a grid are cached per process; every
    # test starts without them, so what a test counts (root finds, phi_inv
    # calls) does not depend on which tests ran before it
    rearrangement._node_radii.cache_clear()
