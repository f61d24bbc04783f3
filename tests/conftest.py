import pytest

from hypineq import rearrangement


@pytest.fixture(autouse=True)
def empty_node_geometry_cache():
    # the node geometry of a grid (its geodesic breakpoints and the table
    # of phi and log sinh at the nodes of its recurring panels) is cached
    # per process; every test starts without it, so what a test counts
    # (root finds, phi and phi_inv calls) does not depend on which tests
    # ran before it
    rearrangement._node_radii.cache_clear()
