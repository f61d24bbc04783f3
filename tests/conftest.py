import pytest

from hypineq import corpus, rearrangement


@pytest.fixture(autouse=True)
def empty_node_geometry_cache():
    # the node geometry of a grid (its geodesic breakpoints and the table
    # of phi and log sinh at the nodes of every panel its passes took) is cached
    # per process, and each built-in corpus profile, built once per process,
    # keeps the closure logs its passes took; every test starts without
    # them, so what a test counts (root finds, phi, phi_inv and closure
    # calls) does not depend on which tests ran before it
    rearrangement._node_radii.cache_clear()
    for v in corpus.standard_corpus():
        v._logs.clear()
