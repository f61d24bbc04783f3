import pytest

from hypineq import corpus, rearrangement


@pytest.fixture(autouse=True)
def empty_node_geometry_cache():
    # the geodesic breakpoints of a grid are cached per process, and each
    # built-in corpus profile, built once per process, keeps the table of
    # phi, log sinh and closure logs at the nodes of every panel its passes
    # took; every test starts without them, so what a test counts (root
    # finds, phi, phi_inv and closure calls) does not depend on which tests
    # ran before it
    rearrangement._breakpoints.cache_clear()
    for v in corpus.standard_corpus():
        v._panels.clear()
