import math

import pytest

from hypineq.corpus import (
    bubble_corpus,
    bump_profile,
    standard_corpus,
    tent_profile,
    write_corpus,
)
from hypineq.constants import unit_ball_volume
from hypineq.quadrature import geomspace
from hypineq.rearrangement import key_comparison, lp_integral, read_profile
from hypineq.sharpness import truncated_bubble


def test_standard_corpus_shape():
    corpus = standard_corpus()
    assert len(corpus) == 20
    labels = [v.label for v in corpus]
    assert len(set(labels)) == len(labels)
    for v in corpus:
        assert v.nodes[0] == 0.0
        assert v(0.0) > 0.0


def test_standard_corpus_list_is_the_callers_own():
    corpus = standard_corpus()
    labels = [v.label for v in corpus]
    corpus.reverse()
    corpus.append(tent_profile(9.0, 9.0))
    del corpus[0]
    again = standard_corpus()
    assert [v.label for v in again] == labels
    assert again is not standard_corpus()


def test_corpus_profiles_have_closures():
    for v in standard_corpus():
        assert v.fn is not None and v.dfn is not None
        s = 0.5 * v.nodes[-1]
        # closure and table agree where both are defined
        assert v(s) == pytest.approx(v.fn(s), rel=1e-12)


def test_tent_and_bump_basics():
    t = tent_profile(2.0, 3.0)
    assert t(0.0) == 2.0
    assert t(3.0) == 0.0
    assert t.tail.kind == "compact"
    b = bump_profile(1.0, 4.0)
    assert b(0.0) == 1.0
    assert b(4.0) == 0.0
    assert b.dfn(0.0) == 0.0  # flat at the origin


def test_corpus_norms_finite():
    for v in standard_corpus():
        val, err = lp_integral(v, 2.5)
        assert math.isfinite(val) and val > 0.0
        assert err < 1e-6 * val, v.label


def test_corpus_key_comparison_all_positive():
    for v in standard_corpus():
        rep = key_comparison(v, 4, 8.0 / 3.0)
        assert rep.passes(), v.label


def test_bubble_corpus_concentration():
    pair = bubble_corpus(lambdas=(1e-3, 1e-4))
    assert len(pair) == 2
    # the tighter bubble carries less critical mass
    a, _ = lp_integral(pair[0], 8.0)
    b, _ = lp_integral(pair[1], 8.0)
    assert b < a


@pytest.mark.parametrize("n,p,lambdas", [
    (4, 8.0 / 3.0, (1e-4, 1e-5)),
    (5, 2.6, (1e-3, 3e-5)),
    (6, 2.45, (0.2,)),
])
def test_bubble_corpus_resamples_each_bubble(n, p, lambdas):
    # the resampling formula bubble_corpus used to spell out: 200 nodes
    # from the bubble's own first grid node to its support end at 1
    got = (bubble_corpus() if lambdas == (1e-4, 1e-5)
           else bubble_corpus(n, p, lambdas))
    assert len(got) == len(lambdas)
    for lam, v in zip(lambdas, got):
        base = truncated_bubble(n, p, lam, 1.0)
        lo = min(unit_ball_volume(n) * lam ** n * 1e-4, 1e-5)
        grid = [0.0] + geomspace(lo, 1.0, 200)
        assert v.nodes == tuple(grid)
        assert v.values == tuple(base.fn(s) for s in grid)
        assert v.label == base.label
        assert v.tail == base.tail
        assert v.dfn(0.5) == base.dfn(0.5)


def test_write_corpus_roundtrip(tmp_path):
    paths = write_corpus(str(tmp_path))
    assert len(paths) == 20
    v = read_profile(paths[0])
    assert v.nodes[0] == 0.0
    # serialized copies drop closures but keep the table
    assert v.fn is None
