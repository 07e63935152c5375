# Property tests on random valid index sets: the engine against independent
# oracles, and covariance under the group action x -> mult*x + shift.

from hypothesis import given, settings, strategies as st

from circulant import coeff_engine as ce, oracles
from test_coeff_engine import _reduce_representative_by_search


@st.composite
def valid_index_sets(draw, min_n, max_n, max_tail=None):
    """Sorted index sets of length N whose sum is 0 mod N.

    With max_tail (which needs N >= 3), at most that many indices are >= 2:
    the others are 0 or 1.
    """
    n = draw(st.integers(min_n, max_n))
    if max_tail is None:
        head = draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1))
    else:
        tail = draw(st.integers(1, min(max_tail, n)))
        head = draw(st.lists(st.integers(2, n - 1), min_size=tail - 1, max_size=tail - 1))
        ones = draw(st.integers(0, n - tail))
        head += [1] * ones + [0] * (n - tail - ones)
    # the last index makes the residue gate hold
    return tuple(sorted(head + [-sum(head) % n]))


@settings(max_examples=150, deadline=None)
@given(valid_index_sets(2, 9))
def test_theorem3_matches_arrangement_count(a):
    assert ce.coeff_theorem3(a) == oracles.coeff_via_theorem2(a)


@settings(max_examples=100, deadline=None)
@given(valid_index_sets(10, 12, max_tail=7))
def test_theorem3_matches_labeled_enumeration(a):
    assert ce.coeff_theorem3(a) == oracles.coeff_eq10d(a)


@settings(max_examples=150, deadline=None)
@given(valid_index_sets(3, 12, max_tail=8), st.data())
def test_group_action_covariance(a, data):
    n = len(a)
    shift = data.draw(st.integers(0, n - 1))
    mult = data.draw(st.sampled_from(ce.coprime_residues(n)))
    perm, sign = ce.group_action(n, shift, mult)
    m = ce.multiplicities(a)
    image = ce.indices_from_multiplicities(tuple(m[p] for p in perm))
    assert image == tuple(sorted((mult * x + shift) % n for x in a))
    assert ce.coefficient(image) == sign * ce.coefficient(a)


@settings(max_examples=150, deadline=None)
@given(valid_index_sets(10, 16))
def test_reduce_representative_matches_search(a):
    assert ce.reduce_representative(a) == _reduce_representative_by_search(a)
