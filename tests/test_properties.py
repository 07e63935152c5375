# Property tests on random valid index sets: the engine against independent
# oracles, and covariance under the group action x -> mult*x + shift.

from hypothesis import assume, given, settings, strategies as st

from circulant import coeff_engine as ce, oracles
from test_coeff_engine import _pairs, _partition_sum_dense, _reduce_representative_by_search


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
    # x -> mult*x + shift maps [a] to an image whose coefficient is the
    # shift's sign times [a]'s, and the element's line in group_table,
    # (u, d) with d = 1/mult and u = -shift*d, holds that image and sign
    n = len(a)
    shift = data.draw(st.integers(0, n - 1))
    mult = data.draw(st.sampled_from(ce.coprime_residues(n)))
    g, sign = oracles.GroupElement(shift, mult), ce.coeff_all_equal(shift, n)
    m = ce.multiplicities(a)
    image = ce.indices_from_multiplicities(oracles.act(g, m))
    assert image == tuple(sorted((mult * x + shift) % n for x in a))
    assert ce.coeff_theorem3(image) == sign * ce.coefficient(a)
    d = pow(mult, -1, n)
    line_sign, line_image = ce.group_table(n)[-shift * d % n][ce.coprime_residues(n).index(d)]
    assert (line_sign, line_image(m)) == (sign, oracles.act(g, m))


@st.composite
def periodic_index_sets(draw, min_n, max_n):
    """Sorted index sets of length N whose multiplicity vector repeats with
    a period p, a divisor of N below N: m[i] = c[i mod p] with c summing to
    p. The shift by p fixes them, so many lines of the reduction tie, and
    some sets lie off the residue gate."""
    n = draw(st.integers(min_n, max_n))
    p = draw(st.sampled_from([p for p in range(1, n) if n % p == 0]))
    cuts = sorted(draw(st.lists(st.integers(0, p), min_size=p - 1, max_size=p - 1)))
    c = [hi - lo for lo, hi in zip([0] + cuts, cuts + [p])]
    return ce.indices_from_multiplicities([c[i % p] for i in range(n)])


@settings(max_examples=300, deadline=None)
@given(st.one_of(valid_index_sets(10, 16), periodic_index_sets(9, 40)))
def test_reduce_representative_matches_search(a):
    assert ce.reduce_representative(a) == _reduce_representative_by_search(a)


@st.composite
def coset_index_sets(draw):
    """Sorted index sets of length N = s*d, s = 2 or 3, N <= 300, on one
    coset r + dZ_N: counts c_j at r + jd, for a random shift r. The largest
    count is free; the others stay at most 60 (s = 2) or 12 (s = 3), which
    keeps the partition sum's content lattice small."""
    s = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(1, 300 // s))
    n = s * d
    small = [draw(st.integers(0, min(n // (s - 1), 60 if s == 2 else 12))) for _ in range(s - 1)]
    c = draw(st.permutations(small + [n - sum(small)]))
    r = draw(st.integers(0, n - 1))
    return tuple(sorted((r + j * d) % n for j, k in enumerate(c) for _ in range(k)))


@settings(max_examples=150, deadline=None)
@given(coset_index_sets())
def test_coefficient_matches_power_identity_on_cosets(a):
    # every line of the reduction that starts at the largest count ties at
    # the top, so the tie is long; the content kernel then runs on one or
    # two values with many copies, at N where no brute-force oracle runs
    assert ce.coefficient(a) == oracles.coeff_via_power(a)


@st.composite
def partition_sum_args(draw):
    """(rest, N, M0, M1) that leave room for the pinned index:
    M0 + M1 + |rest| + 1 <= N.

    Up to 8 indices in `rest`, each from 2..N-1, and M1 from all the room
    left, so large M1, where few parts are pruned, comes up as well as the
    small M1 of reduced index sets.
    """
    n = draw(st.integers(3, 16))
    rest = draw(st.lists(st.integers(2, n - 1), max_size=min(8, n - 1)))
    room = n - 1 - len(rest)
    m1 = draw(st.integers(0, room))
    m0 = draw(st.integers(0, room - m1))
    return tuple(sorted(rest)), n, m0, m1


@settings(max_examples=300, deadline=None)
@given(partition_sum_args())
def test_partition_sum_matches_dense_dp(args):
    want = _partition_sum_dense(*args)
    rest, n, m0, m1 = args
    assert ce._partition_sum(_pairs(rest), n, m0, m1) == want
    assert ce._partition_sum_by_label(_pairs(rest), n, m0, m1) == want
    assert ce._partition_sum_by_content(_pairs(rest), n, m0, m1) == want


@st.composite
def off_gate_index_sets(draw):
    """Sorted index sets of length N = 3..16 whose sum is not 0 mod N."""
    n = draw(st.integers(3, 16))
    head = draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1))
    last = draw(st.integers(0, n - 2))
    # the last index takes every residue except the one that closes the gate
    return tuple(sorted(head + [(last - sum(head) + 1) % n]))


@settings(max_examples=150, deadline=None)
@given(off_gate_index_sets())
def test_off_gate_coefficient_is_zero(a):
    assert sum(a) % len(a)
    assert ce.coefficient(a) == 0


@settings(max_examples=100, deadline=None)
@given(valid_index_sets(3, 16))
def test_divisibility_bound_divides_coefficient(a):
    assert ce.coefficient(a) % ce.divisibility_bound(a) == 0


@st.composite
def pinnable_index_sets(draw):
    """Sorted index sets of length N = 10..30 that pass the residue gate,
    with 3..10 indices >= 2 of at least two distinct values.

    The indices >= 2 are drawn from a pool of up to that many values, so
    some tails repeat values and some do not, and both lattices come up.
    """
    n = draw(st.integers(10, 30))
    k = draw(st.integers(3, 10))
    pool = draw(st.lists(st.integers(2, n - 1), min_size=2, max_size=k, unique=True))
    head = draw(st.lists(st.sampled_from(pool), min_size=k - 1, max_size=k - 1))
    ones = draw(st.integers(0, n - k))
    head += [1] * ones + [0] * (n - k - ones)
    a = tuple(sorted(head + [-sum(head) % n]))
    big = [x for x in a if x >= 2]
    assume(len(big) >= 3 and len(set(big)) >= 2)
    return a


@settings(max_examples=150, deadline=None)
@given(pinnable_index_sets())
def test_partition_sum_is_the_same_for_every_pin(a):
    # _theorem3 pins one copy of the largest index >= 2; pinning a copy of
    # any other leaves a different tail, often on the other lattice, and
    # the same sum. This checks both kernels and their wrap tests at N
    # where no oracle runs
    n, m = len(a), ce.multiplicities(a)
    big = a[m[0] + m[1]:]
    tails = {big[:i] + big[i + 1:] for i in range(len(big))}
    assert len({ce._partition_sum(_pairs(tail), n, m[0], m[1]) for tail in tails}) == 1, a
