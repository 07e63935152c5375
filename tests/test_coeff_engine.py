import itertools
import math
import random
import tracemalloc

import pytest

from circulant import coeff_engine as ce, expansion, oracles, symmetry
from circulant.exactmath import binomial, factorial
from circulant.symmetry import valid_vectors

# frozen values, each independently recomputable from the determinant itself
KNOWN = [
    ([0, 1, 2], -3),
    ([0, 0, 1, 2, 2], 5),
    ([1, 1, 1, 1, 1], 1),
    ([0, 1, 2, 3, 4], -5),
    ([0, 0, 2, 2], -2),
    ([0, 0, 0, 1, 1, 4], 6),
    ([0, 0, 0, 0, 0, 1, 6], -7),
    ([0, 0, 0, 0, 0, 0, 2, 6], -8),
    ([0, 1, 2, 3, 4, 5, 6], -105),
    ([0, 0, 2, 2, 4, 4, 6, 6], 56),
    ([0, 0, 1, 1, 1, 1, 3, 7, 8, 8], 200),
]


def test_known_coefficients():
    for a, want in KNOWN:
        assert ce.coefficient(a) == want, a


def test_residue_gate():
    assert ce.coefficient([0, 0, 1]) == 0
    assert not oracles.satisfies_condition_8([0, 0, 1])
    assert oracles.satisfies_condition_8([0, 1, 2])


def test_all_equal_sign():
    for n in range(2, 9):
        for v in range(n):
            assert ce.coefficient([v] * n) == (-1) ** (v * (n - 1))


def test_index_multiplicity_round_trip():
    a = ce.as_index_set([3, 0, 0, 7, 1, 8, 1, 8, 1, 1])
    m = ce.multiplicities(a)
    assert ce.indices_from_multiplicities(m) == a
    assert sum(m) == len(a)


def test_theorem3_vs_labeled_form():
    # both closed forms must agree everywhere they both apply
    for n in range(3, 8):
        for m in valid_vectors(n):
            a = ce.indices_from_multiplicities(m)
            assert ce.coeff_theorem3(a) == oracles.coeff_eq10d(a), a


def test_theorem3_vs_labeled_form_sampled_large():
    rng = random.Random(8)
    leib9 = oracles.leibniz_expansion(9)
    for n in (8, 9):
        vecs = valid_vectors(n)
        for m in rng.sample(vecs, 100):
            a = ce.indices_from_multiplicities(m)
            want = ce.coeff_theorem3(a)
            assert oracles.coeff_eq10d(a) == want, a
            if n == 9:
                assert leib9.get(m, 0) == want, a
            elif rng.random() < 0.3:
                assert oracles.coeff_via_theorem2(a) == want, a


def test_two_value_tail_matches_general_form():
    for n in range(3, 11):
        for m in valid_vectors(n):
            a = ce.indices_from_multiplicities(m)
            big = sorted(set(x for x in a if x >= 2))
            applies = (len(big) == 1
                       or (len(big) == 2 and 1 in (m[big[0]], m[big[1]])))
            if big and applies:
                assert oracles.coeff_special_ab(a) == ce.coeff_theorem3(a), a


def test_path_is_orbit_invariant():
    # coefficient_with_path evaluates the reduced image and reports its
    # path, which is the path [a] itself takes: the group keeps the residue
    # gate and constant index sets. Every index set with N <= 7, off the
    # gate too
    for n in range(1, 8):
        for a in itertools.combinations_with_replacement(range(n), n):
            assert ce.coefficient_with_path(a)[1] == ce._theorem3(ce.multiplicities(a))[1], a


def test_shift_covariance():
    # adding 1 to every index multiplies the coefficient by (-1)^(N-1)
    for n in range(2, 8):
        for m in valid_vectors(n):
            a = ce.indices_from_multiplicities(m)
            c = ce.coefficient(a)
            for shift in range(n):
                b = tuple(sorted((x + shift) % n for x in a))
                assert ce.coeff_theorem3(b) == c * (-1) ** (shift * (n - 1)), (a, shift)


def test_multiplier_invariance():
    for n in range(2, 8):
        for m in valid_vectors(n):
            a = ce.indices_from_multiplicities(m)
            c = ce.coefficient(a)
            for mult in range(1, n):
                if math.gcd(mult, n) != 1:
                    continue
                b = tuple(sorted((x * mult) % n for x in a))
                assert ce.coeff_theorem3(b) == c, (a, mult)


def test_divisibility_of_coefficients():
    for n in range(2, 8):
        for m in valid_vectors(n):
            a = ce.indices_from_multiplicities(m)
            assert ce.coefficient(a) % ce.divisibility_bound(a) == 0, a


def test_structural_zero_shapes_evaluate_to_zero():
    for n in (6, 10, 12):
        shapes = list(ce.corollary6_shapes(n))
        assert shapes, n
        for a in shapes:
            assert ce.coefficient(a) == 0, a


def test_structural_zero_base_lists():
    # N -> the base shapes of corollary 6, as index sets
    want = {
        6: [(0, 0, 1, 2, 4, 5), (0, 1, 1, 2, 3, 5), (0, 0, 1, 3, 3, 5), (0, 1, 1, 2, 4, 4)],
        10: [(0, 0, 0, 0, 1, 1, 1, 3, 7, 7), (0, 0, 0, 1, 1, 1, 1, 4, 4, 8),
             (0, 0, 0, 0, 1, 1, 1, 3, 6, 8), (0, 0, 0, 1, 1, 1, 1, 3, 5, 8),
             (0, 0, 0, 0, 1, 1, 1, 4, 5, 8), (0, 0, 0, 1, 1, 1, 1, 3, 6, 7)],
        12: [(0,) * 7 + (1,) * 2 + t for t in ((3, 9, 10), (4, 8, 10), (5, 7, 10), (6, 6, 10))]
            + [(0,) * 2 + (1,) * 7 + t for t in ((3, 4, 10), (3, 5, 9), (3, 6, 8), (3, 7, 7))],
    }
    for n, shapes in want.items():
        assert sorted(ce.corollary6_shapes(n)) == sorted(shapes), n
        for a in shapes:
            assert oracles.zero_by_corollary6(a), a


def test_corollary6_listing_matches_predicate_scan():
    for n in range(2, 13):
        scan = [ce.indices_from_multiplicities(m) for m in valid_vectors(n)
                if oracles.zero_by_corollary6(ce.indices_from_multiplicities(m))]
        listed = list(ce.corollary6_shapes(n))
        assert len(set(listed)) == len(listed), n
        assert sorted(listed) == sorted(scan), n


def test_prime_dimension_has_no_zeros():
    for n in (3, 5, 7):
        for m in valid_vectors(n):
            a = ce.indices_from_multiplicities(m)
            assert ce.coefficient(a) != 0, a


def test_reduce_representative_example():
    rep, sign = ce.reduce_representative([0, 0, 1, 1, 1, 1, 3, 7, 8, 8])
    assert rep == (0, 0, 0, 0, 1, 1, 3, 3, 4, 8)
    assert sign == -1
    assert sign * ce.coefficient(rep) == 200
    assert ce.reduce_representative([0]) == ((0,), 1)


def _reduce_representative_by_search(a):
    """Reference: try every x -> mult*x + shift on the sorted index tuple."""
    n = len(a)
    best = None
    for shift in range(n):
        sign = -1 if (shift * (n - 1)) % 2 else 1
        for mult in range(1, n):
            if math.gcd(mult, n) != 1:
                continue
            cand = tuple(sorted((mult * x + shift) % n for x in a))
            m = ce.multiplicities(cand)
            key = (n - m[0] - m[1] - 1, m[1], cand)
            if best is None or key < best[0]:
                best = (key, cand, sign)
    return best[1], best[2]


def test_reduce_representative_matches_search():
    for n in range(2, 10):
        for m in valid_vectors(n):
            a = ce.indices_from_multiplicities(m)
            assert ce.reduce_representative(a) == _reduce_representative_by_search(a), a
    # every index set at N <= 7, off-gate ones too: their images can tie
    # under elements of opposite sign, so the sign shows which element won
    for n in range(2, 8):
        for a in itertools.combinations_with_replacement(range(n), n):
            assert ce.reduce_representative(a) == _reduce_representative_by_search(a), a


# Reference: coeff_engine._partition_sum as a dense DP over contents (equal
# labels merged into a count per distinct value, with binomial label
# choices), which pulls each content's row from every sub-content and drops
# the parts with x > M1 one pair at a time. The engine's kernels hold one
# integer per state, and each pulls the states with X <= M1 from their
# sub-states with X <= X_T: the labeled one over submasks, the content one
# over sub-contents. Neither keeps the row of M1 + 1 sums this reference
# keeps per state.
def _partition_sum_dense(rest, n, m0, m1):
    """Sum over labeled set partitions P of `rest` of prod_parts (z-1)! * Lambda(P).

    Lambda(P) sums, over the nonempty sets S of P's parts with sum_S x <= M1,
    prod_S (-N) C(x+z-1, z-1) times C(N-M0-1-sum_S (x+z), M1-sum_S x), where a
    part of size z and trace t has x = -t mod N. Swap the sums over P and S
    and let T be the set of the p labels that S covers. The parts outside S
    are any set partition of the other p-|T| labels, and the sum of
    prod (z-1)! over the set partitions of an r-set is r! (permutations
    counted by cycles), so

        sum over nonempty T of (p-|T|)! sum_X G_T[X] C(N-M0-1-X-|T|, M1-X)

    with G_T[X] the sum of prod_q (-N)(z_q-1)! C(x_q+z_q-1, z_q-1) over the
    set partitions Q of T with sum_q x_q = X. G_T depends on T only through
    its content c, a count per distinct value of `rest`, and prod_v C(m_v, c_v)
    labeled T have content c. G is built over the contents smallest first,
    splitting off the part that holds one copy of the first value present in
    c; X > M1 is dropped as it can only grow. Everything stays in integers.
    Each row is checked to be zero off X = -trace(c) mod N, the one value
    the engine's kernels keep per state.
    """
    values = sorted(set(rest))
    counts = [rest.count(v) for v in values]
    p = len(rest)
    choose = [[binomial(k, j) for j in range(k + 1)] for k in range(max(counts, default=0) + 1)]
    # lexicographic order: c - b comes before c whenever b is nonzero, and
    # the position of c in it is linear in c, so c - b sits at pos(c) - pos(b)
    contents = list(itertools.product(*(range(k + 1) for k in counts)))
    # (x, weight, position) of one part with content b; None when x alone exceeds M1
    part = {}
    for i, b in enumerate(contents[1:], 1):
        z = sum(b)
        x = -sum(k * v for k, v in zip(b, values)) % n
        part[b] = (x, -n * factorial(z - 1) * binomial(x + z - 1, z - 1), i) if x <= m1 else None
    g = [[1] + [0] * m1]
    total = 0
    for i, c in enumerate(contents[1:], 1):
        first = next(v for v, k in enumerate(c) if k)
        # the first value present has its distinguished copy in the split-off part
        ranges = [range(1, k + 1) if v == first else range(k + 1) for v, k in enumerate(c)]
        row = [0] * (m1 + 1)
        for b in itertools.product(*ranges):
            if part[b] is None:
                continue
            x, w, j = part[b]
            for v, (k, kb) in enumerate(zip(c, b)):
                if kb:
                    w *= choose[k - 1][kb - 1] if v == first else choose[k][kb]
            rem = g[i - j]
            for xsum in range(m1 + 1 - x):
                if rem[xsum]:
                    row[xsum + x] += w * rem[xsum]
        # every partition of a content with trace t has sum_q x_q = -t mod N,
        # and X <= M1 < N, so the row is zero off that one X
        xc = -sum(k * v for k, v in zip(c, values)) % n
        assert not any(gx for xsum, gx in enumerate(row) if xsum != xc), (rest, n, m0, m1, c)
        g.append(row)
        size = sum(c)
        weight = factorial(p - size)
        for k, kc in zip(counts, c):
            weight *= choose[k][kc]
        total += weight * sum(gx * binomial(n - m0 - 1 - xsum - size, m1 - xsum)
                              for xsum, gx in enumerate(row) if gx)
    return total


def _pairs(rest):
    """The label tuple `rest` as the tail the partition sum takes: sorted
    (value, count) pairs, one per distinct value."""
    return tuple((v, rest.count(v)) for v in sorted(set(rest)))


KERNELS = (ce._partition_sum_by_label, ce._partition_sum_by_content)


def test_partition_sum_edge_cases():
    # (rest, N, M0, M1, the value, or None where it is only known to be nonzero)
    cases = [
        ((), 5, 1, 2, 0),               # no labels, no nonempty T
        ((), 16, 0, 0, 0),
        ((3,), 16, 4, 0, 0),            # x = 13 > M1: no live part
        ((3, 5), 16, 2, 1, 0),          # traces 3, 5, 8 give x = 13, 11, 8 > M1
        # M1 = 0: only {3, 7} is live (x = 0, z = 2, weight -10), and it is
        # the whole T: 0! * -10 * C(10-5-1-2, 0)
        ((3, 7), 10, 5, 0, -10),
        ((2, 2, 4, 4), 6, 0, 0, None),  # M1 = 0 with repeats: {2, 4} and {2, 2, 4, 4}
        ((5, 5, 5), 15, 2, 0, None),
        # 2*M1 >= N: each T adds -6, as one part each; the split of {3, 3}
        # into two parts, each with x = 3 <= M1, sums to 6 > M1 and adds nothing
        ((3, 3), 6, 0, 3, -18),
    ]
    for rest, n, m0, m1, want in cases:
        got = ce._partition_sum(_pairs(rest), n, m0, m1)
        assert got == _partition_sum_dense(rest, n, m0, m1), (rest, n, m0, m1)
        assert got == want if want is not None else got != 0, (rest, n, m0, m1)
        for kernel in KERNELS:
            assert kernel(_pairs(rest), n, m0, m1) == got, (kernel.__name__, rest, n, m0, m1)


def test_partition_sum_matches_dense_dp_large_p():
    # p = 9..13 labels, beyond the 8 the hypothesis test draws: at each p one
    # all-distinct tail (M1 cycling through 0..3, as the dense DP's all-distinct
    # cost grows as 3^p) and one tail with repeated values for every M1 = 0..3
    rng = random.Random(18)
    for p in range(9, 14):
        for distinct, m1 in [(True, (p - 9) % 4)] + [(False, m1) for m1 in range(4)]:
            m0 = rng.randrange(1, 4)
            n = m0 + m1 + p + 1
            if distinct:
                rest = tuple(sorted(rng.sample(range(2, n), p)))
            else:
                # more labels than values, so some value repeats
                values = rng.sample(range(2, n), p // 3 + 1)
                rest = tuple(sorted(rng.choice(values) for _ in range(p)))
            args = rest, n, m0, m1
            want = _partition_sum_dense(*args)
            for kernel in KERNELS:
                assert kernel(_pairs(rest), n, m0, m1) == want, (kernel.__name__, args)
    # nine labels at M0 = 0, M1 = 10, N = 20, once distinct and once three
    # values three times (a shape the content kernel takes): 2*M1 >= N, so
    # two parts that each fit under M1 can wrap past N together
    for rest in (sorted(rng.sample(range(2, 20), 9)), (3, 3, 3, 7, 7, 7, 17, 17, 17)):
        args = tuple(rest), 20, 0, 10
        want = _partition_sum_dense(*args)
        for kernel in KERNELS:
            assert kernel(_pairs(rest), 20, 0, 10) == want, (kernel.__name__, args)


def test_partition_sum_kernel_follows_tail_shape(monkeypatch):
    # a tail of one repeated value has p + 1 contents but 2^p labeled
    # subsets: 0^20 2^20 leaves 19 labels, 0^25 2^25 leaves 24 (16.7M
    # subsets). Values taken with the content DP alone.
    def refuse(*args):
        raise AssertionError("wrong kernel for this tail")

    monkeypatch.setattr(ce, "_partition_sum_by_label", refuse)
    assert ce.coefficient((0,) * 20 + (2,) * 20) == -2
    assert ce.coefficient((0,) * 25 + (2,) * 25) == 2
    monkeypatch.undo()
    # every label distinct: the same 2^p states either way, and the labeled
    # ones are cheaper
    monkeypatch.setattr(ce, "_partition_sum_by_content", refuse)
    assert ce.coefficient(range(12)) == ce.coeff_theorem3(range(12))
    assert ce._partition_sum(_pairs((2, 3, 3, 5, 7, 9, 11)), 16, 2, 1) != 0


def test_partition_sum_refuses_above_state_limit(monkeypatch):
    # one limit in steps, pairs of a state and a sub-state on the lattice
    # the shape picks; the refusal comes before either kernel runs, and a
    # kernel reached here raises AssertionError
    def refuse(*args):
        raise AssertionError("kernel reached")

    monkeypatch.setattr(ce, "_partition_sum_by_label", refuse)
    monkeypatch.setattr(ce, "_partition_sum_by_content", refuse)
    assert ce.MAX_PARTITION_STEPS == 3 ** 18
    # 19 distinct labels: 3^19 steps over labeled subsets; 18 are at the limit and run
    with pytest.raises(ce.StateLimitError,
                       match="needs %d steps, above the limit of %d$" % (3 ** 19, 3 ** 18)):
        ce._partition_sum(_pairs(range(2, 21)), 23, 1, 1)
    with pytest.raises(AssertionError, match="kernel reached"):
        ce._partition_sum(_pairs(range(2, 20)), 23, 1, 1)


def test_content_kernel_has_its_own_state_limit(monkeypatch):
    # a tail with repeated values is counted on its own lattice, pairs of
    # a sub-multiset and a sub-state, not over its labeled subsets; the
    # refusal comes before either kernel runs
    def refuse(*args):
        raise AssertionError("kernel reached")

    monkeypatch.setattr(ce, "_partition_sum_by_label", refuse)
    monkeypatch.setattr(ce, "_partition_sum_by_content", refuse)
    # twelve values twice each: C(4, 2)^12 = 6^12 steps over sub-multisets,
    # far fewer than over 2^24 labeled subsets
    with pytest.raises(ce.StateLimitError, match="needs %d steps, above the limit of %d$"
                       % (6 ** 12, ce.MAX_PARTITION_STEPS)):
        ce._partition_sum(_pairs(tuple(v for v in range(2, 14) for _ in range(2))), 29, 2, 1)
    # ten and eleven values twice each, 6^10 and 6^11 steps, are within the
    # limit and run
    for top in (12, 13):
        with pytest.raises(AssertionError, match="kernel reached"):
            ce._partition_sum(_pairs(tuple(v for v in range(2, top) for _ in range(2))), 29, 3, 3)


def test_one_validation_per_coefficient(monkeypatch):
    # the reduction validates the index set; its representative, the
    # partition sum's input, is not validated again, on any path
    calls = [0]
    original = ce.as_index_set

    def counting(a):
        calls[0] += 1
        return original(a)

    monkeypatch.setattr(ce, "as_index_set", counting)
    for a, path in (([0, 0, 1, 1, 1, 1, 3, 7, 8, 8], "partition-sum"),
                    ([0, 1, 2, 3, 3], "residue-gate"), ([2, 2, 2, 2], "all-equal")):
        calls[0] = 0
        assert ce.coefficient_with_path(a)[1] == path
        assert calls[0] == 1, (a, calls[0])


def test_engine_builds_no_index_tuple(monkeypatch):
    # the closed form and the reduction read the multiplicity vector alone:
    # on every path, in the reduction, and over the whole orbit table, no
    # index tuple is built from counts
    def refuse(m):
        raise AssertionError("indices_from_multiplicities(%s) called" % (m,))

    monkeypatch.setattr(ce, "indices_from_multiplicities", refuse)
    for m, path in (((2, 4, 0, 1, 0, 0, 0, 1, 2, 0), "partition-sum"),
                    ((1, 1, 1, 2, 0), "residue-gate"), ((0, 0, 4, 0), "all-equal")):
        assert ce._theorem3(m)[1] == path, m
    assert ce._reduce((2, 4, 0, 1, 0, 0, 0, 1, 2, 0)) == ((4, 2, 0, 2, 1, 0, 0, 0, 1, 0), -1)
    assert ce._reduce((0, 0, 4, 0)) == ((4, 0, 0, 0), 1)
    for n in range(1, 9):
        expansion.orbit_values.cache_clear()
        assert len(expansion.orbit_values(n)) == symmetry.count_super_orbits(n), n
    expansion.orbit_values.cache_clear()


def test_reduce_representative_preserves_value():
    rng = random.Random(7)
    for n in range(3, 9):
        vecs = valid_vectors(n)
        for m in rng.sample(vecs, min(25, len(vecs))):
            a = ce.indices_from_multiplicities(m)
            rep, sign = ce.reduce_representative(a)
            assert sign * ce.coefficient(rep) == ce.coeff_theorem3(a), a


def test_reduce_representative_builds_only_its_picks(monkeypatch):
    # at N = 60 the whole group table would hold 60 * 16 images of 60
    # entries; the reduction builds only the element that wins. In 7^60
    # every line's entry 0 already adds up to N, so the tie walk reads
    # nothing; in 0^30 30^30 every line reads 30 at entries 0 and 30 and 0
    # elsewhere, so the walk ends at entry 30
    def refuse(n):
        raise AssertionError("group_table built")

    monkeypatch.setattr(ce, "group_table", refuse)
    for a in [(0,) * 55 + (1, 7, 13, 17, 22), (0,) * 57 + (1, 2, 57),
              (7,) * 60, (0,) * 30 + (30,) * 30]:
        assert ce.reduce_representative(a) == _reduce_representative_by_search(a), a
        assert ce.coefficient(a) == ce.coeff_theorem3(a), a


def test_coefficient_at_large_n_in_linear_memory():
    # the reduction ranks the lines starting on the support only: the
    # lines from every position at N = 10^4 would be N phi(N), 4 * 10^7
    # of them and gigabytes; under 3 MB is traced here. In
    # 0^9998 2 9998 no two support positions differ by a unit, so about
    # phi(N) elements tie for the top rank: only the winner's image is built
    n = 10 ** 4
    for a, want in (((0,) * (n - 4) + (1, 2, 3, n - 6), -60000),
                    ((0,) * (n - 2) + (2, n - 2), -10000)):
        tracemalloc.start()
        try:
            value = ce.coefficient(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == ce.coeff_theorem3(a) == want
        assert peak < 16 * 2 ** 20, (a[-2:], peak)


def test_two_value_power_identity_far_above_the_oracles():
    # x_0 = y0, x_h = y1 and every other x_k = 0 turn det circ_2h into
    # (det circ_2(y0, y1))^h = (y0^2 - y1^2)^h, the power identity with
    # d = h, so the coefficient of 0^h h^h is (-1)^(h/2) C(h, h/2) for even
    # h and 0 for odd h, at N far above every brute-force oracle's cap; the
    # coset oracle gives the same
    for h in [*range(1, 121), 480]:
        a = (0,) * h + (h,) * h
        want = (-1) ** (h // 2) * math.comb(h, h // 2) if h % 2 == 0 else 0
        assert ce.coefficient(a) == oracles.coeff_via_power(a) == want, h


def test_reduce_representative_not_more_expensive():
    # the chosen image never has a larger tail than the input
    for n in range(3, 8):
        for m in valid_vectors(n):
            a = ce.indices_from_multiplicities(m)
            rep, _ = ce.reduce_representative(a)
            mm = ce.multiplicities(rep)
            assert n - mm[0] - mm[1] - 1 <= n - m[0] - m[1] - 1


def test_validation_errors():
    for bad in ([], [0, 5], [-1, 1]):
        try:
            ce.as_index_set(bad)
        except ValueError:
            pass
        else:
            assert False, bad
