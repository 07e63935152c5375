import cmath
import itertools
import math
import random

import pytest

from circulant import oracles
from circulant.coeff_engine import (coeff_theorem3, indices_from_multiplicities,
                                    multiplicities)
from circulant.symmetry import valid_vectors


def test_kmod_counts_small():
    assert oracles.kmod_counts([0, 0, 2, 2]) == [2, 0, 4, 0]
    # total over k is the multinomial count of distinct arrangements
    counts = oracles.kmod_counts([0, 0, 1, 2, 2])
    assert sum(counts) == math.factorial(5) // (2 * 2)


def test_kmod_counts_multiplier_symmetry():
    # k and n*k classes match for any multiplier coprime to N
    for a in ([0, 0, 1, 2, 2], [0, 1, 1, 2, 2, 3, 5], [0, 0, 1, 1, 3, 5, 7, 7]):
        n = len(a)
        counts = oracles.kmod_counts(a)
        for mult in range(1, n):
            if math.gcd(mult, n) == 1:
                for k in range(n):
                    assert counts[k] == counts[(mult * k) % n]


def test_kmod_counts_shift_when_gate_fails():
    # nonzero total residue X shifts the whole profile: A(k) = A(k+X)
    a = [0, 0, 1, 1, 2]
    n = len(a)
    x = sum(a) % n
    assert x != 0
    counts = oracles.kmod_counts(a)
    for k in range(n):
        assert counts[k] == counts[(k + x) % n]


def test_theorem2_matches_theorem3():
    for n in range(3, 8):
        for m in valid_vectors(n):
            a = indices_from_multiplicities(m)
            assert oracles.coeff_via_theorem2(a) == coeff_theorem3(a), a


def test_leibniz_tiny():
    assert oracles.leibniz_expansion(1) == {(1,): 1}
    assert oracles.leibniz_expansion(2) == {(2, 0): 1, (0, 2): -1}
    three = oracles.leibniz_expansion(3)
    assert three == {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): -3}


def test_leibniz_keys_pass_residue_gate():
    for n in range(2, 7):
        for key in oracles.leibniz_expansion(n):
            assert sum(i * c for i, c in enumerate(key)) % n == 0


def test_eigenvalue_det_matches_leibniz():
    x = [1, 2, 3, 4]
    det = sum(c * (1 ** k[0]) * (2 ** k[1]) * (3 ** k[2]) * (4 ** k[3])
              for k, c in oracles.leibniz_expansion(4).items())
    assert det == -160
    approx = oracles.eigenvalue_det(x)
    assert abs(approx.imag) < 1e-8
    assert abs(approx.real - det) < 1e-6 * abs(det)


def test_q_partition_function():
    # 2-part strict tuples from [1,6] with sum = 5 mod 7: (1,4) and (2,3)
    assert oracles.q_partition_function(5, 2, 6, 7) == 2
    assert oracles.q_partition_function(0, 0, 6, 7) == 1
    assert oracles.q_partition_function(3, 0, 6, 7) == 0
    assert oracles.q_partition_function(5, 2, 6, 7, excluded=(1,)) == 1


def test_q_partition_function_brute():
    import itertools
    for n in (5, 6, 7):
        for parts in range(0, 4):
            for target in range(n):
                got = oracles.q_partition_function(target, parts, n - 1, n,
                                                   excluded=(2,))
                want = sum(1 for c in itertools.combinations(
                    [v for v in range(1, n) if v != 2], parts)
                    if sum(c) % n == target)
                assert got == want


def test_q_generating_identity():
    # sum_n Q(n; X, N-1) omega^n = (-1)^X with no excluded values
    for n in (5, 6, 7, 8):
        omega = cmath.exp(2j * cmath.pi / n)
        for x in range(0, n):
            total = sum(oracles.q_partition_function(t, x, n - 1, n) * omega ** t
                        for t in range(n))
            assert abs(total - (-1) ** x) < 1e-9


def test_kmod_via_q_matches_brute_force():
    cases = [
        [0, 0, 2, 2],
        [0, 0, 1, 2, 2],
        [0, 0, 0, 1, 1, 4],
        [0, 1, 1, 2, 2, 3, 5],
        [0, 0, 1, 1, 2, 2, 3, 3, 3, 3, 3, 3],
    ]
    for a in cases:
        assert oracles.kmod_via_q(a) == oracles.kmod_counts(a), a


def test_series_identity_all_subsets_small():
    import itertools
    for n in (4, 5, 6):
        for p in range(0, n):
            for q in itertools.combinations(range(1, n), p):
                assert oracles.lemma1_check(n, q), (n, q)


def test_series_identity_ignores_tail_multiplicity():
    # the identity involves only N and the excluded values, not M1, so the
    # check takes no tail multiplicity
    assert oracles.lemma1_check(8, (1, 3, 6))
    with pytest.raises(TypeError):
        oracles.lemma1_check(8, (1, 3, 6), m1=4)


def test_symmetric_sum_reduction():
    assert oracles.lemma2_check(2, 6)
    assert oracles.lemma2_check(3, 5)
    assert oracles.lemma2_check(4, 6)


def test_theorem2_worked_example():
    a = [0, 0, 1, 1, 1, 1, 3, 7, 8, 8]
    assert oracles.coeff_via_theorem2(a) == 200
    counts = oracles.kmod_counts(a)
    m = multiplicities(a)
    total = math.factorial(10)
    for c in m:
        total //= math.factorial(c)
    assert sum(counts) == total


def test_circulant_det_matches_permutation_sum():
    rng = random.Random(5)
    for n in range(1, 8):
        terms = oracles.leibniz_expansion(n)
        # small entries, so zero pivots and row swaps come up
        for _ in range(30):
            x = [rng.randint(-2, 2) for _ in range(n)]
            want = sum(c * math.prod(x[v] ** k for v, k in enumerate(key))
                       for key, c in terms.items())
            assert oracles.circulant_det(x) == want, x
    assert oracles.circulant_det([1, 2, 3, 4]) == -160
    assert oracles.circulant_det([0, 1, 0]) == 1
    assert oracles.circulant_det([0, 0, 0, 0]) == 0
    with pytest.raises(ValueError):
        oracles.circulant_det([])


def test_coeff_via_power_matches_permutation_sum():
    # every index set with N <= 8: one on a coset r + dZ_N with N/d = 2 or 3
    # gets the Leibniz coefficient, off or on the residue gate, any other None
    for n in range(1, 9):
        terms = oracles.leibniz_expansion(n)
        for a in itertools.combinations_with_replacement(range(n), n):
            on_coset = any(n % s == 0 and len({x % (n // s) for x in a}) == 1 for s in (2, 3))
            want = terms.get(multiplicities(a), 0) if on_coset else None
            assert oracles.coeff_via_power(a) == want, a
