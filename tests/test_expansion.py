import random

import pytest

from circulant import expansion, oracles, symmetry
from circulant.exactmath import euler_phi
from circulant.expansion import ExpansionPolynomial, evaluate, expand


def test_expand_matches_permutation_sum():
    for n in range(2, 8):
        assert expand(n).terms == oracles.leibniz_expansion(n), n


def test_expand_keeps_zero_terms():
    poly = expand(6)
    zeros = [k for k, v in poly.sorted_terms(include_zeros=True) if v == 0]
    assert len(zeros) == 12
    assert (2, 1, 0, 2, 0, 1) in zeros
    assert (2, 1, 1, 0, 1, 1) in zeros
    assert all(poly.all_terms[k] == 0 for k in zeros)


def test_expand_bounds():
    with pytest.raises(ValueError):
        expand(0)
    with pytest.raises(ValueError):
        expand(expansion.MAX_N + 1)
    assert expand(1).terms == {(1,): 1}


def test_polynomial_accessors():
    poly = expand(4)
    assert poly.coefficient((4, 0, 0, 0)) == 1
    assert poly.coefficient([1, 2, 1, 0]) == 4
    assert poly.coefficient((0, 0, 0, 0)) == 0
    keys = [k for k, _ in poly.sorted_terms()]
    assert keys == sorted(keys)


def test_evaluate_known_determinant():
    assert evaluate(expand(4), [1, 2, 3, 4]) == -160


def test_evaluate_rejects_wrong_length():
    with pytest.raises(ValueError):
        evaluate(expand(4), [1, 2, 3])


def test_evaluate_matches_eigenvalue_product():
    rng = random.Random(3)
    for n in range(2, 8):
        poly = expand(n)
        for _ in range(6):
            x = [rng.randint(-9, 9) for _ in range(n)]
            exact = evaluate(poly, x)
            approx = oracles.eigenvalue_det(x)
            assert abs(approx.imag) <= 1e-6 * max(1.0, abs(exact))
            assert abs(approx.real - exact) <= 1e-6 * max(1.0, abs(exact)), (n, x)


def test_multiplet_rows_match_classify():
    # the rows of one group pass per canonical vector against the oracle's
    # records, each valued by the coefficient of its representative
    for n in range(2, 11):
        values = expand(n).all_terms
        want = [(rec.kind, rec.representative, rec.n, values[rec.representative])
                for rec in oracles.classify(n)]
        rows = expansion.multiplet_rows(n)
        assert rows == want, n
        for kind in ("additive", "super"):
            sizes = [size for k, _, size, _ in rows if k == kind]
            assert sum(sizes) == symmetry.count_solutions_F(n), (n, kind)
        # an orbit's size divides the order of the group x -> b*x + k
        assert all(n * euler_phi(n) % size == 0 for kind, _, size, _ in rows
                   if kind == "super"), n


def test_power_identities_small():
    assert oracles.power_identity_check(4, 2)
    assert oracles.power_identity_check(6, 2)
    assert oracles.power_identity_check(6, 3)


def test_power_identity_rejects_bad_args():
    with pytest.raises(ValueError):
        oracles.power_identity_check(6, 4)
    with pytest.raises(ValueError):
        oracles.power_identity_check(6, 1)


def test_polynomial_equality_ignores_stored_zeros():
    a = ExpansionPolynomial(3, {(3, 0, 0): 1, (1, 1, 1): -3})
    stored = {(3, 0, 0): 1, (1, 1, 1): -3, (0, 3, 0): 0}
    b = ExpansionPolynomial(3, stored)
    assert a == b
    # one term store: the dict given, read with its zeros skipped
    assert b.all_terms is stored
    assert b.terms == {(3, 0, 0): 1, (1, 1, 1): -3}
    assert b.sorted_terms() == a.sorted_terms() == [((1, 1, 1), -3), ((3, 0, 0), 1)]
    assert b.sorted_terms(include_zeros=True) == [((0, 3, 0), 0), ((1, 1, 1), -3), ((3, 0, 0), 1)]
    assert evaluate(b, [2, 5, 7]) == evaluate(a, [2, 5, 7]) == 8 - 3 * 70


def test_expansion_matches_exact_determinant():
    # Schwartz-Zippel: a wrong expansion differs from the determinant by a
    # nonzero polynomial of degree N, which vanishes at a random point with
    # entries near 2^61 with probability at most about N / 2^62
    rng = random.Random(61)
    for n in range(2, expansion.MAX_N + 1):
        poly = expand(n)
        for _ in range(2):
            x = [(1 << 61) + rng.randrange(-(1 << 60), 1 << 60) for _ in range(n)]
            assert evaluate(poly, x) == oracles.circulant_det(x), n
