import math
from fractions import Fraction

import pytest

from circulant import symmetry as sym
from circulant.coeff_engine import coefficient, indices_from_multiplicities
from circulant.exactmath import binomial, divisors, euler_phi, mobius

F_TABLE = {3: 4, 4: 10, 5: 26, 6: 80, 7: 246, 8: 810, 9: 2704, 10: 9252,
           14: 1432860}


def test_solution_count_formula():
    for n, want in F_TABLE.items():
        assert sym.count_solutions_F(n) == want


def test_solution_count_vs_enumeration():
    for n in range(2, 11):
        assert sym.count_solutions_F(n) == len(sym.valid_vectors(n))


def test_valid_vectors_well_formed():
    for n in range(2, 8):
        for m in sym.valid_vectors(n):
            assert sum(m) == n
            assert sum(i * c for i, c in enumerate(m)) % n == 0


def test_act_example():
    # multiply indices by 9 then shift by 1 at N=10
    m = (2, 4, 0, 1, 0, 0, 0, 1, 2, 0)       # indices 0011113788
    want = (4, 2, 0, 2, 1, 0, 0, 0, 1, 0)    # indices 0000113348
    assert sym.act(sym.GroupElement(1, 9), m) == want


def test_act_is_group_action():
    n = 8
    m = (2, 2, 1, 0, 0, 2, 0, 1)
    g = sym.GroupElement(3, 5)
    h = sym.GroupElement(6, 3)
    assert sym.act(g, sym.act(h, m)) == sym.act(sym.compose(g, h, n), m)
    g, h = sym.GroupElement(1, 3), sym.GroupElement(1, 1)
    assert sym.act(g, sym.act(h, m)) == sym.act(sym.compose(g, h, n), m)
    assert sym.act(sym.GroupElement(0, 1), m) == m


def test_orbits_partition_the_solution_set():
    for n in range(3, 9):
        vecs = sym.valid_vectors(n)
        records = sym.classify(n)
        for kind in ("additive", "super"):
            members = [vec for rec in records if rec.kind == kind
                       for vec, _ in rec.members]
            assert sorted(members) == sorted(vecs), (n, kind)


def test_additive_orbit_signs():
    rec = sym.additive_multiplet((2, 3, 0, 1, 0, 0))  # N=6, shift flips sign
    value = coefficient(indices_from_multiplicities(rec.representative))
    for vec, sign in rec.members:
        assert coefficient(indices_from_multiplicities(vec)) == sign * value, vec


def test_super_orbit_signs():
    for m in ((3, 0, 2, 0, 0, 2, 0), (2, 1, 0, 2, 1, 0, 1, 1)):
        rec = sym.super_multiplet(m)
        value = coefficient(indices_from_multiplicities(rec.representative))
        for vec, sign in rec.members:
            assert coefficient(indices_from_multiplicities(vec)) == sign * value


def test_multiplets_reject_invalid_vectors():
    for build in (sym.additive_multiplet, sym.super_multiplet):
        with pytest.raises(ValueError):
            build((2, 0, 0))


def test_additive_multiplet_size_counts():
    assert sym.additive_multiplet_count_g(5, 1) == 1
    assert sym.additive_multiplet_count_g(5, 5) == 5
    assert sym.additive_multiplet_count_g(6, 2) == 1
    assert sym.additive_multiplet_count_g(6, 3) == 0  # parity mismatch
    assert sym.additive_multiplet_count_g(6, 4) == 0  # 4 does not divide 6
    # N=5 total: 6 additive multiplets
    assert sum(sym.additive_multiplet_count_g(5, k) for k in range(1, 6)) == 6


def test_additive_counts_vs_enumeration():
    for n in range(2, 11):
        records = [r for r in sym.classify(n)
                   if r.kind == "additive"]
        by_size = {}
        for r in records:
            by_size[r.n] = by_size.get(r.n, 0) + 1
        for size in range(1, n + 1):
            assert sym.additive_multiplet_count_g(n, size) == by_size.get(size, 0), \
                (n, size)


def test_supermultiplet_closed_form():
    assert sym.supermultiplet_count(5) == 4
    assert sym.supermultiplet_count(6) == 12
    assert sym.supermultiplet_count(7) == 12
    assert sym.supermultiplet_count(10) == 268


def test_supermultiplet_count_vs_enumeration():
    for n in (5, 6, 7, 10, 14):
        want = sym.count_super_orbits(n)
        assert sym.supermultiplet_count(n) == want
        if n <= 10:
            records = [r for r in sym.classify(n)
                       if r.kind == "super"]
            assert len(records) == want


def test_closed_form_rejects_other_dimensions():
    for n in (4, 8, 9, 12):
        try:
            sym.supermultiplet_count(n)
        except ValueError:
            pass
        else:
            assert False, n


def test_burnside_matches_direct_count():
    for n in range(3, 9):
        records = [r for r in sym.classify(n)
                   if r.kind == "super"]
        assert sym.count_super_orbits(n) == len(records), n


def test_invariant_counts():
    # full generator (shift 1, mult 1): only the all-ones vector, odd N only
    for n in range(3, 11):
        want = 1 if n % 2 else 0
        assert sym.invariant_count_K(n, sym.GroupElement(1, 1)) == want
    # identity fixes everything
    assert sym.invariant_count_K(6, sym.GroupElement(0, 1)) == 80
    # N = 2p, shift by 2: the two alternating-support vectors
    for n in (10, 14):
        assert sym.invariant_count_K(n, sym.GroupElement(2, 1)) == 2


def test_invariant_counts_multiplier_only():
    # prime N, pure multiplier of order d fixes C(2(p-1)/d, (p-1)/d) vectors
    for p in (5, 7):
        for g in range(2, p):
            d = 1
            acc = g
            while acc != 1:
                acc = (acc * g) % p
                d += 1
            m = (p - 1) // d
            assert sym.invariant_count_K(p, sym.GroupElement(0, g)) == math.comb(2 * m, m)


def test_fixed_vector_count_agrees_with_scan():
    for n in (6, 7, 8):
        for g in [sym.GroupElement(a, b) for a in range(n)
                  for b in sym.coprime_residues(n)]:
            assert sym._fixed_vector_count(n, g) == sym.invariant_count_K(n, g), (n, g)


# The counting formulas as they were written with Fraction, kept as the
# reference for the integer versions in the package.

def _count_solutions_F_fraction(n):
    total = Fraction(0)
    for d in divisors(n):
        total += euler_phi(n // d) * binomial(2 * d, d)
    return total / (2 * n)


def _additive_multiplet_count_g_fraction(n, size):
    if n % size != 0 or (n - size) % 2 != 0:
        return Fraction(0)
    total = Fraction(0)
    for d in divisors(size):
        total += ((-1) ** (size + d)) * mobius(size // d) * binomial(2 * d, d)
    return total * Fraction(1 + (-1) ** (n - size), 4 * size * size)


def _supermultiplet_count_fraction(p, doubled):
    n = 2 * p if doubled else p
    total = _count_solutions_F_fraction(n)
    if not doubled:
        total += p - 1
        for d in divisors(p - 1)[1:]:
            m = (p - 1) // d
            total += euler_phi(d) * p * binomial(2 * m, m)
        return total / (p * (p - 1))
    total += (p - 1) * 2
    for d in divisors(p - 1)[1:]:
        m = (p - 1) // d
        if d == 2:
            k = binomial(2 * p, p)
        elif d % 2 == 0:
            k = 2 * p * binomial(4 * m, 2 * m) - (p - 1) * binomial(4 * m + 1, 2 * m + 1)
        else:
            k = (Fraction(4 * p - 1, 2) * binomial(4 * m, 2 * m)
                 - (p - 1) * binomial(4 * m + 1, 2 * m + 1)
                 + Fraction(binomial(2 * m, m), 2))
        total += euler_phi(d) * p * k
    return total / (2 * p * (p - 1))


def test_integer_counts_match_fraction_reference():
    for n in range(2, 41):
        assert sym.count_solutions_F(n) == _count_solutions_F_fraction(n), n
        for size in range(1, n + 1):
            assert (sym.additive_multiplet_count_g(n, size)
                    == _additive_multiplet_count_g_fraction(n, size)), (n, size)
    for p in (3, 5, 7, 11, 13, 17, 19):
        for doubled in (False, True):
            n = 2 * p if doubled else p
            assert sym.supermultiplet_count(n) == _supermultiplet_count_fraction(p, doubled), n
