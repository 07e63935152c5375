import math
from fractions import Fraction

import pytest

from circulant import oracles, symmetry as sym
from circulant.coeff_engine import (coeff_theorem3, coefficient, coprime_residues,
                                    indices_from_multiplicities)
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
    assert oracles.act(oracles.GroupElement(1, 9), m) == want


def test_act_is_group_action():
    n = 8
    m = (2, 2, 1, 0, 0, 2, 0, 1)
    g = oracles.GroupElement(3, 5)
    h = oracles.GroupElement(6, 3)
    assert oracles.act(g, oracles.act(h, m)) == oracles.act(oracles.compose(g, h, n), m)
    g, h = oracles.GroupElement(1, 3), oracles.GroupElement(1, 1)
    assert oracles.act(g, oracles.act(h, m)) == oracles.act(oracles.compose(g, h, n), m)
    assert oracles.act(oracles.GroupElement(0, 1), m) == m


def test_orbits_partition_the_solution_set():
    for n in range(3, 9):
        vecs = sym.valid_vectors(n)
        records = oracles.classify(n)
        for kind in ("additive", "super"):
            members = [vec for rec in records if rec.kind == kind
                       for vec, _ in rec.members]
            assert sorted(members) == sorted(vecs), (n, kind)


def test_additive_orbit_signs():
    rec = oracles.additive_multiplet((2, 3, 0, 1, 0, 0))  # N=6, shift flips sign
    value = coefficient(indices_from_multiplicities(rec.representative))
    for vec, sign in rec.members:
        assert coeff_theorem3(indices_from_multiplicities(vec)) == sign * value, vec


def test_super_orbit_signs():
    for m in ((3, 0, 2, 0, 0, 2, 0), (2, 1, 0, 2, 1, 0, 1, 1)):
        rec = oracles.super_multiplet(m)
        value = coefficient(indices_from_multiplicities(rec.representative))
        for vec, sign in rec.members:
            assert coeff_theorem3(indices_from_multiplicities(vec)) == sign * value


def test_multiplets_reject_invalid_vectors():
    for build in (oracles.additive_multiplet, oracles.super_multiplet):
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
        records = [r for r in oracles.classify(n)
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
            records = [r for r in oracles.classify(n)
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
        records = [r for r in oracles.classify(n)
                   if r.kind == "super"]
        assert sym.count_super_orbits(n) == len(records), n


def _positions(g, n):
    """Where the element g sends each position, x -> mult*x + shift: oracles.act
    moves the count at x there."""
    return [(g.mult * x + g.shift) % n for x in range(n)]


def test_invariant_counts():
    # full generator (shift 1, mult 1): only the all-ones vector, odd N only
    for n in range(3, 11):
        want = 1 if n % 2 else 0
        assert oracles.invariant_count_K(n, oracles.GroupElement(1, 1)) == want
    # identity fixes everything
    assert oracles.invariant_count_K(6, oracles.GroupElement(0, 1)) == 80
    # N = 2p, shift by 2: the two alternating-support vectors; the scan at
    # N = 10, the fixed-vector DP (checked against the scan below) at N = 14
    assert oracles.invariant_count_K(10, oracles.GroupElement(2, 1)) == 2
    assert sym._fixed_vector_count(14, _positions(oracles.GroupElement(2, 1), 14)) == 2


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
            assert oracles.invariant_count_K(p, oracles.GroupElement(0, g)) == math.comb(2 * m, m)


def test_fixed_vector_count_agrees_with_scan():
    for n in (6, 7, 8):
        for g in [oracles.GroupElement(a, b) for a in range(n) for b in coprime_residues(n)]:
            want = oracles.invariant_count_K(n, g)
            assert sym._fixed_vector_count(n, _positions(g, n)) == want, (n, g)


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


# classify as it was when it walked the valid vectors once per multiplet
# kind, kept as the reference for splitting the additive orbits from the
# one super-orbit walk.

def _orbits_by_walk(n, shifts_only=False):
    """The orbits of the valid vectors under the shifts alone (additive) or
    the whole group (super), in order of their first valid vector."""
    build = oracles.additive_multiplet if shifts_only else oracles.super_multiplet
    seen = set()
    for m in sym.valid_vectors(n):
        if m not in seen:
            rec = build(m)
            seen.update(vec for vec, _ in rec.members)
            yield rec


def _classify_by_two_walks(n):
    """Every valid vector grouped into one additive and one super multiplet."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return list(_orbits_by_walk(n, shifts_only=True)) + list(_orbits_by_walk(n))


def test_classify_matches_two_walks():
    for n in range(2, 11):
        got, want = oracles.classify(n), _classify_by_two_walks(n)
        assert len(got) == len(want), n
        for rec, ref in zip(got, want):
            for field in oracles.MultipletRecord._fields:
                assert getattr(rec, field) == getattr(ref, field), (n, field, ref)


def test_single_index_multiplets():
    # the one permutation of one position is gathered without itemgetter,
    # which would return the entry itself rather than a 1-tuple
    assert sym.orbit_signs((1,)) == {(1,): 1}
    for build, kind in ((oracles.super_multiplet, "super"),
                        (oracles.additive_multiplet, "additive")):
        assert build((1,)) == oracles.MultipletRecord(kind, (1,), 1, (((1,), 1),), False)


def test_orbit_signs_match_super_multiplets():
    # the runtime's one group pass against the oracle's record: the same
    # members, and the same signs wherever no member is reached with both
    for n in range(2, 10):
        for m in sym.canonical_vectors(n):
            signs, rec = sym.orbit_signs(m), oracles.super_multiplet(m)
            assert signs[m] == 1
            assert sorted(signs) == [vec for vec, _ in rec.members], m
            if not rec.conflict:
                rep_sign = signs[rec.representative]
                for vec, sign in rec.members:
                    assert signs[vec] == sign * rep_sign, (m, vec)


def test_canonical_vectors_are_largest_members():
    # the walk's orbits, each by its largest member, against the generator
    assert sym.canonical_vectors(1) == ((1,),)
    for n in range(2, 12):
        want = sorted(max(vec for vec, _ in rec.members) for rec in _orbits_by_walk(n))
        assert list(sym.canonical_vectors(n)) == want, n


def test_canonical_vector_counts():
    for n in range(1, 15):
        assert len(sym.canonical_vectors(n)) == sym.count_super_orbits(n), n
