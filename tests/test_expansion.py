import hashlib
import random

import pytest

from circulant import cli, coeff_engine, expansion, oracles, symmetry
from circulant.exactmath import euler_phi
from circulant.expansion import evaluate, expand

# the largest N the expand command serves, which the whole-table checks reach
EXPAND_MAX_N = cli.COMMANDS["expand"][3][1]


def test_expand_matches_permutation_sum():
    for n in range(2, 8):
        assert {m: c for m, c in expand(n) if c} == oracles.leibniz_expansion(n), n


def test_expand_keeps_zero_terms():
    terms = expand(6)
    # every valid vector once, in increasing order, zeros included
    assert [m for m, _ in terms] == symmetry.valid_vectors(6)
    zeros = [m for m, c in terms if c == 0]
    assert len(zeros) == 12
    assert (2, 1, 0, 2, 0, 1) in zeros
    assert (2, 1, 1, 0, 1, 1) in zeros


def test_expand_bounds():
    with pytest.raises(ValueError):
        expand(0)
    assert expand(1) == [((1,), 1)]


def test_orbit_table_above_the_command_cap():
    # the library has no upper bound on N; the N = 13 table against its
    # recorded hash, the first 16 hex digits of the sha256 of the repr of
    # its (canonical vector, value) pairs
    table = expansion.orbit_values(13)
    assert len(table) == 2658
    assert hashlib.sha256(repr(list(table)).encode()).hexdigest()[:16] == "8854df0f52c98494"


def test_no_orbit_is_fixed_by_a_negative_element():
    # expand and evaluate give every member of an orbit the first sign the
    # group pass reaches it with (symmetry.orbit_signs). That is right only
    # if a member reached with both signs has value 0: a canonical vector
    # fixed by an element of sign -1 has coeff = -coeff. At N <= 12 none is
    # fixed, so the value is computed only for one that is.
    for n in range(1, EXPAND_MAX_N + 1):
        # x -> b*x + k has the sign of the shift k
        negative = [oracles.GroupElement(k, b) for k in range(n)
                    if coeff_engine.coeff_all_equal(k, n) < 0
                    for b in coeff_engine.coprime_residues(n)]
        for m in symmetry.canonical_vectors(n):
            if any(oracles.act(g, m) == m for g in negative):
                assert coeff_engine.coeff_theorem3(
                    coeff_engine.indices_from_multiplicities(m)) == 0, (n, m)


def test_evaluate_known_determinant():
    assert evaluate(4, [1, 2, 3, 4]) == -160


def test_evaluate_rejects_wrong_length():
    with pytest.raises(ValueError):
        evaluate(4, [1, 2, 3])


def test_evaluate_matches_eigenvalue_product():
    rng = random.Random(3)
    for n in range(2, 8):
        for _ in range(6):
            x = [rng.randint(-9, 9) for _ in range(n)]
            exact = evaluate(n, x)
            approx = oracles.eigenvalue_det(x)
            assert abs(approx.imag) <= 1e-6 * max(1.0, abs(exact))
            assert abs(approx.real - exact) <= 1e-6 * max(1.0, abs(exact)), (n, x)


def test_multiplet_rows_match_classify():
    # the rows of one group pass per canonical vector against the oracle's
    # records, each valued by the coefficient of its representative
    for n in range(2, 11):
        values = dict(expand(n))
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


def test_expansion_matches_exact_determinant():
    # Schwartz-Zippel: a wrong expansion differs from the determinant by a
    # nonzero polynomial of degree N, which vanishes at a random point with
    # entries near 2^61 with probability at most about N / 2^62
    rng = random.Random(61)
    for n in range(2, EXPAND_MAX_N + 1):
        for _ in range(2):
            x = [(1 << 61) + rng.randrange(-(1 << 60), 1 << 60) for _ in range(n)]
            assert evaluate(n, x) == oracles.circulant_det(x), n
