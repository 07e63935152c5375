# End-to-end acceptance checks. Each test is one criterion; frozen values were
# recomputed independently (permutation-sum determinants, counting arguments)
# before being pinned here.

import itertools
import random
import time
from fractions import Fraction

from circulant import cli, coeff_engine as ce, expansion, oracles, symmetry
from circulant.exactmath import binomial, factorial
from circulant.oracles import multinomial_star
from circulant.partitions import integer_partitions


def key(label):
    return tuple(int(c) for c in label)


def nonzero_terms(n):
    return {m: c for m, c in expansion.expand(n) if c}


def test_criterion_01_worked_coefficient_all_paths():
    t0 = time.time()
    a = [0, 0, 1, 1, 1, 1, 3, 7, 8, 8]
    assert ce.coeff_theorem3(a) == 200
    assert oracles.coeff_eq10d(a) == 200
    assert oracles.coeff_via_theorem2(a) == 200
    assert time.time() - t0 < 1.0


def test_criterion_02_frozen_large_coefficients():
    t0 = time.time()
    for a, want in (([0, 1, 2, 3, 4, 5, 6], -105),
                    ([0, 0, 2, 2, 4, 4, 6, 6], 56)):
        assert ce.coeff_theorem3(a) == want
        assert oracles.coeff_eq10d(a) == want
        assert ce.coefficient(a) == want
        assert oracles.coeff_via_theorem2(a) == want
    assert time.time() - t0 < 1.0


# written-out determinants for dimensions 3, 4, 5 (variables x0..x4)
DISPLAY_3 = {
    (3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): -3,
}
DISPLAY_4 = {
    (4, 0, 0, 0): 1, (0, 4, 0, 0): -1, (0, 0, 4, 0): 1, (0, 0, 0, 4): -1,
    (2, 0, 2, 0): -2, (0, 2, 0, 2): 2,
    (2, 1, 0, 1): -4, (1, 2, 1, 0): 4, (0, 1, 2, 1): -4, (1, 0, 1, 2): 4,
}
DISPLAY_5 = {
    (5, 0, 0, 0, 0): 1, (0, 5, 0, 0, 0): 1, (0, 0, 5, 0, 0): 1,
    (0, 0, 0, 5, 0): 1, (0, 0, 0, 0, 5): 1,
    (3, 1, 0, 0, 1): -5, (3, 0, 1, 1, 0): -5, (1, 3, 1, 0, 0): -5,
    (0, 3, 0, 1, 1): -5, (1, 0, 3, 0, 1): -5, (0, 1, 3, 1, 0): -5,
    (1, 1, 0, 3, 0): -5, (0, 0, 1, 3, 1): -5, (1, 0, 0, 1, 3): -5,
    (0, 1, 1, 0, 3): -5,
    (2, 2, 0, 1, 0): 5, (2, 1, 2, 0, 0): 5, (2, 0, 1, 0, 2): 5,
    (2, 0, 0, 2, 1): 5, (1, 2, 0, 0, 2): 5, (1, 0, 2, 2, 0): 5,
    (0, 2, 2, 0, 1): 5, (0, 2, 1, 2, 0): 5, (0, 1, 0, 2, 2): 5,
    (0, 0, 2, 1, 2): 5,
    (1, 1, 1, 1, 1): -5,
}


def test_criterion_03_small_dimension_displays():
    t0 = time.time()
    assert nonzero_terms(3) == DISPLAY_3
    assert nonzero_terms(4) == DISPLAY_4
    assert nonzero_terms(5) == DISPLAY_5
    assert time.time() - t0 < 1.0


# regression tables: multiplicity label -> coefficient, one label per listed
# additive family; (label, n) pairs pin the super-multiplet sizes
TABLE_6 = {
    "600000": 1,
    "400200": -3,
    "410001": -6, "401010": -6,
    "303000": 2,
    "320010": 6, "301002": 6,
    "311100": 12, "300111": 12,
    "222000": -9,
    "202020": 9,
    "210120": -18,
    "210201": 0,
    "211011": 0,
}
TABLE_7 = {
    "7000000": 1,
    "5100001": -7, "5010010": -7, "5001100": -7,
    "4200010": 7, "4021000": 7, "4102000": 7,
    "4000201": 7, "4000120": 7, "4010002": 7,
    "4110100": 14, "4001011": 14,
    "3300100": -7, "3130000": -7, "3003010": -7,
    "3200002": 14, "3020020": 14, "3002200": 14,
    "3211000": -21, "3020101": -21, "3012001": -21,
    "3100210": -21, "3101020": -21, "3000112": -21,
    "3110011": 7, "3011110": 7, "3101101": 7,
    "1002022": -7, "1220200": -7,
    "1012210": -14, "1201102": -14, "1120021": -14,
    "1102201": 35, "1210012": 35, "1021120": 35,
    "1111111": -105,
}
TABLE_8 = {
    "80000000": 1,
    "60002000": -4,
    "61000001": -8, "60010100": -8,
    "60100010": -8,
    "52000010": 8, "50120000": 8, "50000210": 8, "50100002": 8,
    "50201000": 8, "50001020": 8,
    "51100100": 16, "50010011": 16,
    "51011000": 16, "50001101": 16,
    "40400000": -2,
    "40004000": 6,
    "43000100": -8, "40030001": -8, "41000300": -8, "40010003": -8,
    "42020000": -12, "40000202": -12,
    "40200020": 20,
    "42000002": 20, "40020200": 20,
    "42101000": -24, "40021010": -24, "40101200": -24, "40001012": -24,
    "41210000": -24, "41010020": -24, "40200101": -24, "40000121": -24,
    "41002001": 8, "40012100": 8,
    "40102010": 8,
    "41100011": 16, "40110110": 16,
    "41010101": 16,
    "41001110": -48, "40111001": -48,
    "23000003": -16, "20030300": -16,
    "20300030": -16,
    "33110000": 32, "31030010": 32, "30100301": 32, "30000113": 32,
    "00130310": -32,
    "01030301": 32,
    "01300031": -32,
    "32100020": -16, "30220010": -16, "30100220": -16, "30200012": -16,
    "32001200": 48, "30021002": 48,
    "32002010": 16, "30122000": 16, "30002210": 16, "30102002": 16,
    "32100101": -32, "30020111": -32, "31110200": -32, "31010012": -32,
    "32010110": 32, "31120001": 32, "31000211": 32, "30110102": 32,
    "32011001": -32, "31021100": -32, "30011201": -32, "31001102": -32,
    "31201001": 32, "30011120": 32, "30211100": 32, "31001021": 32,
    "31200110": -32, "30110021": -32,
    "31102100": 32, "30012011": 32,
    "31111010": 64, "30101111": 64,
    "20022200": -8,
    "02200022": 56,
    "20202020": 56,
    "00122210": 48, "02102012": 48,
    "01022201": -16, "02012102": -16,
    "22120010": -80, "20100212": -80,
    "00212120": -16, "01202021": -16,
    "22111100": -32, "21021011": -32, "21101201": -32, "20011112": -32,
    "02110112": -32,
    "21102011": -160,
    "21012101": 96,
    "21110111": -64,
}
ANNOTATED_SIZES = [
    ("202020", 2), ("1111111", 1), ("40004000", 4), ("20202020", 2),
    ("21012101", 4),
]
# labels whose published family value belongs to a shifted orbit member; the
# label's own coefficient (frozen above, determinant-verified) has the
# opposite sign, and the family-signed member must exist in the orbit
FAMILY_SIGN_LABELS = [
    "23000003", "20030300", "00130310", "01030301", "20022200",
    "00122210", "02102012", "01022201", "02012102", "02110112",
]


def test_criterion_04_regression_tables():
    t0 = time.time()
    for n, table in ((6, TABLE_6), (7, TABLE_7), (8, TABLE_8)):
        coeffs = dict(expansion.expand(n))
        for label, want in table.items():
            assert coeffs.get(key(label), 0) == want, (n, label)
    # the two tabulated zeros stay listed in the full expansion
    coeffs = dict(expansion.expand(6))
    assert coeffs[key("210201")] == 0
    assert coeffs[key("211011")] == 0
    for label, size in ANNOTATED_SIZES:
        assert oracles.super_multiplet(key(label)).n == size, label
    for label in FAMILY_SIGN_LABELS:
        rec = oracles.additive_multiplet(key(label))
        values = {ce.coefficient(ce.indices_from_multiplicities(vec))
                  for vec, _ in rec.members}
        assert -TABLE_8[label] in values, label
    assert time.time() - t0 < 30.0


def test_criterion_05_three_way_oracle_sweep():
    t0 = time.time()
    for n in range(3, 9):
        leib = oracles.leibniz_expansion(n)
        for m in symmetry.valid_vectors(n):
            a = ce.indices_from_multiplicities(m)
            want = leib.get(m, 0)
            assert ce.coefficient(a) == want, a
            assert ce.coeff_theorem3(a) == want, a
            assert oracles.coeff_via_theorem2(a) == want, a
    assert time.time() - t0 < 120.0


def test_criterion_06_zero_counts():
    for n, want in ((6, 12), (10, 120), (12, 192)):
        report = cli.zeros_report(n)
        assert len(report) == want
        for a, kind in report:
            assert kind == "corollary6"
            assert ce.coefficient(a) == 0, a


def test_criterion_07_counting_formulas():
    t0 = time.time()
    for n in range(2, 11):
        assert symmetry.count_solutions_F(n) == len(symmetry.valid_vectors(n))
        records = oracles.classify(n)
        additive = [r for r in records if r.kind == "additive"]
        total = sum(symmetry.additive_multiplet_count_g(n, k)
                    for k in range(1, n + 1))
        assert total == len(additive), n
    assert sum(symmetry.additive_multiplet_count_g(5, k) for k in range(1, 6)) == 6
    assert symmetry.supermultiplet_count(5) == 4
    assert symmetry.supermultiplet_count(6) == 12
    assert symmetry.supermultiplet_count(7) == 12
    for n in (10, 14):
        assert symmetry.supermultiplet_count(n) == symmetry.count_super_orbits(n)
    assert time.time() - t0 < 60.0


def test_criterion_08_symmetry_laws():
    import math
    for n in range(2, 8):
        for m in symmetry.valid_vectors(n):
            a = ce.indices_from_multiplicities(m)
            c = ce.coefficient(a)
            assert c % ce.divisibility_bound(a) == 0, a
            for shift in range(n):
                for mult in range(1, n):
                    if math.gcd(mult, n) != 1:
                        continue
                    b = tuple(sorted((mult * x + shift) % n for x in a))
                    assert ce.coeff_theorem3(b) == c * (-1) ** (shift * (n - 1)), \
                        (a, shift, mult)


def test_criterion_09_lemma_identities():
    t0 = time.time()
    # excluded-factor series identity, every excluded-set size up to N-1
    for n in range(3, 9):
        for p in range(0, n):
            assert oracles.lemma1_check(n, tuple(range(1, p + 1))), (n, p)
    # symmetric-sum reduction on random tables
    for p in (2, 3, 4):
        assert oracles.lemma2_check(p, 6, trials=50, seed=p)
    # starred-multinomial binomial identity, all admissible beta
    for p in range(1, 8):
        parts = integer_partitions(p)
        for beta in itertools.product(*(range(p // s + 2) for s in range(1, p + 1))):
            if sum(s * b for s, b in zip(range(1, p + 1), beta)) > p:
                continue
            lhs = 0
            for ip in parts:
                term = multinomial_star(p, ip.multiplicities)
                for i in range(p):
                    term *= binomial(ip.multiplicities[i], beta[i])
                lhs += term
            rhs = Fraction(factorial(p))
            for s, b in zip(range(1, p + 1), beta):
                rhs /= Fraction(s ** b * factorial(b))
            assert lhs == rhs, (p, beta)
    # alternating binomial pairing
    for m in range(1, 7):
        for x in range(0, 25):
            s = sum(binomial(k, m - 1) * binomial(x - k, m) * (-1) ** k
                    for k in range(x + 1))
            assert s == (-1) ** (m - 1) * binomial((x + 1) // 2, m)
    assert time.time() - t0 < 30.0


def test_criterion_10_global_identities():
    t0 = time.time()
    for n in range(2, 10):
        if n % 2 == 1:
            assert expansion.evaluate(n, [1] * n) == 0, n
        assert expansion.evaluate(n, [0] + [1] * (n - 1)) \
            == (-1) ** (n - 1) * (n - 1), n
    for n, d in ((4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3)):
        assert oracles.power_identity_check(n, d), (n, d)
    assert time.time() - t0 < 30.0


def test_criterion_11_eigenvalue_sanity():
    assert expansion.evaluate(4, [1, 2, 3, 4]) == -160
    rng = random.Random(11)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 8)
        x = [rng.randint(-9, 9) for _ in range(n)]
        exact = expansion.evaluate(n, x)
        approx = oracles.eigenvalue_det(x)
        scale = max(1.0, abs(exact))
        assert abs(approx.imag) <= 1e-6 * scale, (n, x)
        assert abs(approx.real - exact) <= 1e-6 * scale, (n, x)
        checked += 1
