# Brute-force ground truths for the coefficient formulas.
#
# This is the only module that touches complex arithmetic; everything the
# engine itself does stays in exact integers.

import cmath
import itertools
import random
from collections import Counter
from fractions import Fraction

from .coeff_engine import _shape, as_index_set, coeff_all_equal, multiplicities
from .exactmath import binomial, divisors, factorial, mobius
from .partitions import multiset_partitions


def _next_permutation(seq) -> bool:
    """Advance seq to the next lexicographic permutation in place."""
    i = len(seq) - 2
    while i >= 0 and seq[i] >= seq[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(seq) - 1
    while seq[j] <= seq[i]:
        j -= 1
    seq[i], seq[j] = seq[j], seq[i]
    seq[i + 1:] = reversed(seq[i + 1:])
    return True


def multiset_permutations(values):
    """Every distinct ordering of a multiset, as lists in lexicographic order."""
    perm = sorted(values)
    while True:
        yield list(perm)
        if not _next_permutation(perm):
            return


def kmod_counts(a):
    """counts[k] = number of distinct arrangements of [a] with weighted sum = k mod N."""
    a = as_index_set(a)
    n = len(a)
    counts = [0] * n
    for perm in multiset_permutations(a):
        w = 0
        for pos, v in enumerate(perm):
            w += pos * v
        counts[w % n] += 1
    return counts


def coeff_via_theorem2(a) -> int:
    """Mobius-weighted combination of the k-mod counts."""
    a = as_index_set(a)
    n = len(a)
    counts = kmod_counts(a)
    return sum(mobius(n // d) * counts[d % n] for d in divisors(n))


def _lambda_sum(n, m1, m0, xs, zs):
    """Sum over nonzero 0/1 masks of the partition-sum inner term."""
    j = len(xs)
    # per-part binomial factors used when the part's mask bit is set
    bino = [binomial(xs[s] + zs[s] - 1, zs[s] - 1) for s in range(j)]
    total = 0
    # parts sorted by ascending residue let us abandon a branch once the
    # running residue sum exceeds m1 (the step function can never recover)
    order = sorted(range(j), key=lambda s: xs[s])

    def rec(pos, mu, x_acc, xz_acc, prod):
        nonlocal total
        if pos == j:
            if mu:
                total += ((-n) ** mu) * prod * binomial(n - m0 - 1 - xz_acc, m1 - x_acc)
            return
        s = order[pos]
        rec(pos + 1, mu, x_acc, xz_acc, prod)
        if x_acc + xs[s] <= m1:
            rec(pos + 1, mu + 1, x_acc + xs[s], xz_acc + xs[s] + zs[s], prod * bino[s])

    rec(0, 0, 0, 0, 1)
    return total


def coeff_eq10d(a) -> int:
    """C_[a] by enumerating the labeled-position partition sum term by term.

    The engine's coeff_theorem3 evaluates the same sum by a DP over
    sub-multisets; this is the independent enumeration it is checked against.
    """
    a = as_index_set(a)
    n = len(a)
    if sum(a) % n != 0:
        return 0
    if a[0] == a[-1]:
        return coeff_all_equal(a[0], n)
    _, m, m0, m1, big = _shape(a)
    rest = big[:-1]
    p = len(rest)
    brace = Fraction(factorial(n - m0 - 1), factorial(m1))
    for sp in multiset_partitions(range(p)):
        if sp.j == 0:
            continue
        weight = 1
        for z in sp.sizes:
            weight *= factorial(z - 1)
        xs = tuple((-sum(rest[i] for i in part)) % n for part in sp.parts)
        brace += weight * _lambda_sum(n, m1, m0, xs, sp.sizes)
    value = Fraction(((-1) ** (n - m0 - 1)) * n) * brace
    for q in range(2, n):
        value /= factorial(m[q])
    assert value.denominator == 1
    return int(value)


def _beta_tuples(p):
    """All beta_1..beta_p >= 0 with sum(s*beta_s) <= p, excluding all-zero."""
    out = []

    def rec(s, budget, acc):
        if s > p:
            if any(acc):
                out.append(tuple(acc))
            return
        for b in range(budget // s + 1):
            rec(s + 1, budget - s * b, acc + [b])

    rec(1, p, [])
    return out


def coeff_special_ab(a) -> int:
    """C_[a] for shapes {0^M0, 1^M1, a^Ma, b^Mb} with Mb <= 1 and a >= 2."""
    a = as_index_set(a)
    n = len(a)
    _, m, m0, m1, big = _shape(a)
    distinct = sorted(set(big))
    if not distinct:
        raise ValueError("shape needs at least one index >= 2")
    if len(distinct) == 1:
        a_val, m_a, m_b = distinct[0], m[distinct[0]], 0
    elif len(distinct) == 2:
        # the singleton one plays the role of b
        c0, c1 = distinct
        if m[c1] == 1:
            a_val, m_a, m_b = c0, m[c0], 1
        elif m[c0] == 1:
            a_val, m_a, m_b = c1, m[c1], 1
        else:
            raise ValueError("one of the two repeated values must be a singleton")
    else:
        raise ValueError("at most two distinct values >= 2 allowed")
    if sum(a) % n != 0:
        return 0
    p = n - m0 - m1 - 1
    xvals = [(-s * a_val) % n for s in range(p + 1)]  # xvals[s] for s >= 1
    brace = Fraction(binomial(n - m0 - 1, m1))
    for beta in _beta_tuples(p):
        mu = sum(beta)
        bx = sum(beta[s - 1] * xvals[s] for s in range(1, p + 1))
        if bx > m1:
            continue
        bxz = sum(beta[s - 1] * (xvals[s] + s) for s in range(1, p + 1))
        term = Fraction(((-n) ** mu) * binomial(n - m0 - 1 - bxz, m1 - bx))
        for s in range(1, p + 1):
            if beta[s - 1]:
                term *= Fraction(binomial(xvals[s] + s - 1, s - 1) ** beta[s - 1],
                                 (s ** beta[s - 1]) * factorial(beta[s - 1]))
        brace += term
    value = Fraction(((-1) ** (n - m0 - 1)) * n, m_a + m_b) * binomial(m_a + m_b, m_a) * brace
    assert value.denominator == 1
    return int(value)


def zero_by_corollary6(a) -> bool:
    """Structural zero test for shapes 0..0 1..1 A1 A2 A3 (both branches)."""
    a = as_index_set(a)
    n = len(a)
    _, m, m0, m1, big = _shape(a)
    if len(big) != 3 or m0 < 1 or m1 < 1:
        return False
    if sum(a) % n != 0:
        return False
    a1, a2, a3 = big
    t1 = (m1 + 2) * (m1 + 1)
    if t1 % n == 0:
        r = t1 // n
        if a2 < n - m1 and a1 + a2 == n + 1 - r and a3 == m0 + 2 + r:
            return True
    t0 = (m0 + 2) * (m0 + 1)
    if t0 % n == 0:
        s = t0 // n
        if a2 >= n - m1 and a2 + a3 == n + 1 + s and a1 == m0 + 2 - s:
            return True
    return False


def leibniz_expansion(n: int, cap: int = 9):
    """Full symbolic determinant by permutation sum.

    Returns {multiplicity vector: coefficient}. Entry (r, c) of the matrix is
    x_{(r-c) mod n}, i.e. columns are successive downward rotations.
    """
    if n < 1 or n > cap:
        raise ValueError("dimension out of range")
    terms = Counter()
    for perm in itertools.permutations(range(n)):
        key = [0] * n
        for r in range(n):
            key[(r - perm[r]) % n] += 1
        # permutation parity by cycle count
        seen = [False] * n
        cycles = 0
        for s in range(n):
            if not seen[s]:
                cycles += 1
                t = s
                while not seen[t]:
                    seen[t] = True
                    t = perm[t]
        terms[tuple(key)] += 1 if (n - cycles) % 2 == 0 else -1
    return {k: v for k, v in terms.items() if v}


def eigenvalue_det(x):
    """Floating determinant as the product of the circulant eigenvalues."""
    n = len(x)
    omega = cmath.exp(2j * cmath.pi / n)
    det = 1.0 + 0j
    for p in range(n):
        det *= sum(x[m] * omega ** ((p * m) % n) for m in range(n))
    return det


def q_partition_function(target: int, parts: int, ceiling: int, modulus: int,
                         excluded=()) -> int:
    """Count strictly increasing tuples from [1, ceiling], avoiding excluded
    values, whose sum is target mod modulus."""
    allowed = [v for v in range(1, ceiling + 1) if v not in set(excluded)]
    if parts == 0:
        return 1 if target % modulus == 0 else 0
    count = 0
    for combo in itertools.combinations(allowed, parts):
        if sum(combo) % modulus == target % modulus:
            count += 1
    return count


def kmod_via_q(a):
    """k-mod counts recomputed through the restricted partition function."""
    a = as_index_set(a)
    n = len(a)
    m = multiplicities(a)
    big = [x for x in a if x >= 2]
    if not big:
        raise ValueError("needs an index >= 2 to pin at position 0")
    rest = big[:-1]
    p = len(rest)
    m1 = m[1]
    label_weight = 1  # labeled tuples per distinct assignment of the rest-multiset
    for count in Counter(rest).values():
        label_weight *= factorial(count)
    totals = [0] * n
    for subset in itertools.combinations(range(1, n), p):
        hist = [q_partition_function(t, m1, n - 1, n, subset) for t in range(n)]
        if not any(hist):
            continue
        for assignment in multiset_permutations(rest):
            t = sum(v * q for v, q in zip(assignment, subset)) % n
            for k in range(n):
                totals[k] += label_weight * hist[(k - t) % n]
    denom = 1
    for q in range(2, n):
        denom *= factorial(m[q])
    out = []
    for k in range(n):
        num = n * totals[k]
        assert num % denom == 0
        out.append(num // denom)
    return out


def _omega_power(n: int, e: int) -> complex:
    return cmath.exp(2j * cmath.pi * (e % n) / n)


def lemma1_check(n: int, q, samples: int = 64, tol: float = 1e-9) -> bool:
    """Numerically confirm the excluded-factor geometric-sum identity.

    Both sides are functions of y; they are compared at sample points chosen
    off the unit circle (the left side's poles lie on it).
    """
    q = tuple(q)
    p = len(q)
    if len(set(q)) != p or any(v < 1 or v > n - 1 for v in q):
        raise ValueError("excluded values must be distinct and in [1, n-1]")
    # right side: polynomial coefficients c_m for m in [0, n-1-p]
    coeffs = []
    for m in range(n - p):
        c = 0j
        for kappas in itertools.product(range(m + 1), repeat=p):
            if sum(kappas) <= m:
                c += _omega_power(n, sum(k * qq for k, qq in zip(kappas, q)))
        coeffs.append(c)
    for i in range(samples):
        y = 0.7 * cmath.exp(2j * cmath.pi * (i + 0.37) / samples)
        lhs = sum((-y) ** m for m in range(n))
        for qq in q:
            lhs /= 1 + y * _omega_power(n, qq)
        rhs = sum(c * (-y) ** m for m, c in enumerate(coeffs))
        if abs(lhs - rhs) > tol * max(1.0, abs(rhs)):
            return False
    return True


def lemma2_check(p: int, bound: int, trials: int = 50, seed: int = 0) -> bool:
    """Confirm the symmetric-function lattice-sum reduction on random tables.

    The strictly increasing sum of a symmetric integer function h over
    [1, bound]^p must match the partition-weighted sum over unrestricted
    lower-dimensional lattices. Exact integer comparison.
    """
    from .exactmath import multinomial_star
    from .partitions import integer_partitions

    rng = random.Random(seed)
    parts_list = integer_partitions(p)
    for _ in range(trials):
        table = {}

        def h(args):
            key = tuple(sorted(args))
            if key not in table:
                table[key] = rng.randint(-9, 9)
            return table[key]

        lhs = sum(h(c) for c in itertools.combinations(range(1, bound + 1), p))
        rhs = Fraction(0)
        for ip in parts_list:
            j = ip.j
            weight = Fraction((-1) ** (p + j) * multinomial_star(p, ip.multiplicities),
                              factorial(p))
            sub = 0
            for point in itertools.product(range(1, bound + 1), repeat=j):
                expanded = []
                for z, val in zip(ip.parts, point):
                    expanded.extend([val] * z)
                sub += h(expanded)
            rhs += weight * sub
        if rhs != lhs:
            return False
    return True
