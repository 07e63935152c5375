# Brute-force ground truths for the coefficient formulas.
#
# This is the only module that touches complex arithmetic; everything the
# engine itself does stays in exact integers.

import cmath
import itertools
import random
from collections import Counter, namedtuple
from fractions import Fraction

from .coeff_engine import (as_index_set, coeff_all_equal, coprime_residues,
                           indices_from_multiplicities, multiplicities)
from .exactmath import binomial, divisors, factorial, mobius
from .expansion import expand
from .partitions import multiset_partitions
from .symmetry import canonical_vectors, valid_vectors

# the index map x -> mult*x + shift
GroupElement = namedtuple("GroupElement", ["shift", "mult"])

# orbit of the shift group (additive) or of the whole group (super), each
# member with its sign; the reference for expansion.multiplet_rows
MultipletRecord = namedtuple(
    "MultipletRecord", ["kind", "representative", "n", "members", "conflict"])


def _shape(a):
    """Split an index set from as_index_set into (M, M0, M1, A-list of indices >= 2)."""
    m = multiplicities(a)
    return m, m[0], m[1] if len(a) > 1 else 0, [x for x in a if x >= 2]


def satisfies_condition_8(a) -> bool:
    """The residue gate: the indices sum to 0 mod N."""
    a = as_index_set(a)
    return sum(a) % len(a) == 0


def compose(g: GroupElement, h: GroupElement, n: int) -> GroupElement:
    """The element acting as h first and then g."""
    return GroupElement((g.mult * h.shift + g.shift) % n, (g.mult * h.mult) % n)


def act(g: GroupElement, m):
    """Apply the index map x -> mult*x + shift to the multiplicity vector m,
    on its index list; the reference for coeff_engine.group_action."""
    n = len(m)
    return multiplicities([(g.mult * x + g.shift) % n for x in indices_from_multiplicities(m)])


def additive_multiplet(m) -> MultipletRecord:
    return _multiplet("additive", tuple(m), [GroupElement(k, 1) for k in range(len(m))])


def super_multiplet(m) -> MultipletRecord:
    n = len(m)
    return _multiplet("super", tuple(m),
                      [GroupElement(k, b) for k in range(n) for b in coprime_residues(n)])


def _multiplet(kind, m, group):
    """The orbit of m under `group`, each member with the sign s such that
    coeff(member) = s * coeff(representative), the smallest member.

    Shifting every index by k multiplies the coefficient by (-1)^(k(N-1)).
    Conflicting reachable signs force the whole orbit's value to zero; such
    an orbit is flagged and its members pinned at +1.
    """
    n = len(m)
    if sum(m) != n:
        raise ValueError("multiplicities must sum to the dimension")
    signs = {m: 1}
    conflict = False
    for g in group:
        sign = (-1) ** (g.shift * (n - 1))
        if signs.setdefault(act(g, m), sign) != sign:
            conflict = True
    rep = min(signs)
    rep_sign = signs[rep]
    members = tuple(sorted((vec, 1 if conflict else sign * rep_sign)
                           for vec, sign in signs.items()))
    return MultipletRecord(kind, rep, len(members), members, conflict)


def orbits(n: int):
    """The super multiplets of the valid vectors, in order of their first
    valid vector, each built from its orbit's canonical vector."""
    return sorted(map(super_multiplet, canonical_vectors(n)), key=lambda r: r.representative)


def classify(n: int):
    """Every valid vector grouped into one additive and one super multiplet.

    Each additive orbit lies inside one super orbit; it is built from its
    smallest member, the first of the super record's sorted members that
    no earlier additive orbit holds. Sorting by representative puts the
    additive orbits in order of their first valid vector.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    supers = orbits(n)
    additive = []
    for rec in supers:
        seen = set()
        for vec, _ in rec.members:
            if vec not in seen:
                sub = additive_multiplet(vec)
                seen.update(member for member, _ in sub.members)
                additive.append(sub)
    additive.sort(key=lambda r: r.representative)
    return additive + supers


def invariant_count_K(n: int, generator: GroupElement) -> int:
    """Number of valid vectors fixed by the cyclic subgroup of the generator,
    by scanning them all; `symmetry._fixed_vector_count` is the fast count."""
    return sum(1 for m in valid_vectors(n) if act(generator, m) == m)


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

    The engine's coeff_theorem3 evaluates the same sum by a DP over the
    subsets of its labels or over their sub-multisets; this is the
    independent enumeration it is checked against.
    """
    a = as_index_set(a)
    n = len(a)
    if sum(a) % n != 0:
        return 0
    if a[0] == a[-1]:
        return coeff_all_equal(a[0], n)
    m, m0, m1, big = _shape(a)
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
    m, m0, m1, big = _shape(a)
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
    m, m0, m1, big = _shape(a)
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


def _poly_power(base: dict, d: int, width: int) -> dict:
    """d-th power of a polynomial over exponent-vector keys of fixed width."""
    out = {tuple([0] * width): 1}
    for _ in range(d):
        nxt = Counter()
        for k1, c1 in out.items():
            for k2, c2 in base.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                nxt[key] += c1 * c2
        out = {k: v for k, v in nxt.items() if v}
    return out


def power_identity_check(n: int, d: int) -> bool:
    """Spaced-support determinant equals the d-th power of the smaller one.

    Keeping only entries x_m with d | m, the N-dim determinant must equal
    (det of the (N/d)-dim circulant in those entries)^d, as exact polynomials.
    """
    if d <= 1 or n % d != 0:
        raise ValueError("d must divide n and exceed 1")
    small = n // d
    # left side: the nonzero terms supported on multiples of d only
    left = {tuple(m[value] for value in range(0, n, d)): c
            for m, c in expand(n)
            if c and all(count == 0 for value, count in enumerate(m) if value % d)}
    right = _poly_power({m: c for m, c in expand(small) if c}, d, small)
    return left == right


def circulant_det(x):
    """Exact determinant of the circulant with first column x, by Bareiss.

    Entry (r, c) is x_{(r-c) mod n}, as in leibniz_expansion. Fraction-free
    elimination (E. H. Bareiss, Math. Comp. 22, 1968): every division is
    exact, so the arithmetic stays in integers.
    """
    n = len(x)
    if n < 1:
        raise ValueError("need at least one entry")
    a = [[x[(r - c) % n] for c in range(n)] for r in range(n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                a[r][c] = (a[r][c] * pivot - a[r][k] * a[k][c]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


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


def multinomial_star(p: int, k) -> int:
    """p! / (1^k1 k1! 2^k2 k2! ... p^kp kp!) for a multiplicity list k of length p."""
    k = list(k)
    if len(k) != p:
        raise ValueError("need exactly p multiplicities")
    if sum((i + 1) * ki for i, ki in enumerate(k)) != p:
        raise ValueError("multiplicities must weight-sum to p")
    denom = 1
    for i, ki in enumerate(k, start=1):
        denom *= i ** ki * factorial(ki)
    q, r = divmod(factorial(p), denom)
    assert r == 0
    return q


def lemma2_check(p: int, bound: int, trials: int = 50, seed: int = 0) -> bool:
    """Confirm the symmetric-function lattice-sum reduction on random tables.

    The strictly increasing sum of a symmetric integer function h over
    [1, bound]^p must match the partition-weighted sum over unrestricted
    lower-dimensional lattices. Exact integer comparison.
    """
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
