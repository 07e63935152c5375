# Exact evaluation of one expansion coefficient of a circulant determinant.
#
# det of the N x N circulant with first column x_0..x_{N-1} expands as
# sum over sorted index multisets [a_0..a_{N-1}] of C_[a] * x_{a_0}...x_{a_{N-1}}.
# This module computes C_[a] by the closed-form partition sum, entirely in
# integer arithmetic.

import itertools
import math
from functools import lru_cache

from .exactmath import binomial, factorial, mod_inverse


def as_index_set(a):
    """Canonical sorted index tuple, validated against its dimension."""
    a = tuple(sorted(a))
    n = len(a)
    if n < 1:
        raise ValueError("empty index set")
    if any(x < 0 or x >= n for x in a):
        raise ValueError("indices must lie in [0, N-1]")
    return a


def multiplicities(a):
    """Multiplicity vector M_0..M_{N-1} of a sorted index set."""
    n = len(a)
    m = [0] * n
    for x in a:
        m[x] += 1
    return tuple(m)


def indices_from_multiplicities(m):
    out = []
    for value, count in enumerate(m):
        out.extend([value] * count)
    return tuple(out)


def satisfies_condition_8(a) -> bool:
    a = as_index_set(a)
    return sum(a) % len(a) == 0


def coeff_all_equal(value: int, n: int) -> int:
    """Coefficient of x_value^N: (-1)^(value*(N-1))."""
    return -1 if (value * (n - 1)) % 2 else 1


def _shape(a):
    """Split a sorted index set into (N, M, M0, M1, A-list of indices >= 2)."""
    a = as_index_set(a)
    m = multiplicities(a)
    return len(a), m, m[0], m[1] if len(a) > 1 else 0, [x for x in a if x >= 2]


def _partition_sum(rest, n, m0, m1):
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
        g.append(row)
        size = sum(c)
        weight = factorial(p - size)
        for k, kc in zip(counts, c):
            weight *= choose[k][kc]
        total += weight * sum(gx * binomial(n - m0 - 1 - xsum - size, m1 - xsum)
                              for xsum, gx in enumerate(row) if gx)
    return total


def coeff_theorem3(a) -> int:
    """C_[a] via the labeled partition sum, evaluated by a sub-multiset DP."""
    a = as_index_set(a)
    n = len(a)
    if sum(a) % n != 0:
        return 0
    if a[0] == a[-1]:
        return coeff_all_equal(a[0], n)
    _, m, m0, m1, big = _shape(a)
    # condition 8 with two distinct values present forces at least one index >= 2
    assert big, "non-constant index set satisfying the residue gate has an index >= 2"
    # one index >= 2 is pinned; N - M0 - 1 >= M1 because it exists
    brace = factorial(n - m0 - 1) // factorial(m1) + _partition_sum(big[:-1], n, m0, m1)
    value = ((-1) ** (n - m0 - 1)) * n * brace
    denom = 1
    for q in range(2, n):
        denom *= factorial(m[q])
    assert value % denom == 0
    return value // denom


def corollary6_shapes(n: int):
    """The structural zeros 0^M0 1^M1 A1 A2 A3 of corollary 6, as index sets.

    Branch 1 (N | (M1+2)(M1+1) = rN): A3 = M0+2+r, A1+A2 = N+1-r, A2 < N-M1.
    Branch 2 (N | (M0+2)(M0+1) = sN): A1 = M0+2-s, A2+A3 = N+1+s, A2 >= N-M1.
    Both keep 2 <= A1 <= A2 <= A3 <= N-1; the indices sum to 2N, so the
    residue gate holds, and the A2 ranges keep the branches disjoint.
    """
    for m0 in range(1, n - 3):
        m1 = n - 3 - m0
        t1, t0 = (m1 + 2) * (m1 + 1), (m0 + 2) * (m0 + 1)
        triples = []
        if t1 % n == 0:
            triples += [(n + 1 - t1 // n - a2, a2, m0 + 2 + t1 // n) for a2 in range(n - m1)]
        if t0 % n == 0:
            triples += [(m0 + 2 - t0 // n, a2, n + 1 + t0 // n - a2) for a2 in range(n - m1, n)]
        for a1, a2, a3 in triples:
            if 2 <= a1 <= a2 <= a3 <= n - 1:
                yield (0,) * m0 + (1,) * m1 + (a1, a2, a3)


def divisibility_bound(a) -> int:
    """N/d with d = gcd of the multiplicities; the coefficient is 0 mod this."""
    a = as_index_set(a)
    n = len(a)
    d = 0
    for count in multiplicities(a):
        d = math.gcd(d, count)
    return n // d


def coprime_residues(n: int):
    """Multipliers of the group: the units of Z_N (just 1 when N = 1)."""
    return [b for b in range(1, max(n, 2)) if math.gcd(b, n) == 1]


def group_action(n: int, shift: int, mult: int):
    """The index map x -> mult*x + shift as (position permutation, sign).

    It sends a multiplicity vector m to tuple(m[p] for p in perm), and the
    image's coefficient is sign * coeff(m).
    """
    inv = mod_inverse(mult, n)
    perm = tuple(((i - shift) * inv) % n for i in range(n))
    return perm, -1 if (shift * (n - 1)) % 2 else 1


@lru_cache(maxsize=None)
def group_table(n: int, shifts_only: bool = False):
    """group_action (perm, sign) of every shift and every coprime multiplier.

    With shifts_only the table is the shift subgroup (mult = 1) alone.
    """
    mults = [1] if shifts_only else coprime_residues(n)
    return tuple(group_action(n, shift, mult) for shift in range(n) for mult in mults)


def reduce_representative(a):
    """Cheapest-to-evaluate image of [a] under shifts and coprime multipliers.

    Returns (index set, sign) with coeff(a) == sign * coeff(image).
    """
    a = as_index_set(a)
    n = len(a)
    if n == 1:
        return a, 1
    m = multiplicities(a)
    table = group_table(n)
    # fewest indices >= 2, then fewest 1s, then the smallest sorted index
    # tuple, which is the largest multiplicity vector; the first image wins ties.
    # The first two fields read only an image's entries 0 and 1, so they are
    # ranked as one integer (M0+M1 first, then fewer 1s, as M1 <= N), and
    # whole images are built only for the elements that reach the top
    heads = [(m[perm[0]] + m[perm[1]]) * (n + 1) - m[perm[1]] for perm, _ in table]
    top = max(heads)
    images = ((tuple(m[p] for p in perm), sign)
              for (perm, sign), head in zip(table, heads) if head == top)
    image, sign = max(images, key=lambda t: t[0])
    return indices_from_multiplicities(image), sign


def coefficient(a) -> int:
    return coefficient_with_path(a)[0]


def coefficient_with_path(a):
    """(C_[a], path, rep, sign): the value, the path that gave it (residue
    gate, all-equal, or the partition sum at the image), and the
    reduce_representative image (rep, sign) of [a]."""
    a = as_index_set(a)
    n = len(a)
    rep, sign = reduce_representative(a)
    if sum(a) % n != 0:
        return 0, "residue-gate", rep, sign
    if a[0] == a[-1]:
        return coeff_all_equal(a[0], n), "all-equal", rep, sign
    return sign * coeff_theorem3(rep), "partition-sum", rep, sign
