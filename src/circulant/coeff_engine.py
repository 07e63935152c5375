# Exact evaluation of one expansion coefficient of a circulant determinant.
#
# det of the N x N circulant with first column x_0..x_{N-1} expands as
# sum over sorted index multisets [a_0..a_{N-1}] of C_[a] * x_{a_0}...x_{a_{N-1}}.
# This module computes C_[a] by the closed-form partition sum, entirely in
# integer arithmetic.

import math
from bisect import bisect_right
from functools import lru_cache
from operator import itemgetter

from .exactmath import binomial, factorial


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


def coeff_all_equal(value: int, n: int) -> int:
    """Coefficient of x_value^N: (-1)^(value*(N-1))."""
    return -1 if (value * (n - 1)) % 2 else 1


# The most states each partition-sum DP may take, timed cold with Python
# 3.11 on one core. Over labeled subsets 2^18: every index distinct at
# N = 21, 1.4-1.6 s and 22 MB, and each further label about triples the
# time. Over sub-multisets a state costs more, as each pushes to more
# parts: 2^15, where the worst shapes measured at M0 = M1 = 3 (seven values
# three times and one once, or five twice and seven once) took 3-5 s and
# 23-25 MB, and 4^8 (eight values three times, M0 = 6) took 12 s.
MAX_PARTITION_STATES = 1 << 18
MAX_CONTENT_STATES = 1 << 15


class StateLimitError(ValueError):
    """A partition sum whose DP would take more states than its limit:
    MAX_PARTITION_STATES over labeled subsets, MAX_CONTENT_STATES over
    sub-multisets."""


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
    set partitions Q of T with sum_q x_q = X. Only parts with x <= M1 can
    contribute, as X only grows. Every x_q is -trace(q) mod N, so
    sum_q x_q = -trace(T) mod N, and X <= M1 < N leaves one X per T:
    X_T = -trace(T) mod N. So G_T is one integer, G_T[X_T], T adds nothing
    when X_T > M1, and the closing factor depends on T only through
    (|T|, X_T).

    Two DPs build G, and the tail's shape picks one. Over labeled subsets
    there are 2^p states; over contents, a count per distinct value, there
    are prod_v (m_v+1), which is 2^p when every value is distinct and p+1
    when one value fills the tail. A labeled state costs less, and the
    labeled DP measured faster up to about 3 times the content DP's states
    (p = 6..16, M1 = 0..3), so it runs when 2^p <= 3 prod_v (m_v+1).
    Above the picked DP's limit of states it raises StateLimitError before
    building anything.
    """
    contents = math.prod(rest.count(v) + 1 for v in set(rest))
    by_label = 1 << len(rest) <= 3 * contents
    states, limit = ((1 << len(rest), MAX_PARTITION_STATES) if by_label
                     else (contents, MAX_CONTENT_STATES))
    if states > limit:
        raise StateLimitError("the partition sum needs %d states, above the limit of %d"
                              % (states, limit))
    if by_label:
        return _partition_sum_by_label(rest, n, m0, m1)
    return _partition_sum_by_content(rest, n, m0, m1)


@lru_cache(maxsize=None)
def _part_weight(n, z, x):
    """(-N)(z-1)! C(x+z-1, z-1), the weight of one part of size z with that x."""
    return -n * factorial(z - 1) * binomial(x + z - 1, z - 1)


def _partition_sum_by_label(rest, n, m0, m1):
    """_partition_sum with G indexed by the subsets T of the labels.

    Each label is one bit, each subset of the labels one bitmask. Only a
    subset with X_T <= M1 can be a live part or be reached by a partition
    into live parts, so one ascending list of those subsets serves as both.
    G_T is pulled from the submasks r of T without T's lowest bit, as the
    sum of w(T^r) * G_r: the part T^r holds that lowest label, so each
    partition is counted once, and a part never overlaps the rest of its
    partition. A pulled part needs x <= X_T, tested as X_r <= X_T: when
    2*M1 >= N, a part with x > X_T can leave X_r = X_T - x + N <= M1, and
    the partition's x would then sum to X_T + N. G_T is summed into one
    bucket per (|T|, X_T), and each bucket is multiplied by its closing
    factor once. Everything stays in integers.
    """
    p = len(rest)
    # X of every subset, bit i standing for rest[i]
    xs = [0]
    for v in rest:
        xs += [(x - v) % n for x in xs]
    # the part weight w and G of each subset with X <= M1, zero elsewhere;
    # a submask comes before its set, so the ascending walk meets every G_r
    # it pulls already summed
    w = [0] * (1 << p)
    g = [0] * (1 << p)
    g[0] = 1
    buckets = [0] * ((p + 1) * (m1 + 1))
    for t in [t for t, x in enumerate(xs) if x <= m1][1:]:
        xt = xs[t]
        z = t.bit_count()
        w[t] = gt = _part_weight(n, z, xt)  # r = 0: T as one part
        rest_bits = t & (t - 1)
        r = rest_bits
        while r:
            gr = g[r]
            if gr and xs[r] <= xt:
                gt += w[t ^ r] * gr
            r = (r - 1) & rest_bits
        g[t] = gt
        buckets[z * (m1 + 1) + xt] += gt
    total = 0
    for i, gsum in enumerate(buckets):
        if gsum:
            z, x = divmod(i, m1 + 1)
            total += gsum * factorial(p - z) * binomial(n - m0 - 1 - x - z, m1 - x)
    return total


def _partition_sum_by_content(rest, n, m0, m1):
    """_partition_sum with G indexed by contents: G_T depends on T only
    through its content c, a count per distinct value of `rest`, and
    prod_v C(m_v, c_v) labeled T have content c.

    The live parts are found once, from the sub-contents and their traces.
    G is built by pushing forward from each nonzero content c, smallest
    first: a live part b extends c when c + b fits inside the counts,
    X_c + x_b <= M1 and b's first value is at most c's, so b is the part
    that holds the first copy of the first value of c + b, and each
    partition is reached once. Its labels can be chosen in
    prod_v C(c_v+b_v-d_v, b_v-d_v) ways, d_v = [v = first(b)]. Contents no
    partition into live parts reaches are never visited. Everything stays
    in integers.
    """
    values = sorted(set(rest))
    counts = [rest.count(v) for v in values]
    p = len(rest)
    choose = [[binomial(k, j) for j in range(k + 1)] for k in range(max(counts, default=0) + 1)]
    # every sub-content with its trace, in lexicographic order: the position
    # of a content is linear in it, so c + b sits at pos(c) + pos(b)
    subs = [((), 0)]
    for v, k in zip(values, counts):
        subs = [(b + (j,), t + j * v) for b, t in subs for j in range(k + 1)]
    # (first value, x, weight, support, position) of each live part, by first value
    live = []
    for j, (b, t) in enumerate(subs[1:], 1):
        x = -t % n
        if x <= m1:
            z = sum(b)
            support = [(v, k) for v, k in enumerate(b) if k]
            live.append((support[0][0], x, _part_weight(n, z, x), support, j))
    live.sort(key=lambda part: part[0])
    firsts = [part[0] for part in live]
    g = {0: 1}
    total = 0
    for i, (c, t) in enumerate(subs):
        gc = g.pop(i, 0)
        if not gc:
            continue
        xc = -t % n
        first = next((v for v, k in enumerate(c) if k), len(c))
        if i:
            size = sum(c)
            weight = factorial(p - size)
            for k, kc in zip(counts, c):
                weight *= choose[k][kc]
            total += weight * gc * binomial(n - m0 - 1 - xc - size, m1 - xc)
        room = m1 - xc
        for f, x, w, support, j in live[:bisect_right(firsts, first)]:
            if x > room:
                continue
            for v, kb in support:
                k = c[v] + kb
                if k > counts[v]:
                    break
                w *= choose[k - 1][kb - 1] if v == f else choose[k][kb]
            else:
                g[i + j] = g.get(i + j, 0) + w * gc
    return total


def coeff_theorem3(a) -> int:
    """C_[a] via the labeled partition sum, evaluated by a DP over labeled
    subsets or over sub-multisets, whichever the tail's shape favours."""
    a = as_index_set(a)
    return _theorem3(a, multiplicities(a))


def _theorem3(a, m):
    """coeff_theorem3 of an index set already sorted and validated, with its
    multiplicity vector m."""
    n = len(a)
    if sum(a) % n != 0:
        return 0
    if a[0] == a[-1]:
        return coeff_all_equal(a[0], n)
    m0, m1 = m[0], m[1]
    big = a[m0 + m1:]
    # condition 8 with two distinct values present forces at least one index >= 2
    assert big, "non-constant index set satisfying the residue gate has an index >= 2"
    # one index >= 2 is pinned; N - M0 - 1 >= M1 because it exists
    brace = factorial(n - m0 - 1) // factorial(m1) + _partition_sum(big[:-1], n, m0, m1)
    value = ((-1) ** (n - m0 - 1)) * n * brace
    denom = math.prod(map(factorial, m[2:]))
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
    return len(a) // math.gcd(*multiplicities(a))


def coprime_residues(n: int):
    """Multipliers of the group: the units of Z_N (just 1 when N = 1)."""
    return [b for b in range(1, max(n, 2)) if math.gcd(b, n) == 1]


def group_action(n: int, shift: int, mult: int):
    """The index map x -> mult*x + shift as (position permutation, sign).

    It sends a multiplicity vector m to tuple(m[p] for p in perm), and the
    image's coefficient is sign * coeff(m).
    """
    inv = pow(mult, -1, n)
    perm = tuple(((i - shift) * inv) % n for i in range(n))
    return perm, -1 if (shift * (n - 1)) % 2 else 1


def gather(perm):
    """The map m -> tuple(m[p] for p in perm), built in C by itemgetter.

    itemgetter of one index returns a scalar; the one permutation of one
    position is the identity, so `tuple` stands in for it.
    """
    return itemgetter(*perm) if len(perm) > 1 else tuple


@lru_cache(maxsize=None)
def group_table(n: int):
    """(perm, sign, gather(perm)) of group_action for every shift and every
    coprime multiplier; the identity comes first."""
    mults = coprime_residues(n)
    actions = (group_action(n, shift, mult) for shift in range(n) for mult in mults)
    return tuple((perm, sign, gather(perm)) for perm, sign in actions)


@lru_cache(maxsize=None)
def _pair_elements(n: int):
    """For each position u, one (u + d, place) per unit d: place is where
    group_table(n) holds the element whose image reads m at u and u + d in
    its entries 0 and 1, mult = 1/d and shift = -u*mult."""
    mults = coprime_residues(n)
    return tuple(tuple(((u + pow(mult, -1, n)) % n, -u * mult % n * len(mults) + j)
                       for j, mult in enumerate(mults)) for u in range(n))


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
    pairs = _pair_elements(n)
    # fewest indices >= 2, then fewest 1s, then the smallest sorted index
    # tuple, which is the largest multiplicity vector; the first image in
    # table order wins ties.
    # The first two fields read only an image's entries 0 and 1, at
    # (u, u + d) with d = 1/mult, so they are ranked as one integer per
    # element (M0+M1 first, then fewer 1s, as M1 <= N). A pair with
    # m[u] = 0 ranks below any pair starting at u + d, so u runs over the
    # support only, and whole images are built only for the top elements
    heads = [((m[u] + m[w]) * (n + 1) - m[w], i) for u in range(n) if m[u] for w, i in pairs[u]]
    top = max(heads)[0]
    picks = sorted(i for head, i in heads if head == top)
    image, sign = max(((table[i][2](m), table[i][1]) for i in picks), key=itemgetter(0))
    return indices_from_multiplicities(image), sign


def coefficient(a) -> int:
    return coefficient_with_path(a)[0]


def coefficient_with_path(a):
    """(C_[a], path, rep, sign): the value sign * coeff_theorem3(rep) at the
    reduce_representative image (rep, sign) of [a], and the path that names
    it: residue gate, all-equal, or the partition sum. The group keeps the
    gate (b*sum + N*k = b*sum mod N, b a unit) and constant index sets, so
    rep takes the branch of coeff_theorem3 that [a] would, and the path is
    read from rep. reduce_representative validates [a] and returns rep
    sorted, so rep is evaluated without a second check."""
    rep, sign = reduce_representative(a)
    if sum(rep) % len(rep):
        path = "residue-gate"
    elif rep[0] == rep[-1]:
        path = "all-equal"
    else:
        path = "partition-sum"
    return sign * _theorem3(rep, multiplicities(rep)), path, rep, sign
