# Exact evaluation of one expansion coefficient of a circulant determinant.
#
# det of the N x N circulant with first column x_0..x_{N-1} expands as
# sum over sorted index multisets [a_0..a_{N-1}] of C_[a] * x_{a_0}...x_{a_{N-1}}.
# This module computes C_[a] by the closed-form partition sum, entirely in
# integer arithmetic.

import math
from functools import lru_cache
from itertools import compress, product
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


def coeff_all_equal(k: int, n: int) -> int:
    """Coefficient of x_k^N: (-1)^(k*(N-1)). It is also the sign of the
    shift by k, which maps x_0^N, of coefficient 1, to x_k^N."""
    return -1 if (k * (n - 1)) % 2 else 1


# The most pairs of a DP state and a sub-state it pulls from that a partition
# sum may walk. Timed cold with Python 3.11 on one core at M0 = 2 and
# M1 = 1, 3, 10: 18 distinct labels (3^18 pairs) took 1.3, 2.4 and 9.1 s;
# eleven values twice (6^11 pairs) took 1.7-1.9, 3.6-4.1 and 8.8-10 s.
MAX_PARTITION_STEPS = 3 ** 18


class StateLimitError(ValueError):
    """A partition sum whose DP would walk more than MAX_PARTITION_STEPS
    pairs of a state and a sub-state."""


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

    One DP builds G, pulling each state with X <= M1 from its sub-states,
    on a lattice the tail's shape picks: 2^p labeled subsets with 3^p pairs
    of a state and a sub-state, or prod_v (m_v+1) contents, a count per
    distinct value, with prod_v C(m_v+2, 2) pairs (p + 1 contents when one
    value fills the tail). A labeled step costs less, and the labeled DP
    measured faster up to about 3 times as many states, so it runs when
    2^p <= 3 prod_v (m_v+1). Above MAX_PARTITION_STEPS pairs it raises
    StateLimitError before building anything.
    """
    counts = [rest.count(v) for v in set(rest)]
    by_label = 1 << len(rest) <= 3 * math.prod(k + 1 for k in counts)
    steps = 3 ** len(rest) if by_label else math.prod(math.comb(k + 2, 2) for k in counts)
    if steps > MAX_PARTITION_STEPS:
        raise StateLimitError("the partition sum needs %d steps, above the limit of %d"
                              % (steps, MAX_PARTITION_STEPS))
    if by_label:
        return _partition_sum_by_label(rest, n, m0, m1)
    return _partition_sum_by_content(rest, n, m0, m1)


@lru_cache(maxsize=None)
def _part_weight(n, z, x):
    """(-N)(z-1)! C(x+z-1, z-1), the weight of one part of size z with that x."""
    return -n * factorial(z - 1) * binomial(x + z - 1, z - 1)


def _close(buckets, p, n, m0, m1):
    """The partition sum from bucket z*(M1+1) + x, the sum of G_T over the T
    with |T| = z and X_T = x, times the closing factor those T share."""
    total = 0
    for i, gsum in enumerate(buckets):
        if gsum:
            z, x = divmod(i, m1 + 1)
            total += gsum * factorial(p - z) * binomial(n - m0 - 1 - x - z, m1 - x)
    return total


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
    bucket per (|T|, X_T) for _close. Everything stays in integers.
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
    return _close(buckets, p, n, m0, m1)


def _partition_sum_by_content(rest, n, m0, m1):
    """_partition_sum with G indexed by contents: G_T depends on T only
    through its content c, a count per distinct value of `rest`, and
    F(m)/(F(c) F(m-c)) labeled T have content c, F(c) = prod_v c_v!.

    Each content is one mixed-radix number, a digit per distinct value in
    the order itertools.product counts them, and it is pulled as in the
    labeled DP. The part b = c - r that holds one copy of c's first value f
    runs over the sub-contents r of c - e_f with X_r <= X_c, and the labels
    of such a split can be chosen in F(c)/(c_f F(r)) * b_f/F(b) ways. So
    H_c = G_c F(m)/F(c), with H_0 = F(m), has c_f H_c = sum_r H_r w'(b),
    an exact division, where w'(b) = w(b) b_f/F(b) is (-N) C(x+z-1, z-1)
    times a multinomial. H_c F(m)/F(m-c), F(m) G_c times the number of T
    with content c, is summed into one bucket per (|c|, X_c), so a bucket
    divided by F(m), exactly, is the labeled DP's. Everything stays in
    integers.
    """
    values = sorted(set(rest))
    counts = [rest.count(v) for v in values]
    p = len(rest)
    fm = math.prod(map(factorial, counts))
    # X of every content, and the place value of each digit
    xs, steps = [0], []
    for v, k in zip(values, counts):
        steps = [step * (k + 1) for step in steps] + [1]
        xs = [(x - j * v) % n for x in xs for j in range(k + 1)]
    # w' and H of each content with X <= M1, zero elsewhere; a sub-content
    # comes before its content
    w = [0] * len(xs)
    h = [0] * len(xs)
    h[0] = fm
    buckets = [0] * ((p + 1) * (m1 + 1))
    live = compress(enumerate(product(*[range(k + 1) for k in counts])), map(m1.__ge__, xs))
    next(live)  # the empty content, whose H is set
    for i, c in live:
        xc = xs[i]
        # the sub-contents r of c - e_f: r_f below c_f, every other digit up to c_v
        rs = None
        for step, k in zip(steps, c):
            if k:
                if rs is None:
                    cf = k
                    rs = range(0, k * step, step)
                else:
                    rs = [r + j * step for j in range(k + 1) for r in rs]
        z = sum(c)
        w[i] = _part_weight(n, z, xc) * cf // math.prod(map(factorial, c))
        hc = sum([w[i - r] * h[r] for r in rs if xs[r] <= xc]) // cf
        h[i] = hc
        buckets[z * (m1 + 1) + xc] += hc * math.prod(map(math.perm, counts, c))
    return _close([hsum // fm for hsum in buckets], p, n, m0, m1)


def coeff_theorem3(a) -> int:
    """C_[a] via the labeled partition sum, evaluated by a DP over labeled
    subsets or over sub-multisets, whichever the tail's shape favours."""
    return _theorem3(multiplicities(as_index_set(a)))[0]


def _theorem3(m):
    """(value, path) of the closed form at the index set whose multiplicity
    vector is m, the one place a coefficient's case is decided: 0 off the
    residue gate, the sign of x_k^N when k fills the set, else the
    partition sum."""
    n = len(m)
    a = indices_from_multiplicities(m)
    if sum(a) % n:
        return 0, "residue-gate"
    if a[0] == a[-1]:
        return coeff_all_equal(a[0], n), "all-equal"
    m0, m1 = m[0], m[1]
    big = a[m0 + m1:]
    # condition 8 with two distinct values present forces at least one index >= 2
    assert big, "non-constant index set satisfying the residue gate has an index >= 2"
    # the largest index >= 2 is pinned (N - M0 - 1 >= M1 as it exists).
    # Pinning any other index >= 2 gave the same sum on all 3,460 canonical
    # vectors at N = 4..12 and 147,028 random sets at N = 13..26: measured,
    # not derived; test_partition_sum_is_the_same_for_every_pin checks it
    brace = factorial(n - m0 - 1) // factorial(m1) + _partition_sum(big[:-1], n, m0, m1)
    value = ((-1) ** (n - m0 - 1)) * n * brace
    denom = math.prod(map(factorial, m[2:]))
    assert value % denom == 0
    return value // denom, "partition-sum"


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


@lru_cache(maxsize=None)
def coprime_residues(n: int):
    """Multipliers of the group: the units of Z_N (just 1 when N = 1)."""
    return tuple(b for b in range(1, max(n, 2)) if math.gcd(b, n) == 1)


def group_action(n: int, shift: int, mult: int):
    """The index map x -> mult*x + shift as (position permutation, sign).

    It sends a multiplicity vector m to tuple(m[p] for p in perm), and the
    image's coefficient is sign * coeff(m).
    """
    inv = pow(mult, -1, n)
    perm = tuple(((i - shift) * inv) % n for i in range(n))
    return perm, coeff_all_equal(shift, n)


@lru_cache(maxsize=None)
def group_table(n: int):
    """(perm, sign, image) of every element, by shift and then by coprime
    multiplier, so the identity comes first. image(m) is tuple(m[p] for p
    in perm), built in C by itemgetter; itemgetter of one index returns a
    scalar, and the one element at N = 1 is the identity, so `tuple` is it."""
    actions = [group_action(n, shift, mult) for shift in range(n) for mult in coprime_residues(n)]
    return tuple((perm, sign, itemgetter(*perm) if n > 1 else tuple) for perm, sign in actions)


def reduce_representative(a):
    """Cheapest-to-evaluate image of [a] under shifts and coprime multipliers.

    Returns (index set, sign) with coeff(a) == sign * coeff(image).
    """
    a = as_index_set(a)
    n = len(a)
    m = multiplicities(a)
    if max(m) == 1:
        # every index distinct: every image is m itself, so the identity wins
        return a, 1
    # fewest indices >= 2, then fewest 1s, then the smallest sorted index
    # tuple, which is the largest multiplicity vector; the first image in
    # group_table order wins ties. Each element is named by the line its
    # image reads: entry k is m[(u + k*d) mod N], d = 1/mult running over
    # the units as mult does, and u = -shift*d. The first two fields read
    # entries 0 and 1 only and rank as one integer, (M0+M1)*N + M0: more
    # 0s and 1s, then fewer 1s, as 1 <= M0 <= N. A line with m[u] = 0
    # ranks below the line starting at u + d, so u runs over the support
    mm = m + m  # mm[u + d] = m[(u + d) mod N]
    heads = [((mu + mm[u + d]) * n + mu, u, d)
             for u, mu in enumerate(m) if mu for d in coprime_residues(n)]
    top = max(heads)[0]
    lines = [(u, d) for head, u, d in heads if head == top]
    # tied lines are compared entry by entry; once the entries read add up
    # to N, every later entry is 0 on every tied line
    u, d = lines[0]
    left = n - m[u] - mm[u + d]
    k = 2
    while left and len(lines) > 1:
        column = [m[(u + k * d) % n] for u, d in lines]
        best = max(column)
        lines = [line for line, v in zip(lines, column) if v == best]
        left -= best
        k += 1
    # a full tie goes to the first line in group_table order, by its
    # shift = -u*mult and then by mult; only the winner maps the indices,
    # with group_action's sign
    shift, mult = min((-u * mult % n, mult) for u, d in lines for mult in [pow(d, -1, n)])
    return tuple(sorted([(mult * x + shift) % n for x in a])), coeff_all_equal(shift, n)


def coefficient(a) -> int:
    return coefficient_with_path(a)[0]


def coefficient_with_path(a):
    """(C_[a], path, rep, sign): sign times the closed form at the
    reduce_representative image (rep, sign) of [a], and the path that
    evaluation took, which is the path [a] itself takes
    (test_path_is_orbit_invariant checks every index set with N <= 7).
    reduce_representative validates [a], so rep is not checked again."""
    rep, sign = reduce_representative(a)
    value, path = _theorem3(multiplicities(rep))
    return sign * value, path, rep, sign
