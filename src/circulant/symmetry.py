# Shift/multiplier symmetries of the coefficient set: the valid vectors, one
# canonical vector and one sign map per super orbit, and the orbit-counting
# formulas.

from . import coeff_engine
from .exactmath import binomial, divisors, euler_phi, mobius, prime_factors


def _vectors(n: int, top=None):
    """Yield the multiplicity vectors with sum N and weighted sum = 0 mod N,
    in lexicographic order, from one residue-solved recursion.

    With `top`, only those whose entry 0 is `top` and whose every entry is
    at most `top`.
    """
    if n == 1:
        if top in (None, 1):
            yield (1,)
        return
    cap = n if top is None else top
    vec = [0] * n

    def rec(pos, remaining, wsum, lo):
        if pos == n - 2:
            # with v here and the rest last, the gate reads
            # wsum + (N-2)v + (N-1)(remaining-v) = 0, so v = wsum + (N-1)remaining
            # mod N; v >= lo keeps the last entry, remaining - v, at most cap
            for v in range(lo + (wsum + (n - 1) * remaining - lo) % n,
                           (cap if cap < remaining else remaining) + 1, n):
                vec[pos] = v
                vec[pos + 1] = remaining - v
                yield tuple(vec)
            return
        room = cap * (n - 2 - pos)  # the most the positions after the next can hold
        for v in range(lo, (cap if cap < remaining else remaining) + 1):
            vec[pos] = v
            rest = remaining - v
            if rest:
                yield from rec(pos + 1, rest, wsum + pos * v, rest - room if rest > room else 0)
            elif (wsum + pos * v) % n == 0:
                # the mass is used up, so every later entry is 0
                yield tuple(vec[:pos + 1]) + (0,) * (n - 1 - pos)

    yield from rec(0, n, 0, 0 if top is None else top)


def valid_vectors(n: int):
    """All multiplicity vectors with sum N and weighted sum = 0 mod N."""
    return list(_vectors(n))


def canonical_vectors(n: int):
    """The lexicographically largest member of every super orbit, in
    lexicographic order.

    A shift moves any entry to position 0, so each orbit's largest member
    has its largest entry there: only the valid vectors with every entry at
    most entry 0 are generated, and one is kept when no group image of it
    is larger (orderly generation; R. C. Read, Ann. Discrete Math. 2, 1978).
    """
    table = coeff_engine.group_table(n)
    return tuple(m for top in range(1, n + 1) for m in _vectors(n, top)
                 if all(image(m) <= m for _, _, image in table))


def orbit_signs(m):
    """{member: sign} over the super orbit of m, with coeff(member) =
    sign * coeff(m), from one pass over the group table.

    The first sign reached for a member wins. A member reached with both
    signs puts the orbit's value at 0, so any sign times it is right.
    """
    signs = {}
    for _, sign, image in coeff_engine.group_table(len(m)):
        signs.setdefault(image(m), sign)
    return signs


def _exact_div(total: int, denom: int) -> int:
    """total / denom, asserting the counting formula left no remainder."""
    count, rem = divmod(total, denom)
    assert rem == 0
    return count


def count_solutions_F(n: int) -> int:
    total = 0
    for d in divisors(n):
        total += euler_phi(n // d) * binomial(2 * d, d)
    return _exact_div(total, 2 * n)


def additive_multiplet_count_g(n: int, size: int) -> int:
    """Number of additive multiplets with exactly `size` members."""
    if size < 1:
        raise ValueError("size must be >= 1")
    if n % size != 0 or (n - size) % 2 != 0:
        return 0
    total = 0
    for d in divisors(size):
        total += ((-1) ** (size + d)) * mobius(size // d) * binomial(2 * d, d)
    return _exact_div(total * (1 + (-1) ** (n - size)), 4 * size * size)


def _split_prime_form(n: int):
    """Return (p, doubled?) for n = p or n = 2p with p an odd prime."""
    if n > 2 and prime_factors(n) == [(n, 1)]:
        return n, False
    if n > 4 and n % 2 == 0 and prime_factors(n // 2) == [(n // 2, 1)]:
        return n // 2, True
    raise ValueError("closed-form count only derived for N = p or N = 2p, p odd prime")


def supermultiplet_count(n: int) -> int:
    """Closed-form number of super-multiplets for N = p or 2p (p odd prime)."""
    p, doubled = _split_prime_form(n)
    total = count_solutions_F(n)
    if not doubled:
        total += p - 1  # (p-1) copies of the single full-shift-invariant set
        for d in divisors(p - 1):
            if d == 1:
                continue
            m = (p - 1) // d
            total += euler_phi(d) * p * binomial(2 * m, m)
        denom = p * (p - 1)
    else:
        # the odd-d terms are half-integers, so this branch sums each term doubled
        total = 2 * total + 4 * (p - 1)  # the two alternating-support sets
        for d in divisors(p - 1):
            if d == 1:
                continue
            m = (p - 1) // d
            if d == 2:
                k2 = 2 * binomial(2 * p, p)
            elif d % 2 == 0:
                k2 = 2 * (2 * p * binomial(4 * m, 2 * m)
                          - (p - 1) * binomial(4 * m + 1, 2 * m + 1))
            else:
                k2 = (4 * p - 1) * binomial(4 * m, 2 * m) \
                    - 2 * (p - 1) * binomial(4 * m + 1, 2 * m + 1) \
                    + binomial(2 * m, m)
            total += euler_phi(d) * p * k2
        denom = 4 * p * (p - 1)  # twice the 2p(p-1) of the undoubled sum
    return _exact_div(total, denom)


def _fixed_vector_count(n: int, perm) -> int:
    """Valid vectors fixed by a group_action permutation, by dynamic
    programming over its position cycles."""
    seen = [False] * n
    cycles = []  # (length, position-sum)
    for s in range(n):
        if not seen[s]:
            length, psum, t = 0, 0, s
            while not seen[t]:
                seen[t] = True
                length += 1
                psum += t
                t = perm[t]
            cycles.append((length, psum))
    # choose one value per cycle; track (total mass, weighted residue)
    states = {(0, 0): 1}
    for length, psum in cycles:
        nxt = {}
        for (mass, res), ways in states.items():
            v = 0
            while mass + length * v <= n:
                key = (mass + length * v, (res + psum * v) % n)
                nxt[key] = nxt.get(key, 0) + ways
                v += 1
        states = nxt
    return states.get((n, 0), 0)


def count_super_orbits(n: int) -> int:
    """Super-multiplet count by averaging fixed-vector counts over the group."""
    table = coeff_engine.group_table(n)
    return _exact_div(sum(_fixed_vector_count(n, perm) for perm, _, _ in table), len(table))
