# Shift/multiplier symmetries of the coefficient set, multiplet
# classification, and the orbit-counting formulas.

from collections import namedtuple

from . import coeff_engine
from .coeff_engine import coprime_residues
from .exactmath import binomial, divisors, euler_phi, mobius, prime_factors

GroupElement = namedtuple("GroupElement", ["shift", "mult"])

# orbit of the shift group (additive) or of the whole group (super); no
# coefficient is computed here, expansion.expand supplies the values
MultipletRecord = namedtuple(
    "MultipletRecord", ["kind", "representative", "n", "members", "conflict"])


def compose(g: GroupElement, h: GroupElement, n: int) -> GroupElement:
    """The element acting as h first and then g."""
    return GroupElement((g.mult * h.shift + g.shift) % n, (g.mult * h.mult) % n)


def act(g: GroupElement, m):
    """Apply the index map x -> mult*x + shift to the multiplicity vector m."""
    perm, _ = coeff_engine.group_action(len(m), g.shift, g.mult)
    return tuple(m[p] for p in perm)


def valid_vectors(n: int):
    """All multiplicity vectors with sum N and weighted sum = 0 mod N."""
    out = []
    vec = [0] * n

    def rec(pos, remaining, wsum):
        if pos == n - 1:
            vec[pos] = remaining
            if (wsum + pos * remaining) % n == 0:
                out.append(tuple(vec))
            return
        for v in range(remaining + 1):
            vec[pos] = v
            rec(pos + 1, remaining - v, wsum + pos * v)

    rec(0, n, 0)
    return out


def additive_multiplet(m) -> MultipletRecord:
    return _multiplet("additive", tuple(m), coeff_engine.group_table(len(m), shifts_only=True))


def super_multiplet(m) -> MultipletRecord:
    return _multiplet("super", tuple(m), coeff_engine.group_table(len(m)))


def _multiplet(kind, m, table):
    """The orbit of m under `table`, each member with the sign s such that
    coeff(member) = s * coeff(representative), the smallest member.

    Conflicting reachable signs force the whole orbit's value to zero; such
    an orbit is flagged and its members pinned at +1.
    """
    if sum(m) != len(m):
        raise ValueError("multiplicities must sum to the dimension")
    signs = {m: 1}
    conflict = False
    for perm, sign in table:
        if signs.setdefault(tuple(m[p] for p in perm), sign) != sign:
            conflict = True
    rep = min(signs)
    rep_sign = signs[rep]
    members = sorted((vec, 1 if conflict else sign * rep_sign)
                     for vec, sign in signs.items())
    return MultipletRecord(kind, rep, len(members), members, conflict)


def orbits(n: int, shifts_only: bool = False):
    """The orbits of the valid vectors under group_table(n, shifts_only),
    additive or super multiplets, in order of their first valid vector."""
    build = additive_multiplet if shifts_only else super_multiplet
    seen = set()
    for m in valid_vectors(n):
        if m not in seen:
            rec = build(m)
            seen.update(vec for vec, _ in rec.members)
            yield rec


def classify(n: int):
    """Every valid vector grouped into one additive and one super multiplet."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return list(orbits(n, shifts_only=True)) + list(orbits(n))


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
    for cand, doubled in ((n, False), (n // 2, True) if n % 2 == 0 else (None, None)):
        if cand is None:
            continue
        if cand > 2 and prime_factors(cand) == [(cand, 1)]:
            if not doubled or n == 2 * cand:
                return cand, doubled
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


def invariant_count_K(n: int, generator: GroupElement) -> int:
    """Number of valid vectors fixed by the cyclic subgroup of the generator."""
    return sum(1 for m in valid_vectors(n) if act(generator, m) == m)


def _fixed_vector_count(n: int, g: GroupElement) -> int:
    """Valid vectors fixed by g, by dynamic programming over position cycles."""
    perm, _ = coeff_engine.group_action(n, g.shift, g.mult)
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
    group = [GroupElement(a, b) for a in range(n) for b in coprime_residues(n)]
    total = sum(_fixed_vector_count(n, g) for g in group)
    return _exact_div(total, len(group))
