# Assemble the full determinant expansion, and the multiplet rows, for one dimension.

import math
from functools import lru_cache
from operator import getitem, itemgetter

from . import coeff_engine, symmetry


def expand(n: int):
    """Every (multiplicity vector, coefficient) pair of dimension n, zeros
    included, sorted by vector: the one listing every output format reads.

    Each super orbit's members and signs come from one group pass
    (`symmetry.orbit_signs`), and each member's coefficient is its sign
    times the orbit's value. The vectors are unique, so comparing them
    alone gives the order of comparing the pairs.
    """
    return sorted(((member, sign * value)
                   for m, value in orbit_values(n)  # ValueError for n < 1
                   for member, sign in symmetry.orbit_signs(m).items()),
                  key=itemgetter(0))


def evaluate(n: int, x) -> int:
    """det circ(x_0..x_{n-1}) from the orbit table: each orbit's value times
    the sum over its members of sign * x^member, with no term list built."""
    if len(x) != n:
        raise ValueError("need %d values" % n)
    # powers[i][c] = x_i^c, so a member's monomial reads one entry per index
    powers = [[v ** c for c in range(n + 1)] for v in x]
    total = 0
    for m, value in orbit_values(n):
        if value:
            total += value * sum(sign * math.prod(map(getitem, powers, member))
                                 for member, sign in symmetry.orbit_signs(m).items())
    return total


@lru_cache(maxsize=32)
def orbit_values(n: int):
    """(canonical vector, coefficient) for every super orbit of dimension n,
    in lexicographic order of the canonical vectors.

    Each orbit is evaluated at its canonical vector by the closed form: a
    canonical vector already stands for its orbit, so nothing reduces it
    first, and it is the multiplicity vector of a valid index set, so
    nothing validates it again. `zeros` above N = 8 evaluates only the
    corollary-6 orbits, each in the same way, without this table.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return tuple((m, coeff_engine._theorem3(m)[0]) for m in symmetry.canonical_vectors(n))


def multiplet_rows(n: int):
    """(kind, representative, size, value) of every additive orbit, then of
    every super orbit, each kind sorted by representative.

    One group pass per canonical vector gives its super orbit's members and
    signs; the additive orbits among them are their rotation classes. Each
    row's value is its representative's sign times the orbit's one value,
    and only the rows outlive the pass.
    """
    additive, supers = [], []
    for m, value in orbit_values(n):
        signs = symmetry.orbit_signs(m)
        members = sorted(signs)
        seen = set()
        for u in members:
            if u not in seen:
                shifts = {u[i:] + u[:i] for i in range(n)}
                seen |= shifts
                additive.append(("additive", u, len(shifts), signs[u] * value))
        supers.append(("super", members[0], len(members), signs[members[0]] * value))
    additive.sort(key=itemgetter(1))
    supers.sort(key=itemgetter(1))
    return additive + supers
