# Assemble the full determinant expansion, and the multiplet rows, for one dimension.

from functools import lru_cache
from operator import itemgetter

from . import coeff_engine, symmetry

MAX_N = 12


class ExpansionPolynomial:
    """Sparse polynomial keyed by multiplicity vectors.

    The terms are stored once, in the dict the polynomial is given
    (`all_terms`), zero coefficients included; `terms` and `evaluate` skip
    the zeros, and `sorted_terms` keeps them only when asked.
    """

    def __init__(self, n, all_terms):
        self.n = n
        self.all_terms = all_terms

    @property
    def terms(self):
        return {k: v for k, v in self.all_terms.items() if v}

    def coefficient(self, key):
        return self.all_terms.get(tuple(key), 0)

    def sorted_terms(self, include_zeros=False):
        """(multiplicity vector, coefficient) pairs sorted by vector: the one
        listing every output format reads. The vectors are unique, so
        comparing them alone gives the order of comparing the pairs."""
        return sorted((item for item in self.all_terms.items() if include_zeros or item[1]),
                      key=itemgetter(0))

    def __eq__(self, other):
        return (isinstance(other, ExpansionPolynomial)
                and self.n == other.n and self.terms == other.terms)


def expand(n: int) -> ExpansionPolynomial:
    """Every coefficient, filled in from the orbit values by one pass over
    the group per super orbit: the image of the canonical vector under
    x -> b*x + k carries the group element's sign times its value."""
    values = orbit_values(n)  # ValueError for n outside [1, MAX_N]
    table = coeff_engine.group_table(n)
    terms = {}
    for m, value in values:
        for _, sign, image in table:
            signed = sign * value
            # an image reached with both signs must have value 0
            got = terms.setdefault(image(m), signed)
            assert got == signed, "sign-conflicted orbit must carry a zero coefficient"
    return ExpansionPolynomial(n, terms)


@lru_cache(maxsize=32)
def orbit_values(n: int):
    """(canonical vector, coefficient) for every super orbit of dimension n,
    in lexicographic order of the canonical vectors.

    The only place an expansion's orbits are evaluated, each at its
    canonical vector by the closed form: a canonical vector already stands
    for its orbit, so nothing reduces it first.
    """
    if n < 1 or n > MAX_N:
        raise ValueError("dimension must be in [1, %d]" % MAX_N)
    return tuple((m, coeff_engine.coeff_theorem3(coeff_engine.indices_from_multiplicities(m)))
                 for m in symmetry.canonical_vectors(n))


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


def evaluate(poly: ExpansionPolynomial, x) -> int:
    if len(x) != poly.n:
        raise ValueError("need %d values" % poly.n)
    total = 0
    for key, coeff in ((k, c) for k, c in poly.all_terms.items() if c):
        prod = coeff
        for value, count in enumerate(key):
            if count:
                prod *= x[value] ** count
        total += prod
    return total
