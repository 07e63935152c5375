# Assemble the full determinant expansion for one dimension.

from collections import Counter
from functools import lru_cache

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
        listing every output format reads."""
        return sorted(item for item in self.all_terms.items() if include_zeros or item[1])

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
            for m, c in expand(n).terms.items()
            if all(count == 0 for value, count in enumerate(m) if value % d)}
    small_poly = expand(small).terms
    right = _poly_power(
        {tuple(k): v for k, v in small_poly.items()}, d, small)
    return left == right
