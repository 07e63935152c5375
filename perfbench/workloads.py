"""Operations each workload sends to `circulant.cli.main`, generated from a seed.

The program under test receives only the argv lists built here. Within one
list no operation repeats, so no result cache in the package can answer an
operation from an identical earlier one.
"""

import math
import random
from collections import Counter

NAMES = ("expand", "coeff", "orbits")

# coeff: dimensions and tail lengths k (number of indices >= 2) at which
# people ask for single coefficients, and how many operations each (N, k)
# stratum gets. 2 * 5 * 30 = 300 operations leave 15 samples beyond p95.
COEFF_DIMS = (14, 16)
COEFF_TAILS = range(5, 10)
COEFF_PER_STRATUM = 30


def operations(name, seed):
    """The ordered argv lists one child process runs for workload `name`."""
    rng = random.Random("%s:%d" % (name, seed))
    if name == "expand":
        ops = [["expand", str(n), "--format", "json"] for n in (6, 7, 8)]
    elif name == "orbits":
        ops = [["multiplets", "7", "--format", "json"],
               ["multiplets", "8", "--format", "json"],
               ["zeros", "10", "--format", "json"]]
    elif name == "coeff":
        ops = [["coeff", str(len(a)), ",".join(map(str, a)), "--format", "json"]
               for a in coeff_index_sets(rng)]
    else:
        raise ValueError("unknown workload %r" % name)
    rng.shuffle(ops)
    return ops


def coeff_index_sets(rng):
    """Distinct index sets that pass the residue gate, 30 per (N, k) stratum.

    The k tail indices are uniform draws from 2..N-1. The engine pins one
    copy of the largest and enumerates the multiset partitions of the rest,
    so its cost at fixed k is set almost entirely by the pattern of repeats
    among the tail indices and by how often the largest one repeats. Those
    two are stratified: each combination gets its expected share of the
    stratum, rounded by largest remainder, and only the values vary with
    the seed, so the cost mix, and with it solve_s and the latency
    percentiles, does not swing from seed to seed. The 0s and 1s fill the
    rest so the indices sum to 0 mod N.
    """
    seen = set()
    out = []
    for n in COEFF_DIMS:
        for k in COEFF_TAILS:
            quota = repeat_pattern_quota(n, k, COEFF_PER_STRATUM)
            for (pattern, top), count in sorted(quota.items()):
                for _ in range(count):
                    a = _draw(rng, n, k, pattern, top)
                    while a in seen:
                        a = _draw(rng, n, k, pattern, top)
                    seen.add(a)
                    out.append(a)
    return out


def _draw(rng, n, k, pattern, top):
    """Tail with the given repeat pattern whose largest value occurs `top` times."""
    rest = list(pattern)
    rest.remove(top)
    while True:
        values = sorted(rng.sample(range(2, n), len(pattern)))
        rng.shuffle(rest)
        tail = sorted(v for v, c in zip(values, rest + [top]) for _ in range(c))
        ones = (-sum(tail)) % n
        if ones <= n - k:
            return (0,) * (n - k - ones) + (1,) * ones + tuple(tail)


def _integer_partitions(k, cap=None):
    cap = k if cap is None else cap
    if k == 0:
        yield ()
        return
    for first in range(min(k, cap), 0, -1):
        for rest in _integer_partitions(k - first, first):
            yield (first,) + rest


def repeat_pattern_quota(n, k, count):
    """{(repeat pattern, top): share of `count`} for k uniform draws from 2..N-1.

    A pattern lists how often each distinct drawn value occurs, largest
    first; top is how often the largest drawn value occurs. The pattern's
    probability is the number of draw sequences with it over (N-2)^k; each
    of its distinct values is equally likely to be the largest, so top = c
    has conditional probability (parts equal to c) / (number of parts).
    """
    v = n - 2
    exact = {}
    for pattern in _integer_partitions(k):
        if len(pattern) > v:
            continue
        w = math.perm(v, len(pattern)) * math.factorial(k)
        for c in Counter(pattern).values():
            w //= math.factorial(c)
        for c in pattern:
            w //= math.factorial(c)
        for top, parts in Counter(pattern).items():
            exact[(pattern, top)] = count * w * parts / (len(pattern) * v ** k)
    quota = {key: int(e) for key, e in exact.items()}
    short = count - sum(quota.values())
    for key in sorted(exact, key=lambda key: (quota[key] - exact[key], key))[:short]:
        quota[key] += 1
    return {key: q for key, q in quota.items() if q}
