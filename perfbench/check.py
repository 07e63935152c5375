"""Expected outputs, checked in the parent process after a child has exited.

Nothing here runs inside a timed region. Expansions and multiplet values are
checked against `circulant.oracles.leibniz_expansion`, zeros against
`circulant.oracles.coeff_via_theorem2`. Single coefficients at N = 14..16
have too many arrangements for `coeff_via_theorem2`, so they are checked
against theorem-2 arrangement counts computed by a dynamic programme over
positions (`theorem2_coefficient`), which is itself checked against
`coeff_via_theorem2` on small inputs.
"""

import json
import random

import numpy as np

from circulant import oracles, symmetry
from circulant.exactmath import divisors, mobius


def arrangement_counts(a):
    """counts[r] = distinct arrangements of the multiset a with sum(pos * value) = r mod N.

    Sweeps positions 0..N-1; the state is how many copies of each nonzero
    value have been placed (zeros fill the remaining positions), with one
    count per residue. int64 holds every count: N! < 2^63 for N <= 20.
    """
    n = len(a)
    mult = [0] * n
    for x in a:
        mult[x] += 1
    zeros = mult[0]
    values = [v for v in range(1, n) if mult[v]]
    shape = tuple(mult[v] + 1 for v in values)
    placed = np.zeros(shape, dtype=np.int64)
    for axis, size in enumerate(shape):
        dims = [1] * len(shape)
        dims[axis] = size
        placed = placed + np.arange(size).reshape(dims)
    counts = np.zeros(shape + (n,), dtype=np.int64)
    counts[(0,) * (len(shape) + 1)] = 1
    residues = np.arange(n)
    for pos in range(n):
        # a zero may go at pos only while fewer than `zeros` have been placed
        nxt = counts * (placed > pos - zeros)[..., None]
        for axis, v in enumerate(values):
            src = [slice(None)] * len(shape) + [(residues - pos * v) % n]
            src[axis] = slice(0, shape[axis] - 1)
            dst = [slice(None)] * (len(shape) + 1)
            dst[axis] = slice(1, None)
            nxt[tuple(dst)] += counts[tuple(src)]
        counts = nxt
    return [int(c) for c in counts[tuple(s - 1 for s in shape)]]


def theorem2_coefficient(a):
    n = len(a)
    counts = arrangement_counts(a)
    return sum(mobius(n // d) * counts[d % n] for d in divisors(n))


def self_test(rng, trials=40):
    """The DP agrees with the package's enumerating oracle on small N."""
    for _ in range(trials):
        n = rng.randrange(2, 8)
        a = tuple(sorted(rng.randrange(n) for _ in range(n)))
        if theorem2_coefficient(a) != oracles.coeff_via_theorem2(a):
            raise AssertionError("theorem-2 DP disagrees with the oracle at %s" % (a,))


def tail_lengths(cmd, doc):
    """Tail length (number of indices >= 2) of each index set an output lists."""
    if cmd == "expand":
        return [sum(t["M"][2:]) for t in doc["terms"]]
    if cmd == "multiplets":
        return [sum(int(c) for c in row["representative"][2:]) for row in doc["multiplets"]]
    if cmd == "zeros":
        return [sum(1 for x in z["indices"] if x >= 2) for z in doc["zeros"]]
    return [sum(1 for x in doc["indices"] if x >= 2)]


class Checker:
    """check(argv, stdout) -> None when the output is right, else a reason.

    Expected values are computed on first use and kept for later reps.
    """

    def __init__(self, seed):
        self._leibniz = {}
        self._zero = {}
        self._coeff = {}
        self._seed = seed
        self._tested = False

    def leibniz(self, n):
        if n not in self._leibniz:
            self._leibniz[n] = oracles.leibniz_expansion(n)
        return self._leibniz[n]

    def check(self, argv, stdout):
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "output is not one JSON document"
        cmd, n = argv[0], int(argv[1])
        try:
            if doc["N"] != n:
                return "N is %r, expected %d" % (doc["N"], n)
            return getattr(self, "_check_" + cmd)(n, argv, doc)
        except (KeyError, TypeError, ValueError) as exc:
            return "malformed output (%s: %s)" % (type(exc).__name__, exc)

    def _check_expand(self, n, argv, doc):
        got = {tuple(t["M"]): int(t["coeff"]) for t in doc["terms"]}
        if len(got) != len(doc["terms"]):
            return "repeated terms"
        if got != self.leibniz(n):
            return "expansion differs from the Leibniz expansion"
        return None

    def _check_multiplets(self, n, argv, doc):
        want = self.leibniz(n)
        sizes = {}
        for row in doc["multiplets"]:
            rep = tuple(int(c) for c in row["representative"])
            if int(row["value"]) != want.get(rep, 0):
                return "%s multiplet %s has value %s, Leibniz gives %d" % (
                    row["kind"], row["representative"], row["value"], want.get(rep, 0))
            sizes[row["kind"]] = sizes.get(row["kind"], 0) + row["n"]
        f = symmetry.count_solutions_F(n)
        if sizes != {"additive": f, "super": f}:
            return "multiplet sizes %s do not each sum to F(%d) = %d" % (sizes, n, f)
        return None

    def _check_zeros(self, n, argv, doc):
        sets = [tuple(z["indices"]) for z in doc["zeros"]]
        if n == 10 and len(sets) != 120:
            return "%d zero sets listed, expected 120" % len(sets)
        if len(set(sets)) != len(sets):
            return "repeated zero sets"
        for a in sets:
            if a not in self._zero:
                self._zero[a] = oracles.coeff_via_theorem2(a)
            if self._zero[a] != 0:
                return "listed zero %s has coefficient %d" % (a, self._zero[a])
        return None

    def _check_coeff(self, n, argv, doc):
        a = tuple(sorted(int(x) for x in argv[2].split(",")))
        if tuple(doc["indices"]) != a:
            return "indices echoed as %s" % doc["indices"]
        if not self._tested:
            self_test(random.Random(self._seed))
            self._tested = True
        if a not in self._coeff:
            self._coeff[a] = theorem2_coefficient(a)
        if int(doc["value"]) != self._coeff[a]:
            return "value %s, theorem-2 count gives %d" % (doc["value"], self._coeff[a])
        return None
