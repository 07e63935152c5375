# Integer partitions and multiset set-partitions, for the oracles' term-by-term
# sums.

import itertools
from collections import Counter


class IntegerPartition:
    """A partition of p into parts z1 >= z2 >= ... >= zj >= 1."""

    def __init__(self, parts):
        self.parts = tuple(sorted(parts, reverse=True))
        self.p = sum(self.parts)
        self.j = len(self.parts)
        counts = Counter(self.parts)
        # multiplicities k_1..k_p (k_i = number of parts equal to i)
        self.multiplicities = tuple(counts.get(i, 0) for i in range(1, self.p + 1))

    def __repr__(self):
        return "IntegerPartition%r" % (self.parts,)

    def __eq__(self, other):
        return isinstance(other, IntegerPartition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)


def integer_partitions(p: int):
    """All partitions of p, largest-part-first order; p=0 gives the empty partition."""
    if p < 0:
        raise ValueError("p must be >= 0")
    out = []

    def rec(remaining, cap, acc):
        if remaining == 0:
            out.append(IntegerPartition(acc))
            return
        for z in range(min(cap, remaining), 0, -1):
            rec(remaining - z, z, acc + [z])

    rec(p, p, [])
    return out


class SetPartition:
    """A partition of a multiset of indices into unordered parts.

    Identical parts are kept as repeated entries in `parts`.
    """

    def __init__(self, parts):
        canon = sorted((tuple(sorted(part)) for part in parts),
                       key=lambda t: (-len(t), t))
        self.parts = tuple(canon)
        self.j = len(self.parts)
        self.sizes = tuple(len(part) for part in self.parts)

    def __repr__(self):
        return "SetPartition%r" % (self.parts,)

    def __eq__(self, other):
        return isinstance(other, SetPartition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)


def multiset_partitions(elements):
    """All distinct partitions of a multiset, as SetPartition objects.

    The empty multiset yields a single empty partition. Parts are count
    vectors over the distinct values, chosen in lexicographically
    non-increasing order; the largest remaining part always holds the
    smallest value left, so each partition is produced exactly once.
    """
    elements = list(elements)
    values = sorted(set(elements))
    counts = tuple(elements.count(v) for v in values)
    out = []

    def rec(left, bound, parts):
        if not any(left):
            out.append(SetPartition(
                [[v for v, k in zip(values, b) for _ in range(k)] for b in parts]))
            return
        first = next(v for v, k in enumerate(left) if k)
        ranges = [range(1, k + 1) if v == first else range(k + 1) for v, k in enumerate(left)]
        for b in itertools.product(*ranges):
            if b <= bound:
                rec(tuple(k - j for k, j in zip(left, b)), b, parts + [b])

    rec(counts, counts, [])
    out.sort(key=lambda sp: sp.parts)
    return out
