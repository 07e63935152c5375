from circulant.partitions import (IntegerPartition, SetPartition,
                                  integer_partitions, multiset_partitions)


def test_integer_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for p, want in enumerate(expected):
        assert len(integer_partitions(p)) == want


def test_integer_partition_fields():
    ip = IntegerPartition([2, 1, 2])
    assert ip.parts == (2, 2, 1)
    assert ip.p == 5
    assert ip.j == 3
    # k_i = number of parts equal to i
    assert ip.multiplicities == (1, 2, 0, 0, 0)


def test_multiset_partitions_bell_numbers():
    # distinct elements give the Bell numbers
    bell = [1, 1, 2, 5, 15, 52, 203]
    for n, want in enumerate(bell):
        assert len(multiset_partitions(list(range(n)))) == want


def test_multiset_partitions_with_repeats():
    assert len(multiset_partitions([7, 7, 8, 9])) == 11
    assert len(multiset_partitions([3, 7, 8])) == 5


def test_multiset_partitions_deterministic():
    a = multiset_partitions([3, 7, 8, 8])
    b = multiset_partitions([3, 7, 8, 8])
    assert a == b
    assert a == sorted(a, key=lambda sp: sp.parts)


def test_set_partition_fields():
    sp = SetPartition([[8], [3, 7]])
    assert sp.j == 2
    assert sp.parts == ((3, 7), (8,))  # parts ordered largest first
    assert sp.sizes == (2, 1)


def test_empty_partition():
    assert len(multiset_partitions([])) == 1
    assert multiset_partitions([])[0].j == 0
    assert integer_partitions(0)[0].parts == ()


def _labeled_set_partitions(k):
    """Every set partition of range(k), by placing each element in turn."""
    if k == 0:
        return [[]]
    out = []
    for blocks in _labeled_set_partitions(k - 1):
        for i in range(len(blocks)):
            out.append(blocks[:i] + [blocks[i] + [k - 1]] + blocks[i + 1:])
        out.append(blocks + [[k - 1]])
    return out


def test_multiset_partitions_match_labeled_dedup():
    for elements in ([1, 1], [1, 1, 2], [2, 2, 2, 5], [3, 3, 4, 4], [0, 0, 1, 1, 1],
                     [2, 3, 3, 5, 5, 5], [4, 4, 4, 4, 4, 4], [1, 2, 2, 3, 3, 3, 4]):
        want = {SetPartition([[elements[i] for i in block] for block in blocks])
                for blocks in _labeled_set_partitions(len(elements))}
        got = multiset_partitions(elements)
        assert len(got) == len(set(got)) == len(want), elements
        assert set(got) == want, elements
