from fractions import Fraction

from hypothesis import given, strategies as st

from circulant.exactmath import (binomial, divisors, euler_phi, factorial,
                                 mobius, prime_factors)
from circulant.oracles import multinomial_star
from circulant.partitions import integer_partitions


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(70) == factorial(69) * 70


def test_factorial_rejects_negative():
    try:
        factorial(-1)
    except ValueError:
        pass
    else:
        assert False


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(4, 7) == 0
    assert binomial(4, -1) == 0
    assert binomial(-2, 1) == 0


@given(st.integers(0, 40), st.integers(0, 40))
def test_binomial_pascal(n, k):
    assert binomial(n + 1, k + 1) == binomial(n, k) + binomial(n, k + 1)


def test_binomial_convolution():
    # sum_m C(m,l) C(n-m,k-l) = C(n+1,k+1)
    for n in range(13):
        for k in range(n + 1):
            for l in range(k + 1):
                s = sum(binomial(m, l) * binomial(n - m, k - l)
                        for m in range(n + 1))
                assert s == binomial(n + 1, k + 1)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [(2, 2), (3, 1)]
    assert prime_factors(97) == [(97, 1)]


def test_mobius_values():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_mobius_sum_over_divisors():
    for n in range(1, 60):
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_totient_sum_over_divisors():
    for n in range(1, 60):
        assert sum(euler_phi(d) for d in divisors(n)) == n


def test_mobius_totient_convolution():
    # sum over c | m of (m/c) mu(m/c) phi(c) = mu(m)
    for m in range(1, 50):
        s = sum((m // c) * mobius(m // c) * euler_phi(c) for c in divisors(m))
        assert s == mobius(m)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_multinomial_star_values():
    # (3; k) for partitions 1+1+1, 1+2, 3
    assert multinomial_star(3, (3, 0, 0)) == 1
    assert multinomial_star(3, (1, 1, 0)) == 3
    assert multinomial_star(3, (0, 0, 1)) == 2


def test_multinomial_star_sums_to_factorial():
    for p in range(1, 9):
        total = sum(multinomial_star(p, ip.multiplicities)
                    for ip in integer_partitions(p))
        assert total == factorial(p)


def test_binomial_alternating_pairing():
    # sum_k C(k,m-1) C(X-k,m) (-1)^k = (-1)^(m-1) C(ceil(X/2), m)
    for m in range(1, 7):
        for x in range(0, 25):
            s = sum(binomial(k, m - 1) * binomial(x - k, m) * (-1) ** k
                    for k in range(x + 1))
            assert s == (-1) ** (m - 1) * binomial((x + 1) // 2, m)


def test_totient_as_mobius_sum():
    for m in range(1, 50):
        assert euler_phi(m) == m * sum(
            Fraction(mobius(d), d) for d in divisors(m))
