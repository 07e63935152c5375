# Exact integer combinatorics and small number-theory helpers.

import math

factorial = math.factorial


def binomial(n: int, k: int) -> int:
    """C(n,k), defined as 0 whenever the arguments fall outside 0 <= k <= n."""
    return math.comb(n, k) if 0 <= k <= n else 0


def prime_factors(n: int):
    """List of (prime, exponent) pairs, by trial division."""
    if n <= 0:
        raise ValueError("positive integer required")
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def mobius(n: int) -> int:
    if n <= 0:
        raise ValueError("positive integer required")
    fac = prime_factors(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    if n <= 0:
        raise ValueError("positive integer required")
    out = n
    for p, _ in prime_factors(n):
        out = out // p * (p - 1)
    return out


def divisors(n: int):
    """Sorted list of positive divisors."""
    if n <= 0:
        raise ValueError("positive integer required")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]

