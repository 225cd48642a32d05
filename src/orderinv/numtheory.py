"""Exact elementary number theory for order statistics of finite groups.

Everything here is pure and deterministic.  Values are plain ints or
``fractions.Fraction``; floats appear only when a caller passes non-integer
exponents, and such results are explicitly approximate (the rest of the
package tags them as a separate mode).

The slightly unusual residents are the Moebius-weighted kernels
``mobius_kernel`` and ``log_mobius_kernel``: divisor-lattice coefficients
that turn sums over element orders into sums over counts of solutions of
x^m = 1.  They are evaluated through their closed multiplicative form; the
defining alternating sum is kept alongside as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Union

Scalar = Union[int, Fraction, float]

def is_prime(n: int) -> bool:
    """Primality by trial division; standalone so FactoredInteger validation
    cannot recurse through factorize."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer kept as its prime factorization.

    ``factors`` holds (prime, exponent) pairs with strictly increasing primes
    and exponents >= 1; the integer 1 is the empty tuple.  Products of many
    moderate integers (e.g. the product of all element orders of a group) stay
    exponent-sized instead of overflowing into astronomically long ints.
    """

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1 or not is_prime(p):
                raise ValueError(f"malformed factorization entry ({p}, {e})")
            last = p

    @classmethod
    def from_exponents(cls, exponents: Mapping[int, int]) -> "FactoredInteger":
        items = []
        for p, e in sorted(exponents.items()):
            if e < 0:
                raise ValueError(f"negative exponent {e} for prime {p}")
            if e:
                items.append((p, e))
        return cls(tuple(items))

    def value(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self.factors)

    def __mul__(self, other: "FactoredInteger") -> "FactoredInteger":
        exps = dict(self.factors)
        for p, e in other.factors:
            exps[p] = exps.get(p, 0) + e
        return FactoredInteger.from_exponents(exps)

    def __pow__(self, k: int) -> "FactoredInteger":
        if k < 0:
            raise ValueError("negative power of a FactoredInteger")
        if k == 0:
            return FactoredInteger()
        return FactoredInteger(tuple((p, e * k) for p, e in self.factors))

    def divides(self, other: "FactoredInteger") -> bool:
        """Exponent-wise <=, i.e. divisibility of the underlying integers."""
        return all(e <= other.exponent(p) for p, e in self.factors)

    def as_json(self) -> dict[str, int]:
        return {str(p): e for p, e in self.factors}


@lru_cache(maxsize=None)
def factorize(n: int) -> FactoredInteger:
    """Prime factorization by trial division up to the square root."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: positive integer required")
    items = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            items.append((p, e))
        p += 1
    if rest > 1:
        items.append((rest, 1))
    return FactoredInteger(tuple(items))


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n in increasing order."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def divisor_count(n: int) -> int:
    out = 1
    for _, e in factorize(n).items():
        out *= e + 1
    return out


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    """Euler's phi: the number of 1 <= k <= n coprime to n."""
    out = n
    for p, _ in factorize(n).items():
        out -= out // p
    return out


def moebius(n: int) -> int:
    """Moebius mu: (-1)^(#prime factors) on squarefree n, else 0."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac.items()):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def moebius_invert(g_values: Mapping[int, Scalar], n: int) -> dict[int, Scalar]:
    """Recover f from g(m) = sum_{d|m} f(d), for every divisor m of n.

    ``g_values`` must supply every divisor of n; a missing key is an error
    rather than an implicit zero, since that silently corrupts the inversion.
    """
    divs = divisors(n)
    for d in divs:
        if d not in g_values:
            raise KeyError(f"g_values is missing divisor {d} of {n}")
    f: dict[int, Scalar] = {}
    for m in divs:
        total: Scalar = 0
        for d in divisors(m):
            mu = moebius(m // d)
            if mu:
                total += mu * g_values[d]
        f[m] = total
    return f


def exact_exponents(r, s) -> bool:
    """Exact (rational) evaluation is possible iff both exponents are ints."""
    return isinstance(r, int) and isinstance(s, int)


@lru_cache(maxsize=None)
def _weight_exact(m: int, r: int, s: int) -> Fraction:
    return Fraction(m) ** s / Fraction(totient(m)) ** r


def weight(m: int, r, s) -> Scalar:
    """The divisor weight m^s / phi(m)^r; Fraction for integer (r, s)."""
    if m < 1:
        raise ValueError(f"weight needs a positive integer, got {m}")
    if exact_exponents(r, s):
        return _weight_exact(m, r, s)
    return m ** float(s) / totient(m) ** float(r)


def divisor_power_sum(x: int, r, s) -> Scalar:
    """sum_{i|x} i^s / phi(i)^(r-1).

    For a cyclic group whose order is a multiple of x this is exactly the
    weighted order sum restricted to element orders dividing x, because a
    cyclic group has one subgroup per divisor.
    """
    total = Fraction(0) if exact_exponents(r, s) else 0.0
    for i in divisors(x):
        total += weight(i, r - 1, s)
    return total


def mobius_kernel(m: int, j: int, r, s) -> Scalar:
    """sum_{i|j} mu(i) (mi)^s / phi(mi)^r, in closed multiplicative form.

    Writing j = p_1^t_1 ... p_k^t_k with p_1..p_l the primes shared with m,
    the sum collapses to

        m^s/phi(m)^r * prod_{t<=l} (1 - p_t^(s-r))
                     * prod_{t>l} (1 - p_t^s / (p_t - 1)^r).

    On the domain s <= min{0, r} the value is nonnegative, and it vanishes
    exactly when (a) s = r = 0 and j > 1, (b) s = r != 0 and gcd(j, m) > 1,
    or (c) s = 0 != r with j even and m odd.
    """
    if m < 1 or j < 1:
        raise ValueError("mobius_kernel needs positive integers m, j")
    exact = exact_exponents(r, s)
    value: Scalar = weight(m, r, s)
    for p, _ in factorize(j).items():
        if m % p == 0:
            f = (1 - Fraction(p) ** (s - r)) if exact else (1.0 - p ** float(s - r))
        elif exact:
            f = 1 - Fraction(p) ** s / Fraction(p - 1) ** r
        else:
            f = 1.0 - p ** float(s) / (p - 1) ** float(r)
        value *= f
    return value


def mobius_kernel_by_definition(m: int, j: int, r, s) -> Scalar:
    """The defining alternating sum of mobius_kernel; oracle route."""
    if m < 1 or j < 1:
        raise ValueError("mobius_kernel needs positive integers m, j")
    total = Fraction(0) if exact_exponents(r, s) else 0.0
    for i in divisors(j):
        mu = moebius(i)
        if mu:
            total += mu * weight(m * i, r, s)
    return total


def log_mobius_kernel(m: int, j: int) -> tuple[int, int]:
    """sum_{i|j} mu(i) log(mi), returned exactly as (coefficient, base).

    The value is coefficient * log(base): (1, m) when j = 1, (-1, p) when j
    is a prime power p^e > 1, and (0, 1) when j has two or more distinct
    prime factors.  Never a float; callers fold the pair into exact prime
    exponent arithmetic.
    """
    if m < 1 or j < 1:
        raise ValueError("log_mobius_kernel needs positive integers m, j")
    fac = factorize(j)
    if j == 1:
        return (1, m)
    if len(fac.factors) == 1:
        return (-1, fac.factors[0][0])
    return (0, 1)
