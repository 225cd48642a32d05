"""Exact elementary number theory for order statistics of finite groups.

Everything here is pure and deterministic.  Values are plain ints or
``fractions.Fraction``.  A power with a non-integer exponent has no
rational value; ``weight`` returns its float reading, and signs come from
``order_stats.excess_sign``, never from such a reading.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

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


class Frozen:
    """Base of the slotted value types: __init__ sets each slot once."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __setstate__(self, state):  # copy and pickle restore (None, {slot: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class FactoredInteger(Frozen):
    """A positive integer kept as its prime factorization, equal by value.

    ``factors`` holds (prime, exponent) pairs with strictly increasing primes
    and exponents >= 1; the integer 1 is the empty tuple.  Products of many
    moderate integers (e.g. the product of all element orders of a group) stay
    exponent-sized instead of overflowing into astronomically long ints.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[int, int], ...] = ()):
        last = 1
        for p, e in factors:
            if p <= last or e < 1 or not is_prime(p):
                raise ValueError(f"malformed factorization entry ({p}, {e})")
            last = p
        object.__setattr__(self, "factors", factors)

    def __eq__(self, other):
        return type(other) is FactoredInteger and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"FactoredInteger(factors={self.factors!r})"

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

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def divides(self, other: "FactoredInteger") -> bool:
        """Exponent-wise <=, i.e. divisibility of the underlying integers."""
        theirs = dict(other.factors)
        return all(e <= theirs.get(p, 0) for p, e in self.factors)

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
    for p, e in factorize(n).factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def divisor_count(n: int) -> int:
    out = 1
    for _, e in factorize(n).factors:
        out *= e + 1
    return out


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    """Euler's phi: the number of 1 <= k <= n coprime to n."""
    out = n
    for p, _ in factorize(n).factors:
        out -= out // p
    return out


@lru_cache(maxsize=None)  # equal exponents (1, 1.0, Fraction(1)) share an entry and a value
def weight(m: int, r, s) -> Scalar:
    """The divisor weight m^s / phi(m)^r: a Fraction when r and s have
    integer values (1, 1.0 and Fraction(1) alike), else a float reading."""
    if m < 1:
        raise ValueError(f"weight needs a positive integer, got {m}")
    return Fraction(m) ** Fraction(s) / Fraction(totient(m)) ** Fraction(r)


def divisor_power_sum(x: int, r, s) -> Scalar:
    """sum_{i|x} i^s / phi(i)^(r-1).

    For a cyclic group whose order is a multiple of x this is exactly the
    weighted order sum restricted to element orders dividing x, because a
    cyclic group has one subgroup per divisor.
    """
    return sum((weight(i, r - 1, s) for i in divisors(x)), Fraction(0))
