"""Order statistics of a finite group and the invariants built on them.

Everything is driven by the order profile: the map from each occurring
element order d to the count A(d) of elements of that exact order.  From it
come the solution counts B(m) = #{x : x^m = 1} = sum_{k|m} A(k) (always
divisible by m for a genuine group), cyclic subgroup counts A(d)/phi(d),
the weighted order sums

    sum over x with o(x) | n  of  o(x)^s / phi(o(x))^r

and their excess over the cyclic group of the same order, the quantity
whose sign detects structure.  The excess at (profile, n) depends only on
its terms (c_m - 1, m, phi(m)), which ``excess_terms`` lists; the tables
(``excess_table``) and signs (``excess_signs``, exact for every rational
exponent pair) are functions of those terms.  The product of all element
orders is kept in factored form; its closed form n^n / prod p^(B_p) is computed
from the solution counts and cross-checked in tests against the direct
factored product.
"""

from __future__ import annotations

from collections.abc import Mapping
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from types import MappingProxyType
from typing import NamedTuple

from .numtheory import (
    FactoredInteger,
    Frozen,
    Scalar,
    divisors,
    factorize,
    totient,
    weight,
)


class FrobeniusViolated(ValueError):
    """A solution count B(m) not divisible by m: impossible for a group."""


class ParameterDomainViolated(ValueError):
    """n or (r, s) lies outside the domain an invariant or claim is stated for."""


class OrderProfile(Frozen):
    """Counts of elements by exact order; the sole input to every invariant.

    Only orders that occur are present, values are positive.  ``counts`` is
    a read-only view (unhashable, so equality and hash come from ``key``).
    Equal profiles, such as those of C6 and C2xC3, are equal values and
    share every memo.  Synthetic profiles (tests, corrupted-input probes)
    go through the same validation as profiles read off a group: orders
    divide the group order, there is exactly one identity, counts are
    multiples of phi(d), and they sum to the group order.
    """

    __slots__ = ("group_order", "counts", "key", "_hash")

    def __init__(self, group_order: int, counts: Mapping[int, int] = MappingProxyType({})):
        n, counts = group_order, MappingProxyType(dict(counts))
        key = tuple(sorted(counts.items()))
        # every memo lookup hashes the profile: hash the counts once
        for name, value in zip(self.__slots__, (n, counts, key, hash((n, key)))):
            object.__setattr__(self, name, value)
        if n < 1:
            raise ValueError(f"group order must be positive, got {n}")
        if counts.get(1) != 1:
            raise ValueError("a profile needs exactly one element of order 1")
        total = 0
        for d, count in counts.items():
            if d < 1 or n % d:
                raise ValueError(f"order {d} does not divide the group order {n}")
            if count < 1:
                raise ValueError(f"count for order {d} must be positive, got {count}")
            if count % totient(d):
                raise ValueError(
                    f"count {count} for order {d} is not a multiple of phi({d})={totient(d)}"
                )
            total += count
        if total != n:
            raise ValueError(f"profile counts sum to {total}, expected {n}")

    def __eq__(self, other):
        return (type(other) is OrderProfile and self.group_order == other.group_order
                and self.key == other.key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"OrderProfile(group_order={self.group_order!r}, counts={self.counts!r})"

    def __reduce__(self):  # the read-only view does not pickle: rebuild from a dict
        return OrderProfile, (self.group_order, dict(self.counts))

    def count(self, d: int) -> int:
        return self.counts.get(d, 0)

    def cyclic_count(self, d: int) -> int:
        """Number of cyclic subgroups of order exactly d."""
        return self.counts.get(d, 0) // totient(d)


class FrobeniusTable(NamedTuple):
    """B(m) = #{x : x^m = 1} and the integer ratios B(m)/m, per divisor m;
    read-only views, as frobenius_table hands one cached instance to all."""

    group_order: int
    counts: Mapping[int, int]
    ratios: Mapping[int, int]


def order_profile(group) -> OrderProfile:
    """The profile a FiniteGroup carries, counted once when it is built."""
    return group.profile


@lru_cache(maxsize=None)
def cyclic_profile(n: int) -> OrderProfile:
    """The profile of a cyclic group: phi(d) elements per divisor d."""
    return OrderProfile(n, {d: totient(d) for d in divisors(n)})


@lru_cache(maxsize=1024)
def frobenius_table(profile: OrderProfile) -> FrobeniusTable:
    """Solution counts of x^m = 1 for every divisor m of the group order.

    Raises FrobeniusViolated when some m does not divide B(m); that cannot
    happen for the profile of a group, so it flags corrupted input.
    """
    n = profile.group_order
    counts = {m: sum(map(profile.count, divisors(m))) for m in divisors(n)}
    for m, b in counts.items():
        if b % m:
            raise FrobeniusViolated(f"B({m}) = {b} is not divisible by {m}")
    ratios = {m: b // m for m, b in counts.items()}
    return FrobeniusTable(n, *map(MappingProxyType, (counts, ratios)))


def require_divisor(profile: OrderProfile, n: int) -> None:
    if n < 1 or profile.group_order % n:
        raise ParameterDomainViolated(
            f"{n} is not a divisor of the group order {profile.group_order}"
        )


def cyclic_subgroup_count(profile: OrderProfile, n: int) -> int:
    """Number of cyclic subgroups whose order divides n."""
    require_divisor(profile, n)
    return sum(profile.cyclic_count(m) for m in profile.counts if n % m == 0)


def weighted_order_sum(profile: OrderProfile, n: int, r, s) -> Scalar:
    """sum of o(x)^s / phi(o(x))^r over elements with o(x) | n.

    Exact Fraction when r and s have integer values, else a float reading
    (its sign is excess_sign's business).  Grouping by order class this is
    sum_{m|n} A(m) m^s / phi(m)^r.
    """
    require_divisor(profile, n)
    return sum((count * weight(m, r, s) for m, count in profile.counts.items()
                if n % m == 0), Fraction(0))


@lru_cache(maxsize=4096)
def excess_terms(profile: OrderProfile, n: int) -> tuple[tuple[int, int, int], ...]:
    """(c_m - 1, m, phi(m)) for each divisor m of n whose cyclic subgroup
    count c_m is not 1: the terms of cyclic_excess, in divisor order."""
    require_divisor(profile, n)
    return tuple((profile.cyclic_count(m) - 1, m, totient(m))
                 for m in divisors(n) if profile.cyclic_count(m) != 1)


# the last few term lists' tables: at a large grid bound g a (2g+1)^2 table is large
@lru_cache(maxsize=128)
def excess_table(terms: tuple, rs: range, ss: range) -> tuple[int, tuple]:
    """The excess of ``terms`` (as excess_terms returns them) at every
    integer (r, s) in rs x ss, in integers: a denominator D and rows, with
    rows[i][j] the numerator at (rs[i], ss[j]).

    With a = max(-min ss, 0) and b = max(max rs - 1, 0), every term
    (c_m - 1) m^s / phi(m)^(r-1) of the box has its denominator dividing
    m^a phi(m)^b, so over D = lcm of those the numerator at (r, s) is
    sum (c_m - 1) (D / m^a phi^b) m^(s+a) phi^(b+1-r): one dot product of
    a vector made once per s with one made once per r.  Keyed by the terms,
    the only thing the excess depends on: every (profile, n) with the same
    terms, such as every n at which each cyclic subgroup count is 1, reads
    one table.
    """
    a, b = max(-ss[0], 0), max(rs[-1] - 1, 0)
    below = [m**a * phi**b for _, m, phi in terms]
    common = lcm(*below)
    scaled = [c * (common // d) for (c, _, _), d in zip(terms, below)]
    by_s = [[k * m ** (s + a) for k, (_, m, _) in zip(scaled, terms)] for s in ss]
    by_r = [[phi ** (b + 1 - r) for _, _, phi in terms] for r in rs]
    rows = tuple(tuple(sum(map(mul, u, v)) for u in by_s) for v in by_r)
    return common, rows


def cyclic_excess(profile: OrderProfile, n: int, r, s) -> Scalar:
    """Weighted order sum minus the same sum for the cyclic group of equal
    order; the divisor-restricted comparison invariant.

    The cyclic baseline needs no group construction: a cyclic group has one
    cyclic subgroup per divisor, so the excess is the sum over m | n of
    (c_m - 1) m^s / phi(m)^(r-1).  Vanishes identically at r = s = 0.  At
    integer r and s it is read off the 1 x 1 excess_table, exactly; else it
    is a float reading.
    """
    terms = excess_terms(profile, n)
    (a, qa), (b, qb) = r.as_integer_ratio(), s.as_integer_ratio()
    if qa != 1 or qb != 1:
        return sum((c * weight(m, r - 1, s) for c, m, _ in terms), Fraction(0))
    denominator, ((numerator,),) = excess_table(terms, range(a, a + 1), range(b, b + 1))
    return Fraction(numerator, denominator)


def sign_of(value) -> str:
    """"pos", "neg" or "zero": how value compares with 0."""
    return "pos" if value > 0 else "neg" if value < 0 else "zero"


# decimal digits at which excess_signs stops doubling its precision from 30
SIGN_DIGITS = 960


def excess_sign(profile: OrderProfile, n: int, r, s) -> str:
    """The exact sign of cyclic_excess for rational r and s: excess_signs
    at the one point."""
    return excess_signs(excess_terms(profile, n), [(r, s)])[0]


def excess_signs(terms: tuple, points) -> list[str]:
    """The exact sign of the excess of ``terms`` (as excess_terms returns
    them) at each rational (r, s) of points, in order (a float is the
    dyadic rational it is): "neg", "zero", "pos", or "indeterminate" when
    SIGN_DIGITS digits cannot tell the sum from 0.

    The integer points are read off one excess_table over [-g, g]^2, g the
    largest |r| or |s| among them: at grid bound g every claim and the
    report's excess grid with these terms read that one table.
    """
    ratios = [(r.as_integer_ratio(), s.as_integer_ratio()) for r, s in points]
    g = max((max(abs(a), abs(b)) for (a, qa), (b, qb) in ratios if qa == qb == 1),
            default=None)
    if g is not None:
        _, rows = excess_table(terms, range(-g, g + 1), range(-g, g + 1))
    return [sign_of(rows[a + g][b + g]) if qa == qb == 1
            else _radicand_sign(terms, a, qa, b, qb)
            for (a, qa), (b, qb) in ratios]


@lru_cache(maxsize=1024)
def _ln(p: int, digits: int) -> Decimal:
    """ln p to ``digits`` significant digits, correctly rounded."""
    with localcontext() as ctx:
        ctx.prec = digits
        return Decimal(p).ln()


def _radicand_sign(terms: tuple, a: int, qa: int, b: int, qb: int) -> str:
    """The sign of the excess of ``terms`` at r = a/qa, s = b/qb, not both integers.

    With r - 1 = a/q and s = b/q, each term (c_m - 1) m^s / phi(m)^(r-1) is a
    rational times the q-th root of prod p^rho_p, 0 <= rho_p < q.  Such roots
    of distinct radicands are linearly independent over Q (Besicovitch 1940),
    so the sum is 0 iff the coefficients of each radicand cancel.  Otherwise
    decimal bounds each root as exp(sum (rho_p/q) ln p), never forming p^rho_p.
    """
    q = lcm(qa, qb)
    a, b = (a - qa) * (q // qa), b * (q // qb)
    coefficients: dict[tuple, Fraction] = {}
    for c, m, phi in terms:
        in_m, in_phi = dict(factorize(m).factors), dict(factorize(phi).factors)
        coefficient, radicand = Fraction(c), []
        for p in sorted(in_m.keys() | in_phi.keys()):
            whole, rho = divmod(b * in_m.get(p, 0) - a * in_phi.get(p, 0), q)
            coefficient *= Fraction(p) ** whole
            if rho:
                radicand.append((p, rho))
        key = tuple(radicand)
        coefficients[key] = coefficients.get(key, 0) + coefficient
    terms = [(c, key) for key, c in coefficients.items() if c]
    if len({c > 0 for c, _ in terms}) < 2:  # no term, or all of one sign
        return sign_of(terms[0][0]) if terms else "zero"
    digits = min(30, SIGN_DIGITS)
    while True:
        with localcontext() as ctx:
            ctx.prec = digits
            values = [Decimal(c.numerator) / c.denominator * sum(
                (Decimal(rho) / q * _ln(p, digits) for p, rho in key), Decimal(0)).exp()
                for c, key in terms]
            total = sum(values)
            # each ln, exp, product and sum rounds to `digits` digits: all of it
            # together errs by less than 10^(10 - digits) times sum |values|
            if abs(total) > sum(map(abs, values)).scaleb(10 - digits):
                return sign_of(total)
        if digits >= SIGN_DIGITS:
            return "indeterminate"
        digits = min(2 * digits, SIGN_DIGITS)


@lru_cache(maxsize=1024)
def product_of_orders(profile: OrderProfile) -> FactoredInteger:
    """prod over all elements of o(x), via the closed form n^n / prod p^(B_p)
    where B_p = sum_{j=1..c_p} B(n / p^j).

    Exponents only; the plain integer would overflow all practical widths
    long before the catalog cap.
    """
    n = profile.group_order
    table = frobenius_table(profile)
    exps: dict[int, int] = {}
    for p, c in factorize(n).factors:
        correction = sum(table.counts[n // p**j] for j in range(1, c + 1))
        exps[p] = n * c - correction
    return FactoredInteger.from_exponents(exps)
