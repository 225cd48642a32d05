"""Number theory layer: brute-force oracles, frozen spot values, invariants."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint

from orderinv.numtheory import (
    FactoredInteger,
    divisor_count,
    divisor_power_sum,
    divisors,
    factorize,
    is_prime,
    totient,
    weight,
)
from oracles import (
    factored_product,
    log_mobius_kernel,
    mobius_kernel,
    mobius_kernel_by_definition,
    moebius,
    moebius_invert,
)


# ---------------------------------------------------------------- oracles

def brute_divisors(n):
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def brute_totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def brute_moebius(n):
    # factor by naive division, independently of factorize
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def test_divisors_against_brute_force():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    for n in range(1, 201):
        assert divisors(n) == brute_divisors(n)
        assert divisor_count(n) == len(divisors(n))


def test_factorize_beyond_a_million_squared():
    p, q = 10**6 + 3, 10**6 + 33
    assert factorize(p * q).factors == ((p, 1), (q, 1))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=10**10))
def test_factorize_matches_sympy(n):
    assert dict(factorize(n).factors) == factorint(n)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        divisors(-6)


def test_totient_against_brute_force():
    assert totient(1) == 1
    assert totient(12) == 4
    for n in range(1, 501):
        assert totient(n) == brute_totient(n)


def test_moebius_against_brute_force():
    assert moebius(1) == 1
    assert moebius(12) == 0
    assert moebius(30) == -1
    for n in range(1, 301):
        assert moebius(n) == brute_moebius(n)


def test_is_prime_small():
    sieve = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(1, 50):
        assert is_prime(n) == (n in sieve)


def test_totient_divisor_sum_identity():
    # sum_{d|n} phi(d) = n
    for n in range(1, 1001):
        assert sum(totient(d) for d in divisors(n)) == n


def test_totient_lower_bound_by_largest_prime():
    # phi(n) >= n/p for the largest prime p dividing n
    for n in range(2, 1001):
        p = factorize(n).factors[-1][0]
        assert totient(n) * p >= n


def test_weight_monotonic_along_divisibility():
    # for integer s >= max(r, 0) and 1 != m | n:  n^s/phi(n)^r >= m^s/phi(m)^r.
    # Equality: with s >= 1 exactly as classically stated (s > r forces m = n,
    # s = r forces every prime of n to divide m); at s = 0 the weight only
    # depends on phi, so r = 0 is identically 1 and r < 0 compares totients.
    # The s >= 0 restriction is where divisor-sum comparisons actually use
    # this: for s = r < 0 the ratio flips on primes of n missing from m
    # (n=6, m=2, r=s=-3 gives 1/27 < 1/8).
    pairs = [(r, s) for s in range(0, 4) for r in range(-3, s + 1)]
    for n in range(2, 301):
        rad = 1
        for p, _ in factorize(n).factors:
            rad *= p
        for m in divisors(n):
            if m == 1:
                continue
            for r, s in pairs:
                lhs, rhs = weight(n, r, s), weight(m, r, s)
                assert lhs >= rhs, (n, m, r, s)
                if s == 0:
                    expected_eq = r == 0 or totient(n) == totient(m)
                elif s == r:
                    expected_eq = m % rad == 0
                else:
                    expected_eq = m == n
                assert (lhs == rhs) == expected_eq, (n, m, r, s)


def test_weight_monotonicity_needs_nonnegative_s():
    # frozen counterexample documenting why the domain above stops at s = 0
    assert weight(6, -3, -3) == Fraction(1, 27)
    assert weight(2, -3, -3) == Fraction(1, 8)
    assert weight(6, -3, -3) < weight(2, -3, -3)


# ------------------------------------------------------- Moebius inversion

def test_moebius_invert_recovers_totient():
    # the divisor sums of phi are the identity map
    f = moebius_invert({d: d for d in divisors(12)}, 12)
    assert f == {d: totient(d) for d in divisors(12)}


def test_moebius_invert_missing_key():
    with pytest.raises(KeyError):
        moebius_invert({1: 1, 2: 3}, 12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200),
    data=st.data(),
)
def test_moebius_invert_round_trip(n, data):
    divs = divisors(n)
    f = {d: data.draw(st.integers(-50, 50)) for d in divs}
    g = {m: sum(f[d] for d in divisors(m)) for m in divs}
    assert moebius_invert(g, n) == f


# ------------------------------------------------------------ weights

def test_weight_modes():
    # integer values are exact whatever their type; a root is a float reading
    assert weight(6, 2, 1) == weight(6, 2.0, Fraction(1)) == Fraction(6, 4)
    assert isinstance(weight(6, 2.0, Fraction(1)), Fraction)
    approx = weight(6, 0.5, 1.0)
    assert isinstance(approx, float)
    assert approx == pytest.approx(6 / 2**0.5)
    with pytest.raises(ValueError):
        weight(0, 1, 1)


def test_divisor_power_sum_spots():
    # r=0, s=1 gives sum of d*phi(d); over 6 that is 1+2+6+12 = 21,
    # the sum of element orders of a cyclic group of order 6
    assert divisor_power_sum(6, 0, 1) == 21
    # r=1, s=0 degenerates to the divisor count
    for x in (1, 6, 12, 30):
        assert divisor_power_sum(x, 1, 0) == divisor_count(x)


# ------------------------------------------------------ Moebius kernels

KERNEL_DOMAIN = [(r, s) for s in range(-3, 1) for r in range(s, 4)]


def test_mobius_kernel_trivial_and_frozen_values():
    for r, s in [(0, 0), (2, -1), (-3, -3), (1, 0)]:
        assert mobius_kernel(1, 1, r, s) == 1
    # odd m, even j, r=1, s=0 vanishes
    assert mobius_kernel(3, 2, 1, 0) == 0
    assert mobius_kernel(15, 8, 1, 0) == 0
    # shared prime with r = s != 0 vanishes
    assert mobius_kernel(9, 3, -1, -1) == 0
    assert mobius_kernel(2, 8, 2, 2) == 0
    # hand-computed: m=5, j=3, r=1, s=0:
    #   mu(1)/phi(5) + mu(3)/phi(15) = 1/4 - 1/8
    assert mobius_kernel(5, 3, 1, 0) == Fraction(1, 8)


def test_mobius_kernel_matches_definition():
    for m in range(1, 41):
        for j in range(1, 41):
            for r, s in [(-2, -2), (0, 0), (1, 0), (3, -1), (-1, -3), (2, 3)]:
                assert mobius_kernel(m, j, r, s) == mobius_kernel_by_definition(
                    m, j, r, s
                ), (m, j, r, s)


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 100),
    j=st.integers(1, 100),
    r=st.integers(-3, 3),
    s=st.integers(-3, 3),
)
def test_mobius_kernel_product_form_identity(m, j, r, s):
    # the closed form is an identity in (r, s), not only on the sign domain
    assert mobius_kernel(m, j, r, s) == mobius_kernel_by_definition(m, j, r, s)


def test_mobius_kernel_sign_and_zero_classification():
    # on s <= min{0, r}: nonnegative, and zero exactly in the three listed cases
    for m in range(1, 31):
        for j in range(1, 31):
            shared = math.gcd(m, j) > 1
            for r, s in KERNEL_DOMAIN:
                val = mobius_kernel(m, j, r, s)
                assert val >= 0, (m, j, r, s)
                expected_zero = (
                    (s == 0 and r == 0 and j != 1)
                    or (s == r != 0 and shared)
                    or (s == 0 != r and j % 2 == 0 and m % 2 == 1)
                )
                assert (val == 0) == expected_zero, (m, j, r, s)


def test_log_mobius_kernel_tags():
    assert log_mobius_kernel(6, 1) == (1, 6)
    assert log_mobius_kernel(1, 8) == (-1, 2)
    assert log_mobius_kernel(5, 6) == (0, 1)
    assert log_mobius_kernel(1, 1) == (1, 1)


def test_log_mobius_kernel_against_float_sum():
    # numeric oracle: coeff*log(base) ~ sum_{i|j} mu(i) log(mi)
    for m in range(1, 41):
        for j in range(1, 41):
            coeff, base = log_mobius_kernel(m, j)
            direct = sum(
                moebius(i) * math.log(m * i) for i in divisors(j) if moebius(i)
            )
            assert coeff * math.log(base) == pytest.approx(direct, abs=1e-9)


# ------------------------------------------------------ factored integers

def test_factored_integer_round_trip():
    for n in range(1, 301):
        assert factorize(n).value() == n


def test_factored_integer_constructors():
    fi = FactoredInteger.from_exponents({3: 2, 2: 0, 5: 1})
    assert fi.factors == ((3, 2), (5, 1))
    with pytest.raises(ValueError):
        FactoredInteger.from_exponents({2: -1})
    with pytest.raises(ValueError):
        FactoredInteger(((4, 1),))  # wrong order/prime guard is structural
    with pytest.raises(ValueError):
        FactoredInteger(((3, 1), (2, 1)))


def test_factored_integer_arithmetic():
    a, b = factorize(12), factorize(18)
    assert factored_product([(a, 1), (b, 1)]).value() == 216
    assert factored_product([(a, 3)]).value() == 12**3
    assert factored_product([(a, 0)]).value() == 1
    with pytest.raises(ValueError):
        factored_product([(a, -1)])
    assert factorize(6).divides(factorize(12))
    assert not factorize(8).divides(factorize(12))
    for x in range(1, 101):
        for y in (1, 6, 12, 60, 97):
            assert factorize(x).divides(factorize(y)) == (y % x == 0)
    assert factorize(12).as_json() == {"2": 2, "3": 1}
