"""Executable claims pairing an analytic sign with a structural condition.

Every check computes the cyclic-excess functional (or another invariant)
on one side and evaluates the structural characterization on the other,
then records whether the two sides agree.  A one-sided implementation
bug therefore shows up as ``consistent = False`` instead of passing
silently.  Verdicts never hide failures: the inequality, the equality
condition and their agreement are reported as separate fields.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import order_stats
from .groups import FiniteGroup, inversion_semidirect
from .numtheory import divisor_count, divisor_power_sum, divisors, factorize, totient
from .order_stats import (
    ParameterDomainViolated,
    cyclic_profile,
    cyclic_subgroup_count,
    excess_signs,
    excess_table,
    excess_terms,
    frobenius_table,
    order_profile,
    product_of_orders,
    require_divisor,
    sign_of,
)
from .structure import (
    count_cyclic_subgroups,
    is_closed,
    is_cyclic,
    is_nilpotent,
    unique_subgroup_of_order,
)


class PreconditionViolated(ValueError):
    """The group does not satisfy the claim's standing hypothesis."""


class EqualityRouteMismatch(RuntimeError):
    """Two supposedly equivalent equality criteria disagreed."""


class TheoremVerdict(NamedTuple):
    """One claim evaluated on one group at one parameter point.

    ``consistent`` is the headline: the analytic side (sign of the
    excess) and the structural side must match the way the claim says.
    A False here on a genuine group means a bug or a counterexample,
    and sweeps treat it as a reportable event either way.
    """

    claim: str
    group: str
    parameters: tuple[tuple[str, object], ...]
    sign: str  # "neg" | "zero" | "pos", or "indeterminate" for an excess
    inequality_holds: bool
    equality_condition_holds: bool
    consistent: bool
    witness: str = ""


def _verdict(claim, group, parameters, sign, inequality, condition, witness=""):
    """The rule of every claim of the form "the inequality holds, and the
    sign is zero exactly when the condition holds": consistent when both
    parts do.  An indeterminate sign refutes nothing; its witness names the
    digits reached.

    Two claims have another form and build their own verdicts:
    ``check_semidirect_count`` compares three counts and a closed form, and
    ``report._matching_verdict`` lets a non-solvable group lack a matching.
    """
    undecided = sign == "indeterminate"
    if undecided:
        note = f"excess sign indeterminate at {order_stats.SIGN_DIGITS} digits"
        witness = f"{note}; {witness}" if witness else note
    return TheoremVerdict(
        claim=claim,
        group=group.label,
        parameters=parameters,
        sign=sign,
        inequality_holds=inequality or undecided,
        equality_condition_holds=condition,
        consistent=undecided or (inequality and (sign == "zero") == condition),
        witness=witness,
    )


def check_frobenius_divisibility(group: FiniteGroup) -> TheoremVerdict:
    """Each divisor m of |G| divides its solution count B(m), and B(m) >= m.

    All counts hit the floor exactly when the group is cyclic.
    """
    profile = order_profile(group)
    table = frobenius_table(profile)  # raises FrobeniusViolated if m never divides B(m)
    at_floor = all(table.counts[m] == m for m in table.counts)
    low = [m for m, b in table.counts.items() if b < m]
    return _verdict(
        "frobenius-divisibility", group, (("n", group.order),),
        "zero" if at_floor else "pos", not low, is_cyclic(group),
        f"B(m) below m at {low}" if low else "",
    )


def check_nonnegative_gap(group: FiniteGroup, n: int, points) -> list[TheoremVerdict]:
    """For s < r, s <= 0: excess >= 0, zero iff one cyclic subgroup per divisor of n.

    One verdict per (r, s) of points, in order; the condition and its
    witness are the same at every point.
    """
    for r, s in points:
        if not (s < r and s <= 0):
            raise ParameterDomainViolated(f"need s < r and s <= 0, got r={r}, s={s}")
    profile = order_profile(group)
    signs = excess_signs(profile, n, points)
    offending = [m for _, m, _ in excess_terms(profile, n)]
    witness = f"cyclic subgroup count is not 1 at {offending}" if offending else ""
    return [_verdict("gap-nonneg", group, (("n", n), ("r", r), ("s", s)), sign,
                     sign != "neg", not offending, witness)
            for (r, s), sign in zip(points, signs)]


def _subgroup_route(group: FiniteGroup, n: int) -> tuple[bool, str]:
    """Whether the group has exactly one subgroup of order n and it is
    nilpotent, with the search's status; the same at every exponent."""
    status, elements = unique_subgroup_of_order(group, n)
    if status != "unique":
        return False, status
    if n == group.order:  # B(p^a) is the other route's: ask the table instead
        orders = group.element_orders
        return all(is_closed(group, [x for x in elements if p**a % orders[x] == 0])
                   for p, a in factorize(n).factors), status
    return is_nilpotent(group, elements), status


def check_diagonal_gap(group: FiniteGroup, n: int, rs) -> list[TheoremVerdict]:
    """For r = s < 0: excess >= 0, zero iff a unique (nilpotent) subgroup of order n.

    One verdict per r of rs, in order.  The equality condition, the same at
    every r, is evaluated two independent ways, for any group and divisor
    n: through the solution counts (B(k) = k for every divisor k of n
    coprime to n/k), and by searching the order-n subgroups and testing the
    one found for nilpotency in the group's table; at n = |G|, whether each
    {x : o(x) | p^a} is closed, for then it holds every Sylow p-subgroup and
    is the only one.  Disagreement raises EqualityRouteMismatch: it would
    mean one of two proved-equivalent criteria is implemented wrong.
    """
    for r in rs:
        if not r < 0:
            raise ParameterDomainViolated(f"need r < 0, got r={r}")
    profile = order_profile(group)
    signs = excess_signs(profile, n, [(r, r) for r in rs])
    table = frobenius_table(profile)
    condition = all(
        table.counts[k] == k for k in divisors(n) if gcd(k, n // k) == 1
    )
    subgroup_route, status = _subgroup_route(group, n)
    if subgroup_route != condition:
        raise EqualityRouteMismatch(
            f"{group.label}, n={n}: solution-count route says {condition}, "
            f"subgroup route says {subgroup_route} (status: {status})"
        )
    return [_verdict("gap-diagonal", group, (("n", n), ("r", r), ("s", r)), sign,
                     sign != "neg", condition, "equality_route: both-agree")
            for r, sign in zip(rs, signs)]


def check_nonpositive_gap(group: FiniteGroup, points) -> list[TheoremVerdict]:
    """For r <= s-1, s >= 1, at n = |G|: excess <= 0, zero iff the group is cyclic.

    One verdict per (r, s) of points, in order.
    """
    for r, s in points:
        if not (r <= s - 1 and s >= 1):
            raise ParameterDomainViolated(f"need r <= s-1 and s >= 1, got r={r}, s={s}")
    signs = excess_signs(order_profile(group), group.order, points)
    cyclic = is_cyclic(group)
    return [_verdict("gap-nonpos", group, (("n", group.order), ("r", r), ("s", s)), sign,
                     sign != "pos", cyclic)
            for (r, s), sign in zip(points, signs)]


def check_nilpotent_sign(group: FiniteGroup, points) -> list[TheoremVerdict]:
    """Nilpotent non-cyclic groups: the excess has the sign of r - s.

    One verdict per (r, s) of points, in order.
    """
    if not is_nilpotent(group):
        raise PreconditionViolated(f"{group.label} is not nilpotent")
    if is_cyclic(group):
        raise PreconditionViolated(f"{group.label} is cyclic")
    signs = excess_signs(order_profile(group), group.order, points)
    verdicts = []
    for (r, s), sign in zip(points, signs):
        expected = sign_of(r - s)
        matches = sign == expected  # and so the excess vanishes iff r == s
        verdicts.append(_verdict(
            "nilpotent-sign", group, (("n", group.order), ("r", r), ("s", s)), sign,
            matches, r == s, "" if matches else f"r-s is {expected}",
        ))
    return verdicts


def check_min_cyclic_subgroups(group: FiniteGroup) -> TheoremVerdict:
    """At least d(|G|) cyclic subgroups, exactly d(|G|) iff cyclic.  The
    profile's count and the table's must agree, or EqualityRouteMismatch."""
    profile = order_profile(group)
    count = cyclic_subgroup_count(profile, group.order)
    if count != (walked := count_cyclic_subgroups(group)):
        raise EqualityRouteMismatch(f"{group.label}: {count} cyclic subgroups from the "
                                    f"profile, {walked} walked in the table")
    floor = divisor_count(group.order)
    return _verdict(
        "min-cyclic-count", group, (("n", group.order),), sign_of(count - floor),
        count >= floor, is_cyclic(group), f"cyclic subgroups: {count}, divisors: {floor}",
    )


def check_cyclic_part_equivalence(group: FiniteGroup, n: int) -> TheoremVerdict:
    """Three faces of "the n-part of the group is cyclic" must agree:

    (a) B(m) = m for every divisor m of n,
    (b) exactly d(n) cyclic subgroups of order dividing n,
    (c) the solution set of x^n = 1 is a cyclic subgroup of order n.
    """
    profile = order_profile(group)
    require_divisor(profile, n)
    table = frobenius_table(profile)
    at_floor = all(table.counts[m] == m for m in divisors(n))
    count_matches = cyclic_subgroup_count(profile, n) == divisor_count(n)

    orders = group.element_orders
    solutions = [x for x in range(group.order) if n % orders[x] == 0]
    solution_set_cyclic = (
        len(solutions) == n
        and is_closed(group, solutions)
        and max(orders[x] for x in solutions) == n
    )

    # the "inequality" is the equivalence; the sign is zero iff (a) holds
    equivalent = at_floor == count_matches and count_matches == solution_set_cyclic
    return _verdict(
        "cyclic-part-equivalence", group, (("n", n),), "zero" if at_floor else "pos",
        equivalent, at_floor,
        f"solution_counts_at_floor={at_floor}, "
        f"cyclic_count_matches={count_matches}, "
        f"solution_set_cyclic={solution_set_cyclic}",
    )


def check_order_product_maximal(group: FiniteGroup) -> TheoremVerdict:
    """The product of all element orders divides the cyclic group's product,
    with equality exactly for cyclic groups."""
    profile = order_profile(group)
    mine = product_of_orders(profile)
    baseline = product_of_orders(cyclic_profile(group.order))
    divides = mine.divides(baseline)
    return _verdict(
        "order-product-max", group, (("n", group.order),),
        "zero" if mine == baseline else ("neg" if divides else "pos"),
        divides, is_cyclic(group),
        f"product {mine.as_json()} vs cyclic {baseline.as_json()}",
    )


def check_semidirect_count(
    m: int, beta: int, u: int, grid: int = 3, group: FiniteGroup | None = None
) -> TheoremVerdict:
    """Inversion-type semidirect products hit their predicted invariants.

    Takes the group inversion_semidirect(m, beta, u), built here unless
    given, counts cyclic subgroups three ways (brute table scan, order
    profile, closed-form count), and compares the excess table over the
    integer grid [-grid, grid]^2 with the closed form at each point.
    """
    if group is None:
        group = inversion_semidirect(m, beta, u)
    profile = order_profile(group)
    brute = count_cyclic_subgroups(group)
    from_profile = cyclic_subgroup_count(profile, group.order)
    predicted = divisor_count(group.order) + divisor_count(beta) * (m - divisor_count(m))
    counts_agree = brute == from_profile == predicted

    half_order = totient(2**u)
    span = range(-grid, grid + 1)
    denominator, rows = excess_table(profile, group.order, span, span)
    mismatches = []
    for r, row in zip(span, rows):
        for s, numerator in zip(span, row):
            t = Fraction(numerator, denominator)
            closed_form = (
                Fraction(2) ** (u * s)
                / Fraction(half_order) ** (r - 1)
                * (m - divisor_power_sum(m, r, s))
                * divisor_power_sum(beta, r, s)
            )
            if t != closed_form:
                mismatches.append((r, s))

    surplus = predicted - divisor_count(group.order)
    return TheoremVerdict(
        claim="inversion-semidirect-count",
        group=group.label,
        parameters=(("m", m), ("beta", beta), ("u", u)),
        sign="pos" if surplus > 0 else "zero",
        inequality_holds=counts_agree,
        equality_condition_holds=not mismatches,
        consistent=counts_agree and not mismatches,
        witness=(
            f"counts brute={brute} profile={from_profile} predicted={predicted}"
            + (f", excess mismatches at {mismatches}" if mismatches else "")
        ),
    )
