"""Acceptance gate: one test per advertised guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Everything here uses exact integer or rational arithmetic; there are no
tolerances anywhere.
"""

import hashlib
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from orderinv.catalog import group_from_label
from orderinv.groups import inversion_semidirect
from orderinv.matching import find_divisibility_matching, verify_matching
from orderinv.numtheory import (
    divisor_count,
    divisor_power_sum,
    divisors,
)
from orderinv.order_stats import (
    cyclic_excess,
    cyclic_profile,
    frobenius_table,
    order_profile,
    product_of_orders,
    weighted_order_sum,
)
from orderinv.report import integer_pairs, nonneg_pairs, nonpos_pairs
from orderinv.structure import count_cyclic_subgroups, is_cyclic, is_nilpotent, is_solvable
from orderinv.theorems import check_diagonal_gap, check_semidirect_count
from oracles import frobenius_expansion, mobius_kernel, mobius_kernel_by_definition
from synthetic import random_abelian_profiles


@contextmanager
def criterion(name: str):
    problems: list[str] = []
    try:
        yield problems
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: {'PASS' if not problems else 'FAIL'}")
    assert not problems, f"{name}: " + "; ".join(problems[:10])


def solution_count(profile, m: int) -> int:
    return sum(profile.counts.get(k, 0) for k in divisors(m))


def test_criterion_01_solution_counts_divisible(catalog64):
    with criterion("01 m | B(m) for every divisor, full catalog") as problems:
        assert len(catalog64) >= 150
        for g in catalog64:
            profile = order_profile(g)
            for m in divisors(g.order):
                if solution_count(profile, m) % m:
                    problems.append(f"{g.label}: m={m}")
            frobenius_table(profile)  # second route; raises if it disagrees


def test_criterion_02_cyclic_subgroup_floor(catalog64):
    with criterion("02 cyclic-subgroup count >= divisor count, equality iff cyclic") as problems:
        for g in catalog64:
            count = count_cyclic_subgroups(g)
            floor = divisor_count(g.order)
            if count < floor:
                problems.append(f"{g.label}: {count} < {floor}")
            if (count == floor) != is_cyclic(g):
                problems.append(f"{g.label}: equality/cyclicity mismatch")
        spots = {"S3": (5, 4), "Q8": (5, 4)}
        for label, (count, floor) in spots.items():
            g = group_from_label(label)
            if (count_cyclic_subgroups(g), divisor_count(g.order)) != (count, floor):
                problems.append(f"spot {label} != {count} vs {floor}")


def test_criterion_03_nonnegative_excess(catalog64):
    with criterion("03 excess >= 0 for s < r <= 3, s <= 0; zero iff one cyclic"
                   " subgroup per divisor") as problems:
        pairs = nonneg_pairs(3)
        assert len(pairs) == 18
        for g in catalog64:
            profile = order_profile(g)
            sweep = divisors(g.order) if g.order <= 48 else (g.order,)
            for n in sweep:
                cond = all(profile.cyclic_count(m) == 1 for m in divisors(n))
                for r, s in pairs:
                    t = cyclic_excess(profile, n, r, s)
                    if not isinstance(t, Fraction):
                        problems.append(f"{g.label} n={n}: inexact value")
                    if t < 0:
                        problems.append(f"{g.label} n={n} (r,s)=({r},{s}): {t} < 0")
                    if (t == 0) != cond:
                        problems.append(f"{g.label} n={n} (r,s)=({r},{s}): equality mismatch")


def test_criterion_04_diagonal_excess_detects_nilpotency(catalog64):
    with criterion("04 excess zero at r = s < 0 iff nilpotent; dual routes agree"
                   " on divisors up to order 48") as problems:
        for g in catalog64:
            profile = order_profile(g)
            nilpotent = is_nilpotent(g)
            for r in (-1, -2, -3):
                t = cyclic_excess(profile, g.order, r, r)
                if (t == 0) != nilpotent:
                    problems.append(f"{g.label} r=s={r}: zero/nilpotent mismatch")
            if g.order <= 48:
                for n in divisors(g.order):
                    for r in (-1, -2, -3):
                        [verdict] = check_diagonal_gap(g, n, [r])
                        if not verdict.consistent:
                            problems.append(f"{g.label} n={n} r={r}: inconsistent")
                        if "both-agree" not in verdict.witness:
                            problems.append(f"{g.label} n={n} r={r}: single route only")


def test_criterion_05_nonpositive_excess(catalog64):
    with criterion("05 excess <= 0 for s >= 1, r < s; zero iff cyclic;"
                   " order-sum slice at (0,1)") as problems:
        pairs = nonpos_pairs(3)
        assert len(pairs) == 15
        for g in catalog64:
            profile = order_profile(g)
            cyc = is_cyclic(g)
            for r, s in pairs:
                t = cyclic_excess(profile, g.order, r, s)
                if t > 0:
                    problems.append(f"{g.label} (r,s)=({r},{s}): {t} > 0")
                if (t == 0) != cyc:
                    problems.append(f"{g.label} (r,s)=({r},{s}): equality mismatch")
        s3 = order_profile(group_from_label("S3"))
        if weighted_order_sum(s3, 6, 0, 1) != 13 or divisor_power_sum(6, 0, 1) != 21:
            problems.append("spot S3 sum of element orders: expected 13 vs 21")


def test_criterion_06_nilpotent_sign_rule(catalog64):
    with criterion("06 nilpotent non-cyclic: sign of excess = sign of r - s"
                   " on the whole grid") as problems:
        targets = [g for g in catalog64 if is_nilpotent(g) and not is_cyclic(g)]
        labels = {g.label for g in targets}
        if not {"Q8", "D4", "E2^2"} <= labels:
            problems.append(f"expected nilpotent non-cyclic spots missing: {labels}")
        for g in targets:
            profile = order_profile(g)
            for r, s in integer_pairs(3):
                t = cyclic_excess(profile, g.order, r, s)
                if ((t > 0) - (t < 0)) != ((r > s) - (r < s)):
                    problems.append(f"{g.label} (r,s)=({r},{s}): sign {t}")


def test_criterion_07_order_product_maximal(catalog64):
    with criterion("07 product of element orders divides the cyclic one,"
                   " equality iff cyclic") as problems:
        for g in catalog64:
            mine = product_of_orders(order_profile(g))
            base = product_of_orders(cyclic_profile(g.order))
            if not mine.divides(base):
                problems.append(f"{g.label}: exponent excess")
            if (mine.as_json() == base.as_json()) != is_cyclic(g):
                problems.append(f"{g.label}: equality/cyclicity mismatch")
        spot = product_of_orders(order_profile(group_from_label("S3")))
        spot_base = product_of_orders(cyclic_profile(6))
        if spot.value() != 72 or spot_base.value() != 648:
            problems.append(f"spot S3: {spot.value()} vs {spot_base.value()},"
                            " expected 72 vs 648")


def test_criterion_08_kernel_identities(catalog64):
    with criterion("08 kernel product form = definitional sum (m, j <= 60);"
                   " expansion identity on catalog and synthetic profiles") as problems:
        pairs = integer_pairs(3)
        for m in range(1, 61):
            for j in range(1, 61):
                for r, s in pairs:
                    if mobius_kernel(m, j, r, s) != mobius_kernel_by_definition(m, j, r, s):
                        problems.append(f"kernel m={m} j={j} (r,s)=({r},{s})")
            if len(problems) > 5:
                break
        profiles = [order_profile(g) for g in catalog64]
        profiles += random_abelian_profiles(100, seed=20240816)
        for profile in profiles:
            n = profile.group_order
            for r, s in pairs:
                if weighted_order_sum(profile, n, r, s) != frobenius_expansion(profile, n, r, s):
                    problems.append(f"expansion n={n} (r,s)=({r},{s})")


def test_criterion_09_semidirect_family():
    with criterion("09 semidirect grid: subgroup count formula and closed-form"
                   " excess, plus the stacked-divisor instances") as problems:
        combos = [
            (m, beta, u)
            for m in (3, 5, 9, 15)
            for beta in (1, 3, 5, 25)
            for u in (1, 2)
            if gcd(m, 2**u * beta) == 1
        ]
        assert len(combos) == 18
        for m, beta, u in combos:
            verdict = check_semidirect_count(m, beta, u, grid=3)
            if not verdict.consistent:
                problems.append(f"(m,beta,u)=({m},{beta},{u}): {verdict.witness}")
        for gamma in (1, 2, 3):
            g = inversion_semidirect(3, 5 ** (gamma - 1), 1)
            expected = divisor_count(g.order) + gamma
            got = count_cyclic_subgroups(g)
            if got != expected:
                problems.append(f"gamma={gamma}: count {got} != {expected}")


def test_criterion_10_divisibility_matchings(catalog64):
    with criterion("10 divisibility matching found for every solvable group;"
                   " certificates verify") as problems:
        a5_status = "absent"
        for g in catalog64:
            profile = order_profile(g)
            matching = find_divisibility_matching(profile)
            if g.label == "A5":
                a5_status = matching.status
            if matching.status == "found":
                if not verify_matching(profile, matching):
                    problems.append(f"{g.label}: certificate rejected")
            elif is_solvable(g):
                problems.append(f"{g.label}: solvable but unmatched")
        # not load-bearing, but worth a line in the log
        print(f"[acceptance] note: A5 matching status = {a5_status}")


def test_criterion_11_verify_is_deterministic():
    with criterion("11 two consecutive verify runs are byte-identical") as problems:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "orderinv.cli", "verify"],
                capture_output=True,
            )
            if proc.returncode != 0:
                problems.append(f"verify exited {proc.returncode}")
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            problems.append("reports differ between runs")
        if not outputs[0]:
            problems.append("empty report")
        # the default report's SHA-256 pinned in ROADMAP.md
        digest = hashlib.sha256(outputs[0]).hexdigest()
        if digest != "2fb55f6a46e57eea9f66e60c81480939068913bb0a96dd06ccb4dc732ebaef38":
            problems.append(f"report SHA-256 changed: {digest}")
        # --paranoid builds every table twice and must not change a byte
        proc = subprocess.run(
            [sys.executable, "-m", "orderinv.cli", "verify", "--paranoid"],
            capture_output=True,
        )
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if digest != "2fb55f6a46e57eea9f66e60c81480939068913bb0a96dd06ccb4dc732ebaef38":
            problems.append(f"--paranoid report SHA-256 changed: {digest}")
        proc = subprocess.run(
            [sys.executable, "-m", "orderinv.cli", "verify", "--order-cap", "128"],
            capture_output=True,
        )
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if digest != "02dab87fa337c333aa76a75b71ec304026523a9a946fe7e56c70b2f6c2bd4983":
            problems.append(f"cap-128 report SHA-256 changed: {digest}")
        # cap 256 is the default catalog with groups above order 200
        proc = subprocess.run(
            [sys.executable, "-m", "orderinv.cli", "verify", "--order-cap", "256"],
            capture_output=True,
        )
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if digest != "362bb6abf898dea01b164b7074e6ab0ee8c393ed238d5ee903e92b78048263ba":
            problems.append(f"cap-256 report SHA-256 changed: {digest}")
