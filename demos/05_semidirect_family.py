"""A family with arbitrarily many extra cyclic subgroups.

The cyclic-subgroup count of any group is at least d(|G|), the divisor
count of its order, with equality only for cyclic groups.  How much
bigger can it get while staying close to cyclic?  Take an odd m coprime
to 2^u * beta and let the generator of C_{2^u * beta} act on C_m by
inversion.  The resulting group has exactly

    d(|G|) + d(beta) * (m - d(m))

cyclic subgroups, and its excess functional factors into a closed form
built from divisor power sums.  Choosing m = 3 and beta = 5^(gamma-1)
makes the surplus exactly gamma, so the count can exceed the divisor
floor by any prescribed amount.
"""

from orderinv import (
    count_cyclic_subgroups,
    check_semidirect_count,
    divisor_count,
    group_from_label,
    inversion_semidirect,
)

print("the grid used in the verification sweep")
for m, beta, u in [(3, 1, 1), (3, 5, 1), (5, 3, 2), (9, 5, 1), (15, 1, 2)]:
    group = inversion_semidirect(m, beta, u)
    count = count_cyclic_subgroups(group)
    predicted = divisor_count(group.order) + divisor_count(beta) * (m - divisor_count(m))
    verdict = check_semidirect_count(group, grid=2)
    print(f"  m={m:>2} beta={beta:>2} u={u}: order {group.order:>3},"
          f" count {count:>2}, formula {predicted:>2},"
          f" closed-form excess consistent={verdict.consistent}")
print()

print("surplus dialed to gamma = 1, 2, 3")
for gamma in (1, 2, 3):
    group = inversion_semidirect(3, 5 ** (gamma - 1), 1)
    count = count_cyclic_subgroups(group)
    floor = divisor_count(group.order)
    print(f"  gamma={gamma}: order {group.order:>3} has {count} cyclic subgroups"
          f" = {floor} + {count - floor}")
print()

# The same construction is exposed through labels, so the CLI can build it:
group = group_from_label("C3:C10")
print(f"group_from_label('C3:C10') -> order {group.order},"
      f" {count_cyclic_subgroups(group)} cyclic subgroups")
