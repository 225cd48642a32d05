"""Order-profile invariants of finite groups.

The package computes, with exact rational arithmetic, invariants built
from the multiset of element orders of a finite group: solution counts
of x^m = 1, weighted order sums and their excess over the cyclic group
of the same order, cyclic subgroup counts, and the product of element
orders.  A claim suite checks the structural characterizations these
invariants detect (cyclicity, nilpotency, unique subgroups per order)
on a catalog of groups, via independent routes that must agree.

The top level exports what the demos use; everything else is imported
from its submodule.
"""

from .catalog import group_from_label
from .groups import inversion_semidirect
from .matching import find_divisibility_matching, verify_matching
from .numtheory import divisor_count, divisors
from .order_stats import (
    OrderProfile,
    cyclic_excess,
    cyclic_profile,
    frobenius_table,
    order_profile,
    product_of_orders,
    weighted_order_sum,
)
from .report import TOOL_VERSION as __version__
from .structure import count_cyclic_subgroups, is_cyclic, is_solvable
from .theorems import check_semidirect_count

__all__ = [
    "OrderProfile",
    "check_semidirect_count",
    "count_cyclic_subgroups",
    "cyclic_excess",
    "cyclic_profile",
    "divisor_count",
    "divisors",
    "find_divisibility_matching",
    "frobenius_table",
    "group_from_label",
    "inversion_semidirect",
    "is_cyclic",
    "is_solvable",
    "order_profile",
    "product_of_orders",
    "verify_matching",
    "weighted_order_sum",
]
