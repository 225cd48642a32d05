"""The product of all element orders.

Multiplying o(x) over every element gives an integer that explodes fast
(for a group of order 64 it has hundreds of digits), so the package
keeps it factored: a map prime -> exponent.  The closed form writes it
as n^n divided by prime powers built from the solution counts B(n/p^j),
and a brute-force multiplication over the profile confirms it.

Among all groups of a given order the cyclic one maximizes this product,
exponent by exponent.
"""

from orderinv import (
    cyclic_profile,
    group_from_label,
    is_cyclic,
    order_profile,
    product_of_orders,
)


def factored_text(fi) -> str:
    pairs = fi.factors
    return " * ".join(f"{p}^{e}" for p, e in pairs) if pairs else "1"


for label in ("C6", "S3", "Q8", "D8", "C2xC3xC5", "E2^4"):
    group = group_from_label(label)
    mine = product_of_orders(order_profile(group))
    base = product_of_orders(cyclic_profile(group.order))
    gap = "equal" if mine.as_json() == base.as_json() else "strictly below"
    print(f"{label} (order {group.order}, cyclic={is_cyclic(group)})")
    print(f"  product of orders: {factored_text(mine)}")
    print(f"  cyclic benchmark:  {factored_text(base)}  -> {gap}")
    assert mine.divides(base)
    print()

# Small enough to print in full: S3 has orders 1,2,2,2,3,3 so the
# product is 72, against 648 for the cyclic group of order 6.
s3 = product_of_orders(order_profile(group_from_label("S3")))
c6 = product_of_orders(cyclic_profile(6))
print(f"S3 product as an integer: {s3.value()}")
print(f"C6 product as an integer: {c6.value()}")
