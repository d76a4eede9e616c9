#!/usr/bin/env python3
"""Parking functions, staircase diagrams and Dyck paths.

A parking function on n cars keeps at least k of its values at or below k.
Its diagram places each label k at the end of a row of length f(k) - 1 inside
the staircase triangle; non-decreasing parking functions correspond to Dyck
paths and are counted by the Catalan numbers.
"""
from parkbases import (
    catalan,
    from_diagram,
    is_parking,
    nondecreasing_parking_functions,
    parking_functions,
    to_diagram,
)
from parkbases.render import diagram_ascii

print("is (1,1,1) a parking function?", is_parking((1, 1, 1)))
print("is (2,2) a parking function?  ", is_parking((2, 2)))

for n in range(1, 6):
    count = sum(1 for _ in parking_functions(n))
    print(f"|PF_{n}| = {count} = (n+1)^(n-1) = {(n + 1) ** (n - 1)}")

f = (1, 5, 3, 1, 4)
print(f"\nthe staircase diagram of f = {f} (labels sit at row ends):")
print(diagram_ascii(to_diagram(f)))
print("and reading row lengths back recovers f:", from_diagram(to_diagram(f)))

n = 4
fns = list(nondecreasing_parking_functions(n))
print(f"\nnon-decreasing parking functions on {n} cars: {len(fns)} = catalan({n}) = {catalan(n)}")
for f in fns:
    # the diagram's boundary from (0, -n) to (n, 0): each row's east steps to its end, then north
    picture = "".join("E" * (v - prev) + "N" for prev, v in zip((1, *f), f)) + "E" * (n + 1 - f[-1])
    print(f"  {f}  boundary path {picture}")
