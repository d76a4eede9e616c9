#!/usr/bin/env python3
"""The braid action on bases, parking functions and diagrams.

Left and right mutations alpha_k / beta_k act on adjacent pairs of a basis and
satisfy the braid relations; conjugating through the bijection they act on
parking functions, where every generator orbit has length 2 or 3.  On
non-decreasing functions the action is a flip of the underlying staircase
Young diagram.
"""
from parkbases import (
    apply_word_parking,
    flip_row,
    generator_order,
    mutate,
    mutate_parking,
    orbit_graph,
    parse_word,
    reconstruct,
    simple_roots,
    to_diagram,
    young_of_diagram,
)
from parkbases.render import orbit_dot

basis = simple_roots(2)
print("the alpha_1 orbit of the simple roots of rank 2 (a 3-cycle):")
for _ in range(3):
    print("  ", ", ".join(map(str, basis)))
    basis = mutate(basis, 1, "left")

print("\non parking functions:")
print("  alpha_1 (1,2,1) ->", mutate_parking((1, 2, 1), 1, "left"))
print("  alpha_2 (1,2,1) ->", mutate_parking((1, 2, 1), 2, "left"))
word = parse_word("1 -2 1")
print(f"  word {word} applied to (1,2,1) ->", apply_word_parking((1, 2, 1), word))

print("\ngenerator orbit lengths are 2 when the adjacent pair is orthogonal, else 3:")
b = reconstruct((1, 3, 1))
print("  basis", ", ".join(map(str, b)), "->", [generator_order(b, k) for k in (1, 2)])

print("\nbraid relation check on every rank-3 parking function:")
ok = all(
    apply_word_parking(f, (1, 2, 1)) == apply_word_parking(f, (2, 1, 2))
    for f in orbit_graph(3).nodes
)
print("  alpha_1 alpha_2 alpha_1 == alpha_2 alpha_1 alpha_2:", ok)

print("\nflips of staircase Young diagrams realise the action on non-decreasing inputs:")
f = (1, 1, 3)
young = young_of_diagram(to_diagram(f))
print(f"  f = {f}, young diagram {young}")
for k in (1, 2, 3):
    print(f"  flip in row {k}: {flip_row(young, k)}")
moved = mutate_parking(f, 1, "left")
print(f"  alpha_1 moves f to {moved} with young diagram",
      young_of_diagram(to_diagram(moved)))

print("\nthe rank-2 orbit graph in DOT:")
print("".join(orbit_dot(orbit_graph(2))))
