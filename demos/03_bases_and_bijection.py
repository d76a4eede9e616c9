#!/usr/bin/env python3
"""Ordered root bases and the initial-vector bijection.

A basis is an ordered tuple of positive roots whose Seifert matrix is
upper-triangular.  Reading off the left endpoints gives a parking function,
and that map is a bijection: the basis is rebuilt by shooting rays on the
staircase diagram, or, when f is a permutation, by a shortcut.
"""
from parkbases import (
    distinguished_bases,
    gap,
    initial_vector,
    reconstruct,
    reconstruct_permutation,
    to_arcs,
    validate_basis,
)
from parkbases.render import arcs_ascii

print("all bases of rank 2:")
for basis in distinguished_bases(2):
    print("  ", ", ".join(map(str, basis)), "  initial vector", initial_vector(basis))

print("\ncounts match the parking functions:")
for n in range(1, 6):
    print(f"  rank {n}: {sum(1 for _ in distinguished_bases(n))} bases")

print("\nreconstructing from a parking function:")
f = (2, 2, 1)
rebuilt = reconstruct(f)
print(f"  f = {f}")
print("  ray stops:", ", ".join(map(str, rebuilt)), f"(initial vector {initial_vector(rebuilt)})")
sigma = (3, 1, 2)
print(f"  permutation shortcut for {sigma}:", ", ".join(map(str, reconstruct_permutation(sigma))))

big = (3, 11, 7, 5, 9, 8, 5, 2, 1, 10, 2, 12)
basis = reconstruct(big)
validate_basis(basis, 12)
print(f"\na rank-12 example, f = {big}:")
print("  basis:", ", ".join(map(str, basis)))
print("  as arcs on the axis 0..12:")
print(arcs_ascii(to_arcs(basis)))

print("every root of a basis covers exactly one point no smaller root covers:")
for i in range(1, 4):
    print(f"  gap of position {i} in {tuple(map(str, rebuilt))}: {gap(rebuilt, i)}")
