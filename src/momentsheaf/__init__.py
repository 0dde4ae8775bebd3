"""momentsheaf: exact intersection-cohomology sheaves on moment graphs.

The package computes the canonical sheaf on a moment graph (vertex modules
are free graded modules over Q[x1..xn], edges carry quotient rings along
their direction forms), reads off local and global equivariant intersection
cohomology, and cross-checks the resulting Kazhdan-Lusztig polynomials
against an independent Hecke-algebra recursion.
"""
