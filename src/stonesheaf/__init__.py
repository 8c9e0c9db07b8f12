"""Exact-arithmetic constructible sheaves over scattered Stone spaces.

The package makes the abelian-category machinery of these spaces
executable: splicing rings and the augmented adelic complex with
constructive exactness witnesses, constructible sheaves with their functor
calculus and the cube of ring sheaves, the standard diagram model with its
dimension-one completions, component structures with equivariant sheaves
and generators, and the dihedral/torus example blocks.
"""
