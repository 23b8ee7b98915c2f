"""Exact affine Schubert combinatorics at desk scale.

Affine permutations in window notation, bounded partitions and cores with
their bijections, canonical k-code decompositions, weak and set-valued
strips, the strong/weak order toolbox, and exact sparse arithmetic for
the affine Schubert bases of Z[h_1, ..., h_k], including the ideal-sum
Pieri rule and rectangle factorization together with their exhaustive
verification sweeps.  Each name is imported from its own module; the
package re-exports none.
"""

__version__ = "0.1.0"
