"""
Dihedral character tables and the cover algebra
===============================================

The structure sheaf of a degree-2n dihedral cover decomposes under the
group action.  This script prints the character table of D_n, checks
the central projector identities in the regular representation, and
multiplies elements in the rank-2n algebra that realizes the cover.
"""

import itertools

from dihedralcovers.fields import QQ
from dihedralcovers.cyclotomic import CyclotomicField
from dihedralcovers import dihedral
from dihedralcovers.cover_algebra import (SimpleCoverAlgebra,
                                          eigensheaf_decomposition)

n = 5
K = CyclotomicField(n)


def matmul(a, b):
    """The product of two square matrices over K."""
    return [[sum((x * y for x, y in zip(row, col) if x and y), K.zero) for col in zip(*b)]
            for row in a]


print("character table of D_%d (order %d)" % (n, 2 * n))
table = dihedral.character_table(n)
rotations = [(k, 0) for k in range(n)]
for label in dihedral.irreducible_labels(n):
    vals = [table[label][g] for g in rotations] + [table[label][(0, 1)]]
    print("  %-5s degree %d   values %s"
          % (label, dihedral.char_degree(label),
             ", ".join(str(v) for v in vals)))
print()

# the central projectors are orthogonal idempotents summing to 1
projs = {lab: dihedral.projector(n, lab, K)
         for lab in dihedral.irreducible_labels(n)}
for lab, pr in projs.items():
    assert matmul(pr, pr) == pr
    assert dihedral.projector_rank(pr) == dihedral.char_degree(lab) ** 2
for l1, l2 in itertools.combinations(projs, 2):
    prod = matmul(projs[l1], projs[l2])
    assert all(not x for row in prod for x in row)
print("projector identities hold for n =", n)
print()

# multiplication in the cover algebra: u^i u^j wraps around at n
A = SimpleCoverAlgebra(n)
print("u^2 * u^3 =", A.mul(A.u(2), A.u(3)))
print("u^2 * v^3 =", A.mul(A.u(2), A.v(3)))
print("s * s     =", A.mul(A.s(), A.s()))
print()

# how the pushforward of the structure sheaf splits into eigensheaves
print("eigensheaf decomposition for n = 3, m = 1:")
for label, degs in eigensheaf_decomposition(3, 1):
    print("  %-5s twists %s" % (label, degs))
