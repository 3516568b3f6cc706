"""
Bundle pairs against Cantor arithmetic on a Jacobian
====================================================

Degree-0 divisor classes on a hyperelliptic curve are stored two ways:
as Mumford representatives, added by Cantor's composition-and-reduction
algorithm, and as the graded matrix pairs of the corresponding line
bundles.  The product of two pairs is itself a Cantor sum in the class
dictionary, so this script checks the pairs with two computations that
share no code with the group law:

* the torsion band: ``is_n_torsion`` decides n * c = 0 from the rank of
  a band matrix built from the pair alone.  At the Cantor order of the
  class it must be true, and at order / l it must be false for each
  prime l dividing the order;
* the inverse: negating P in the pair must give a pair isomorphic to the
  pair of the Cantor negative -c.

It enumerates the whole Jacobian of a small curve over F_7 and runs both
checks class by class.
"""

from dihedralcovers.fields import GF
from dihedralcovers.homog import HForm
from dihedralcovers.poly import Poly
from dihedralcovers.hyperelliptic import (HECurve, enumerate_jacobian,
                                          class_from_matrix, is_n_torsion,
                                          matrix_from_class, class_order)
from dihedralcovers.double_cover import inverse, is_isomorphic

K = GF(7)

# genus 1, branch form with roots 1, -1, 2, -2
f = Poly.one(K)
for r in (1, 6, 2, 5):
    f = f * (Poly.x(K) - Poly.const(K, K.of(r)))
curve = HECurve(K, 1, HForm.from_univar(f, 4))
model = curve.odd_model()

classes = enumerate_jacobian(model)
print("Jacobian over F_7 has", len(classes), "elements")

# order histogram, computed by repeated Cantor addition
orders = [class_order(c) for c in classes]
hist = {}
for o in orders:
    hist[o] = hist.get(o, 0) + 1
print("orders:", dict(sorted(hist.items())))

bands = 0
for c, order in zip(classes, orders):
    pair = matrix_from_class(curve, c)
    assert class_from_matrix(pair) == c
    assert is_isomorphic(inverse(pair), matrix_from_class(curve, -c))
    if order > 1:
        assert is_n_torsion(pair, order)
        bands += 1
    for l in (l for l in range(2, order + 1) if order % l == 0
              and all(l % d for d in range(2, l))):
        if order // l > 1:
            assert not is_n_torsion(pair, order // l)
            bands += 1
print("checked", len(classes), "inverses and", bands,
      "torsion bands; the pairs match Cantor")
