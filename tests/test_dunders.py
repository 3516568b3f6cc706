"""Dunder methods that no other test enters: hashes agree with ``==``,
``//`` and reflected ``-`` agree with ``divmod`` and ``-``, and each
report or structure names its class in its repr."""

import random
from fractions import Fraction

from dihedralcovers import cover_geometry as cg
from dihedralcovers.cover_algebra import AFPoly
from dihedralcovers.cyclotomic import CyclotomicField
from dihedralcovers.deformations import def_prime_dims
from dihedralcovers.fields import GF, QQ
from dihedralcovers.homog import HForm
from dihedralcovers.hyperelliptic import class_from_matrix
from dihedralcovers.parsing import parse_form
from dihedralcovers.poly import Poly

from conftest import random_class, split_curve


def test_hashes_arithmetic_and_reprs():
    # hashes agree with == on values built two ways
    pairs = [
        (Poly(QQ, [1, 2]), Poly.x(QQ) * 2 + 1),
        (Poly(GF(7), [3, 0, 1]), Poly.x(GF(7)) * Poly.x(GF(7)) + 10),
        (parse_form("x0^2 + 2*x0*x1", QQ, 2),
         HForm(QQ, 2, 2, {(2, 0): Fraction(1), (1, 1): Fraction(4, 2)})),
        (parse_form("3*x0*x2 + x1^2", GF(7), 3), HForm(GF(7), 3, 2, {(1, 0, 1): 10, (0, 2, 0): 8})),
        (GF(7).of(Fraction(1, 5)), GF(7).of(10)),
        (CyclotomicField(6), CyclotomicField(6)),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y), (x, y)
        assert {x: 1}[y] == 1
    assert GF(7).of(3) != GF(11).of(3) and CyclotomicField(6) != CyclotomicField(3)

    # // is the quotient of divmod, and c - p is the negative of p - c
    rng = random.Random(11)
    for K in (QQ, GF(101)):
        for _ in range(20):
            a = Poly(K, [K.random(rng) for _ in range(rng.randrange(1, 8))])
            b = Poly(K, [K.random(rng) for _ in range(rng.randrange(1, 5))] + [K.one])
            assert a // b == divmod(a, b)[0]
            assert 3 - a == Poly.const(K, 3) - a == -(a - 3)

    # each repr names its class (an AFPoly prints as a polynomial in a, F)
    spec = cg.SimpleCoverSpec(3, cg.ProjectiveSpace(2, 1),
                              parse_form("x0^3 + x1^3 + x2^3", QQ, 3),
                              parse_form("x0*x1 + x0*x2 + x1*x2", QQ, 3))
    curve = split_curve(7, 1)
    pair = curve.trivial_pair()
    cls = class_from_matrix(pair)
    reprs = {
        "CheckReport": cg.check_simple(spec, seed=7),
        "InvariantReport": cg.invariants(3, spec.base),
        "ProjectiveSpace": spec.base,
        "DefReport": def_prime_dims(2, 1, 2),
        "DoubleCoverRing": pair.ring,
        "MumfordClass": random_class(curve.odd_model(), 1, random.Random(3)),
    }
    for name, value in reprs.items():
        assert repr(value).startswith(name + "("), repr(value)
    assert repr(cls) == "MumfordClass(u=1, v=0)"
    assert repr(spec.base) == "ProjectiveSpace(d=2, m=1)"
    assert repr(AFPoly(QQ, {(1, 0): 2, (0, 1): 1})) == "2*a + F"
    assert repr(AFPoly(QQ, {(2, 0): 4, (0, 5): -4})) == "4*a^2 - 4*F^5"
    assert repr(AFPoly(QQ)) == "0"
