"""``BundlePair.normal_form`` against the intertwining nullspace.

The oracle is the isomorphism test the normal form replaced: solve the
intertwining equation Psi N1 = N2 Psi(-l) for graded Psi by a nullspace
and look for an invertible solution through the determinant quadratic
form.  Two pairs with the same twists must have equal normal forms
exactly when the oracle finds them isomorphic.  The seeded pairs are
tensor products, the pairs of their Cantor sums, and both conjugated by
random graded automorphisms, on curves with F(1, 0) zero (x1 | F), a
nonzero square and a non-square (for a = b the normal form is then taken
over k' = k(sqrt(F(1, 0))), and the oracle stays over k).  Where
F(1, 0) is not a square, the normal forms are also checked to tell apart
every class of ``enumerate_jacobian`` on small genus-1 curves.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from dihedralcovers import linalg
from dihedralcovers.fields import GF, QQ, FpElem
from dihedralcovers.homog import HForm
from dihedralcovers.poly import Poly, sub_c
from dihedralcovers.double_cover import BundlePair, tensor, inverse, is_isomorphic
from dihedralcovers.hyperelliptic import (HECurve, matrix_from_class, class_from_matrix,
                                          enumerate_jacobian)

from conftest import split_curve, random_point_class, pair_charts, random_class


# -- the oracle: the intertwining nullspace ------------------------------


def _intertwining_nullspace(p1, p2):
    """The nullspace of the four equations (i, j) of Psi N1 = N2 Psi(-l),
    and the unknowns' degrees."""
    field, l = p1.ring.field, p1.ring.l
    p = field.characteristic
    tw = [p1.a, p1.b]
    degs = [tw[b] - tw[a] for a in range(2) for b in range(2)]
    n1, n2 = pair_charts(p1), pair_charts(p2)
    coeffs = [[sub_c(n1[b][j] if a == i else [], n2[i][a] if b == j else [], p)
               for a in range(2) for b in range(2)]
              for i in range(2) for j in range(2)]
    rows = linalg.convolution_matrix(
        field, coeffs, degs, [tw[j] + l - tw[i] for i in range(2) for j in range(2)])
    return linalg.nullspace(rows, field), degs


def _isomorphic_by_nullspace(p1, p2):
    field = p1.ring.field
    if (p1.a, p1.b) != (p2.a, p2.b):
        return False
    basis, degs = _intertwining_nullspace(p1, p2)

    def det_of(vec):
        a, b, c, d = (Poly(field, c) for c in linalg.split_blocks(vec, degs))
        return (a * d - b * c).coeff(0)

    return any(det_of(v) or any(det_of([x + y for x, y in zip(v, w)]) for w in basis[i + 1:])
               for i, v in enumerate(basis))


# -- seeded curves and pairs ---------------------------------------------


def _conjugate(pair, rng, r1=None):
    """The pair conjugated by a random graded automorphism U of
    O(-a) + O(-b), for a = b with first row ``r1`` when given:
    NJ = [[-f, P], [P, q]] goes to U NJ U^T / det U."""
    K, a, b = pair.ring.field, pair.a, pair.b
    f, P, q = pair.f, pair.P, pair.q
    if a < b:
        # U = [[al, h], [0, de]] with deg h = b - a
        al, de = K.random_nonzero(rng), K.random_nonzero(rng)
        h = HForm.from_univar(Poly(K, [K.random(rng) for _ in range(b - a + 1)]), b - a)
        return BundlePair(pair.ring, a, b, P + q * h * K.inv(al),
                          (f * (al * al) - P * h * (2 * al) - q * h * h) * K.inv(al * de),
                          q * (de * K.inv(al)))
    first = r1
    while True:
        r1, r2 = first or (K.random(rng), K.random(rng)), (K.random(rng), K.random(rng))
        det = r1[0] * r2[1] - r1[1] * r2[0]
        if det:
            break

    def form(r, s):     # the bilinear form of NJ at the rows r and s
        return f * -(r[0] * s[0]) + P * (r[0] * s[1] + r[1] * s[0]) + q * (r[1] * s[1])

    inv = K.inv(det)
    return BundlePair(pair.ring, a, b, form(r1, r2) * inv, -form(r1, r1) * inv,
                      form(r2, r2) * inv)


def _sqrt_q(v):
    n, d = v.numerator, v.denominator
    if n < 0 or math.isqrt(n) ** 2 != n or math.isqrt(d) ** 2 != d:
        return None
    return Fraction(math.isqrt(n), math.isqrt(d))


def _point_draw(model, rng):
    """A draw of random affine points of the odd model: from all points
    over a small prime, x = n/d with |n| <= 6 and d <= 2 over Q."""
    K = model.field
    p = K.characteristic
    if p and p > 100:
        return lambda: random_point_class(model, rng)
    xs = ([K.of(v) for v in range(p)] if p else
          sorted({Fraction(n, d) for d in (1, 2) for n in range(-6, 7)}))
    pts = []
    for x in xs:
        fx = model.fodd(x)
        y = K.sqrt(fx) if p else _sqrt_q(Fraction(fx))
        if y is not None:
            pts += [model.point_class(x, y)] + ([model.point_class(x, -y)] if y else [])
    assert pts
    return lambda: rng.choice(pts)


def _curve(name, g, rng):
    """A seeded genus-g curve: ``"p5"`` y^2 = squarefree quintic-style odd
    poly over GF(5) (F(1, 0) = 0); ``"p7"`` F = x0 h over GF(7) with
    F(1, 0) = 3, a non-square, so that every pair with a = b has its
    normal form over GF(7)(sqrt(3)); ``"p101"``, ``"p1009"``, ``"p61"``
    split curves (F(1, 0) = 1); ``"Q1"``, ``"Q4"``, ``"Q2"``, ``"Q-1"`` c
    times a split form over Q, F(1, 0) = c."""
    if name in ("p5", "p7"):
        p = int(name[1:])
        K = GF(p)
        while True:
            if p == 5:
                c = [rng.randrange(5) for _ in range(2 * g + 1)] + [1]
            else:
                c = [0] + [rng.randrange(7) for _ in range(2 * g + 1)] + [3]
            F = HForm.from_univar(Poly(K, c), 2 * g + 2)
            if F.is_squarefree():
                curve = HECurve(K, g, F)
                draw = _point_draw(curve.odd_model(), rng)
                return curve, draw
    if name.startswith("p"):
        curve = split_curve({"p101": 101, "p1009": 1009, "p61": 2 ** 61 - 1}[name], g)
        return curve, _point_draw(curve.odd_model(), rng)
    x = Poly.x(QQ)
    F = Poly.const(QQ, Fraction(int(name[1:])))
    for r in (0, 1, -1, 2, -2, 3, -3, 4)[:2 * g + 2]:
        F = F * (x - Poly.const(QQ, Fraction(r)))
    curve = HECurve(QQ, g, HForm.from_univar(F, 2 * g + 2))
    return curve, _point_draw(curve.odd_model(), rng)


def _pool(curve, draw, rng, count):
    """Pairs on the curve: for ``count`` pairs of random classes, the
    tensor product of their pairs, the pair of the Cantor sum and a
    conjugate of each."""
    g = curve.g
    model = curve.odd_model()
    pool = []
    for _ in range(count):
        c1, c2 = (sum((draw() for _ in range(rng.randint(1, g))), model.zero_class())
                  for _ in range(2))
        t = tensor(matrix_from_class(curve, c1), matrix_from_class(curve, c2))
        s = matrix_from_class(curve, c1 + c2)
        pool += [t, s, _conjugate(t, rng), _conjugate(s, rng)]
    return pool


CURVES = ([("p5", g) for g in (1, 2, 3, 4)] + [("p7", g) for g in (1, 2, 3)]
          + [(n, g) for n in ("p101", "p1009", "p61") for g in (1, 2, 3, 4)]
          + [("Q1", 1), ("Q1", 2), ("Q1", 3), ("Q4", 1), ("Q4", 2), ("Q2", 1), ("Q2", 2),
             ("Q-1", 1), ("Q-1", 2)])


def _at(chart, j):
    return chart[j] if len(chart) > j else 0


def test_normal_form_matches_the_intertwining_nullspace():
    rng = random.Random(32)
    seen, kprime_fields = set(), set()
    for name, g in CURVES:
        curve, draw = _curve(name, g, rng)
        F = curve.F._chart()
        top = F[-1] if len(F) == 2 * curve.l + 1 else 0
        for x, y in itertools.combinations(_pool(curve, draw, rng, 4 if g < 3 else 3), 2):
            if (x.a, x.b) != (y.a, y.b):
                continue
            want = _isomorphic_by_nullspace(x, y)
            assert is_isomorphic(x, y) == want, (name, g, x, y)
            nx, ny = x.normal_form(), y.normal_form()
            assert (nx == ny) == want, (name, g, x, y)
            a, b, P, q = nx
            K = curve.field
            s = K.sqrt(top) if K.characteristic else _sqrt_q(Fraction(top))
            if a == b and s is None:
                # over k' = k(s), s^2 = F(1, 0), an element x + y s is (x, y)
                # and P and q are pairs of k-charts: q monic of degree < l,
                # P(1, 0) = s
                assert name in ("p7", "Q2", "Q-1")
                assert q[0][-1] == 1 and len(q[1]) < len(q[0]) <= curve.l
                assert (_at(P[0], curve.l), _at(P[1], curve.l)) == (0, 1)
                seen.add(("k'", want))
                kprime_fields.add(K.characteristic)
                continue
            # the normal form is itself a pair of the class
            f = (Poly(K, F) - Poly(K, P) * Poly(K, P)).exact_div(Poly(K, q))
            z = BundlePair(curve, a, b, *(HForm.from_univar(Poly(K, c), d) for c, d in (
                (P, curve.l), (f.c, curve.l - a + b), (q, curve.l + a - b))))
            assert z.normal_form() == nx and _isomorphic_by_nullspace(z, x)
            # q is monic, and for a = b of degree < l with P(1, 0) the
            # field's square root of F(1, 0)
            assert q[-1] == 1
            if a == b:
                assert len(q) <= curve.l and _at(P, curve.l) == s
            seen.add(("a<b" if a < b else "a=b", want))
            seen.add(("F(1,0)=0" if not top else "square", want))
            if a == b and not top:
                seen.add(("a=b, F(1,0)=0", want))
            if any(len(e.q._chart()) <= e.q.deg for e in (x, y)):
                seen.add(("x1|q", want))
    kinds = ("a<b", "a=b", "F(1,0)=0", "a=b, F(1,0)=0", "square", "x1|q", "k'")
    assert seen == {(kind, w) for kind in kinds for w in (True, False)}, seen
    # normal forms over k' decide pairs over GF(7) and over Q
    assert kprime_fields == {7, 0}


def test_normal_form_property():
    """normal_form(x) == normal_form(y) exactly when the nullspace finds
    x and y isomorphic, for hypothesis-drawn pairs of a pool."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rng = random.Random(3201)
    pools = []
    for name, g in (("p5", 2), ("p101", 1), ("p1009", 3), ("p61", 2), ("Q1", 1), ("Q4", 2)):
        curve, draw = _curve(name, g, rng)
        pools.append(_pool(curve, draw, rng, 3))

    @hyp.settings(max_examples=120, deadline=None)
    @hyp.given(st.integers(0, len(pools) - 1), st.integers(0, 11), st.integers(0, 11),
               st.booleans(), st.integers(0, 2 ** 32))
    def run(k, i, j, conj, seed):
        x, y = pools[k][i], pools[k][j]
        if conj:
            y = _conjugate(y, random.Random(seed))
        if (x.a, x.b) == (y.a, y.b):
            assert (x.normal_form() == y.normal_form()) == _isomorphic_by_nullspace(x, y)

    run()


def test_normal_form_of_a_conjugate_is_unchanged():
    """Conjugates of one pair share a normal form, and the normal form is
    computed on charts: the stored entries and the pair JSON stay."""
    rng = random.Random(7)
    for name, g in (("p5", 1), ("p1009", 3), ("p61", 4), ("Q4", 1), ("Q1", 3)):
        curve, draw = _curve(name, g, rng)
        for pair in _pool(curve, draw, rng, 2):
            before = pair.to_json()
            form = pair.normal_form()
            assert pair.to_json() == before
            for _ in range(3):
                assert _conjugate(pair, rng).normal_form() == form


def test_normal_form_of_conjugates_with_f_l_zero():
    """A first row of U on either root of Q's x0^l coefficient gives a
    conjugate with f(1, 0) = 0 and P(1, 0) = +s or -s, the two cases in
    which the normal form does not divide by f(1, 0)."""
    rng = random.Random(11)
    signs = set()
    for name, g in (("p101", 1), ("p1009", 3)):
        curve, draw = _curve(name, g, rng)
        K, l = curve.field, curve.l
        top = lambda c: c[l] if len(c) > l else 0
        for pair in (x for x in _pool(curve, draw, rng, 3) if x.a == x.b):
            Pl, fl, ql = (top(e._chart()) for e in (pair.P, pair.f, pair.q))
            for x, y in [(1, 0)] + [(x, 1) for x in range(K.characteristic)]:
                if (-fl * x * x + 2 * Pl * x * y + ql * y * y) % K.characteristic:
                    continue
                z = _conjugate(pair, rng, (K.of(x), K.of(y)))
                assert not top(z.f._chart()) and z.normal_form() == pair.normal_form()
                signs.add(top(z.P._chart()) == K.unbox(K.sqrt(1)))
    assert signs == {True, False}


def test_normal_forms_over_k_prime_match_the_full_intertwining_nullspace():
    """For a = b with F(1, 0) not a square, the normal forms over
    k' = k(sqrt(F(1, 0))) are equal exactly when the nullspace of all four
    intertwining equations over k holds an invertible Psi, for every
    ordered pair of a pool, over GF(7) and over Q: isomorphic pairs, and
    pairs with no intertwiner at all."""
    rng = random.Random(4201)
    checked = set()
    curves = [_curve("p7", g, rng) for g in (1, 2, 3)]
    curves += [_curve(name, g, rng) for name in ("Q2", "Q-1") for g in (1, 2)]
    for curve, draw in curves:
        pool = [x for x in _pool(curve, draw, rng, 4) if x.a == x.b]
        for x, y in itertools.product(pool, repeat=2):
            iso = x.normal_form() == y.normal_form()
            assert iso == _isomorphic_by_nullspace(x, y) == is_isomorphic(x, y), (curve, x, y)
            basis = _intertwining_nullspace(x, y)[0]
            checked.add((curve.field.characteristic, bool(basis), iso))
    # over both fields isomorphic pairs and pairs with no intertwiner at all
    assert {(p, i) for p, _, i in checked} == {(7, True), (7, False), (0, True), (0, False)}
    assert {(s, i) for _, s, i in checked} >= {(True, True), (False, False)}


def test_pair_layer_builds_no_field_element(monkeypatch):
    """Plain values cross every module boundary: no FpElem is built by
    tensor, class_from_matrix, matrix_from_class, inverse and
    is_isomorphic on GF(1009) genus-2 classes, nor by the normal forms
    over GF(7)(sqrt(3)) on the GF(7) curves, where F(1, 0) = 3 is a
    non-square."""
    rng = random.Random(45)
    curve = split_curve(1009, 2)
    classes = [random_class(curve.odd_model(), 2, rng) for _ in range(4)]
    pools = [[x for x in _pool(*_curve("p7", g, rng), rng, 3) if x.a == x.b] for g in (1, 2)]
    built = []
    real = FpElem.__init__

    def spy(self, v, p):
        built.append((v, p))
        real(self, v, p)

    monkeypatch.setattr(FpElem, "__init__", spy)
    for a, b in zip(classes, classes[1:]):
        pa = matrix_from_class(curve, a)
        t = tensor(pa, matrix_from_class(curve, b))
        assert class_from_matrix(t) == a + b
        assert is_isomorphic(t, matrix_from_class(curve, a + b))
        assert class_from_matrix(inverse(pa)) == -a
    verdicts = set()
    for pool in pools:
        for x, y in itertools.product(pool, repeat=2):
            assert x.normal_form() is not None
            verdicts.add(is_isomorphic(x, y))
    assert verdicts == {True, False}
    assert not built


def test_normal_forms_tell_the_classes_apart_where_f_1_0_is_not_a_square():
    """On genus-1 curves F = x0 h over GF(5) and GF(7) with F(1, 0) not a
    square (x0 | F gives the odd model a branch point), the pairs of each
    class c of ``enumerate_jacobian``, namely ``matrix_from_class`` of c,
    the tensor products of the pairs of a seeded sample of c1 and c - c1,
    and a random conjugate of each, share one normal form, and different
    classes have different ones.  Every class but zero has a = b = 1, so
    its forms are taken over k' = k(sqrt(F(1, 0)))."""
    rng = random.Random(5801)
    for p, top in ((5, 2), (5, 3), (7, 3), (7, 6)):
        K = GF(p)
        while True:
            F = HForm.from_univar(Poly(K, [0] + [rng.randrange(p) for _ in range(3)] + [top]), 4)
            if F.is_squarefree():
                break
        curve = HECurve(K, 1, F)
        classes = enumerate_jacobian(curve.odd_model())
        forms = set()
        for c in classes:
            pairs = [matrix_from_class(curve, c)]
            for c1 in rng.sample(classes, 3):
                pairs.append(tensor(matrix_from_class(curve, c1),
                                    matrix_from_class(curve, c - c1)))
            pairs += [_conjugate(x, rng) for x in pairs]
            (form,) = {x.normal_form() for x in pairs}
            assert (form[0] == form[1]) == (not c.is_zero())
            forms.add(form)
        assert len(forms) == len(classes) > 2, (p, top)
