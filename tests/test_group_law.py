"""The Jacobian group law on coefficient lists against Cantor's algorithm
on ``Poly`` arithmetic, the oracle below: two extended gcds for every
pair, then the reduction (Cantor, Math. Comp. 48, 1987).  A reduced
Mumford pair is unique, so the two must agree class for class."""

import random

import pytest

from dihedralcovers import cli, hyperelliptic
from dihedralcovers.fields import GF, QQ
from dihedralcovers.poly import Poly, poly_gcd, poly_xgcd
from dihedralcovers.hyperelliptic import (HECurve, OddModel, MumfordClass, cantor_add,
                                          enumerate_jacobian, class_from_matrix,
                                          matrix_from_class)
from dihedralcovers.double_cover import tensor, is_isomorphic

from conftest import split_curve, random_class
from test_tensor_kernel import _kernel_route


def oracle_cantor_add(c1, c2):
    """Composition and reduction of two reduced Mumford pairs on Polys."""
    model = c1.model
    f = model.fodd
    u1, v1, u2, v2 = c1.u, c1.v, c2.u, c2.v
    d0, e1, e2 = poly_xgcd(u1, u2)
    d, c1_, c2_ = poly_xgcd(d0, v1 + v2)
    s1 = c1_ * e1
    s2 = c1_ * e2
    s3 = c2_
    u = (u1 * u2).exact_div(d * d)
    num = s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + f)
    v = num.exact_div(d) % u
    return oracle_reduce(model, _monic(u), v)


def oracle_reduce(model, u, v):
    while u.degree > model.g:
        u = _monic((model.fodd - v * v).exact_div(u))
        v = (-v) % u if u.degree else Poly.zero(model.field)
    return MumfordClass(model, _monic(u), v)


def _monic(u):
    return u * u.field.inv(u.coeff(u.degree))


FIELDS = {"GF(5)": GF(5), "GF(7)": GF(7), "GF(101)": GF(101), "GF(1009)": GF(1009),
          "GF(2^61-1)": GF(2 ** 61 - 1), "Q": QQ}


def _model(K, g, rng):
    """The odd model y^2 = f of a seeded genus-g curve, with f squarefree
    of degree 2g + 1 and the points (i, +-s(i)), i = 0..2g, on it: f is
    prod_i (x - i) + s^2 for a random s of degree <= g."""
    p = K.characteristic
    xs = sorted({i % p if p else i for i in range(2 * g + 1)})
    roots = Poly.one(K)
    for i in range(2 * g + 1):
        roots = roots * Poly(K, [-i, 1])
    while True:
        s = Poly(K, [rng.randint(-3, 3) for _ in range(g + 1)])
        f = roots + s * s
        try:
            curve = HECurve.from_odd_poly(K, g, f)    # f squarefree of degree 2g + 1
        except ValueError:
            continue
        if any(s(K.of(x)) for x in xs):
            break
    # F = x1^(2g+2) f(x0/x1) has its branch point (1:0) at infinity already
    model = OddModel(curve, (K.one, K.zero))
    assert model.fodd == f
    points = []
    for x in xs:
        y = s(K.of(x))
        if y:
            points += [model.point_class(K.of(x), y), model.point_class(K.of(x), -y)]
    return model, points


def _models():
    rng = random.Random(4001)
    return {(name, g): _model(K, g, rng) for name, K in FIELDS.items() for g in (1, 2, 3, 4)}


def test_group_law_matches_the_oracle():
    """Random sums of points of seeded curves over GF(5), GF(7), GF(101),
    GF(1009), GF(2^61 - 1) and Q at g = 1..4: the sum, the double, the
    sum with the negative and with zero, as the oracle gives them."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    models = _models()
    keys = sorted(models)
    indices = st.lists(st.integers(0, 63), max_size=4)

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(st.sampled_from(keys), indices, indices)
    def run(key, ia, ib):
        model, points = models[key]
        g = model.g

        def draw(ix):
            return sum((points[i % len(points)] for i in ix[:g]), model.zero_class())

        a, b = draw(ia), draw(ib)
        zero = model.zero_class()
        for x, y in ((a, b), (b, a), (a, a), (a, -a), (a, zero), (zero, b)):
            assert cantor_add(x, y) == oracle_cantor_add(x, y), (key, x, y)

    run()


def _route_cases():
    """(name, a, b) for each route of ``cantor_add``, on a GF(1009)
    genus-2 curve: P, Q and R are points with distinct x."""
    model, points = _model(GF(1009), 2, random.Random(17))
    P, mP, Q, _, R = points[:5]
    zero = model.zero_class()
    return [("coprime", P + Q, R), ("coprime", P, Q),
            ("zero operand", P + Q, zero), ("zero operand", zero, R),
            ("zero operand", zero, zero),
            ("c + c", P + Q, P + Q), ("c + c", R, R),
            ("c + (-c)", P + Q, -(P + Q)), ("c + (-c)", P, mP),
            ("shared factor", P + Q, P + R), ("shared factor", P + Q, mP + R)]


def test_each_route_is_taken(monkeypatch):
    """Coprime pairs and zero operands take the CRT composition; the
    double, the sum with the negative and pairs sharing a root of u
    (u1 != u2) take Cantor's composition, ``_compose``.  One Euclid,
    ``xgcd_c(u1, u2)``, picks the route, and only ``_compose`` runs a
    second.  Each agrees with the oracle."""
    calls = {"_compose": [], "xgcd_c": []}

    def record(name):
        run = getattr(hyperelliptic, name)

        def recorded(*args):
            calls[name].append(args)
            return run(*args)
        monkeypatch.setattr(hyperelliptic, name, recorded)

    record("_compose")
    record("xgcd_c")
    cases = _route_cases()
    assert {name for name, _, _ in cases} == {"coprime", "zero operand", "c + c",
                                              "c + (-c)", "shared factor"}
    for name, a, b in cases:
        for c in calls.values():
            del c[:]
        total = cantor_add(a, b)
        assert total == oracle_cantor_add(a, b), name
        composed = name not in ("coprime", "zero operand")
        assert len(calls["_compose"]) == composed, name
        assert len(calls["xgcd_c"]) == 1 + composed, name
        assert calls["xgcd_c"][0][:2] == (a.u.c, b.u.c), name
        if name == "shared factor":
            assert a.u != b.u and poly_gcd(a.u, b.u).degree == 1
        if name == "c + (-c)":
            # v1 + v2 = 0, so the second Euclid's b is zero
            assert total.is_zero() and calls["xgcd_c"][1][1] == []


def test_addition_tables_match_the_oracle():
    """The whole group of a GF(7) genus-1 and a GF(5) genus-2 curve, as
    ``enumerate_jacobian`` lists it (8 and (11^2 + 31)/2 - 5 = 71
    classes): every sum lies in the group and is the oracle's."""
    K5 = GF(5)
    for model, count in ((split_curve(7, 1).odd_model(), 8),
                         (HECurve.from_odd_poly(K5, 2, Poly(K5, [1, -1, 0, 0, 0, 1]))
                          .odd_model(), 71)):
        classes = enumerate_jacobian(model)
        group = set(classes)
        assert len(group) == len(classes) == count
        for a in classes:
            for b in classes:
                total = a + b
                assert total in group
                assert total == oracle_cantor_add(a, b)


def test_malformed_pairs_are_refused():
    """Each check of ``MumfordClass``, ``semireduced`` and the reduction
    on a pair that fails it, with its message, over GF(7) and Q."""
    for K in (GF(7), QQ):
        model, points = _model(K, 1, random.Random(23))

        def poly(*c):
            return Poly(K, list(c))

        P, zero = points[0], Poly.zero(K)
        cases = [((zero, zero), "u must be monic"),
                 ((poly(1, 2), zero), "u must be monic"),
                 ((poly(0, 0, 1), zero), "not reduced: deg u > g"),
                 ((Poly.one(K), poly(1)), "v must vanish when u is constant"),
                 ((P.u, poly(0, 1)), "v must be reduced mod u"),
                 ((P.u, zero), "u does not divide v\\^2 - f")]
        for (u, v), message in cases:
            with pytest.raises(ValueError, match=message):
                MumfordClass(model, u, v)
        with pytest.raises(ValueError, match="pair is not semireduced"):
            model.semireduced(P.u, zero)
        # deg u > g runs the reduction, whose division by u must be exact
        u = P.u * P.u
        assert (model.fodd - P.v * P.v) % u
        # semireduced checks u | v^2 - f itself only before that reduction
        with pytest.raises(ValueError, match="pair is not semireduced"):
            model.semireduced(u, P.v)
        with pytest.raises(ValueError, match="inexact polynomial division"):
            hyperelliptic._reduce(model, u.c, P.v.c)
        other, _ = _model(K, 1, random.Random(24))
        assert other.fodd != model.fodd
        with pytest.raises(ValueError, match="classes live on different curves"):
            cantor_add(P, other.zero_class())


def test_tensor_is_the_group_law():
    """The dictionary between classes and pairs turns Cantor's sum into
    ``tensor``, on seeded classes of split curves over GF(7), GF(101),
    GF(1009) and GF(2^61 - 1), g = 1..3 wherever the curve has 2g + 2
    distinct branch roots: each class comes back from its pair, the
    class of the product is the sum, and the product is isomorphic to
    the pair of the sum.  Since ``tensor`` is that Cantor sum, the
    product is also checked against the kernel route of
    tests/test_tensor_kernel.py, which adds no classes."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    curves = [split_curve(p, g) for p in (7, 101, 1009, 2 ** 61 - 1) for g in (1, 2, 3)
              if 2 * g + 2 <= p]

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(st.integers(0, len(curves) - 1), st.integers(0, 3), st.randoms())
    def run(k, kind, rng):
        curve = curves[k]
        model = curve.odd_model()
        a = random_class(model, rng.randint(0, curve.g), rng)
        b = (random_class(model, rng.randint(0, curve.g), rng), a, -a, model.zero_class())[kind]
        pa, pb = matrix_from_class(curve, a), matrix_from_class(curve, b)
        assert class_from_matrix(pa) == a and class_from_matrix(pb) == b
        t = tensor(pa, pb)
        assert class_from_matrix(t) == a + b
        assert is_isomorphic(t, matrix_from_class(curve, a + b))
        assert is_isomorphic(t, _kernel_route(pa, pb)[0])

    run()


@pytest.mark.parametrize("p, g", [(5, 1), (5, 2), (7, 1), (7, 2)])
def test_group_law_stays_in_the_enumerated_group(p, g):
    """On seeded curves over GF(5) and GF(7), g = 1 and 2, every class c
    of ``enumerate_jacobian`` has -c, 2c and 3c in the list, and c - c is
    zero; so is c + d for a seeded sample of d.  Every result, rebuilt by
    the public constructor from its ``u`` and ``v``, is the same class."""
    model, _ = _model(GF(p), g, random.Random(100 * p + g))
    classes = enumerate_jacobian(model)
    group = set(classes)
    assert len(group) == len(classes) > 1
    rng = random.Random(10 * p + g)
    for c in classes:
        assert (c - c).is_zero()
        for r in [-c, 2 * c, 3 * c] + [c + rng.choice(classes) for _ in range(3)]:
            assert r in group, (c, r)
            assert MumfordClass(model, r.u, r.v) == r


def test_a_quintic_with_one_affine_point():
    """y^2 = x^5 + 4x^4 + x^3 + 2x^2 + 3x + 2 over GF(5), the quintic that
    ``bench/workloads.py`` draws for grouplaw seed 412: its only affine
    point is the Weierstrass point (2, 0), of order 2, so every sum of
    affine points is 0 or (2, 0) - inf; yet its Jacobian has 12 classes,
    and ``jacobian --orders`` gives their orders."""
    K = GF(5)
    model = HECurve.from_odd_poly(K, 2, Poly(K, [2, 3, 2, 1, 4, 1])).odd_model()
    assert [x for x in range(5) if K.sqrt(model.fodd(K.of(x))) is not None] == [2]
    P = model.point_class(K.of(2), K.zero)
    assert not P.is_zero() and (P + P).is_zero()
    doc, code = cli.run_job({"command": "jacobian", "field": "Fp:5", "orders": True,
                             "curve": {"g": 2, "F": "x0^5*x1 + 4*x0^4*x1^2 + x0^3*x1^3"
                                       " + 2*x0^2*x1^4 + 3*x0*x1^5 + 2*x1^6"}})
    assert code == 0
    assert doc["count"] == 12
    assert doc["orderHistogram"] == {"1": 1, "2": 3, "3": 2, "6": 6}
