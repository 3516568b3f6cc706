import itertools
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from dihedralcovers.fields import GF, QQ, FpElem, field_from_name
from dihedralcovers.homog import HForm
from dihedralcovers.poly import Poly
from dihedralcovers.parsing import parse_form, format_form
from dihedralcovers import linalg, graded
from dihedralcovers.hyperelliptic import (HECurve, MumfordClass, cantor_add,
                                          class_order, rr_space,
                                          class_from_matrix, matrix_from_class,
                                          stratum, torsion_matrix, is_n_torsion,
                                          enumerate_two_torsion,
                                          enumerate_jacobian, OddModel)
from dihedralcovers.double_cover import (DoubleCoverRing, BundlePair, tensor, inverse,
                                         is_isomorphic, divisor_of_section)

from conftest import split_curve, random_class, watch_plain_values, parse_univar
from test_tensor_kernel import _kernel_route

K7 = GF(7)


def small_curve():
    # y^2 = x(x-1)(x+1)(x-2) over GF(7)
    return split_curve(7, 1)


def genus2_curve():
    return split_curve(7, 2)


def test_curve_requires_squarefree_branch():
    with pytest.raises(ValueError):
        HECurve(K7, 1, parse_form("x0^2*x1^2", K7, 2))


def test_odd_model_degree():
    c = small_curve()
    m = c.odd_model()
    assert m.fodd.degree == 3
    c2 = genus2_curve()
    assert c2.odd_model().fodd.degree == 5


def test_group_law_against_enumeration():
    c = small_curve()
    model = c.odd_model()
    classes = enumerate_jacobian(model)
    n = len(classes)
    assert n == 8
    # closure, commutativity, associativity on the full group
    table = {}
    for a, b in itertools.product(classes, repeat=2):
        s = a + b
        assert s in classes
        table[(a, b)] = s
    for a, b in itertools.product(classes, repeat=2):
        assert table[(a, b)] == table[(b, a)]
    rng = random.Random(11)
    for _ in range(60):
        a, b, d = (rng.choice(classes) for _ in range(3))
        assert (a + b) + d == a + (b + d)
    zero = model.zero_class()
    for a in classes:
        assert a + zero == a
        assert a + (-a) == zero
        assert n * a == zero


def test_class_order_divides_group_order():
    c = small_curve()
    classes = enumerate_jacobian(c.odd_model())
    for a in classes:
        assert 8 % class_order(a) == 0


def test_roundtrip_class_matrix_all_classes():
    c = small_curve()
    classes = enumerate_jacobian(c.odd_model())
    for a in classes:
        pair = matrix_from_class(c, a)
        assert class_from_matrix(pair) == a


def test_tensor_matches_cantor_addition():
    c = small_curve()
    classes = enumerate_jacobian(c.odd_model())
    rng = random.Random(3)
    for _ in range(12):
        a, b = rng.choice(classes), rng.choice(classes)
        pa, pb = matrix_from_class(c, a), matrix_from_class(c, b)
        t = tensor(pa, pb)
        assert class_from_matrix(t) == a + b
        # the kernel route computes the product without Cantor addition
        assert is_isomorphic(t, _kernel_route(pa, pb)[0])
        assert class_from_matrix(inverse(pa)) == -a


def _odd_model_charts(pair):
    """The charts of the pair's (P, f, q) moved to the odd model of its
    ring, at their forced degrees."""
    l, a, b = pair.ring.l, pair.a, pair.b
    model = pair.ring.odd_model()
    return [model.to_odd(c, d) for c, d in zip(pair.charts, (l, l - a + b, l + a - b))]


def _quintic_curve(p):
    # y^2 = x^5 - x + 1, with no roots in GF(3) or GF(5)
    K = GF(p)
    return HECurve.from_odd_poly(K, 2, Poly(K, [1, -1, 0, 0, 0, 1]))


def test_matrix_from_class_is_mumfords_matrix():
    # in odd-model coordinates the pair is [[-v, (fodd - v^2)/u], [u, v]]
    # up to the conjugation by diag(1, lam) that makes q's chart monic
    for curve in (split_curve(7, 1), split_curve(7, 2),
                  _quintic_curve(3), _quintic_curve(5)):
        model = curve.odd_model()
        for c in enumerate_jacobian(model):
            pair = matrix_from_class(curve, c)
            P, f, q = (Poly(curve.field, e) for e in _odd_model_charts(pair))
            lam = q.coeff(q.degree)
            assert q == c.u * lam
            assert P == -c.v
            assert f * lam == (model.fodd - c.v * c.v).exact_div(c.u)
            a = (c.u.degree + 1) // 2
            assert (pair.a, pair.b) == (a, curve.g + 1 - a) == stratum(pair)


def test_stratum():
    c = small_curve()
    model = c.odd_model()
    zero = model.zero_class()
    assert stratum(matrix_from_class(c, zero)) == (0, 2)
    nonzero = next(a for a in enumerate_jacobian(model) if not a.is_zero())
    assert stratum(matrix_from_class(c, nonzero)) == (1, 1)


def test_torsion_matrix_dimensions_for_involution():
    c = small_curve()
    model = c.odd_model()
    for a in enumerate_jacobian(model):
        pair = matrix_from_class(c, a)
        if pair.a == 0:
            # the trivial splitting has an empty block and its own
            # short-circuit in the torsion test
            continue
        m = torsion_matrix(pair, 2)
        aa, bb = pair.a, pair.b
        assert len(m) == 3 * aa + 3 * bb - 3
        assert len(m[0]) == 2 * aa + 2 * bb - 1


def test_torsion_certificate_matches_orders():
    c = small_curve()
    model = c.odd_model()
    for a in enumerate_jacobian(model):
        pair = matrix_from_class(c, a)
        o = class_order(a)
        for n in range(2, 9):
            assert is_n_torsion(pair, n) == (n % o == 0), (a, n)


def test_two_torsion_census_genus_one():
    c = small_curve()
    pairs = enumerate_two_torsion(c)
    assert len(pairs) == 3
    for p in pairs:
        cl = class_from_matrix(p)
        assert class_order(cl) == 2


def test_two_torsion_census_genus_two():
    c = genus2_curve()
    pairs = enumerate_two_torsion(c)
    assert len(pairs) == 15
    for p in pairs:
        assert class_order(class_from_matrix(p)) == 2


def test_symmetric_power_pushforward():
    c = small_curve()
    model = c.odd_model()
    for a in enumerate_jacobian(model):
        if a.is_zero():
            continue
        pair = matrix_from_class(c, a)
        # the square's first Chern class is 2 c1 + l, the bookkeeping of
        # the symmetric power at n = 2
        square = tensor(pair, pair)
        assert square.c1() == 2 * pair.c1() + pair.ring.l
        degs = square.splitting
        assert sum(degs) == -2
        # the square of the class is trivial exactly for 2-torsion, and
        # then the splitting contains the degree-0 summand
        expected = [-2, 0] if class_order(a) == 2 else [-1, -1]
        assert sorted(degs) == expected


def test_riemann_roch_duality():
    # l(D) - l(K - D) = deg D + 1 - g with K = (2g-2) * infinity, the
    # dimensions l counted as the lengths of rr_space's bases
    for g in (1, 2):
        c = split_curve(7, g)
        model = c.odd_model()
        classes = enumerate_jacobian(model) if g == 1 else None
        rng = random.Random(5)
        samples = classes if g == 1 else [random_class(model, g, rng)
                                          for _ in range(6)]
        for a in samples:
            d = a.u.degree
            for k in range(-2 * d - 2, 7):
                # D = A + k*infinity with A the effective part (u, v);
                # K - D is equivalent to A^sigma + (2g-2-k-2d)*infinity
                # because A + A^sigma is a sum of d hyperelliptic fibres
                lhs = len(rr_space(model, a.u, a.v, k))
                dual = len(rr_space(model, a.u, (-a).v, 2 * g - 2 - k - 2 * d))
                assert lhs - dual == (d + k) + 1 - g, (g, a, k)


def test_genus_two_roundtrip_random(rng):
    c = split_curve(101, 2)
    model = c.odd_model()
    for _ in range(10):
        a = random_class(model, 2, rng)
        pair = matrix_from_class(c, a)
        assert class_from_matrix(pair) == a


def _rational_points(model):
    """The points (x, y) of the odd model with x = n/d, |n| <= 6, d <= 3."""
    out = []
    for d in (1, 2, 3):
        for n in range(-6, 7):
            x = Fraction(n, d)
            fx = model.fodd(x)
            if x.denominator != d or fx < 0:
                continue
            y = Fraction(math.isqrt(fx.numerator), math.isqrt(fx.denominator))
            if y * y == fx:
                out += [model.point_class(x, y)] + ([model.point_class(x, -y)] if y else [])
    return out


@pytest.mark.parametrize("g", [2, 3])
def test_roundtrip_over_q_from_rational_points(g):
    roots = [0, 1, -1, 2, -2, 3, -3, 4][:2 * g + 2]
    x = Poly.x(QQ)
    F = Poly.one(QQ)
    for r in roots:
        F = F * (x - Poly.const(QQ, Fraction(r)))
    curve = HECurve(QQ, g, HForm.from_univar(F, 2 * g + 2))
    model = curve.odd_model()
    points = _rational_points(model)[:6]
    degrees = set()
    for k in range(1, g + 1):
        for pts in itertools.combinations(points, k):
            c = sum(pts, model.zero_class())
            pair = matrix_from_class(curve, c)
            assert class_from_matrix(pair) == c
            a = (c.u.degree + 1) // 2
            assert stratum(pair) == (pair.a, pair.b) == (a, g + 1 - a)
            degrees.add(c.u.degree)
    assert degrees == set(range(g + 1))


def test_json_roundtrip():
    # the CLI reads curves and writes classes; read each back here
    c = small_curve()
    assert HECurve.from_json({"g": c.g, "F": format_form(c.F)}, K7) == c
    model = c.odd_model()
    a = next(x for x in enumerate_jacobian(model) if not x.is_zero())
    d = a.to_json()
    assert model.semireduced(parse_univar(d["u"], K7), parse_univar(d["v"], K7)) == a


def test_mumford_validation():
    c = small_curve()
    model = c.odd_model()
    u = parse_univar("x", K7)
    f0 = model.fodd(K7.zero)
    bad = next(c for c in map(K7.of, range(7)) if c * c != f0)
    with pytest.raises(ValueError):
        MumfordClass(model, u, Poly.const(K7, bad))


def _check_genus_two_over_small_field(p):
    # 2g + 2 = 6 > p: the squarefree test must hold in degree >= p
    K = GF(p)
    fodd = Poly(K, [1, -1, 0, 0, 0, 1])           # x^5 - x + 1, no roots in GF(p)
    c = HECurve.from_odd_poly(K, 2, fodd)
    model = c.odd_model()
    assert model.fodd.degree == 5
    classes = enumerate_jacobian(model)
    group = set(classes)
    assert len(group) == len(classes)
    rng = random.Random(7)
    for _ in range(40):
        a, b = rng.choice(classes), rng.choice(classes)
        assert cantor_add(a, b) in group
        assert a + b == b + a
        assert len(classes) * a == model.zero_class()
    a = next(x for x in classes if x.u.degree == 2)
    pair = matrix_from_class(c, a)
    assert class_from_matrix(pair) == a
    return len(classes)


# a genus-2 Jacobian over GF(q) has (N1^2 + N2)/2 - q classes, N1 and N2
# the numbers of points over GF(q) and GF(q^2)


def test_genus_two_over_gf5_matches_enumeration():
    assert _check_genus_two_over_small_field(5) == (11 ** 2 + 31) // 2 - 5


def test_genus_two_over_gf3_matches_enumeration():
    assert _check_genus_two_over_small_field(3) == (7 ** 2 + 15) // 2 - 3


def _group_law_round(curve, a, b):
    """Cantor's sum of a and b against the matrix calculus: the class of
    the tensor, the pair of the sum, the inverse and isomorphism."""
    pa, pb = matrix_from_class(curve, a), matrix_from_class(curve, b)
    total = a + b
    t = tensor(pa, pb)
    assert class_from_matrix(t) == total
    ms = matrix_from_class(curve, total)
    assert class_from_matrix(ms) == total
    assert is_isomorphic(t, ms)
    assert class_from_matrix(inverse(pa)) == -a
    return [pa, pb, t, ms, inverse(pa)], [total]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_group_law_over_a_61_bit_prime(rng, g):
    curve = split_curve(2 ** 61 - 1, g)
    model = curve.odd_model()
    for _ in range(3):
        a, b = random_class(model, g, rng), random_class(model, g, rng)
        _group_law_round(curve, a, b)
        for n in (2, 3):
            assert is_n_torsion(matrix_from_class(curve, a), n) == (n * a).is_zero()


@pytest.mark.parametrize("p, g, ns", [(1009, 3, [10]), (1009, 4, [9, 12]),
                                        (2 ** 61 - 1, 2, range(2, 7)),
                                        (2 ** 61 - 1, 3, range(2, 7))])
def test_torsion_certificate_at_the_benchmark_tail_shapes(rng, p, g, ns):
    """The band-matrix certificate against Cantor multiples at the
    largest band shapes: random classes (almost surely of large order)
    and 2-torsion classes, so both verdicts occur."""
    curve = split_curve(p, g)
    model = curve.odd_model()
    pairs = [matrix_from_class(curve, random_class(model, g, rng)) for _ in range(2)]
    pairs += rng.sample(enumerate_two_torsion(curve), 2)
    for pair in pairs:
        c = class_from_matrix(pair)
        for n in ns:
            assert is_n_torsion(pair, n) == (n * c).is_zero(), (pair, n)



@pytest.mark.parametrize("p, g", [(5, 1), (1009, 2), (2 ** 61 - 1, 2)])
def test_torsion_certificate_matches_bareiss_and_cantor(rng, p, g):
    """The packed band rank of ``is_n_torsion`` against two oracles: the
    fraction-free rank of ``torsion_matrix`` (rank deficient exactly for
    n-torsion) and the group law.  Over GF(5) every class of the curve,
    elsewhere random and 2-torsion classes."""
    K = GF(p)
    curve = split_curve(p, g)
    model = curve.odd_model()
    if p == 5:
        classes = enumerate_jacobian(model)
    else:
        classes = [random_class(model, g, rng) for _ in range(2)]
        classes += [class_from_matrix(x) for x in rng.sample(enumerate_two_torsion(curve), 2)]
    for c in classes:
        pair = matrix_from_class(curve, c)
        for n in range(2, 6):
            verdict = is_n_torsion(pair, n)
            assert verdict == (n * c).is_zero(), (c, n)
            if not pair.is_trivial():
                m = torsion_matrix(pair, n)
                boxed = [[K.of(x) for x in row] for row in m]
                assert verdict == (linalg.bareiss_rank(boxed, K.one) < len(m[0])), (c, n)

def _class_by_section(pair):
    """The class of a degree-zero pair by the section route: the pair
    moved to odd-model coordinates, the vanishing divisor (u, v) of its
    section (1, 0), and the class (u, -v)."""
    ring = pair.ring
    field = ring.field
    model = ring.odd_model()
    if pair.is_trivial():
        return model.zero_class()
    FT = model.to_odd(ring.chart, 2 * ring.l)
    pairT = BundlePair(DoubleCoverRing(field, ring.l, HForm.from_univar(Poly(field, FT), 2 * ring.l)),
                       pair.a, pair.b, *_odd_model_charts(pair))
    one = HForm.const(field, 2, field.one)
    u, v = divisor_of_section(pairT, pairT.a, one, 0)
    return model.semireduced(u.to_univar(), -v)


def _q_vanishes_at_infinity(pair):
    """True when q, in odd-model coordinates, vanishes at the branch
    point at infinity."""
    return len(_odd_model_charts(pair)[2]) <= pair.ring.l + pair.a - pair.b


def _oracle_pairs():
    """Degree-zero pairs from every family the dictionary meets: all
    classes of small split curves with their inverses, some tensors and
    the two-torsion pairs; random classes over larger fields with the
    tensors of neighbours; sums of rational points over Q; the pairs of
    the golden batch."""
    pairs = []
    rng = random.Random(19)
    for p, g in ((5, 1), (11, 1), (7, 1), (7, 2)):
        curve = split_curve(p, g)
        ms = [matrix_from_class(curve, c) for c in enumerate_jacobian(curve.odd_model())]
        pairs += ms + [inverse(m) for m in ms] + enumerate_two_torsion(curve)
        pairs += [tensor(rng.choice(ms), rng.choice(ms)) for _ in range(48)]
    for p, g, k in ((101, 2, 4), (1009, 3, 3), (1009, 4, 2),
                    (2 ** 61 - 1, 2, 3), (2 ** 61 - 1, 3, 2)):
        curve = split_curve(p, g)
        model = curve.odd_model()
        ms = [matrix_from_class(curve, random_class(model, g, rng)) for _ in range(k)]
        pairs += ms + [tensor(x, y) for x, y in zip(ms, ms[1:])]
    x = Poly.x(QQ)
    F = Poly.one(QQ)
    for r in (0, 1, -1, 2, -2, 3):
        F = F * (x - Poly.const(QQ, Fraction(r)))
    curve = HECurve(QQ, 2, HForm.from_univar(F, 6))
    points = _rational_points(curve.odd_model())[:6]
    pairs += [matrix_from_class(curve, a + b) for a, b in itertools.combinations(points, 2)]
    batch = pathlib.Path(__file__).parent / "golden" / "batch.json"
    for job in json.loads(batch.read_text()):
        field = field_from_name(job.get("field", "Q"))
        for key in ("pair", "pair2"):
            if key in job:
                curve = HECurve.from_json(job["curve"], field)
                pairs.append(BundlePair.from_json(job[key], curve))
    return pairs


def test_class_from_matrix_matches_section_route():
    pairs = _oracle_pairs()
    for pair in pairs:
        assert class_from_matrix(pair) == _class_by_section(pair), pair
    # the closed form must also hold where q vanishes at infinity
    assert 0 < sum(map(_q_vanishes_at_infinity, pairs)) < len(pairs)


def _watch_boxes(monkeypatch):
    """Refuse every Poly, HForm and FpElem built by its constructor, and
    record every Poly and HForm built on plain values (``plain_poly`` and
    ``plain_form``, wherever the package imported them).  Returns the
    record."""
    def refuse(self, *args):
        raise AssertionError("a %s was built" % type(self).__name__)

    for cls in (Poly, HForm, FpElem):
        monkeypatch.setattr(cls, "__init__", refuse)
    return watch_plain_values(monkeypatch, lambda v: True)


def test_gf_p_values_stay_reduced_ints(rng, monkeypatch):
    """A GF(p) group-law round runs on plain values alone: it builds no
    Poly, no HForm and no FpElem, and the lists ``uc`` and ``vc`` of every
    class it returns or reads off a pair, and every chart of the pairs it
    returns, hold ints in range(p) (never a float, as an int / int would
    give, never an FpElem, never an unreduced int), trimmed."""
    p = 1009
    curve = split_curve(p, 2)
    model = curve.odd_model()
    a, b = random_class(model, 2, rng), random_class(model, 2, rng)
    built = _watch_boxes(monkeypatch)
    pairs, classes = _group_law_round(curve, a, b)
    classes += [class_from_matrix(pair) for pair in pairs] + [-a, a - b]
    assert not built
    lists = [chart for pair in pairs for chart in pair.charts]
    lists += [c for cls in classes for c in (cls.uc, cls.vc)]
    for c in lists:
        assert all(type(v) is int and 0 <= v < p for v in c), c
        assert not c or c[-1]
    assert all(len(cls.uc) > len(cls.vc) and cls.uc[-1] == 1 for cls in classes)


def test_group_law_round_builds_no_form(rng, monkeypatch):
    """tensor, class_from_matrix, matrix_from_class, inverse,
    is_isomorphic and the Cantor sums on GF(1009) genus-2 classes build
    no Poly, no HForm and no FpElem, by a constructor or on plain values.
    A class builds a Poly only when its ``u`` or ``v`` is read, on a copy
    of its list."""
    curve = split_curve(1009, 2)
    model = curve.odd_model()
    classes = [random_class(model, 2, rng) for _ in range(4)]
    built = _watch_boxes(monkeypatch)
    for a, b in zip(classes, classes[1:]):
        _group_law_round(curve, a, b)
    assert not built
    c = classes[0]
    u, v = c.u, c.v
    assert len(built) == 2 and built[0] is u and built[1] is v
    assert (u.c, v.c) == (c.uc, c.vc) and u.c is not c.uc and v.c is not c.vc


def test_group_law_round_builds_the_odd_model_once(rng, monkeypatch):
    """A group-law round over GF(1009) reads the curve's one odd model,
    and F is tested for squarefreeness once, when the curve is built."""
    from dihedralcovers import hyperelliptic

    calls = {"odd model": 0, "squarefree": 0}

    def counted(key, orig):
        def wrapper(*args):
            calls[key] += 1
            return orig(*args)
        return wrapper

    monkeypatch.setattr(hyperelliptic.OddModel, "__init__",
                        counted("odd model", hyperelliptic.OddModel.__init__))
    monkeypatch.setattr(HForm, "is_squarefree", counted("squarefree", HForm.is_squarefree))
    curve = split_curve(1009, 2)
    model = curve.odd_model()
    a, b = random_class(model, 2, rng), random_class(model, 2, rng)
    _group_law_round(curve, a, b)
    stratum(matrix_from_class(curve, a))
    assert calls == {"odd model": 1, "squarefree": 1}


def test_tensor_takes_no_rank(rng, monkeypatch):
    """``tensor`` is a Cantor sum in the class dictionary: it runs no
    linear algebra, neither a rank nor a nullspace nor a graded kernel."""
    def no_linear_algebra(*args, **kwargs):
        raise AssertionError("tensor runs no linear algebra")

    for owner, name in ((linalg, "bareiss_rank"), (linalg, "nullspace"),
                        (linalg, "convolution_matrix"), (graded, "kernel_basis")):
        monkeypatch.setattr(owner, name, no_linear_algebra)
    curve = split_curve(1009, 2)
    model = curve.odd_model()
    a, b = random_class(model, 2, rng), random_class(model, 2, rng)
    pa, pb = matrix_from_class(curve, a), matrix_from_class(curve, b)
    assert class_from_matrix(tensor(pa, pb)) == a + b
    # and for a pair twisted to degree -2
    t = tensor(BundlePair(curve, pa.a + 1, pa.b + 1, *pa.charts), pb)
    assert (t.a + t.b, class_from_matrix(BundlePair(curve, t.a - 1, t.b - 1, *t.charts))) == \
        (curve.l + 2, a + b)


def _psi_transpose_chart(p1, p2):
    """psi^T for psi = N1 (x) Id - Id (x) N2, in the chart x1 = 1, with
    e_i (x) e_j at index 2i + j."""
    zero = Poly.zero(p1.ring.field)
    n1, n2 = ([[e.to_univar() for e in row] for row in ((p.P, p.f), (p.q, -p.P))]
              for p in (p1, p2))
    psi = [[(n1[i][k] if j == m else zero) - (n2[j][m] if i == k else zero)
            for k in range(2) for m in range(2)]
           for i in range(2) for j in range(2)]
    return [list(col) for col in zip(*psi)]


def test_tensor_kernel_rank_is_two():
    """The rank the kernel route of tests/test_tensor_kernel.py passes to
    ``kernel_basis``: psi^T has rank 2 over the fraction field, so its
    kernel has rank 4 - 2."""
    pairs = _oracle_pairs()[::6]
    checked = 0
    for p1, p2 in zip(pairs, pairs[1:]):
        if p1.ring == p2.ring:
            one = Poly.one(p1.ring.field)
            assert linalg.bareiss_rank(_psi_transpose_chart(p1, p2), one) == 2
            checked += 1
    assert checked >= 50


def _model_shapes(field):
    """Odd models of the three shapes, with their branch roots: x1 | F,
    so r is None; r = 0; and r != 0 (p - 1 over GF(p), 1/3 over Q)."""
    p = field.characteristic
    x = Poly.x(field)
    odd = HECurve.from_odd_poly(field, 1, x * x * x - x)
    if p:
        curve = split_curve(p, 1 if p == 7 else 2)
        far = field.unbox(-1)
    else:
        # branch roots 0, 2, -2 and 1/3
        curve = HECurve(QQ, 1, parse_form("3*x0^4 - x0^3*x1 - 12*x0^2*x1^2 + 4*x0*x1^3",
                                          QQ, 2))
        far = Fraction(1, 3)
    return [OddModel(odd, (1, 0)), OddModel(curve, (0, 1)), OddModel(curve, (far, 1))]


@pytest.mark.parametrize("field", [GF(7), GF(1009), GF(2 ** 61 - 1), QQ],
                         ids=["GF(7)", "GF(1009)", "GF(2^61-1)", "Q"])
def test_substitute_matrix_matches_the_form_substitution(rng, field):
    """The odd model's maps are substitutions by a Mobius matrix:
    ``to_odd`` and ``from_odd`` against ``HForm.substitute`` by the
    matrices of x -> 1/(x - r) and of its inverse, built from r (the
    identity when r is None), on random binary forms of degree 0-12
    with zero coefficients at both ends, for each shape of model, with
    the round trip both ways."""
    def value():
        if field.characteristic:
            return field.unbox(rng.choice([0, 1, -1, rng.randrange(field.characteristic)]))
        return rng.choice([0, 1, -1, Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))])

    def substitute(F, m):
        images = [HForm(field, 2, 1, {(1, 0): row[0], (0, 1): row[1]}) for row in m]
        return F.substitute(images)._chart()

    shapes = _model_shapes(field)
    assert [model.r for model in shapes[:2]] == [None, 0] and shapes[2].r
    for model in shapes:
        r = model.r
        if r is None:
            to, back = ((1, 0), (0, 1)), ((1, 0), (0, 1))
        else:
            to, back = ((r, 1), (1, 0)), ((0, 1), (1, -r))
        for d in list(range(13)) * 3:
            F = HForm(field, 2, d, {(i, d - i): value() for i in range(d + 1)})
            c = F._chart()
            for got, want in ((model.to_odd(c, d), substitute(F, to)),
                              (model.from_odd(c, d), substitute(F, back))):
                assert got == want and repr(got) == repr(want), (model.r, F)
            assert model.from_odd(model.to_odd(c, d), d) == c
            assert model.to_odd(model.from_odd(c, d), d) == c
