"""``tensor`` against the kernel route, its independent oracle.

``tensor`` adds the two line bundles in the class dictionary: one Cantor
addition and no linear algebra.  The oracle computes the same product as
a module: the cokernel of psi = N1 (x) Id - Id (x) N2, read off a kernel
basis of psi^T (``graded.kernel_basis`` at the known twist sum, checked
against a degree search from the least column twist upward), with the
z-action K(-l) M = (N1 (x) Id)^T K solved by ``linalg.solve`` one column
at a time.  The two products must be isomorphic pairs of the same class
and degree, for pairs of both parities of a + b.

``kernel_basis`` reads lower degrees off higher ones, and the kernel is
cut out by the column-0 rows of psi^T alone; both must leave every
nullspace as it was, which the tests below check degree by degree.
"""

import itertools
import math
import random
from fractions import Fraction

from dihedralcovers import linalg
from dihedralcovers.fields import GF, QQ
from dihedralcovers.homog import HForm
from dihedralcovers import hyperelliptic
from dihedralcovers.poly import (Poly, trim_c, sub_c, add_c, mul_c, reduce_c, exact_div_c,
                                 base_field_roots)
from dihedralcovers.graded import kernel_basis, _read_off
from dihedralcovers.double_cover import BundlePair, tensor, inverse, is_isomorphic, _charts
from dihedralcovers.hyperelliptic import (HECurve, matrix_from_class, class_from_matrix,
                                          bundle_from_matrix)

from conftest import split_curve, random_point_class


# -- the oracle: the degree search and the factorization by solve ----------


def _degree_search_kernel(field, coeffs, row_twists, col_twists, nullity):
    twists, gens = [], []
    span = sum(max(max((c - r for r, row in zip(row_twists, coeffs) if row[j]),
                       default=0), 0) + 1
               for j, c in enumerate(col_twists))
    t = min(col_twists)
    while len(gens) < nullity:
        if t > span + max(col_twists):
            raise RuntimeError("kernel degree bound exceeded; matrix is not graded-consistent")
        degs = [t - c for c in col_twists]
        nunk = sum(d + 1 for d in degs if d >= 0)
        if nunk:
            rows = linalg.convolution_matrix(field, coeffs, degs,
                                             [t - r for r in row_twists])
            sols = linalg.nullspace(rows, field) if rows else [
                [field.one if idx == q else field.zero for idx in range(nunk)]
                for q in range(nunk)]
            if sols:
                shifts = linalg.convolution_matrix(
                    field, [[vec[j] for vec in gens] for j in range(len(col_twists))],
                    [t - tw for tw in twists], degs)
                basis = [list(v) for v in zip(*shifts)]
                r0 = linalg.rank(basis, field) if basis else 0
                for v in sols:
                    cand = basis + [v]
                    if linalg.rank(cand, field) > r0:
                        basis = cand
                        r0 += 1
                        twists.append(t)
                        gens.append([trim_c([field.unbox(x) for x in c])
                                     for c in linalg.split_blocks(v, degs)])
                        if len(gens) == nullity:
                            break
        t += 1
    return twists, gens


def _psi_transpose(p1, p2):
    """(psi^T charts, row twists, column twists): all four rows; the
    column-0 rows alone (``_column0``) cut out the same kernel."""
    p, l = p1.ring.field.characteristic, p1.ring.l
    rows = [p1.a + p2.a, p1.a + p2.b, p1.b + p2.a, p1.b + p2.b]
    n1, n2 = _charts(p1), _charts(p2)
    psiT = [[sub_c(n1[i][k] if j == m else [], n2[j][m] if i == k else [], p)
             for i in range(2) for j in range(2)]
            for k in range(2) for m in range(2)]
    return psiT, [-(r + l) for r in rows], [-r for r in rows]


def _column0(psiT, row_tw):
    """The rows (k, 0), index 2k, of psi^T and their twists."""
    return psiT[0::2], row_tw[0::2]


def _sections(field, coeffs, row_tw, col_tw, t):
    """``linalg.nullspace`` of the convolution matrix in degree t (every
    vector when it has no row), and the unknowns' degrees."""
    degs = [t - c for c in col_tw]
    rows = linalg.convolution_matrix(field, coeffs, degs, [t - r for r in row_tw])
    nunk = sum(max(d + 1, 0) for d in degs)
    if not rows:
        return [[field.one if i == j else field.zero for i in range(nunk)]
                for j in range(nunk)], degs
    return linalg.nullspace(rows, field), degs


def _tensor_by_solve(p1, p2, tw, gens):
    ring = p1.ring
    field = ring.field
    p = field.characteristic
    l = ring.l
    rows = [p1.a + p2.a, p1.a + p2.b, p1.b + p2.a, p1.b + p2.b]
    cols = [r + l for r in rows]
    n1 = _charts(p1)
    K = list(zip(*gens))
    AtK = [[add_c(mul_c(n1[0][k], K[m][g], p), mul_c(n1[1][k], K[2 + m][g], p), p)
            for g in range(2)]
           for k in range(2) for m in range(2)]
    zero = field.unbox(field.zero)
    M = [[None] * 2 for _ in range(2)]
    for g in range(2):
        degs = [tw[g] - th + l for th in tw]
        out_degs = [tw[g] + c for c in cols]
        rows_eq = linalg.convolution_matrix(field, K, degs, out_degs)
        rhs = [b[c] if c < len(b) else zero
               for b, d in zip((row[g] for row in AtK), out_degs) for c in range(d + 1)]
        sol = (linalg.solve(rows_eq, rhs, field) if rows_eq
               else [field.zero] * sum(d + 1 for d in degs if d >= 0))
        assert sol is not None
        for h, c in enumerate(linalg.split_blocks(sol, degs)):
            M[h][g] = (HForm.from_univar(Poly(field, c), degs[h]) if degs[h] >= 0
                       else HForm.zero(field, 2, 0))
    assert not M[0][0] + M[1][1]
    return BundlePair(ring, -tw[0], -tw[1], M[0][0], M[1][0], M[0][1])


# -- seeded products -------------------------------------------------------


def _gf5_curve(g, rng):
    """A seeded genus-g curve z^2 = x0 * h over GF(5), F squarefree, whose
    odd model has at least two affine points."""
    K = GF(5)
    while True:
        h = [rng.randrange(5) for _ in range(2 * g + 1)] + [1]
        F = HForm.from_univar(Poly(K, [0] + h), 2 * g + 2)
        if not F.is_squarefree():
            continue
        curve = HECurve(K, g, F)
        if len(_points(curve.odd_model())) >= 2:
            return curve


def _q_curve(g):
    x = Poly.x(QQ)
    F = Poly.one(QQ)
    for r in (0, 1, -1, 2, -2, 3, -3, 4, -4, 5)[:2 * g + 2]:
        F = F * (x - Poly.const(QQ, Fraction(r)))
    return HECurve(QQ, g, HForm.from_univar(F, 2 * g + 2))


def _points(model):
    """Affine points of the odd model: every x over GF(5), and x = n/d with
    |n| <= 6, d <= 2 over Q."""
    K = model.field
    if K.characteristic == 5:
        xs = [K.of(v) for v in range(5)]
    else:
        xs = sorted({Fraction(n, d) for d in (1, 2) for n in range(-6, 7)})
    out = []
    for x in xs:
        fx = model.fodd(x)
        if K.characteristic:
            y = K.sqrt(fx)
        elif fx >= 0 and math.isqrt(fx.numerator) ** 2 == fx.numerator \
                and math.isqrt(fx.denominator) ** 2 == fx.denominator:
            y = Fraction(math.isqrt(fx.numerator), math.isqrt(fx.denominator))
        else:
            y = None
        if y is not None:
            out += [model.point_class(x, y)] + ([model.point_class(x, -y)] if y else [])
    return out


def _classes(curve, rng):
    """Seven classes: the zero class, a point class (deg u = 1), a sum of
    fewer than g points where g > 1, and four sums of g points."""
    model = curve.odd_model()
    g = curve.g
    K = curve.field
    if K.characteristic in (0, 5):
        pts = _points(model)
        draw = lambda: rng.choice(pts)
    else:
        draw = lambda: random_point_class(model, rng)
    sizes = [0, 1, max(g - 1, 1)] + [g] * 4
    return [sum((draw() for _ in range(k)), model.zero_class()) for k in sizes]


def _products():
    """1,048 seeded ordered products over five fields at g = 1-4."""
    rng = random.Random(29)
    for name, g in itertools.product(("GF(5)", "GF(101)", "GF(1009)", "GF(2^61-1)", "Q"),
                                     (1, 2, 3, 4)):
        if name == "GF(5)":
            curve = _gf5_curve(g, rng)
        elif name == "Q":
            curve = _q_curve(g)
        else:
            curve = split_curve({"GF(101)": 101, "GF(1009)": 1009}.get(name, 2 ** 61 - 1), g)
        pairs = [matrix_from_class(curve, c) for c in _classes(curve, rng)]
        if name == "Q" and g > 2:
            pairs = pairs[:4]       # heights grow: keep the suite's time down
        # every ordered pair (p (x) p among them) and p (x) inverse(p)
        for p1, p2 in itertools.product(pairs, repeat=2):
            yield name, g, p1, p2
        for p1 in pairs:
            yield name, g, p1, inverse(p1)


def _twist(pair, k):
    """The pair twisted by O(k): (a - k, b - k) with the same charts, the
    line bundle plus 2k points at infinity of the odd model."""
    return BundlePair(pair.ring, pair.a - k, pair.b - k, *pair.charts)


def _odd_pairs(curve):
    """Pairs of odd degree e = l - a - b = +-1: P = 0 and q the product of
    one or three linear factors of F (x1 first when it divides F)."""
    p, l = curve.field.characteristic, curve.l
    factors = [[1]] * curve.F.x1_multiplicity()
    factors += [reduce_c([-r, 1], p) for r in base_field_roots(curve.F.to_univar())]
    out = []
    for k in (k for k in (1, 3) if k <= len(factors)):
        q = [1]
        for fac in factors[:k]:
            q = mul_c(q, fac, p)
        for e in (1, -1):
            # deg q = l + a - b = k and a + b = l - e
            a = (k - e) // 2
            out.append(BundlePair(curve, a, l - e - a, [], exact_div_c(curve.chart, q, p), q))
    return out


def _kernel_route(p1, p2):
    """The product by the kernel of psi^T: ``kernel_basis`` at the twist
    sum l - (a1 + b1 + a2 + b2), on all four rows and on column 0, equal
    to the degree search, and the z-action by ``linalg.solve``."""
    field, l = p1.ring.field, p1.ring.l
    psiT, row_tw, col_tw = _psi_transpose(p1, p2)
    want_tw, want_gens = _degree_search_kernel(field, psiT, row_tw, col_tw, 2)
    S = l - (p1.a + p1.b + p2.a + p2.b)
    assert kernel_basis(field, psiT, row_tw, col_tw, 2, S)[:2] == (want_tw, want_gens)
    assert kernel_basis(field, *_column0(psiT, row_tw), col_tw, 2, S)[:2] == \
        (want_tw, want_gens)
    return _tensor_by_solve(p1, p2, want_tw, want_gens), want_tw


def _twisted_and_odd_products():
    """Products of pairs twisted away from degree zero and of odd-degree
    pairs, on one curve per field and genus of ``_products``: twists of
    the first three classes' pairs by O(1) and O(-1) with each other and
    with the untwisted ones, the odd-degree pairs with those three, and
    the kernel route's products of odd with degree-zero pairs (P != 0)
    with the three and with their inverses."""
    rng = random.Random(31)
    for name, g in itertools.product(("GF(5)", "GF(101)", "GF(1009)", "GF(2^61-1)", "Q"),
                                     (1, 2, 3, 4)):
        if name == "Q" and g > 2:
            continue        # heights grow: keep the suite's time down
        if name == "GF(5)":
            curve = _gf5_curve(g, rng)
        elif name == "Q":
            curve = _q_curve(g)
        else:
            curve = split_curve({"GF(101)": 101, "GF(1009)": 1009}.get(name, 2 ** 61 - 1), g)
        base = [matrix_from_class(curve, c) for c in _classes(curve, rng)[1:4]]
        twisted = [_twist(x, k) for x in base for k in (1, -1)]
        for p1, p2 in itertools.product(twisted, base + twisted[:2]):
            yield name, g, p1, p2
        odd = _odd_pairs(curve)
        for p1, p2 in itertools.product(odd, base):
            yield name, g, p1, p2
        mixed = [_kernel_route(o, x)[0] for o, x in zip(odd, base + base)]
        for p1, p2 in itertools.product(mixed[:3], base[:2] + [inverse(mixed[0])]):
            yield name, g, p1, p2


def test_tensor_matches_the_degree_search_and_solve():
    """``tensor`` and the kernel route give isomorphic pairs of the same
    class and degree, for degree-zero, twisted and odd-degree pairs over
    five fields at g = 1-4."""
    seen, degrees, spreads, count = set(), set(), set(), 0
    for name, g, p1, p2 in itertools.chain(_products(), _twisted_and_odd_products()):
        want, want_tw = _kernel_route(p1, p2)
        got = tensor(p1, p2)
        assert is_isomorphic(got, want), (name, g, p1, p2)
        assert bundle_from_matrix(got) == bundle_from_matrix(want), (name, g, p1, p2)
        e = bundle_from_matrix(got)[1]
        assert e == bundle_from_matrix(p1)[1] + bundle_from_matrix(p2)[1]
        seen.add((name, g))
        degrees.add((name, min(max(e, -2), 2)))
        spreads.add((want_tw[1] - want_tw[0]) / p1.ring.l)
        count += 1
    assert count >= 1500 and len(seen) == 20
    # both parities of a + b, twisted both ways, on every field
    names = ("GF(5)", "GF(101)", "GF(1009)", "GF(2^61-1)", "Q")
    assert degrees == {(n, e) for n in names for e in (-2, -1, 0, 1, 2)}
    # balanced kernels and the most unbalanced one, twists (-l, 0), all occur
    assert {0, 1} <= spreads


def test_p_tensor_inverse_is_the_most_unbalanced_kernel():
    """p (x) inverse(p) is the trivial class, split as O + O(-l): its
    kernel has twists (-l, 0), and it takes two nullspaces, in degrees
    ceil(-l / 2) and 0; the section in degree -l is read off."""
    rng = random.Random(3)
    for curve in (split_curve(1009, 3), _q_curve(2)):
        l = curve.l
        for c in _classes(curve, rng):
            pair = matrix_from_class(curve, c)
            psiT, row_tw, col_tw = _psi_transpose(pair, inverse(pair))
            tw, _, _ = kernel_basis(curve.field, psiT, row_tw, col_tw, 2, -l)
            assert tw == [-l, 0]
            t = tensor(pair, inverse(pair))
            assert (t.a, t.b) == (0, l) and class_from_matrix(t).is_zero()


def _off_origin_curves():
    """Curves of the two other shapes of odd model: ``_products``'s
    curves all have the branch root r = 0, where the maps shift nothing.
    GF(1009) and Q curves whose first rational root is nonzero (r = 517;
    r = 1 on the golden batch's x0^4 - 5 x0^2 x1^2 + 4 x1^4), and a
    GF(101) curve with x1 | F (r None)."""
    K = GF(1009)
    F = Poly.one(K)
    for t in (517, 600, 700, 800, 900, 1000):
        F = F * Poly(K, [-t, 1])
    yield HECurve(K, 2, HForm.from_univar(F, 6)), 517
    x = Poly.x(QQ)
    yield HECurve(QQ, 1, HForm.from_univar(x ** 4 - 5 * x ** 2 + Poly.const(QQ, 4), 4)), 1
    K = GF(101)
    f = Poly.one(K)
    for t in range(1, 6):
        f = f * Poly(K, [-t, 1])
    yield HECurve.from_odd_poly(K, 2, f), None


def test_tensor_matches_the_kernel_route_off_the_origin():
    """``tensor`` and the kernel route give isomorphic pairs of the same
    class and degree on a seeded sample of products, on curves whose odd
    model shifts by a nonzero r or is the curve's own chart: degree-zero,
    twisted and odd-degree pairs times degree-zero ones, and p (x)
    inverse(p)."""
    rng = random.Random(37)
    for curve, r in _off_origin_curves():
        assert curve.odd_model().r == r
        base = [matrix_from_class(curve, c) for c in _classes(curve, rng)]
        other = [_twist(base[1], 1), _twist(base[3], -1)] + _odd_pairs(curve)
        sample = list(itertools.product(other, base[:3]))
        sample += rng.sample(list(itertools.product(base, base)), 12)
        sample += [(p, inverse(p)) for p in base[1:3]]
        for p1, p2 in sample:
            want = _kernel_route(p1, p2)[0]
            got = tensor(p1, p2)
            assert is_isomorphic(got, want), (r, p1, p2)
            assert bundle_from_matrix(got) == bundle_from_matrix(want), (r, p1, p2)


# -- the column-0 rows and the sections read off a higher degree -----------


def _sample():
    """p (x) p, p (x) inverse(p) and every fifth other product of
    ``_products``, with the kind of each."""
    for k, (name, g, p1, p2) in enumerate(_products()):
        kind = "p*p" if p1 is p2 else "p*inverse(p)" if p2 == inverse(p1) else None
        if kind or k % 5 == 0:
            yield name, g, p1, p2, kind


def _plain(field, sols):
    """The vectors as plain values with their types, so that equality is
    bit for bit."""
    return [[(type(u), u) for u in map(field.unbox, v)] for v in sols]


def _twists(p1, p2):
    """The kernel twists (t0, t1) and the column-0 system of the product."""
    field, l = p1.ring.field, p1.ring.l
    psiT, row_tw, col_tw = _psi_transpose(p1, p2)
    S = l - (p1.a + p1.b + p2.a + p2.b)
    tw = kernel_basis(field, psiT, row_tw, col_tw, 2, S)[0]
    return tw, psiT, row_tw, col_tw


def test_column0_rows_have_the_nullspace_of_all_four():
    """Column 0 of N1^T X = X N2 reads (N1^T - P2) X e0 = q2 X e1, and q2
    times column 1 follows from it; q2 != 0, so in every degree from
    t0 - 1 to t1 + 1 the two rows give the nullspace of all four, bit for
    bit."""
    seen = set()
    for name, g, p1, p2, kind in _sample():
        field = p1.ring.field
        tw, psiT, row_tw, col_tw = _twists(p1, p2)
        for t in range(tw[0] - 1, tw[1] + 2):
            half, degs = _sections(field, *_column0(psiT, row_tw), col_tw, t)
            full, full_degs = _sections(field, psiT, row_tw, col_tw, t)
            assert degs == full_degs and _plain(field, half) == _plain(field, full), \
                (name, g, t)
        seen.add((name, kind))
    names = ("GF(5)", "GF(101)", "GF(1009)", "GF(2^61-1)", "Q")
    assert seen == {(n, k) for n in names for k in ("p*p", "p*inverse(p)", None)}


def test_sections_read_off_a_higher_degree():
    """``_read_off`` of the sections in degree s + k gives ``nullspace``
    in degree s, bit for bit, for every s < s + k in t0 - 1 .. t1 + 1."""
    reads = 0
    for name, g, p1, p2, kind in _sample():
        field = p1.ring.field
        tw, psiT, row_tw, col_tw = _twists(p1, p2)
        psi = _column0(psiT, row_tw)
        lo, hi = tw[0] - 1, tw[1] + 1
        secs = {t: _sections(field, *psi, col_tw, t) for t in range(lo, hi + 1)}
        for s in range(lo, hi):
            want, want_degs = secs[s]
            for t in range(s + 1, hi + 1):
                got, degs = _read_off(field, *secs[t], t - s)
                assert degs == want_degs and _plain(field, got) == _plain(field, want), \
                    (name, g, s, t)
                reads += 1
    assert reads > 1000


def test_tensor_is_one_cantor_addition(monkeypatch):
    """``tensor`` reads each pair once as a line bundle, adds the classes
    by one Cantor addition and writes the sum once, for every product of
    ``_sample`` and of the twisted and odd-degree pairs."""
    calls = []

    def spy(name):
        real = getattr(hyperelliptic, name)
        monkeypatch.setattr(hyperelliptic, name,
                            lambda *args: calls.append(name) or real(*args))

    for name in ("bundle_from_matrix", "matrix_from_bundle", "cantor_add"):
        spy(name)
    pairs = [(p1, p2) for _, _, p1, p2, _ in _sample()]
    pairs += [(p1, p2) for _, _, p1, p2 in itertools.islice(_twisted_and_odd_products(), 0,
                                                            None, 7)]
    for p1, p2 in pairs:
        calls.clear()
        tensor(p1, p2)
        assert sorted(calls) == ["bundle_from_matrix", "bundle_from_matrix", "cantor_add",
                                 "matrix_from_bundle"]
