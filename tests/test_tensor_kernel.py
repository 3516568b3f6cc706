"""``tensor`` against the degree search it replaced.

The oracle below is the earlier ``graded.kernel_basis``, which looked
for generators degree by degree from the least column twist upward, and
the earlier z-action, which solved K(-l) M = (N1 (x) Id)^T K with
``linalg.solve`` one column at a time.  The kernel at its known twist
sum and the adjugate division must give the same twists, the same
generators and the same pair, bit for bit.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from dihedralcovers import linalg
from dihedralcovers.fields import GF, QQ
from dihedralcovers.homog import HForm
from dihedralcovers.poly import Poly, trim_c, sub_c, add_c, mul_c
from dihedralcovers.graded import kernel_basis
from dihedralcovers.double_cover import (BundlePair, tensor, inverse, _charts,
                                         _z_action)
from dihedralcovers.hyperelliptic import HECurve, matrix_from_class, class_from_matrix

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
    """(psi^T charts, row twists, column twists) as ``tensor`` builds them."""
    p, l = p1.ring.field.characteristic, p1.ring.l
    rows = [p1.a + p2.a, p1.a + p2.b, p1.b + p2.a, p1.b + p2.b]
    n1, n2 = _charts(p1), _charts(p2)
    psiT = [[sub_c(n1[i][k] if j == m else [], n2[j][m] if i == k else [], p)
             for i in range(2) for j in range(2)]
            for k in range(2) for m in range(2)]
    return psiT, [-(r + l) for r in rows], [-r for r in rows]


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


def test_tensor_matches_the_degree_search_and_solve():
    seen, spreads, count = set(), set(), 0
    for name, g, p1, p2 in _products():
        field, l = p1.ring.field, p1.ring.l
        psiT, row_tw, col_tw = _psi_transpose(p1, p2)
        want_tw, want_gens = _degree_search_kernel(field, psiT, row_tw, col_tw, 2)
        S = l - (p1.a + p1.b + p2.a + p2.b)
        assert kernel_basis(field, psiT, row_tw, col_tw, 2, S)[:2] == (want_tw, want_gens)
        want = _tensor_by_solve(p1, p2, want_tw, want_gens)
        got = tensor(p1, p2)
        assert got == want and repr(got) == repr(want), (name, g, p1, p2)
        seen.add((name, g))
        spreads.add((want_tw[1] - want_tw[0]) / l)
        count += 1
    assert count >= 1000 and len(seen) == 20
    # balanced kernels and the most unbalanced one, twists (-l, 0), all occur
    assert {0, 1} <= spreads


def test_p_tensor_inverse_is_the_most_unbalanced_kernel():
    """p (x) inverse(p) is the trivial class, split as O + O(-l): its
    kernel has twists (-l, 0), and it takes the three nullspaces."""
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


def test_z_action_checks_the_rows_the_division_skips():
    """Rows 0 and 1 of K are the identity, so the division reads M off
    them and succeeds (M = 0, trace free); N1 does not preserve the span
    on row 2, and only the check of the other two rows can see it."""
    K = GF(7)
    n1 = [[[], [1]], [[], []]]
    gens = [[[1], [], [], []], [[], [1], [], []]]
    with pytest.raises(ValueError, match="factorization"):
        _z_action(K, 0, n1, [0, 0], gens)
    # with N1 = 0 the span is preserved and M = 0
    P, f, q = _z_action(K, 0, [[[], []], [[], []]], [0, 0], gens)
    assert not P and not f and not q
