"""Hyperelliptic Jacobian arithmetic and its bridge to bundle pairs.

A curve is given by its even model z^2 = F(x0, x1) with F binary,
squarefree of degree 2g + 2.  :class:`HECurve` is the double cover ring
of ``double_cover`` with l = g + 1, built from (field, g, F): the pairs
on a curve live over the curve itself.  When F has a rational root
(r : 1), x -> 1/(x - r) sends it to (1:0): the odd model y^2 = fodd(x),
deg fodd = 2g + 1, has one rational point at infinity and is built once
per curve (``odd_model``; its maps take and return the charts F(x, 1)
of forms of a given degree by one Taylor shift and one reversal, or
are the identity when x1 | F).  There divisor class arithmetic
happens: classes are reduced Mumford pairs (u, v) and
the group law is composition and reduction (Cantor, Math. Comp. 48,
1987), run on ``poly``'s coefficient lists: one extended gcd of the u's
picks the route, coprime u's compose by the Chinese remainder theorem
with its cofactor, other pairs go on to Cantor's second extended gcd.
A class holds its pair as lists, and nothing is boxed: ``u`` and ``v``
build ``Poly``s only when read.  Each chain of sums of products is
summed unreduced and reduced once (``poly``'s rule), and every class
built, the group law's own results included, passes the same checks.

The dictionary between pairs and line bundles: a pair (a, b) is the
bundle c + e * inf on the odd model of its ring, c a reduced class and
e = l - a - b its degree.  ``bundle_from_matrix`` reads (c, e) off the
pair and ``matrix_from_bundle`` writes Mumford's matrix of (c, e), both
in closed form, so the product of pairs (``double_cover.tensor``) is one
Cantor addition.  The degree-zero pairs (a + b = l) are the divisor
classes: ``class_from_matrix`` and ``matrix_from_class`` are the case
e = 0, and ``stratum`` keeps the independent Riemann-Roch cross-check
of the splitting.

Torsion is certified two ways: by the group law (the oracle: n * c by
double-and-add; ``class_order`` iterates the addition and returns None
past its bound, and ``order_dividing`` strips a known multiple of the
order down to it) and by the rank of a resultant-style band matrix built
from the charts of (f, -2P, -q), which is rank deficient exactly when
the class is n-torsion.  ``torsion_matrix`` writes the band out as a
list matrix; ``is_n_torsion`` takes its rank by
``linalg.convolution_rank``, which over GF(p) packs the band's rows
straight from the three charts and never builds it as lists.
"""

import itertools

from .poly import (Poly, plain_poly, base_field_roots, inv_c, reduce_c, trim_c, add_c, neg_c,
                   scale_c, addmul_c, mul_c, divmod_c, monic_c, xgcd_c, cofactor_c, exact_div_c,
                   eval_c)
from .homog import HForm
from .double_cover import DoubleCoverRing, BundlePair
from . import linalg, parsing


class HECurve(DoubleCoverRing):
    """A hyperelliptic curve of genus g in its even model z^2 = F: the
    double cover ring with l = g + 1, built from (field, g, F)."""

    def __init__(self, field, g, F):
        super().__init__(field, g + 1, F)

    @classmethod
    def from_odd_poly(cls, field, g, fodd):
        """Build the curve from y^2 = fodd(x) with deg fodd = 2g + 1."""
        if fodd.degree != 2 * g + 1:
            raise ValueError("odd model needs degree %d" % (2 * g + 1))
        F = HForm.from_univar(fodd, 2 * g + 2)
        return cls(field, g, F)

    @classmethod
    def from_json(cls, data, field):
        g = parsing.read_int(data, "g")
        return cls(field, g, parsing.parse_form(data["F"], field, 2))


class OddModel:
    """Coordinates with one branch point at infinity: y^2 = fodd(x).  The
    branch root (r : 1) goes to (1:0) by x -> 1/(x - r), which gives the
    form of degree d with the chart c(x) the chart x^d c(r + 1/x), c(x + r)
    reversed to length d + 1.  For the root (1:0), r is None."""

    def __init__(self, curve, root):
        field = curve.field
        r0, r1 = map(field.unbox, root)
        self.curve = curve
        self.field = field
        self.g = curve.g
        self.r = field.unbox(r0 * inv_c(r1, field.characteristic)) if r1 else None
        fodd = plain_poly(field, self.to_odd(curve.chart, 2 * curve.l))
        if fodd.degree != 2 * curve.g + 1:
            raise ValueError("chosen branch root does not give an odd model")
        self.fodd = fodd

    def to_odd(self, chart, d):
        """The odd-model chart of the form of degree d with the chart ``chart``."""
        c = chart if self.r is None else _reversal(_taylor_shift(chart, self.r), d)
        return reduce_c(c, self.field.characteristic)

    def from_odd(self, chart, d):
        """The inverse of ``to_odd``: the chart reversed, then shifted by -r."""
        c = chart if self.r is None else _taylor_shift(_reversal(chart, d), -self.r)
        return reduce_c(c, self.field.characteristic)

    def zero_class(self):
        return MumfordClass(self, [1], [])

    def point_class(self, x0, y0):
        """The class of (x0, y0) minus infinity."""
        field = self.field
        p = field.characteristic
        x, y = field.unbox(x0), field.unbox(y0)
        if eval_c(self.fodd.c, x, p) != field.unbox(y * y):
            raise ValueError("point is not on the curve")
        return MumfordClass(self, reduce_c([-x, 1], p), reduce_c([y], p))

    def semireduced(self, u, v):
        """A (possibly unreduced) Mumford pair, validated then reduced: u a
        coefficient list of plain values with a nonzero leading one, and v
        one that need not be reduced (a Poly is read through its list).
        u | v^2 - f is checked here only before a reduction step; the
        reduced class passes ``MumfordClass``'s checks, which check it
        again."""
        if isinstance(u, Poly):
            u, v = u.c, v.c
        p = self.field.characteristic
        if not u:
            raise ZeroDivisionError("polynomial division by zero")
        u = monic_c(u, p)
        v = divmod_c(v, u, p)[1]
        if len(u) > self.g + 1:
            _check_divides(u, v, self.fodd.c, p)
        return _reduce(self, u, v)


def _check_divides(u, v, f, p):
    """Refuse the list pair (u, v) unless u divides v^2 - f: v^2 - f is
    summed unreduced, and the remainder's reduction is the only one."""
    if divmod_c(addmul_c([-x for x in f], v, v), u, p)[1]:
        raise ValueError("pair is not semireduced: u does not divide v^2 - f")


def _reversal(c, d):
    """c padded to length d + 1 and reversed: x^d c(1/x)."""
    return (c + [0] * (d + 1 - len(c)))[::-1]


def _taylor_shift(c, r):
    """c(x + r), unreduced, by Horner's scheme in place (von zur Gathen &
    Gerhard, ISSAC 1997): O(len(c)^2) products by r, none when r = 0."""
    if not r:
        return c
    a = list(c)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += r * a[j + 1]
    return a


class MumfordClass:
    """A reduced divisor class on an odd model, held as the coefficient
    lists ``uc`` and ``vc`` of its Mumford pair (u, v), reduced and
    trimmed.  ``u`` and ``v`` are read-only ``Poly`` views, built on each
    read, for JSON, ``repr``, ``rr_space`` and the tests.

    ``MumfordClass(model, u, v)`` takes the pair as such lists, as the
    package computes them, or as ``Poly``s, read through their lists.
    Every class built passes its checks, the group law's own results
    included: u monic of degree at most g, v = 0 when u is constant,
    deg v < deg u, and u | v^2 - f; ValueError otherwise."""

    __slots__ = ("model", "uc", "vc")

    def __init__(self, model, u, v):
        if isinstance(u, Poly):
            u, v = u.c, v.c
        if not u or u[-1] != 1:
            raise ValueError("u must be monic")
        if len(u) > model.g + 1:
            raise ValueError("not reduced: deg u > g")
        if len(u) == 1:
            if v:
                raise ValueError("v must vanish when u is constant")
        elif len(v) >= len(u):
            raise ValueError("v must be reduced mod u")
        else:
            _check_divides(u, v, model.fodd.c, model.field.characteristic)
        self.model = model
        self.uc = u
        self.vc = v

    @property
    def u(self):
        return plain_poly(self.model.field, list(self.uc))

    @property
    def v(self):
        return plain_poly(self.model.field, list(self.vc))

    def is_zero(self):
        return len(self.uc) == 1

    def __add__(self, other):
        return cantor_add(self, other)

    def __neg__(self):
        return MumfordClass(self.model, self.uc, neg_c(self.vc, self.model.field.characteristic))

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (-n) * (-self)
        acc = self.model.zero_class()
        base = self
        while n:
            if n & 1:
                acc = acc + base
            n >>= 1
            if n:
                base = base + base
        return acc

    def __eq__(self, other):
        if not isinstance(other, MumfordClass):
            return NotImplemented
        return (self.model.fodd == other.model.fodd
                and self.uc == other.uc and self.vc == other.vc)

    def __hash__(self):
        return hash((tuple(self.uc), tuple(self.vc)))

    def __repr__(self):
        return "MumfordClass(u=%s, v=%s)" % (self.u, self.v)

    def to_json(self):
        return {"u": parsing.format_univar(self.u),
                "v": parsing.format_univar(self.v)}


def cantor_add(c1, c2):
    """Composition and reduction of two reduced Mumford pairs, on lists.
    One extended gcd, d0 = gcd(u1, u2) = e u1 mod u2, picks the route.
    When d0 = 1 (a zero operand included) the composition is u1 u2 with
    v = v1 + u1 ((v2 - v1) e mod u2), by the Chinese remainder theorem
    (Cohen & Frey, eds., Handbook of Elliptic and Hyperelliptic Curve
    Cryptography, 2006, 14.3); other pairs take Cantor's composition,
    ``_compose``, which goes on from (d0, e).  Either route gives the one
    semireduced pair of the composed divisor, so the result is the same.
    Each chain of products is summed unreduced and reduced once."""
    if c1.model is not c2.model and c1.model.fodd != c2.model.fodd:
        raise ValueError("classes live on different curves")
    model = c1.model
    p = model.field.characteristic
    u1, v1, u2, v2 = c1.uc, c1.vc, c2.uc, c2.vc
    d0, e = xgcd_c(u1, u2, p)
    if len(d0) == 1:
        u = mul_c(u1, u2, p)
        w = divmod_c(addmul_c(addmul_c([], v2, e), [-x for x in v1], e), u2, p)[1]
        v = reduce_c(addmul_c(list(v1), u1, w), p)
    else:
        u, v = _compose(u1, v1, u2, v2, d0, e, model.fodd.c, p)
    return _reduce(model, u, v)


def _compose(u1, v1, u2, v2, d0, e1, f, p):
    """Cantor's composition of (u1, v1) and (u2, v2) with a common root
    (u1 = u2 included), from d0 = gcd(u1, u2) = e1 u1 + e2 u2 and e1:
    d = gcd(d0, v1 + v2) = s1 u1 + s2 u2 + s3 (v1 + v2) by one more
    extended gcd, u = u1 u2 / d^2 and
    v = (s1 u1 v2 + s2 u2 v1 + s3 (v1 v2 + f)) / d mod u, with s1 = c e1
    and s2 = c e2 for d's cofactor c of d0.  The cofactors e2 of u2 and
    s3 of v1 + v2 are ``cofactor_c``'s exact divisions.  u1 u2 is monic,
    so it is divided unreduced; the numerator's top coefficient can
    cancel mod p, so it is reduced once before its division by d."""
    w = add_c(v1, v2, p)
    d, c = xgcd_c(d0, w, p)
    e2 = cofactor_c(u1, u2, d0, e1, p)
    s3 = cofactor_c(d0, w, d, c, p)
    u = exact_div_c(addmul_c([], u1, u2), mul_c(d, d, p), p)
    # c (e1 u1 v2 + e2 u2 v1) + s3 (v1 v2 + f), unreduced
    num = addmul_c(addmul_c([], addmul_c([], e1, u1), v2), addmul_c([], e2, u2), v1)
    num = addmul_c(addmul_c([], c, num), s3, addmul_c(list(f), v1, v2))
    return u, divmod_c(exact_div_c(reduce_c(num, p), d, p), u, p)[1]


def _reduce(model, u, v):
    """The reduced class of the semireduced pair of reduced lists (u, v),
    u monic.  f - v^2 takes its top coefficient from f or from -v^2 (deg f
    is odd), which no reduction mod p cancels, so it is divided
    unreduced."""
    f, p = model.fodd.c, model.field.characteristic
    while len(u) > model.g + 1:
        u = monic_c(exact_div_c(addmul_c(list(f), [-x for x in v], v), u, p), p)
        v = divmod_c([-x for x in v], u, p)[1]
    return MumfordClass(model, u, v)


def class_order(c, bound=512):
    """The order of a class in the Jacobian, by iterated addition, or
    None when it exceeds ``bound``: orders in the thousands are common
    over GF(p), and over Q a class may have infinite order."""
    acc = c
    for n in range(1, bound + 1):
        if acc.is_zero():
            return n
        acc = acc + c
    return None


def order_dividing(c, n):
    """The order of c, given n > 0 with n * c = 0 (ValueError when it is
    not), by stripping n: for each prime power l^e exactly dividing n,
    the l-part of the order is the least l^k, k <= e, with
    l^k (n / l^e) c = 0, each multiple by double-and-add, so a prime
    factor costs O(log n) additions where ``class_order`` takes up to n.
    Reaching k = e checks l^e (n / l^e) c = n c = 0."""
    if n == 1 and not c.is_zero():
        raise ValueError("1 times the class is not zero")
    order, m, l = 1, n, 2
    while m > 1:
        while m % l:
            l = l + 1 if l * l < m else m
        e = 0
        while m % l == 0:
            m, e = m // l, e + 1
        d = (n // l ** e) * c
        while e and not d.is_zero():
            d, order, e = l * d, order * l, e - 1
        if not d.is_zero():
            raise ValueError("%d times the class is not zero" % n)
    return order


# ---------------------------------------------------------------------------
# Riemann-Roch spaces on the odd model


def rr_space(model, u, v, k):
    """Basis of L(D + k*inf) for the semireduced affine divisor D = (u, v),
    as pairs (A, B) of polynomials, each the function (A + B y)/u.

    A is B v mod u plus a polynomial multiple of u; the basis consists of
    powers of x and of x^i (v + y)-type generators whose pole at infinity
    fits the budget.  deg D + k < 0 returns the empty list.  ``stratum``
    reads only whether the basis is empty; the tests check its length
    against Riemann-Roch duality.
    """
    field = model.field
    g = model.g
    d = u.degree
    basis = []
    for j in range(0, k // 2 + 1 if k >= 0 else 0):
        basis.append((u.shift(j), Poly.zero(field)))
    i = 0
    while 2 * i + 2 * g + 1 - 2 * d <= k:
        B = Poly.one(field).shift(i)
        A = (B * v) % u if d > 0 else Poly.zero(field)
        pole = max(2 * A.degree if not A.is_zero() else -1,
                   2 * i + 2 * g + 1) - 2 * d
        if pole <= k:
            basis.append((A, B))
        i += 1
    return basis


# ---------------------------------------------------------------------------
# dictionary between classes and pairs


def bundle_from_matrix(pair):
    """The pair as the line bundle c + e * inf on the odd model of its
    ring: (c, e), c a reduced Mumford class and e = l - a - b the degree.

    In odd-model coordinates the section (1, 0) of the pair twisted by a
    vanishes on q = 0 (q at its degree l + a - b, never 0 as F is
    squarefree), with z = P there (P at degree l); the eigenvalue of N on
    it is the z-value at the conjugate point, so its affine part is
    (u, v) = (q, -(P mod q)), and x1 | q puts the rest at infinity: the
    bundle is (u, v) - deg u * inf + e * inf.  P^2 + q f = F makes u
    divide v^2 - fodd, which ``semireduced`` checks before reducing."""
    model, l, (P, _, q) = pair.ring.odd_model(), pair.ring.l, pair.charts
    u = model.to_odd(q, l + pair.a - pair.b)
    v = [-x for x in model.to_odd(P, l)]
    return model.semireduced(u, v), l - pair.a - pair.b


def class_from_matrix(pair):
    """The reduced Mumford class c of a degree-zero pair (a + b = l) on the
    odd model of its curve: ``bundle_from_matrix`` with e = 0."""
    c, e = bundle_from_matrix(pair)
    if e:
        raise ValueError("class extraction needs a degree-zero pair")
    return c


def stratum(pair):
    """The splitting type (a, b) of a degree-zero pair, cross-checked
    against Riemann-Roch dimensions of its divisor class: a must be the
    least twist with L(D + (2a - deg D)*inf) nonzero."""
    c = class_from_matrix(pair)
    model = c.model
    g = model.g
    for a in range(0, g + 2):
        if rr_space(model, c.u, c.v, 2 * a - c.u.degree):
            break
    else:
        raise ValueError("no section found in the expected twist range")
    if (pair.a, pair.b) != (a, g + 1 - a):
        raise AssertionError("splitting (%d, %d) disagrees with Riemann-Roch (%d, %d)"
                             % (pair.a, pair.b, a, g + 1 - a))
    return (a, g + 1 - a)


def matrix_from_bundle(ring, c, e):
    """The pair of the line bundle c + e * inf, c = (u, v) a reduced class
    on ring's odd model: Mumford's matrix [[-v, (fodd - v^2)/u], [u, v]],
    which squares to fodd (Mumford, Tata Lectures on Theta II, ch. IIIa),
    with q = u at the degree h in {deg u, deg u + 1} of the parity of e
    (x1 | q adds inf), a = (h - e) / 2 and b = l - e - a, so a <= b.
    fodd - v^2 has fodd's top coefficient (deg v^2 < 2g), so it is
    divided unreduced, and ``from_odd`` reduces each chart once."""
    model = ring.odd_model()
    l, p = ring.l, ring.field.characteristic
    u, v = c.uc, c.vc
    h = len(u) - 1 + (len(u) - 1 - e) % 2
    a = (h - e) // 2
    f = exact_div_c(addmul_c(list(model.fodd.c), [-x for x in v], v), u, p)
    # the charts of P, f and q at their degrees, moved back to the ring's coordinates
    entries = (([-x for x in v], l), (f, 2 * l - h), (u, h))
    return BundlePair._from_charts(ring, a, l - e - a,
                                   tuple(model.from_odd(x, d) for x, d in entries))


def matrix_from_class(curve, c):
    """The pair of a reduced class on curve's odd model: ``matrix_from_bundle``
    with e = 0, so a = ceil(deg u / 2) and b = g + 1 - a."""
    return matrix_from_bundle(curve, c, 0)


# ---------------------------------------------------------------------------
# torsion certificates


def torsion_matrix(pair, n):
    """The band matrix whose rank deficiency certifies n-torsion.

    Rows are indexed by coefficient blocks c_i, i = 0..n, of degrees
    i*a + (n-i)*b - 2; columns by target blocks k = 0..n-2 of degrees
    (k+2)*a + (n-k)*b - 2.  Block (i, k) carries the coefficient band of
    f when i = k+2, of -2P when i = k+1, of -q when i = k.  This is the
    transpose of the band that ``is_n_torsion`` ranks.
    """
    band = linalg.convolution_matrix(pair.ring.field, *_torsion_blocks(pair, n))
    rows = sum(max(i * pair.a + (n - i) * pair.b - 1, 0) for i in range(n + 1))
    return [[r[c] for r in band] for c in range(rows)]


def _torsion_blocks(pair, n):
    """The torsion band as the arguments (coeffs, in_degs, out_degs),
    after the field, of ``linalg.convolution_matrix`` and
    ``linalg.convolution_rank``: one row per target coefficient and one
    column per coefficient of the unknown blocks c_i, target block k
    being f c_(k+2) - 2P c_(k+1) - q c_k."""
    if n < 2:
        raise ValueError("torsion index must be at least 2")
    a, b, p = pair.a, pair.b, pair.ring.field.characteristic
    P, fc, q = pair.charts
    pc, qc = scale_c(P, -2, p), neg_c(q, p)
    coeffs = []
    for k in range(n - 1):
        row = [[]] * (n + 1)
        row[k], row[k + 1], row[k + 2] = qc, pc, fc
        coeffs.append(row)
    return (coeffs, [i * a + (n - i) * b - 2 for i in range(n + 1)],
            [(k + 2) * a + (n - k) * b - 2 for k in range(n - 1)])


def is_n_torsion(pair, n):
    """True when n times the pair's class is trivial, certified by the
    rank of the torsion band (the transpose of ``torsion_matrix``, as
    rank is transpose-invariant), which is rank deficient exactly then.
    ``linalg.convolution_rank`` takes the rank from the three charts of
    (f, -2P, -q), so over GF(p) the band is built as packed rows and
    never as lists."""
    if pair.is_trivial():
        return True
    blocks = _torsion_blocks(pair, n)
    nrows = sum(d + 1 for d in blocks[2] if d >= 0)
    if not nrows:
        return True
    return linalg.convolution_rank(pair.ring.field, *blocks) < nrows


def enumerate_two_torsion(curve):
    """All nontrivial 2-torsion pairs of a curve with split branch form.

    Each pair has P = 0 and q a product of an even number of branch
    factors; complementary factor sets give the same pair and are
    deduplicated.  The count is 2^(2g) - 1.
    """
    p = curve.field.characteristic
    g = curve.g
    factors = _split_linear_factors(curve.F)
    if factors is None:
        raise ValueError("branch form does not split over the base field")
    n = len(factors)
    out = []
    seen = set()
    for a in range(1, (g + 1) // 2 + 1):
        for S in itertools.combinations(range(n), 2 * a):
            key = frozenset(S)
            comp = frozenset(range(n)) - key
            if 2 * a == g + 1 and comp in seen:
                continue
            seen.add(key)
            q, f = [1], [1]
            for i in range(n):
                if i in S:
                    q = mul_c(q, factors[i], p)
                else:
                    f = mul_c(f, factors[i], p)
            out.append(BundlePair(curve, a, g + 1 - a, [], f, q))
    return out


def _split_linear_factors(F):
    """The charts of the linear factors of a squarefree binary form, or
    None if it does not split over the base field."""
    p = F.field.characteristic
    u = F.to_univar()
    roots = list(base_field_roots(u))
    if len(roots) < u.degree:
        return None
    # x1 has the chart 1, and x0 - r x1 the chart x - r
    factors = [[1]] * F.x1_multiplicity()
    factors += [reduce_c([-r, 1], p) for r in roots]
    # fold the leading unit into the first factor
    factors[0] = scale_c(factors[0], u.c[-1], p)
    return factors


# ---------------------------------------------------------------------------
# small-field brute force oracle


def enumerate_jacobian(model, limit=20000):
    """All reduced Mumford classes over a small prime field.

    Used as an independent oracle for the group law; refuses to run when
    the state space is too large.
    """
    field = model.field
    p = field.characteristic
    g = model.g
    require_enumerable(field, g, limit)
    out = [model.zero_class()]
    for d in range(1, g + 1):
        for uc in itertools.product(range(p), repeat=d):
            u = list(uc) + [1]
            for vc in itertools.product(range(p), repeat=d):
                # u is monic of degree d <= g and deg v < d: only u | v^2 - f can fail
                try:
                    out.append(MumfordClass(model, u, trim_c(list(vc))))
                except ValueError:
                    pass
    return out


def require_enumerable(field, g, limit):
    """Raise ValueError unless ``enumerate_jacobian`` may run on a genus-g
    curve over the field: a finite field with p^(2g) <= limit.  Cheap,
    so a caller can check before building the odd model."""
    p = field.characteristic
    if not p:
        raise ValueError("enumeration needs a finite field")
    if p ** (2 * g) > limit:
        raise ValueError("field too large for brute-force enumeration")
