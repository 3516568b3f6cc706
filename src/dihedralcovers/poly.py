"""Dense univariate polynomials over an exact field.

A :class:`Poly` stores its coefficient list ``c`` low degree first with
no trailing zeros, in the field's plain representation: over GF(p) the
coefficients are ints already reduced mod p; over Q a coefficient is an
int wherever it is integral and a ``Fraction`` only where a denominator
exists.  The zero polynomial has an empty list and its degree is
the explicit sentinel ``NEG_INF``, so degree arithmetic such as
``deg(f*g) == deg f + deg g`` stays valid without special cases.

All arithmetic runs in one set of routines on such lists (the functions
ending in ``_c`` below): sum, difference, product, division with
remainder, gcd, extended gcd, resultant, Horner evaluation, Newton
interpolation and powers modulo a polynomial (von zur Gathen & Gerhard,
*Modern Computer Algebra*, ch. 2-3).  Each takes the characteristic p
of the field: for p > 0 the values are ints and every result is reduced
mod p, with inverses from ``pow(a, -1, p)``; for p = 0 they are ints and
Fractions, sums and products of ints stay ints, and the one inverse,
``inv_c``, is a Fraction, so that no division is a float division;
``reduce_c`` and the quotient of ``divmod_c`` turn an integral Fraction
back into an int.
Over Q the gcd, the resultant, exact division and interpolation clear
denominators once and work on ints, so that no coefficient operation
pays for a Fraction gcd: the gcd and the resultant share one
subresultant remainder sequence, and interpolation runs Newton's table
on ints scaled by a common denominator.  Each result coefficient is an
int where the denominator divides it.  Field elements are boxed
(``FpElem``, ``Fraction``) only at the public accessors: ``coeff``,
``lead`` and evaluation return field elements; the constructor accepts
field elements, ints and Fractions, and refuses floats.
``base_field_roots`` is the one root finder: over GF(p) the roots of
gcd(x^p - x, f), split apart by seeded equal-degree splitting and
given in ascending order, so that a prime of any size costs about
log p polynomial products; over Q the rational-root-theorem
candidates.  Nothing here ever touches a float except the degree
sentinel.
"""

import math
import random
from fractions import Fraction

NEG_INF = float("-inf")

_QONE = Fraction(1)

# the residues 0 .. ROOT_PREFIX - 1 that ``base_field_roots`` tries by
# evaluation before it splits
ROOT_PREFIX = 32


# -- routines on coefficient lists ---------------------------------------
#
# Lists are low degree first and trimmed (no trailing zeros); p is the
# field's characteristic, 0 for Q.


def trim_c(c):
    while c and not c[-1]:
        c.pop()
    return c


def inv_c(a, p):
    """1/a for a nonzero a; over Q a Fraction even for an int a."""
    return pow(a, -1, p) if p else _QONE / a


def reduce_c(c, p):
    """The list c reduced mod p (when p > 0) and trimmed; over Q an
    integral Fraction becomes an int."""
    if p:
        return trim_c([v % p for v in c])
    return trim_c([v.numerator if type(v) is Fraction and v.denominator == 1 else v
                   for v in c])


def add_c(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    return reduce_c([x + y for x, y in zip(a, b)] + a[len(b):], p)


def neg_c(a, p):
    return reduce_c([-x for x in a], p)


def sub_c(a, b, p):
    n = min(len(a), len(b))
    return reduce_c([x - y for x, y in zip(a, b)] + a[n:] + [-y for y in b[n:]], p)


def scale_c(a, s, p):
    """a times the scalar s."""
    return reduce_c([x * s for x in a], p)


def mul_c(a, b, p):
    """The schoolbook product; over GF(p) the sums are reduced once."""
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    lb = len(b)
    out = [0] * (len(a) + lb - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + lb] = [o + x * y for o, y in zip(out[i:i + lb], b)]
    return reduce_c(out, p)


def divmod_c(a, b, p):
    """(quotient, remainder) of a by the nonzero b."""
    db = len(b) - 1
    if len(a) <= db:
        return [], reduce_c(a, p)
    r = list(a)
    low = b[:-1]
    binv = inv_c(b[-1], p)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        t = r[i + db] * binv
        if p:
            t %= p      # r's entries may be unreduced; t is not
        elif t.denominator == 1:
            t = t.numerator
        if not t:
            continue
        q[i] = t
        if db:
            r[i:i + db] = [x - t * y for x, y in zip(r[i:i + db], low)]
    return q, reduce_c(r[:db], p)


def monic_c(a, p):
    return scale_c(a, inv_c(a[-1], p), p) if a else a


def gcd_c(a, b, p):
    """The monic gcd (empty when both are zero).  Over Q it comes from
    the integer subresultant sequence of the primitive parts."""
    if not p and a and b:
        a, b = _primitive(a)[2], _primitive(b)[2]
        if len(a) < len(b):
            a, b = b, a
        if len(b) > 1:
            a, b = _subresultant_prs(a, b)[1:3]
        g = a if not b else [1]
        return [_ratio(v, g[-1]) for v in g]
    while b:
        a, b = b, divmod_c(a, b, p)[1]
    return monic_c(a, p)


def xgcd_c(a, b, p):
    """(g, s, t) with s*a + t*b = g, g monic (all empty when a = b = 0)."""
    r0, r1 = a, b
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = divmod_c(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub_c(s0, mul_c(q, s1, p), p)
        t0, t1 = t1, sub_c(t0, mul_c(q, t1, p), p)
    if not r0:
        return r0, s0, t0
    inv = inv_c(r0[-1], p)
    return scale_c(r0, inv, p), scale_c(s0, inv, p), scale_c(t0, inv, p)


def resultant_c(a, b, p):
    """Res(a, b).  Over GF(p) by the Euclidean remainder sequence: with
    r = a mod b, Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r).
    Over Q by the integer subresultant sequence of the primitive parts:
    with a = c A and b = d B, Res(a, b) = c^(deg b) d^(deg a) Res(A, B)."""
    if not a or not b:
        return 0
    if not p:
        return _resultant_q(a, b)
    res = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * pow(b[0], da, p) % p
        r = divmod_c(a, b, p)[1]
        if not r:
            return 0
        res = res * pow(b[-1], da - len(r) + 1, p)
        if da & db & 1:
            res = -res
        a, b = b, r


# -- Q on integers ----------------------------------------------------------
#
# Over Q the gcd, the resultant and exact division run on integer lists:
# a nonzero list of rationals (Fractions, or ints) is c times a primitive
# integer list, and the subresultant sequence of two integer lists keeps
# its coefficients integral and about as long as the Sylvester minors
# they are (Collins, J. ACM 14, 1967; Brown & Traub, J. ACM 18, 1971),
# where Euclid on Fractions pays a gcd per coefficient operation.


def _ratio(num, den):
    """num / den as a plain value over Q: an int when den divides num."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _primitive(c):
    """(num, den, ints): the nonzero rational list c is num/den times the
    primitive integer list ints."""
    den = math.lcm(*[v.denominator for v in c])
    ints = [v.numerator * (den // v.denominator) for v in c]
    g = math.gcd(*ints)
    return g, den, [v // g for v in ints]


def _prem(a, b):
    """The pseudo-remainder of the integer lists a and b, deg a >= deg b:
    lc(b)^(deg a - deg b + 1) a mod b, computed without a division."""
    db = len(b) - 1
    lb, low = b[-1], b[:-1]
    r = list(a)
    for i in range(len(a) - 1 - db, -1, -1):
        # r <- lc(b) r - lc(r) x^i b; the top term cancels
        t = r[i + db]
        r[:i + db] = ([lb * x for x in r[:i]]
                      + [lb * x - t * y for x, y in zip(r[i:i + db], low)])
    return trim_c(r[:db])


def _subresultant_prs(a, b):
    """The subresultant sequence of the integer lists a and b,
    deg a >= deg b >= 1 (Cohen, GTM 138, Alg. 3.3.7), run until its last
    member is a constant or zero.  Returns (s, a, b, h): the last two
    members, h = lc of the last subresultant of degree deg a, and the
    sign s = +-1 of Res(a, b) = s h^(1 - deg a) b^(deg a) when b is a
    constant.  When b is zero, a is a gcd of the inputs."""
    s, g, h = 1, 1, 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            s = -s
        r = _prem(a, b)
        # Both divisions are exact.  By the fundamental theorem of
        # subresultants the pseudo-remainder is g h^delta times the next
        # subresultant, a polynomial in Z[x] (its coefficients are
        # minors of the Sylvester matrix); and h^(1 - delta) g^delta is
        # the leading coefficient of the subresultant of degree deg b,
        # again a minor, so h^(delta - 1) divides g^delta.
        den = g * h ** delta
        a, b = b, [v // den for v in r]
        g = a[-1]
        if delta:
            h = g ** delta // h ** (delta - 1)
        if len(b) <= 1:
            return s, a, b, h


def _resultant_q(a, b):
    """Res(a, b) of nonzero rational lists, as a plain value."""
    da, db = len(a) - 1, len(b) - 1
    na, ma, a = _primitive(a)
    nb, mb, b = _primitive(b)
    num, den = na ** db * nb ** da, ma ** db * mb ** da
    if da < db:
        a, b, da, db = b, a, db, da
        if da & db & 1:
            num = -num
    if db == 0:
        return _ratio(num * b[0] ** da, den)
    s, a, b, h = _subresultant_prs(a, b)
    if not b:
        return 0
    # the last subresultant, h^(1 - deg a) b^(deg a), lies in Z
    da = len(a) - 1
    return _ratio(num * (s * b[0] ** da // h ** (da - 1)), den)


def _exact_div_q(a, b):
    """a / b for nonzero rational lists with b dividing a; ValueError when
    it does not.  On the primitive parts A and B: by Gauss's lemma a
    primitive B divides A in Q[x] only with a quotient in Z[x], so each
    quotient coefficient is an exact integer quotient, and the first
    that is not proves that B does not divide A."""
    na, ma, a = _primitive(a)
    nb, mb, b = _primitive(b)
    db, lb, low = len(b) - 1, b[-1], b[:-1]
    q = [0] * max(len(a) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        t, rest = divmod(a[i + db], lb)
        if rest:
            raise ValueError("inexact polynomial division")
        q[i] = t
        if t:
            a[i:i + db] = [x - t * y for x, y in zip(a[i:i + db], low)]
    if not q or any(a[:db]):
        raise ValueError("inexact polynomial division")
    num, den = na * mb, ma * nb
    return [_ratio(num * v, den) for v in q]


def eval_c(a, x, p):
    """a(x) by Horner's rule (an int when a and x are ints)."""
    r = 0
    for c in reversed(a):
        r = r * x + c
        if p:
            r %= p
    return r


def interpolate_c(xs, ys, p):
    """The polynomial of degree < len(xs) through the points (xs[i], ys[i]),
    in O(len(xs)^2) operations: Newton's divided differences, then
    Horner's rule on the Newton form.  A repeated node raises ValueError.
    Over Q on integers (see ``_interpolate_q``)."""
    if not p:
        return _interpolate_q(xs, ys)
    n = len(xs)
    d = list(ys)
    invs = {}       # one inverse per distinct node difference
    # d[i] becomes the divided difference y[x_0, ..., x_i]; level k
    # divides by x_i - x_{i-k}, so every pair of nodes is differenced once
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            dx = (xs[i] - xs[i - k]) % p
            if not dx:
                raise ValueError("repeated interpolation node %s" % (xs[i],))
            inv = invs.get(dx)
            if inv is None:
                inv = invs[dx] = pow(dx, -1, p)
            d[i] = (d[i] - d[i - 1]) * inv % p
    c = []
    for xk, dk in zip(reversed(xs), reversed(d)):
        # c <- c * (x - x_k) + d_k
        c = [(hi - xk * lo) % p for hi, lo in zip([dk] + c, c + [0])]
    return trim_c(c)


def _interpolate_q(xs, ys):
    """``interpolate_c`` over Q.  With the nodes scaled by N and the values
    by M to integers X_i and Y_i, the polynomial is Q(N x) / (M W) for
    the Q through the points (X_i, W Y_i), where W is the lcm of the
    Lagrange denominators w_i = prod over j != i of (X_i - X_j).  Q lies
    in Z[x] (it is sum_i Y_i (W / w_i) prod_{j != i} (x - X_j)), and the
    divided differences of a polynomial in Z[x] at integer nodes are
    integers, so Newton's table runs on ints with exact divisions, and
    each output coefficient costs one division by M W."""
    N = math.lcm(*[x.denominator for x in xs])
    X = [x.numerator * (N // x.denominator) for x in xs]
    M = math.lcm(*[y.denominator for y in ys])
    if len(set(X)) < len(X):
        raise ValueError("repeated interpolation node %s"
                         % next(x for i, x in enumerate(xs) if X[i] in X[:i]))
    W = 1
    for xi in X:
        w = 1
        for xj in X:
            if xj != xi:
                w *= xi - xj
        W = math.lcm(W, w)
    d = [y.numerator * (M // y.denominator) * W for y in ys]
    n = len(X)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            d[i] = (d[i] - d[i - 1]) // (X[i] - X[i - k])
    c = []
    for xk, dk in zip(reversed(X), reversed(d)):
        c = [hi - xk * lo for hi, lo in zip([dk] + c, c + [0])]
    if N > 1:
        c = [v * N ** k for k, v in enumerate(c)]
    den = W * M
    return trim_c([_ratio(v, den) for v in c])


def powmod_c(a, e, m, p):
    """a^e by repeated squaring, reduced modulo m at every step unless m
    is None.  A negative e raises ValueError."""
    if e < 0:
        raise ValueError("negative exponent %d" % e)
    out = [1]
    if m is not None:
        a = divmod_c(a, m, p)[1]
        out = divmod_c(out, m, p)[1]
    while e:
        if e & 1:
            out = mul_c(out, a, p)
            if m is not None:
                out = divmod_c(out, m, p)[1]
        e >>= 1
        if e:
            a = mul_c(a, a, p)
            if m is not None:
                a = divmod_c(a, m, p)[1]
    return out


# -- the polynomial class -------------------------------------------------


def plain_poly(field, c):
    """A Poly on the trimmed list c of plain values, taken as it is (no
    copy, no reduction)."""
    f = Poly.__new__(Poly)
    f.field = field
    f.c = c
    return f


class Poly:
    __slots__ = ("field", "c")

    def __init__(self, field, coeffs):
        self.field = field
        unbox = field.unbox
        self.c = trim_c([unbox(x) for x in coeffs])

    @classmethod
    def zero(cls, field):
        return plain_poly(field, [])

    @classmethod
    def one(cls, field):
        return plain_poly(field, [1])

    @classmethod
    def x(cls, field):
        return plain_poly(field, [0, 1])

    @classmethod
    def const(cls, field, a):
        return cls(field, [a])

    @property
    def degree(self):
        return len(self.c) - 1 if self.c else NEG_INF

    def is_zero(self):
        return not self.c

    def coeff(self, i):
        return self.field.box(self.c[i]) if 0 <= i < len(self.c) else self.field.zero

    def lead(self):
        if not self.c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.field.box(self.c[-1])

    def monic(self):
        return plain_poly(self.field, monic_c(self.c, self.field.characteristic))

    def _plain(self, other):
        """other's coefficient list: a Poly over the same field, or a scalar."""
        if isinstance(other, Poly):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed fields %r and %r" % (self.field, other.field))
            return other.c
        return trim_c([self.field.unbox(other)])

    def __add__(self, other):
        return plain_poly(self.field, add_c(self.c, self._plain(other), self.field.characteristic))

    __radd__ = __add__

    def __sub__(self, other):
        return plain_poly(self.field, sub_c(self.c, self._plain(other), self.field.characteristic))

    def __rsub__(self, other):
        return plain_poly(self.field, sub_c(self._plain(other), self.c, self.field.characteristic))

    def __neg__(self):
        return plain_poly(self.field, neg_c(self.c, self.field.characteristic))

    def __mul__(self, other):
        p = self.field.characteristic
        if isinstance(other, Poly):
            return plain_poly(self.field, mul_c(self.c, self._plain(other), p))
        return plain_poly(self.field, scale_c(self.c, self.field.unbox(other), p))

    __rmul__ = __mul__

    def __pow__(self, e):
        return plain_poly(self.field, powmod_c(self.c, e, None, self.field.characteristic))

    def __divmod__(self, other):
        b = self._plain(other)
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = divmod_c(self.c, b, self.field.characteristic)
        return plain_poly(self.field, q), plain_poly(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        if self.field.characteristic == 0 and self.c:
            b = self._plain(other)
            if not b:
                raise ZeroDivisionError("polynomial division by zero")
            return plain_poly(self.field, _exact_div_q(self.c, b))
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.c == other.c
        if isinstance(other, int):
            return self == Poly.const(self.field, other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.c))

    def __bool__(self):
        return bool(self.c)

    def __call__(self, x):
        field = self.field
        return field.box(eval_c(self.c, field.unbox(x), field.characteristic))

    def shift(self, k):
        """Multiply by x**k."""
        if not self.c:
            return self
        return plain_poly(self.field, [0] * k + self.c)

    def derivative(self):
        d = [i * a for i, a in enumerate(self.c)][1:]
        return plain_poly(self.field, reduce_c(d, self.field.characteristic))

    def compose(self, other):
        r = Poly.zero(self.field)
        for a in reversed(self.c):
            r = r * other + plain_poly(self.field, trim_c([a]))
        return r

    def __repr__(self):
        if not self.c:
            return "0"
        terms = []
        for i, a in enumerate(self.c):
            if not a:
                continue
            if i == 0:
                terms.append("%s" % (a,))
            elif i == 1:
                terms.append("%s*x" % (a,))
            else:
                terms.append("%s*x^%d" % (a, i))
        return " + ".join(reversed(terms))


def poly_gcd(a, b):
    """Monic gcd of two univariate polynomials."""
    return plain_poly(a.field, gcd_c(a.c, b.c, a.field.characteristic))


def poly_xgcd(a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic."""
    g, s, t = xgcd_c(a.c, b.c, a.field.characteristic)
    return plain_poly(a.field, g), plain_poly(a.field, s), plain_poly(a.field, t)


def resultant(a, b):
    """Resultant of a and b via the Euclidean remainder sequence."""
    return a.field.box(resultant_c(a.c, b.c, a.field.characteristic))


def is_squarefree(a):
    """gcd(a, a') = 1 iff a is squarefree, over any perfect field: when
    a' = 0 (a p-th power in characteristic p) the gcd is a itself."""
    return not a.is_zero() and poly_gcd(a, a.derivative()).degree == 0


def base_field_roots(f):
    """The distinct roots of the nonzero polynomial f in its base field,
    in a fixed order.

    Over GF(p), p odd (``fields.GF`` refuses 2), in ascending order:
    g = gcd(x^p - x, f) is the product of the distinct linear factors of
    f.  The residues 0, 1, ... below ``ROOT_PREFIX`` are tried first, by
    evaluating g, and each root found is yielded at once and divided out
    of g, so a caller that wants only the least root of a curve with a
    small root never splits g.  What is left of g after the prefix has
    only larger roots: for a random a the gcd of it with
    (x + a)^((p - 1)/2) - 1 takes the roots r with r + a a nonzero
    square, about half of them; such splits are repeated until every
    factor is linear (equal-degree splitting: Cantor & Zassenhaus,
    Math. Comp. 36, 1981), and those roots follow, sorted.  The draws come
    from a generator of their own with a fixed seed, so no other random
    state is read or moved.
    Over Q, lazily, the rational-root-theorem candidates +-p/q, p
    dividing the lowest nonzero and q the leading integer coefficient.
    """
    field = f.field
    p = field.characteristic
    if p:
        g = monic_c(f.c, p)
        if len(g) > 1:
            g = gcd_c(sub_c(powmod_c([0, 1], p, g, p), [0, 1], p), g, p)
        for x in range(min(p, ROOT_PREFIX)):
            if len(g) < 2:
                return
            if not eval_c(g, x, p):
                yield field.box(x)
                g = divmod_c(g, [-x % p, 1], p)[0]
        rng = random.Random(0)
        roots, todo = [], [g]
        while todo:
            h = todo.pop()
            if len(h) == 2:
                roots.append(-h[0] % p)
            elif len(h) > 2:
                s = powmod_c([rng.randrange(p), 1], (p - 1) // 2, h, p)
                d = gcd_c(sub_c(s, [1], p), h, p)
                if 1 < len(d) < len(h):
                    todo += [d, divmod_c(h, d, p)[0]]
                else:
                    todo.append(h)
        for v in sorted(roots):
            yield field.box(v)
        return
    den = math.lcm(*[Fraction(c).denominator for c in f.c])
    ic = [int(Fraction(c) * den) for c in f.c]
    lo = next(c for c in ic if c)
    seen = set()
    for p in _divisors(abs(lo)) | {0}:
        for q in _divisors(abs(ic[-1])):
            for s in (1, -1):
                x = Fraction(s * p, q)
                if x not in seen and not f(x):
                    seen.add(x)
                    yield x


def _divisors(n):
    if n == 0:
        return {1}
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return out


def lagrange_interpolate(field, points):
    """The polynomial of degree < len(points) through the given (x, y)
    pairs (see ``interpolate_c``).  A repeated x raises ValueError."""
    unbox = field.unbox
    xs = [unbox(x) for x, _ in points]
    ys = [unbox(y) for _, y in points]
    return plain_poly(field, interpolate_c(xs, ys, field.characteristic))
