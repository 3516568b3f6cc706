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
remainder, gcd, extended gcd, resultant, Horner evaluation,
interpolation and powers modulo a polynomial (von zur Gathen & Gerhard,
*Modern Computer Algebra*, ch. 2-3, 5 and 6).  Each takes the
characteristic p of the field: for p > 0 the values are ints and every
result is reduced mod p, with inverses from ``pow(a, -1, p)``; for p = 0
they are ints and Fractions, sums and products of ints stay ints, and
the one inverse, ``inv_c``, is a Fraction, so that no division is a
float division; ``reduce_c`` and the quotient of ``divmod_c`` turn an
integral Fraction back into an int.
The product and the division with remainder are index loops that
update one list in place (``out[j] += x * y``, ``r[i + j] -= t * b[j]``),
over GF(p) on unreduced ints.  ``addmul_c`` is the one product loop and
leaves its sum unreduced; ``mul_c`` is it followed by ``reduce_c``,
which reduces and trims.  A chain of sums and products (the extended
gcd's cofactor s0 - q s1, P^2 + q f, the numerator of a Cantor
composition) is reduced once: its products are added unreduced by
``addmul_c``, and the sum is reduced before the division or comparison
that reads it.  ``divmod_c`` takes an unreduced dividend.  A divisor is
always reduced and trimmed, and a dividend whose top coefficient can
cancel mod p is reduced before an exact division, so that the quotient
comes out trimmed.
Every resultant, and the gcd over Q, is read off one remainder
sequence, ``resultant_lanes_c``, which runs many pairs (lanes) at once;
a single pair is one lane.  The extended gcd is one Euclid that tracks
a's cofactor, and ``cofactor_c`` gives b's by one exact division.
Over Q the gcd, the resultant, exact division and interpolation clear
denominators once and work on ints, so that no coefficient operation
pays for a Fraction gcd: the remainder sequence is the fraction-free
subresultant sequence, and interpolation takes one dot product per
coefficient with a cached integer table.  Each result coefficient is
an int where the denominator divides it.  Field elements are boxed
(``FpElem``, ``Fraction``) only at the public accessors: ``coeff``,
evaluation and ``resultant`` return field elements; the constructor
accepts field elements, ints and Fractions, and refuses floats.
``base_field_roots`` is the one root finder, and it yields plain
values: over GF(p) the roots of
gcd(x^p - x, f), split apart by seeded equal-degree splitting and
given in ascending order, so that a prime of any size costs about
log p polynomial products; over Q the roots modulo a small prime,
lifted p-adically and recovered by rational reconstruction, so that no
coefficient is factored.  Nothing here ever touches a float except the
degree sentinel.
"""

import functools
import math
import operator
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
        c = [v % p for v in c]
    else:
        c = [v.numerator if type(v) is Fraction and v.denominator == 1 else v for v in c]
    while c and not c[-1]:
        c.pop()
    return c


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


def addmul_c(out, a, b):
    """out + a b, unreduced and untrimmed: the schoolbook product, each
    x y added in place to its slot of out, which is first padded with
    zeros to the product's length.  Returns out.  The one product loop:
    a chain of sums of products runs it on unreduced values and reduces
    once, before its division or comparison."""
    if a and b:
        if len(a) > len(b):
            a, b = b, a
        n = len(a) + len(b) - 1
        if len(out) < n:
            out += [0] * (n - len(out))
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
    return out


def mul_c(a, b, p):
    """The product, reduced once."""
    return reduce_c(addmul_c([], a, b), p)


def divmod_c(a, b, p):
    """(quotient, remainder) of a by the nonzero b: each step subtracts
    t x^i b in place from one copy of a, and the remainder is reduced once
    at the end; each quotient coefficient t is reduced as it is made."""
    db = len(b) - 1
    if len(a) <= db:
        return [], reduce_c(a, p)
    r = list(a)
    # a monic divisor, u in the group law, takes no inverse
    binv = 1 if b[-1] == 1 else inv_c(b[-1], p)
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
        for j in range(db):
            r[i + j] -= t * b[j]
    return q, reduce_c(r[:db], p)


def monic_c(a, p):
    return scale_c(a, inv_c(a[-1], p), p) if a else a


def exact_div_c(a, b, p):
    """a / b for b dividing a; ValueError when it does not (over Q on
    integers, ``_exact_div_q``)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not p and a:
        return _exact_div_q(a, b)
    q, r = divmod_c(a, b, p)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def gcd_c(a, b, p):
    """The monic gcd (empty when both are zero).  Over Q the last nonzero
    remainder of the primitive parts' sequence, run as one lane of
    ``resultant_lanes_c``."""
    if not p and a and b:
        g = _one_lane(_primitive(a)[2], _primitive(b)[2], 0)[1]
        return [_ratio(v, g[-1]) for v in g]
    while b:
        a, b = b, divmod_c(a, b, p)[1]
    return monic_c(a, p)


def xgcd_c(a, b, p):
    """(g, s) with g = gcd(a, b) monic and s a = g mod b, by Euclid
    tracking a's cofactor only (g empty and s = [1] when a = b = 0);
    ``cofactor_c`` gives b's.  Each new cofactor s0 - q s1 is the
    product loop run on a copy of s0, and one reduction."""
    r0, r1 = a, b
    s0, s1 = [1], []
    while r1:
        q, r = divmod_c(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, reduce_c(addmul_c(list(s0), [-x for x in q], s1), p)
    if not r0:
        return r0, s0
    inv = inv_c(r0[-1], p)
    return scale_c(r0, inv, p), scale_c(s0, inv, p)


def cofactor_c(a, b, g, s, p):
    """t = (g - s a) / b, so that s a + t b = g for (g, s) = xgcd_c(a, b, p);
    empty when b = 0.  g - s a is reduced once, before the division."""
    return exact_div_c(reduce_c(addmul_c(list(g), [-x for x in s], a), p), b, p) if b else []


def resultant_lanes_c(a, b, p):
    """(resultants, remainders): for each lane l, Res(a_l, b_l) and the
    last nonzero remainder of the sequence of (a_l, b_l), low degree
    first, where a[i][l] is the x^i coefficient of a_l, a[-1] and b[-1]
    have no zero, and over Q all values are ints.

    The lanes run one remainder sequence, each step a comprehension over
    them.  Over GF(p) it is Euclid with per-lane inverses, and with
    r = a mod b, Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r).
    Over Q it is the fraction-free subresultant sequence (Collins, J. ACM
    14, 1967; Brown & Traub, J. ACM 18, 1971; Cohen, GTM 138, Alg. 3.3.7):
    the pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b divides exactly
    by g h^(deg a - deg b), since by the fundamental theorem of
    subresultants the quotient is the next subresultant, whose
    coefficients are minors of the Sylvester matrix; and h^(delta - 1)
    divides g^delta for the same reason.  Lanes whose remainders fall to
    the same degree go on as a group of their own, with their own sign,
    g and h, so each lane's steps are those of its own sequence.  A lane
    whose remainder is zero has Res = 0, and its divisor, the last
    nonzero remainder, is a gcd of its pair; every other lane ends on a
    nonzero constant."""
    n = len(a[0])
    res, rems = [0] * n, [None] * n
    da, db = len(a) - 1, len(b) - 1
    s = -1 if da < db and da & db & 1 else 1
    if da < db:
        a, b = b, a
    # (lanes, a, b, s, g, h); over GF(p) g is the product of the lc(b) powers
    groups = [(list(range(n)), a, b, s, [1] * n, [1] * n)]
    while groups:
        lanes, a, b, s, g, h = groups.pop()
        da, db = len(a) - 1, len(b) - 1
        while db:
            if da & db & 1:
                s = -s
            delta, lb, r = da - db, b[-1], list(a)
            if p:
                binv = [pow(v, -1, p) for v in lb]
                for i in range(delta, -1, -1):
                    t = [x * y % p for x, y in zip(r[i + db], binv)]
                    r[i:i + db] = [[(x - u * y) % p for x, u, y in zip(r[i + j], t, b[j])]
                                   for j in range(db)]
                g = [x * pow(y, delta + 1, p) % p for x, y in zip(g, lb)]
                r = r[:db]
            else:
                # the pseudo-remainder, r <- lc(b) r - lc(r) x^i b at each i
                for i in range(delta, -1, -1):
                    t = r[i + db]
                    r[:i + db] = ([[l * x for l, x in zip(lb, r[j])] for j in range(i)]
                                  + [[l * x - u * y for l, x, u, y in zip(lb, r[i + j], t, b[j])]
                                     for j in range(db)])
                den = [x * y ** delta for x, y in zip(g, h)]
                r = [[v // d for v, d in zip(c, den)] for c in r[:db]]
                if delta:
                    h = [x ** delta // y ** (delta - 1) for x, y in zip(lb, h)]
                g = lb
            if not all(r[-1]):
                degs = [max((j for j in range(db) if r[j][k]), default=-1)
                        for k in range(len(lanes))]
                for d in set(degs):
                    keep = [k for k, e in enumerate(degs) if e == d]
                    if d < 0:
                        for k in keep:
                            rems[lanes[k]] = [c[k] for c in b]
                        continue
                    # over GF(p) lc(b) has the power deg a - d, not delta + 1
                    gd = [g[k] * pow(lb[k], db - 1 - d, p) % p if p else g[k] for k in keep]
                    groups.append(([lanes[k] for k in keep],
                                   *[[[c[k] for k in keep] for c in f] for f in (b, r[:d + 1])],
                                   s, gd, [h[k] for k in keep]))
                break
            a, b, da, db = b, r, db, db - 1
        else:
            # over Q the last subresultant, h^(1 - deg a) b^(deg a), lies in Z
            for lane, x, y, z in zip(lanes, g, h, b[0]):
                res[lane] = s * x * pow(z, da, p) % p if p else s * z ** da // y ** max(da - 1, 0)
                rems[lane] = [z]
    return res, rems


def _one_lane(a, b, p):
    """(Res(a, b), last nonzero remainder) of the nonzero lists a and b,
    as one lane of ``resultant_lanes_c``."""
    res, rems = resultant_lanes_c([[v] for v in a], [[v] for v in b], p)
    return res[0], rems[0]


# -- Q on integers ----------------------------------------------------------
#
# Over Q the gcd, the resultant and exact division run on integer lists:
# a nonzero list of rationals (Fractions, or ints) is c times a primitive
# integer list, and the subresultant sequence of two integer lists keeps
# its coefficients integral and about as long as the Sylvester minors
# they are, where Euclid on Fractions pays a gcd per coefficient operation.


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
    rows . ys / den for the table (rows, den) of ``_inverse_vandermonde``.
    A repeated node raises ValueError.  Over Q the values are scaled to
    ints by the lcm M of their denominators, and den by M."""
    rows, den = _inverse_vandermonde(tuple(xs), p)
    if p:
        return trim_c([sum(map(operator.mul, row, ys)) % p for row in rows])
    M = math.lcm(*[y.denominator for y in ys])
    ys = [y.numerator * (M // y.denominator) for y in ys]
    den *= M
    return trim_c([_ratio(sum(map(operator.mul, row, ys)), den) for row in rows])


@functools.lru_cache(maxsize=32)
def _inverse_vandermonde(xs, p):
    """The inverse Vandermonde matrix of the nodes xs as (rows, den):
    column i is M / ((x - x_i) M'(x_i)) for M = prod_j (x - x_j) (von
    zur Gathen & Gerhard, ch. 5), built in O(len(xs)^2) by Horner's rule
    for every M'(x_i) and one synthetic division for every x - x_i, each
    run for all nodes at once.  A repeated node has M'(x_i) = 0.  Over Q
    the nodes are scaled to ints X_i = N x_i, so row k carries N^k, and
    the rows are ints over den = lcm |M'(X_i)|.  Cached, as a check
    interpolates at the nodes 0..D again and again; the rows are shared
    and must not be changed."""
    if p:
        X, N = [x % p for x in xs], 1
    else:
        N = math.lcm(*[x.denominator for x in xs])
        X = [x.numerator * (N // x.denominator) for x in xs]
    M = [1]
    for x in X:
        # M <- M (t - x)
        M = [(lo - x * hi) % p if p else lo - x * hi for lo, hi in zip([0] + M, M + [0])]
    ws = [0] * len(X)
    for k in range(len(X), 0, -1):
        ws = [(w * x + k * M[k]) % p if p else w * x + k * M[k] for w, x in zip(ws, X)]
    if not all(ws):
        raise ValueError("repeated interpolation node %s"
                         % next(x for i, x in enumerate(xs) if X[i] in X[:i]))
    if p:
        den, row = 1, [pow(w, -1, p) for w in ws]
    else:
        den = math.lcm(*ws)
        row = [den // w for w in ws]
    # row k - 1 from row k, both scaled by den / M'(x_i): q_i = M / (t - x_i)
    # has q_i[k - 1] = M[k] + x_i q_i[k], from q_i[len(X) - 1] = 1
    rows = [row]
    for k in range(len(X) - 1, 0, -1):
        rows.append([(M[k] * s + x * q) % p if p else M[k] * s + x * q
                     for s, x, q in zip(rows[0], X, rows[-1])])
    rows.reverse()
    if N > 1:
        rows = [[v * N ** k for v in row] for k, row in enumerate(rows)]
    return rows, den


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
        return plain_poly(self.field, exact_div_c(self.c, self._plain(other),
                                                  self.field.characteristic))

    def __eq__(self, other):
        """Equal coefficient lists; an int is equal only to the constant
        whose plain value it is (0 to the zero polynomial)."""
        if isinstance(other, Poly):
            return self.c == other.c
        if isinstance(other, int):
            return self.c == ([other] if other else [])
        return NotImplemented

    def __hash__(self):
        if len(self.c) > 1:
            return hash(tuple(self.c))
        # a constant hashes as its plain value, the int it may equal
        return hash(self.c[0] if self.c else 0)

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
        return plain_poly(self.field, reduce_c(_derivative_c(self.c), self.field.characteristic))

    def compose(self, other):
        r = Poly.zero(self.field)
        for a in reversed(self.c):
            r = r * other + plain_poly(self.field, trim_c([a]))
        return r

    def __repr__(self):
        # imported here: parsing builds on this module
        from .parsing import format_univar
        return format_univar(self)


def poly_gcd(a, b):
    """Monic gcd of two univariate polynomials."""
    return plain_poly(a.field, gcd_c(a.c, b.c, a.field.characteristic))


def poly_xgcd(a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic."""
    p = a.field.characteristic
    g, s = xgcd_c(a.c, b.c, p)
    return tuple(plain_poly(a.field, c) for c in (g, s, cofactor_c(a.c, b.c, g, s, p)))


def resultant(a, b):
    """Res(a, b), as one lane of ``resultant_lanes_c``.  Over Q on the
    primitive parts: with a = c A and b = d B,
    Res(a, b) = c^(deg b) d^(deg a) Res(A, B)."""
    field, p, A, B = a.field, a.field.characteristic, a.c, b.c
    if not A or not B:
        return field.zero
    if p:
        return field.box(_one_lane(A, B, p)[0])
    (na, ma, A), (nb, mb, B) = _primitive(A), _primitive(B)
    da, db = len(A) - 1, len(B) - 1
    return field.box(_ratio(na ** db * nb ** da * _one_lane(A, B, 0)[0], ma ** db * mb ** da))


def is_squarefree(a):
    """gcd(a, a') = 1 iff a is squarefree, over any perfect field: when
    a' = 0 (a p-th power in characteristic p) the gcd is a itself."""
    return not a.is_zero() and poly_gcd(a, a.derivative()).degree == 0


def base_field_roots(f):
    """The distinct roots of the nonzero polynomial f in its base field,
    as plain values: over GF(p) ints in range(p), ascending
    (``_roots_mod``); over Q an int where the root is integral and else a
    Fraction, in the order of ``_rational_roots``."""
    p = f.field.characteristic
    return _roots_mod(f.c, p) if p else _rational_roots(f.c)


def _roots_mod(c, p):
    """The roots in range(p) of the nonzero list c, ascending, from
    g = gcd(x^p - x, c), the product of c's distinct linear factors.
    The residues below ``ROOT_PREFIX`` are tried first, by evaluating g,
    and each root found is yielded at once and divided out of g, so the
    least root of a curve with a small root splits nothing.  The rest of g
    is split by gcds with (x + a)^((p - 1)/2) - 1 for random a until every
    factor is linear (equal-degree splitting: Cantor & Zassenhaus, Math.
    Comp. 36, 1981), and those roots follow, sorted.  The draws come from
    a generator of their own with a fixed seed, so no other random state
    is read or moved."""
    g = monic_c(c, p)
    if len(g) > 1:
        g = gcd_c(sub_c(powmod_c([0, 1], p, g, p), [0, 1], p), g, p)
    for x in range(min(p, ROOT_PREFIX)):
        if len(g) < 2:
            return
        if not eval_c(g, x, p):
            yield x
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
    yield from sorted(roots)


def _rational_roots(c):
    """The rational roots of the nonzero list c: 0 first when it is one,
    then s/t in lowest terms (t > 0) by (|s|, t, positive first), the
    order of the rational-root-theorem scan over ascending divisors.

    With x^k divided out, h is the primitive squarefree part, and a root
    s/t has s | lo = |h(0)| and t | lc = |lc(h)|.  No divisor is computed:
    modulo the least odd prime p with p not dividing lc and h squarefree
    mod p, each root of h (``_roots_mod``) is simple and lifts by Newton's
    iteration modulo M = p^(2^i) > 2 lo lc, where s/t is the one fraction
    with |s| <= lo and 0 < t <= lc congruent to the lift (Wang's rational
    reconstruction, by the extended Euclidean algorithm on (M, r); von
    zur Gathen & Gerhard, 5.10).  It is kept only if h(s/t) = 0 exactly."""
    h = _primitive(c)[2]
    k = next(i for i, v in enumerate(h) if v)
    if k:
        yield 0
    h = h[k:]
    h = _primitive(exact_div_c(h, gcd_c(h, _derivative_c(h), 0), 0))[2]
    dh, lo, lc = _derivative_c(h), abs(h[0]), abs(h[-1])
    p = 3
    while not (lc % p and all(p % d for d in range(3, math.isqrt(p) + 1, 2))
               and len(gcd_c(reduce_c(h, p), reduce_c(dh, p), p)) == 1):
        p += 2
    roots = []
    for r in _roots_mod(reduce_c(h, p), p):
        M = p
        while M <= 2 * lo * lc:
            M *= M
            r = (r - eval_c(h, r, M) * pow(eval_c(dh, r, M), -1, M)) % M
        r0, s, t0, t = M, r, 0, 1
        while s > lo:
            q = r0 // s
            r0, s, t0, t = s, r0 - q * s, t, t0 - q * t
        x = Fraction(s, t)
        if x.denominator <= lc and not eval_c(h, x, 0):
            roots.append(x)
    for x in sorted(roots, key=lambda x: (abs(x.numerator), x.denominator, x < 0)):
        yield _ratio(x.numerator, x.denominator)


def _derivative_c(c):
    return [i * v for i, v in enumerate(c)][1:]


def lagrange_interpolate(field, points):
    """The polynomial of degree < len(points) through the given (x, y)
    pairs (see ``interpolate_c``).  A repeated x raises ValueError."""
    unbox = field.unbox
    xs = [unbox(x) for x, _ in points]
    ys = [unbox(y) for _, y in points]
    return plain_poly(field, interpolate_c(xs, ys, field.characteristic))
