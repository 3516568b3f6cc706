"""The cyclotomic field Q(zeta_n) as Q[t] modulo the n-th cyclotomic
polynomial.

An element is num(t) / den, reduced modulo Phi_n: ``num`` is the tuple
of its phi(n) integer numerators on the basis 1, t, ..., t^(phi(n)-1),
``den`` one positive int denominator, always in lowest terms (no prime
divides den and every numerator; zero is 0/1), so that each value has
one representation.  This is the layout of ANTIC's ``nf_elem`` (W. Hart,
"ANTIC: Algebraic Number Theory In C", Computeralgebra-Rundbrief 56,
2015).  ``CycloElem(field, num, den)`` is the one constructor and takes
the pair as it is; arithmetic brings each result to lowest terms first.
``rep`` is a read-only view of the coefficients as rationals.

Each field precomputes the reduced rows of t^k for phi(n) <= k <=
2 phi(n) - 2 and the n powers of zeta; Phi_n is monic in Z[t], so both
hold ints.  A sum over one denominator is one tuple sum; a product is
one integer convolution, its high part folded back through the t^k
rows, then one gcd pass; a product with a rational factor is a scalar
multiple, and one with zeta^k a rotation of the numerators
(``times_zeta``).  Conjugation sends t^k to zeta^(-k); as an
automorphism of Z[zeta_n], whose Z-basis the t^k are, it keeps the
numerators' content.  Inversion runs the extended Euclidean algorithm on
the numerator list against the modulus, tracking only the numerator's
cofactor.  The field satisfies the descriptor protocol of
:mod:`dihedralcovers.fields` (zero, one, of, inv, to_ints, from_ints),
so generic linear algebra and the cover algebra run over it unchanged.
"""

import math
from fractions import Fraction

from .fields import QQ
from .poly import Poly, plain_poly, trim_c, xgcd_c

_cyclo_cache = {}


def cyclotomic_polynomial(n):
    """The n-th cyclotomic polynomial over Q, by recursive division of
    t^n - 1 by the lower ones."""
    if n in _cyclo_cache:
        return _cyclo_cache[n]
    num = Poly(QQ, [-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            num = num.exact_div(cyclotomic_polynomial(d))
    _cyclo_cache[n] = num
    return num


def _lowest(K, num, den):
    """The element num / den of K, brought to lowest terms (den > 0)."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple([a // g for a in num])
            den //= g
    return CycloElem(K, num, den)


def _combine(x, y, sign):
    """x + y for sign 1, x - y for sign -1; y may be any value K.of takes."""
    K = x.field
    if type(y) is not CycloElem or y.field is not K:
        y = K.of(y)
    da, db = x.den, y.den
    if da == db:
        if sign > 0:
            return _lowest(K, tuple([a + b for a, b in zip(x.num, y.num)]), da)
        return _lowest(K, tuple([a - b for a, b in zip(x.num, y.num)]), da)
    g = math.gcd(da, db)
    fa, fb = db // g, sign * (da // g)
    return _lowest(K, tuple([a * fa + b * fb for a, b in zip(x.num, y.num)]), da * fa)


class CycloElem:
    """An element num(t) / den of Q(zeta_n): ``num`` is a tuple of phi(n)
    ints, low degree first, and ``den`` a positive int, in lowest terms."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=1):
        self.field = field
        self.num = num
        self.den = den

    @property
    def rep(self):
        """The reduced coefficients as rationals, ints where integral."""
        num, den = self.num, self.den
        if den == 1:
            return num
        return tuple([Fraction(a, den) if a % den else a // den for a in num])

    def __add__(self, other):
        return _combine(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return _combine(self, other, -1)

    def __rsub__(self, other):
        return _combine(self.field.of(other), self, -1)

    def __mul__(self, other):
        K = self.field
        if type(other) is not CycloElem or other.field is not K:
            if isinstance(other, (int, Fraction)):
                s = other.numerator
                return _lowest(K, tuple([a * s for a in self.num]),
                               self.den * other.denominator)
            other = K.of(other)
        a, b = self.num, other.num
        tail = K._tail
        if b[1:] == tail:
            s = b[0]
            num = tuple([x * s for x in a])
        elif a[1:] == tail:
            s = a[0]
            num = tuple([s * y for y in b])
        else:
            num = K._mul(a, b)
        return _lowest(K, num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * self.field.of(other).inverse()

    def __rtruediv__(self, other):
        return self.field.of(other) / self

    def __neg__(self):
        return CycloElem(self.field, tuple([-a for a in self.num]), self.den)

    def __pow__(self, e):
        b = self
        if e < 0:
            b = b.inverse()
            e = -e
        r = self.field.one
        while e:
            if e & 1:
                r = r * b
            e >>= 1
            if e:
                b = b * b
        return r

    def inverse(self):
        K = self.field
        # s num = g mod Phi_n; Phi_n's cofactor is not needed
        g, s = xgcd_c(trim_c(list(self.num)), K.modulus.c, 0)
        if len(g) != 1:
            raise ZeroDivisionError("non-invertible cyclotomic element")
        # g is monic, so s * num = 1 and (num / den)^(-1) = s * den
        return K._reduce(plain_poly(QQ, s)) * self.den

    def conjugate(self):
        """Complex conjugation zeta -> zeta^(-1), so t^k -> zeta^(-k)."""
        K = self.field
        num = self.num
        out = [num[0]] + [0] * (K.degree - 1)
        for k in range(1, K.degree):
            a = num[k]
            if a:
                for j, c in enumerate(K._zetas[-k % K.n].num):
                    if c:
                        out[j] += a * c
        return CycloElem(K, tuple(out), self.den)

    def is_rational(self):
        return self.num[1:] == self.field._tail

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.rep[0]

    def __eq__(self, other):
        if isinstance(other, CycloElem):
            return (self.field.n == other.field.n and self.num == other.num
                    and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return self.num[0] == other * self.den and self.is_rational()
        return NotImplemented

    def __hash__(self):
        # a rational element hashes like its Fraction, which it equals
        if self.num[1:] == self.field._tail:
            return hash(Fraction(self.num[0], self.den))
        return hash((self.field.n, self.num, self.den))

    def __bool__(self):
        # a fast path for the shared zero, which fills most projector cells
        return self is not self.field.zero and any(self.num)

    def __repr__(self):
        return "(%s)" % repr(Poly(QQ, list(self.rep))).replace("x", "z")


class CyclotomicField:
    """Q(zeta_n), with zeta_n the class of t."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.modulus = m = cyclotomic_polynomial(n)
        self.degree = d = m.degree
        self.characteristic = 0
        # rows[k] is t^k reduced, for 0 <= k < max(2d - 1, n): t^(k+1) is
        # t^k shifted, with its t^d coefficient folded back by t^d = -(m - t^d)
        top = [-int(c) for c in m.c[:d]]
        rows = [tuple(int(i == k) for i in range(d)) for k in range(d)]
        while len(rows) < max(2 * d - 1, n):
            last = rows[-1]
            lead = last[d - 1]
            rows.append(tuple([(last[i - 1] if i else 0) + lead * top[i]
                               for i in range(d)]))
        # the nonzero (j, c) of each row t^k, k >= d, that folds a product
        sparse = [[(j, c) for j, c in enumerate(row) if c] for row in rows]
        self._fold = [(k, sparse[k]) for k in range(d, 2 * d - 1)]
        self._sparse = sparse[:n]
        self._zetas = [CycloElem(self, row) for row in rows[:n]]
        self._tail = (0,) * (d - 1)
        self.zero = CycloElem(self, (0,) + self._tail)
        self.one = self._zetas[0]

    def zeta(self, k=1):
        """zeta_n^k."""
        return self._zetas[k % self.n]

    def times_zeta(self, x, k):
        """x zeta^k by rotation: numerator i goes to t^((i + k) mod n), read
        off its reduced row; zeta^k is a unit of Z[zeta_n], so the lowest
        terms stay."""
        n, out = self.n, [0] * self.degree
        for i, a in enumerate(x.num):
            if a:
                for j, c in self._sparse[(i + k) % n]:
                    out[j] += a * c
        return CycloElem(self, tuple(out), x.den)

    def of(self, x):
        if isinstance(x, CycloElem):
            if x.field.n != self.n:
                raise ValueError("mixed cyclotomic orders %d and %d" % (self.n, x.field.n))
            return x
        if isinstance(x, (int, Fraction)):
            return CycloElem(self, (x.numerator,) + self._tail, x.denominator)
        if isinstance(x, Poly):
            return self._reduce(x)
        raise TypeError("cannot coerce %r" % (x,))

    def inv(self, x):
        return self.of(x).inverse()

    def to_ints(self, x):
        return x.num, x.den

    from_ints = _lowest     # the element num / den, in lowest terms

    def _reduce(self, p):
        """The element of a rational polynomial, reduced modulo Phi_n."""
        c = (p % self.modulus).c
        # each prime power of the lcm is some coefficient's full
        # denominator, and does not divide its numerator: lowest terms
        den = math.lcm(*[x.denominator for x in c])
        num = [x.numerator * (den // x.denominator) for x in c]
        return CycloElem(self, tuple(num) + (0,) * (self.degree - len(c)), den)

    def _mul(self, a, b):
        """The reduced integer product of two numerator tuples."""
        d = self.degree
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    prod[k] += x * y
        for k, row in self._fold:
            h = prod[k]
            if h:
                for j, c in row:
                    prod[j] += h * c
        return tuple(prod[:d])

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.n == self.n

    def __hash__(self):
        return hash(("cyclo", self.n))

    def __repr__(self):
        return "CyclotomicField(%d)" % self.n
