"""The cyclotomic field Q(zeta_n) as Q[t] modulo the n-th cyclotomic
polynomial.

An element is the tuple of its phi(n) rational coefficients on the
basis 1, t, ..., t^(phi(n)-1), always reduced.  A coefficient is a
plain ``int`` whenever it is integral, and a ``Fraction`` only where a
real denominator exists; since ``2 == Fraction(2)`` and the two hash
alike, equality, hashing and the printed form do not depend on which
of the two a value happens to be.  Each field precomputes two tables:
the reduced rows of t^k for phi(n) <= k <= 2 phi(n) - 2, and the n
powers of zeta.  Phi_n is monic with integer coefficients, so both
tables hold ints, and arithmetic on integral elements never leaves the
ints.  Addition and subtraction work coefficient by coefficient with no
reduction; a product is the schoolbook product of the coefficients
with its high part folded back through the t^k rows; complex
conjugation sends t^k to zeta^(-k) from the power table.
Inversion goes through the extended Euclidean algorithm against the
modulus.  The class satisfies the same descriptor protocol as the
fields in :mod:`dihedralcovers.fields` (zero, one, of, inv), so generic
linear algebra runs over it unchanged.
"""

from fractions import Fraction

from .fields import QQ
from .poly import Poly, poly_xgcd

_cyclo_cache = {}


def _plain(xs):
    """The tuple of the rationals xs, each integral one as an int."""
    return tuple([x if type(x) is int or x.denominator != 1 else x.numerator
                  for x in xs])


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


class CycloElem:
    """An element of Q(zeta_n): ``rep`` is its reduced coefficient tuple,
    of length phi(n), low degree first, with ints for integral entries."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def __add__(self, other):
        o = self.field._rep(other)
        return CycloElem(self.field, _plain([a + b if a and b else a or b
                                             for a, b in zip(self.rep, o)]))

    __radd__ = __add__

    def __sub__(self, other):
        o = self.field._rep(other)
        return CycloElem(self.field, _plain([a - b if b else a for a, b in zip(self.rep, o)]))

    def __rsub__(self, other):
        return CycloElem(self.field, self.field._rep(other)) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElem(self.field, _plain([a * other if a else a for a in self.rep]))
        return CycloElem(self.field, self.field._mul(self.rep, self.field._rep(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * self.field.of(other).inverse()

    def __rtruediv__(self, other):
        return self.field.of(other) / self

    def __neg__(self):
        return CycloElem(self.field, tuple([-a for a in self.rep]))

    def __pow__(self, e):
        r = self.field.one
        b = self
        if e < 0:
            b = b.inverse()
            e = -e
        for _ in range(e):
            r = r * b
        return r

    def inverse(self):
        K = self.field
        g, s, _ = poly_xgcd(Poly(QQ, list(self.rep)), K.modulus)
        if g.degree != 0:
            raise ZeroDivisionError("non-invertible cyclotomic element")
        return CycloElem(K, K._reduce(s * QQ.inv(g.c[0])))

    def conjugate(self):
        """Complex conjugation zeta -> zeta^(-1), so t^k -> zeta^(-k)."""
        K = self.field
        out = [self.rep[0]] + [0] * (K.degree - 1)
        for k in range(1, K.degree):
            a = self.rep[k]
            if a:
                for j, c in enumerate(K._zetas[-k % K.n].rep):
                    if c:
                        out[j] = out[j] + a * c
        return CycloElem(K, _plain(out))

    def is_rational(self):
        return not any(self.rep[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.rep[0]

    def __eq__(self, other):
        if isinstance(other, CycloElem):
            return self.field.n == other.field.n and self.rep == other.rep
        if isinstance(other, (int, Fraction)):
            return self.rep[0] == other and self.is_rational()
        return NotImplemented

    def __hash__(self):
        return hash((self.field.n, self.rep))

    def __bool__(self):
        # a fast path for the shared zero, which fills most projector cells
        return self.rep is not self.field.zero.rep and any(self.rep)

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
        self._fold = rows[d:2 * d - 1]
        self._zetas = [CycloElem(self, row) for row in rows[:n]]
        self._tail = (0,) * (d - 1)
        self.zero = CycloElem(self, (0,) + self._tail)
        self.one = self._zetas[0]

    def zeta(self, k=1):
        """zeta_n^k."""
        return self._zetas[k % self.n]

    def of(self, x):
        rep = self._rep(x)
        return x if isinstance(x, CycloElem) else CycloElem(self, rep)

    def inv(self, x):
        return self.of(x).inverse()

    def _rep(self, x):
        if isinstance(x, CycloElem):
            if x.field.n != self.n:
                raise ValueError("mixed cyclotomic orders %d and %d" % (self.n, x.field.n))
            return x.rep
        if isinstance(x, (int, Fraction)):
            return _plain((x,)) + self._tail
        if isinstance(x, Poly):
            return self._reduce(x)
        raise TypeError("cannot coerce %r" % (x,))

    def _reduce(self, p):
        """The coefficient tuple of a rational polynomial modulo Phi_n."""
        c = (p % self.modulus).c
        return _plain(c) + (0,) * (self.degree - len(c))

    def _mul(self, a, b):
        """The reduced product of two coefficient tuples."""
        d = self.degree
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] = prod[i + j] + x * y
        for k, row in enumerate(self._fold, d):
            h = prod[k]
            if h:
                for j, c in enumerate(row):
                    if c:
                        prod[j] = prod[j] + h * c
        return _plain(prod[:d])

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.n == self.n

    def __hash__(self):
        return hash(("cyclo", self.n))

    def __repr__(self):
        return "CyclotomicField(%d)" % self.n
