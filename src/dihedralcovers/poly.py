"""Dense univariate polynomials over an exact field.

A :class:`Poly` stores its coefficient list low degree first with no
trailing zeros.  The zero polynomial has an empty list and its degree is
the explicit sentinel ``NEG_INF``, so degree arithmetic such as
``deg(f*g) == deg f + deg g`` stays valid without special cases.

Division, gcd, extended gcd, resultants and squarefree tests are all
exact; nothing here ever touches a float except the degree sentinel.
"""

NEG_INF = float("-inf")


class Poly:
    __slots__ = ("field", "c")

    def __init__(self, field, coeffs):
        self.field = field
        c = [field.of(x) if isinstance(x, int) else x for x in coeffs]
        while c and not c[-1]:
            c.pop()
        self.c = c

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [field.one])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    @classmethod
    def const(cls, field, a):
        return cls(field, [field.of(a)])

    @property
    def degree(self):
        return len(self.c) - 1 if self.c else NEG_INF

    def is_zero(self):
        return not self.c

    def coeff(self, i):
        return self.c[i] if 0 <= i < len(self.c) else self.field.zero

    def lead(self):
        if not self.c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.c[-1]

    def monic(self):
        if not self.c:
            return self
        inv = self.field.inv(self.c[-1])
        return Poly(self.field, [a * inv for a in self.c])

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.c), len(other.c))
        return Poly(self.field, [self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.c), len(other.c))
        return Poly(self.field, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Poly(self.field, [-a for a in self.c])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            s = self.field.of(other)
            return Poly(self.field, [a * s for a in self.c])
        if not self.c or not other.c:
            return Poly.zero(self.field)
        out = [self.field.zero] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if not a:
                continue
            for j, b in enumerate(other.c):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        r = Poly.one(self.field)
        for _ in range(e):
            r = r * self
        return r

    def __divmod__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [self.field.zero] * max(len(self.c) - len(other.c) + 1, 0)
        r = list(self.c)
        dinv = self.field.inv(other.lead())
        db = len(other.c) - 1
        for i in range(len(r) - 1 - db, -1, -1):
            t = r[i + db] * dinv
            if not t:
                continue
            q[i] = t
            for j, b in enumerate(other.c):
                r[i + j] = r[i + j] - t * b
        return Poly(self.field, q), Poly(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
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
        r = self.field.zero
        for a in reversed(self.c):
            r = r * x + a
        return r

    def shift(self, k):
        """Multiply by x**k."""
        if not self.c:
            return self
        return Poly(self.field, [self.field.zero] * k + self.c)

    def derivative(self):
        return Poly(self.field, [self.field.of(i) * a for i, a in enumerate(self.c)][1:])

    def compose(self, other):
        r = Poly.zero(self.field)
        for a in reversed(self.c):
            r = r * other + Poly.const(self.field, a)
        return r

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        return Poly.const(self.field, other)

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
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def poly_xgcd(a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic."""
    f = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(f), Poly.zero(f)
    t0, t1 = Poly.zero(f), Poly.one(f)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = f.inv(r0.lead())
    return r0 * inv, s0 * inv, t0 * inv


def resultant(a, b):
    """Resultant of a and b via the subresultant-free Euclid recursion."""
    f = a.field
    if a.is_zero() or b.is_zero():
        return f.zero
    res = f.one
    while True:
        da, db = a.degree, b.degree
        if db == 0:
            return res * b.c[0] ** da
        r = a % b
        if r.is_zero():
            return f.zero
        res = res * b.lead() ** (da - r.degree)
        if (da % 2) and (db % 2):
            res = -res
        a, b = b, r


def is_squarefree(a):
    """gcd(a, a') = 1 iff a is squarefree, over any perfect field: when
    a' = 0 (a p-th power in characteristic p) the gcd is a itself."""
    return not a.is_zero() and poly_gcd(a, a.derivative()).degree == 0


def lagrange_interpolate(field, points):
    """The polynomial of degree < len(points) through the given (x, y)
    pairs, in O(len(points)^2) field operations: Newton's divided
    differences, then Horner's rule on the Newton form.  A repeated x
    raises ValueError."""
    xs = [field.of(x) for x, _ in points]
    d = [field.of(y) for _, y in points]
    # d[i] becomes the divided difference y[x_0, ..., x_i]; level k
    # divides by x_i - x_{i-k}, so every pair of nodes is differenced once
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            dx = xs[i] - xs[i - k]
            if not dx:
                raise ValueError("repeated interpolation node %s" % (xs[i],))
            d[i] = (d[i] - d[i - 1]) / dx
    c = []
    for xk, dk in zip(reversed(xs), reversed(d)):
        # c <- c * (x - x_k) + d_k
        c = [hi - xk * lo for hi, lo in zip([dk] + c, c + [field.zero])]
    return Poly(field, c)
