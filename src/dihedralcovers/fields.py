"""Exact coefficient fields: the rationals and prime fields of odd order.

Every algorithm in this package runs over one of two kinds of field,
chosen at construction time and threaded through all polynomial and
matrix arithmetic:

* ``QQ`` wraps :class:`fractions.Fraction` so rational computations are
  exact with unbounded numerators.
* ``GF(p)`` is the field with p elements, p an odd prime.  Elements are
  immutable wrappers around a reduced int.

Fields are lightweight descriptor objects exposing ``zero``, ``one``,
``of(n)`` for embedding integers, ``inv``, and ``characteristic``;
``to_ints`` gives an element as (integer vector, positive denominator)
and ``from_ints`` builds it back.
Field *elements* support the usual operator protocol, for the public
edge: the accessors of ``Poly`` and ``HForm`` and a user's own
arithmetic.

Inside the package only plain values cross a module boundary: the
residue int in range(p) over GF(p); over Q an int wherever the value
is integral and a Fraction only where a denominator exists
(``2 == Fraction(2)`` and the two hash alike, so the mix never shows).
Code on plain values takes the field's characteristic p (0 for Q) to
know how to reduce them.  ``unbox`` turns an element (or an int or
Fraction) into that value and ``box`` turns it back into an element;
an ``FpElem`` equals an int only when the int is its residue, and
hashes as it.
"""

import functools
from fractions import Fraction


class FpElem:
    """An element of GF(p), stored reduced mod p."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        o = self._val(other)
        return o if o is NotImplemented else FpElem(self.v + o, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._val(other)
        return o if o is NotImplemented else FpElem(self.v - o, self.p)

    def __rsub__(self, other):
        o = self._val(other)
        return o if o is NotImplemented else FpElem(o - self.v, self.p)

    def __mul__(self, other):
        o = self._val(other)
        return o if o is NotImplemented else FpElem(self.v * o, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._val(other)
        return o if o is NotImplemented else self * FpElem(o, self.p).inverse()

    def __rtruediv__(self, other):
        o = self._val(other)
        return o if o is NotImplemented else FpElem(o, self.p) / self

    def __neg__(self):
        return FpElem(-self.v, self.p)

    def __pow__(self, e):
        if e < 0 and not self.v:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return FpElem(pow(self.v, e, self.p), self.p)

    def inverse(self):
        if self.v == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return FpElem(pow(self.v, -1, self.p), self.p)

    def _val(self, other):
        """other's residue, or NotImplemented for a foreign type so that
        Python tries other's reflected operator."""
        if isinstance(other, FpElem):
            if other.p != self.p:
                raise ValueError("mixed characteristics %d and %d" % (self.p, other.p))
            return other.v
        if isinstance(other, int):
            return other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, FpElem):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "%d" % self.v


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# _MR_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


@functools.lru_cache(maxsize=64)
def _is_prime(n):
    """Deterministic Miller-Rabin for 1 < n < _MR_BOUND.  Cached, since
    the command line builds the field of every job afresh, and a batch
    names the same few primes again and again."""
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod(a, p):
    """A square root in range(p) of the residue a modulo the odd prime p,
    or None if a is a non-residue: Tonelli-Shanks, with the p % 4 == 3
    shortcut that covers most test fields."""
    if not a:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        r, t = r * b % p, t * c % p
    return r


class GF:
    """The prime field GF(p) for an odd prime p below 3.3 * 10^24."""

    def __init__(self, p):
        if p >= _MR_BOUND:
            raise ValueError("cannot certify that %r is prime: GF order must be "
                             "below %d" % (p, _MR_BOUND))
        if p < 3 or not _is_prime(p):
            raise ValueError("GF order must be an odd prime, got %r" % (p,))
        self.p = p
        self.zero = FpElem(0, p)
        self.one = FpElem(1, p)
        self.characteristic = p

    def of(self, n):
        """Embed an int, a Fraction or an element of GF(p) into GF(p)."""
        return FpElem(self.unbox(n), self.p)

    def inv(self, a):
        return self.of(a).inverse()

    def box(self, v):
        """The element of the residue v, an int already reduced mod p."""
        return FpElem(v, self.p)

    def to_ints(self, x):
        return (x.v,), 1

    def from_ints(self, num, den):
        return FpElem(num[0] * pow(den, -1, self.p), self.p)

    def unbox(self, x):
        """The residue in range(p) of an element, int or Fraction."""
        if type(x) is int:
            return x % self.p
        if type(x) is FpElem:
            if x.p != self.p:
                raise ValueError("mixed characteristics %d and %d" % (self.p, x.p))
            return x.v
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        if isinstance(x, int):
            return x % self.p
        raise TypeError("cannot embed %r in GF(%d)" % (x, self.p))

    def random(self, rng):
        return FpElem(rng.randrange(self.p), self.p)

    def random_nonzero(self, rng):
        return FpElem(rng.randrange(1, self.p), self.p)

    def sqrt(self, a):
        """A square root of a in GF(p), or None if a is a non-residue."""
        r = sqrt_mod(self.unbox(a), self.p)
        return None if r is None else FpElem(r, self.p)

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


class _QQ:
    """The rational field.  Its elements are Fractions; its plain values
    are ints where integral and Fractions only where a denominator
    exists.  A float is refused: it is not an exact rational."""

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)
        self.characteristic = 0

    def of(self, n):
        return Fraction(self.unbox(n))

    def inv(self, a):
        return 1 / self.of(a)

    def box(self, v):
        return v if type(v) is Fraction else Fraction(v)

    def to_ints(self, x):
        return (x.numerator,), x.denominator

    def from_ints(self, num, den):
        return Fraction(num[0], den)

    def unbox(self, x):
        """The plain value of an int, a Fraction or another exact rational."""
        if type(x) is int:
            return x
        if type(x) is not Fraction:
            if isinstance(x, float):
                raise TypeError("cannot embed the float %r in QQ" % (x,))
            x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    def random(self, rng):
        return Fraction(rng.randrange(-20, 21))

    def random_nonzero(self, rng):
        v = rng.randrange(-20, 20)
        return Fraction(v if v < 0 else v + 1)

    def __eq__(self, other):
        return isinstance(other, _QQ)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = _QQ()


def field_from_name(name):
    """Parse a field tag: "Q" for the rationals, "Fp:101" for GF(101)."""
    if name in ("Q", "QQ"):
        return QQ
    if name.startswith("Fp:"):
        return GF(int(name[3:]))
    raise ValueError("unknown field %r (expected Q or Fp:<prime>)" % name)
