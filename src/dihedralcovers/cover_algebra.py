"""The coordinate algebra of a simple dihedral cover, with formal
branch data.

The cover of degree 2n is cut out by u v = F and u^n + v^n = 2a; its
pushed-forward coordinate algebra has the 2n-dimensional basis

    1,  s = u^n - v^n,  u^1 .. u^(n-1),  v^1 .. v^(n-1)

over the base, with a and F treated as formal symbols (they are the
branch data: a section and the double-cover branch equation).  All the
relations close on this basis; for instance

    u^i u^j = u^(i+j)                 (i + j < n)
    u^n     = a + s/2
    u^(n+k) = 2a u^k - F^k v^(n-k)
    u^i v^j = F^min(i,j) u^(i-j) or v^(j-i)
    s^2     = 4 a^2 - 4 F^n.

Coefficients are polynomials in a and F over an exact field of
characteristic zero or p > 2 (halves are required).  The dihedral
action is sigma(u^i) = zeta^i u^i (needing a cyclotomic coefficient
field) and tau swapping u with v, hence negating s.

Products run on the structure constants, a table built from these
relations on an algebra's first product, and on packed integers: each
coefficient of an operand is one int (Kronecker substitution of its
numerators over the operand's common denominator), a pair of terms
costs one int product added into one int per output, and each output
is reduced modulo Phi_n(2^W) and unpacked once (``mul`` says why that
is exact).  ``AFPoly`` coerces its coefficients through ``K.of``, so a
coefficient from another field raises ``ValueError``.

On top of the algebra:

* ``m_plus`` / ``m_minus`` are the symmetrized and antisymmetrized
  pairings x, y -> (x tau(y) +- tau(x) y)/2;
* ``phi_tensor`` evaluates the degree-n form
  (w_1, .., w_n) -> tau(w_1 .. w_(n-1)) wedge w_n on the rank-two
  eigenspace spanned by u and v^(n-1), whose total symmetry is the
  algebraic heart of the triple-cover comparison;
* ``d3_resolvent`` checks w^3 = 2a + 3F w for w = u + v when n = 3 and
  returns the discriminant 108(F^3 - a^2) of the resolvent cubic;
* ``field_polynomial`` is X^(2n) - 2a X^n + F^n, and
  ``verify_field_polynomial`` multiplies out
  prod_i (X - zeta^i u)(X - zeta^i v) over Q(zeta_n) to confirm it.
"""

import math
from fractions import Fraction

from .fields import QQ
from .cyclotomic import CyclotomicField


def _afpoly(K, terms):
    """An AFPoly on a dict of nonzero field elements, taken as it is."""
    p = AFPoly.__new__(AFPoly)
    p.K = K
    p.terms = terms
    return p


def _kron(num, W):
    """An integer vector's value at t = 2^W, by Horner's rule."""
    v = 0
    for a in reversed(num):
        v = (v << W) + a
    return v


def _packed(rows, D, W):
    """The rows of ``_numerators`` over D, each vector as its ``_kron``."""
    return [(key, {e: _kron(num, W) * (D // den) for e, num, den in row})
            for key, row in rows]


def _times(t1, t2):
    """The product of two term dicts; a cancelled term stays as a zero."""
    out = {}
    for (i1, j1), c1 in t1.items():
        for (i2, j2), c2 in t2.items():
            e = (i1 + i2, j1 + j2)
            c = c1 * c2
            w = out.get(e)
            out[e] = c if w is None else w + c
    return out


class AFPoly:
    """A polynomial in the two formal symbols a and F over a field."""

    __slots__ = ("K", "terms")

    def __init__(self, K, terms=None):
        self.K = K
        t = {}
        for e, c in (terms or {}).items():
            c = K.of(c)
            if c:
                t[e] = c
        self.terms = t

    @classmethod
    def const(cls, K, c):
        return cls(K, {(0, 0): c})

    @classmethod
    def a(cls, K, i=1):
        return cls(K, {(i, 0): K.one})

    @classmethod
    def F(cls, K, j=1):
        return cls(K, {(0, j): K.one})

    def __add__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, self.K.zero) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        return _afpoly(self.K, t)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _afpoly(self.K, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, AFPoly):
            s = self.K.of(other)
            return _afpoly(self.K, {e: c * s for e, c in self.terms.items()} if s else {})
        return _afpoly(self.K, {e: c for e, c in _times(self.terms, other.terms).items() if c})

    __rmul__ = __mul__

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, AFPoly):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, reverse=True):
            c = self.terms[(i, j)]
            mono = "*".join(filter(None, ["a^%d" % i if i > 1 else "a" * min(i, 1),
                                          "F^%d" % j if j > 1 else "F" * min(j, 1)]))
            parts.append("%s%s" % (c, "*" + mono if mono else ""))
        return " + ".join(parts)


class SimpleCoverAlgebra:
    """The basis-indexed algebra of a simple degree-2n dihedral cover."""

    def __init__(self, n, K=QQ):
        if n < 2:
            raise ValueError("need n >= 2")
        if K.characteristic == 2:
            raise ValueError("the algebra needs 1/2 in the coefficients")
        self.n = n
        self.K = K
        self.half = AFPoly.const(K, K.inv(K.of(2)))
        self._table = None

    # -- element constructors -------------------------------------------

    def zero(self):
        return {}

    def one(self):
        return {"1": AFPoly.const(self.K, self.K.one)}

    def s(self):
        return {"s": AFPoly.const(self.K, self.K.one)}

    def u(self, i=1):
        self._check_index(i)
        return {("u", i): AFPoly.const(self.K, self.K.one)}

    def v(self, i=1):
        self._check_index(i)
        return {("v", i): AFPoly.const(self.K, self.K.one)}

    def basis(self):
        out = [self.one(), self.s()]
        out += [self.u(i) for i in range(1, self.n)]
        out += [self.v(i) for i in range(1, self.n)]
        return out

    def _check_index(self, i):
        if not 1 <= i <= self.n - 1:
            raise ValueError("monomial exponent must be in 1..n-1")

    # -- linear structure ------------------------------------------------

    def add(self, x, y):
        out = dict(x)
        for k, c in y.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return out

    def scale(self, c, x):
        if not isinstance(c, AFPoly):
            c = AFPoly.const(self.K, self.K.of(c))
        out = {}
        for k, w in x.items():
            p = c * w
            if not p.is_zero():
                out[k] = p
        return out

    def neg(self, x):
        return {k: -c for k, c in x.items()}

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def equal(self, x, y):
        return self.sub(x, y) == {}

    # -- multiplication --------------------------------------------------

    def mul(self, x, y):
        """The product x y on packed ints (Kronecker 1882; Harvey, J.
        Symb. Comput. 44, 2009).  Each operand's coefficients, the
        ``K.to_ints`` vectors over one denominator, are packed as their
        values at t = 2^W; a pair of terms costs one int product, added s
        times (s a table scalar over T) into one int per (basis key,
        a^i F^j); and each nonzero output is reduced once: its symmetric
        residue modulo Phi_n(2^W) is unpacked into signed W-bit slots,
        halved while its denominator and every slot are even, and built
        by ``K.from_ints``.  A field of degree 1 (QQ, GF(p)) has one slot,
        a constant, and reduces modulo t instead, which changes nothing.

        Soundness: the output numerators, folded, have |c_k| <= smax
        phi(n) Mx My nx ny (1 + (phi(n) - 1) h) (smax the largest |s|,
        Mx, My the largest |numerator|, nx, ny the term counts, h the
        largest entry of the fold rows t^k mod Phi_n), and W has three
        bits more, so |c_k| < 2^(W-3).  Phi_n is monic, so the
        accumulated P(2^W) = c(2^W) modulo Phi_n(2^W); Phi_n's
        coefficients are at most h < 2^(W-2), so Phi_n(2^W) >
        2^(W phi(n) - 1) > 2 |c(2^W)|, and the symmetric residue is c(2^W).
        """
        table = self._table or self._build_table()
        K, d = self.K, self._degree
        (px, Dx, Mx, nx), (py, Dy, My, ny) = self._numerators(x), self._numerators(y)
        W = (self._smax * d * Mx * My * nx * ny
             * (1 + (d - 1) * self._height)).bit_length() + 3
        acc, py = {}, _packed(py, Dy, W)
        for k1, t1 in _packed(px, Dx, W):
            row = table[k1]
            for k2, t2 in py:
                c = _times(t1, t2)
                for key, s, (da, dF) in row[k2]:
                    t = acc.setdefault(key, {})
                    for (i, j), w in c.items():
                        e = (i + da, j + dF)
                        t[e] = t.get(e, 0) + s * w
        # (w + half) % M - half is the symmetric residue of w, and adding
        # ``lift`` makes each of its signed slots nonnegative
        D, M, p = Dx * Dy * self._denominator, _kron(self._modulus, W), K.characteristic
        top, mask, half = 1 << (W - 1), (1 << W) - 1, M >> 1
        shifts, low_bits = range(0, d * W, W), _kron((1,) * d, W)
        lift = top * low_bits
        out = {}
        for key, t in acc.items():
            terms = {}
            for e, w in t.items():
                w = (w + half) % M + (lift - half)
                if w != lift:
                    den = D
                    while not den & 1 and not w & low_bits:
                        w, den = (w + lift) >> 1, den >> 1
                    w = K.from_ints(tuple([(w >> k & mask) - top for k in shifts]), den)
                    if not p or w:
                        terms[e] = w
            if terms:
                out[key] = _afpoly(K, terms)
        return out

    def _numerators(self, x):
        """x's terms as (key, [((i, j), integer vector, denominator)]), with
        their common denominator, largest |numerator| over it and count."""
        K = self.K
        rows = []
        for key, c in x.items():
            if c.K is not K and c.K != K:
                raise ValueError("coefficient over %r in an algebra over %r" % (c.K, K))
            rows.append((key, [(e,) + K.to_ints(w) for e, w in c.terms.items()]))
        terms = [t for _, row in rows for t in row]
        D = math.lcm(*[den for _, _, den in terms])
        big = max([max(map(abs, num)) * (D // den) for _, num, den in terms], default=0)
        return rows, D, big, len(terms)

    def _build_table(self):
        """The structure constants: for each pair of basis keys, the list
        of (key, s, (da, dF)) with x_k1 x_k2 = sum (s/T) a^da F^dF x_key,
        s an int over T, the denominator of 1/2 (the scalars are halves).
        Also the degree, Phi_n and the largest fold-row entry for ``mul``."""
        K = self.K
        keys = [k for b in self.basis() for k in b]
        self._denominator = T = K.to_ints(self.half.terms[(0, 0)])[1]
        rows = {(k1, k2): self._mul_basis(k1, k2) for k1 in keys for k2 in keys}
        ints = {q: K.to_ints(K.of(q * T))[0][0]
                for q in {q for row in rows.values() for _, _, q in row}}
        self._table = {k1: {} for k1 in keys}
        for (k1, k2), row in rows.items():
            self._table[k1][k2] = [(key, ints[q], e) for key, e, q in row]
        self._smax = max(abs(s) for s in ints.values())
        self._degree = d = len(K.to_ints(K.one)[0])
        # a degree-1 field's values are constants: reducing modulo t is exact
        self._modulus, self._height = [0, 1], 0
        if d > 1:       # the fold rows t^k, d <= k <= 2d - 2, are zeta^k
            self._modulus = [int(c) for c in K.modulus.c]
            self._height = max(abs(c) for k in range(d, 2 * d - 1)
                               for c in K.to_ints(K.zeta(k))[0])
        return self._table

    def _mul_basis(self, k1, k2):
        """x_k1 x_k2 from the relations, as a list of (key, (da, dF), q)
        with q a rational: x_k1 x_k2 = sum q a^da F^dF x_key."""
        n = self.n
        if k1 == "1":
            return [(k2, (0, 0), 1)]
        if k2 == "1":
            return [(k1, (0, 0), 1)]
        if k1 == "s" and k2 == "s":
            return [("1", (2, 0), 4), ("1", (0, n), -4)]
        if k1 == "s" or k2 == "s":
            letter, i = k2 if k1 == "s" else k1
            if letter == "u":
                return [(("u", i), (1, 0), 2), (("v", n - i), (0, i), -2)]
            return [(("u", n - i), (0, i), 2), (("v", i), (1, 0), -2)]
        l1, i = k1
        l2, j = k2
        if l1 == l2:
            t = i + j
            if t < n:
                return [((l1, t), (0, 0), 1)]
            if t == n:
                return [("1", (1, 0), 1), ("s", (0, 0), Fraction(1 if l1 == "u" else -1, 2))]
            k = t - n
            other = "v" if l1 == "u" else "u"
            return [((l1, k), (1, 0), 2), ((other, n - k), (0, k), -1)]
        # mixed u^i v^j
        if l1 == "v":
            l1, i, l2, j = l2, j, l1, i
        if i > j:
            return [(("u", i - j), (0, j), 1)]
        if i == j:
            return [("1", (0, i), 1)]
        return [(("v", j - i), (0, i), 1)]

    # -- dihedral action -------------------------------------------------

    def tau(self, x):
        out = {}
        for k, c in x.items():
            if k == "1":
                out[k] = c
            elif k == "s":
                out[k] = -c
            else:
                out[("v" if k[0] == "u" else "u", k[1])] = c
        return {k: c for k, c in out.items() if not c.is_zero()}

    def sigma(self, x):
        K = self.K
        if not isinstance(K, CyclotomicField) or K.n % self.n:
            raise ValueError("sigma needs a coefficient field containing zeta_%d" % self.n)
        step = K.n // self.n
        out = {}
        for k, c in x.items():
            if k in ("1", "s"):
                out[k] = c
            else:
                letter, i = k
                e = step * (i if letter == "u" else -i)
                out[k] = _afpoly(K, {m: K.times_zeta(w, e) for m, w in c.terms.items()})
        return {k: c for k, c in out.items() if not c.is_zero()}

    # -- symmetrized pairings -------------------------------------------

    def m_plus(self, x, y):
        return self.scale(self.half,
                          self.add(self.mul(x, self.tau(y)), self.mul(self.tau(x), y)))

    def m_minus(self, x, y):
        return self.scale(self.half,
                          self.sub(self.mul(x, self.tau(y)), self.mul(self.tau(x), y)))


def phi_tensor(n, K=QQ):
    """The values of the degree-n form on tuples from the eigenspace
    basis (u, v^(n-1)).

    Returns a dict mapping each tuple of 0/1 choices (0 = u,
    1 = v^(n-1)) to the AFPoly coefficient of u wedge v^(n-1).
    """
    if n < 3:
        raise ValueError("the tensor form needs n >= 3")
    A = SimpleCoverAlgebra(n, K)
    gens = [A.u(1), A.v(n - 1)]
    import itertools
    out = {}
    for choice in itertools.product((0, 1), repeat=n):
        prod = A.one()
        for c in choice[:-1]:
            prod = A.mul(prod, gens[c])
        w = A.tau(prod)
        # w lies in the eigenspace spanned by u and v^(n-1)
        alpha = w.get(("u", 1), AFPoly(A.K))
        beta = w.get(("v", n - 1), AFPoly(A.K))
        rest = {k: c for k, c in w.items() if k not in (("u", 1), ("v", n - 1))}
        if rest:
            raise AssertionError("product left the expected eigenspace: %r" % rest)
        if choice[-1] == 0:       # wedge with u
            val = -beta
        else:                     # wedge with v^(n-1)
            val = alpha
        out[choice] = val
    return out


def phi_is_symmetric(table):
    """True when the tensor form values depend only on the multiset of
    arguments."""
    by_count = {}
    for choice, val in table.items():
        c = sum(choice)
        if c in by_count:
            if by_count[c] != val:
                return False
        else:
            by_count[c] = val
    return True


def d3_resolvent(K=QQ):
    """Check the resolvent cubic w^3 = 2a + 3F w for w = u + v at n = 3
    and return the discriminant 108(F^3 - a^2)."""
    A = SimpleCoverAlgebra(3, K)
    w = A.add(A.u(1), A.v(1))
    w3 = A.mul(A.mul(w, w), w)
    rhs = A.add(A.scale(AFPoly.a(K) * 2, A.one()),
                A.scale(AFPoly.F(K) * 3, w))
    if not A.equal(w3, rhs):
        raise AssertionError("resolvent identity w^3 = 2a + 3Fw failed")
    return (AFPoly.F(K, 3) - AFPoly.a(K, 2)) * 108


def field_polynomial(n, K=QQ):
    """Coefficients {degree: AFPoly} of X^(2n) - 2a X^n + F^n."""
    return {2 * n: AFPoly.const(K, K.one),
            n: AFPoly.a(K) * (-2),
            0: AFPoly.F(K, n)}


def verify_field_polynomial(n):
    """Multiply out prod_i (X - zeta^i u)(X - zeta^i v) over Q(zeta_n)
    inside the algebra and compare with ``field_polynomial``."""
    K = CyclotomicField(n)
    A = SimpleCoverAlgebra(n, K)
    # polynomial in X with algebra coefficients, low degree first
    poly = [A.one()]
    for i in range(n):
        for gen in (A.u(1), A.v(1)):
            root = A.scale(AFPoly.const(K, K.zeta(i)), gen)
            new = [A.zero() for _ in range(len(poly) + 1)]
            for d, coef in enumerate(poly):
                new[d + 1] = A.add(new[d + 1], coef)
                new[d] = A.sub(new[d], A.mul(root, coef))
            poly = new
    want = field_polynomial(n, K)
    for d, coef in enumerate(poly):
        target = want.get(d)
        if target is None:
            if coef:
                return False
        else:
            if not A.equal(coef, A.scale(target, A.one())):
                return False
    return True


def eigensheaf_decomposition(n, m):
    """Line bundle degrees of the isotypic pieces of the pushforward of
    the structure sheaf of a simple cover with branch data of degree m.

    The monomial u^i (and v^i) has degree -i*m; the odd part s has
    degree -n*m.  Returns a list of (character label, sorted degrees).
    """
    from .dihedral import irreducible_labels
    out = []
    for lab in irreducible_labels(n):
        if lab == "chi1":
            out.append((lab, [0]))
        elif lab == "chi2":
            out.append((lab, [-n * m]))
        elif lab in ("chi3", "chi4"):
            out.append((lab, [-(n // 2) * m]))
        else:
            l = int(lab[3:])
            degs = sorted([-l * m, -(n - l) * m] * 2, reverse=True)
            out.append((lab, degs))
    return out
