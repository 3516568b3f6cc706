"""Homogeneous forms in two or three variables.

A :class:`HForm` is a homogeneous polynomial of a declared degree with a
sparse exponent-tuple representation.  The degree is part of the data,
so the zero form of degree d is distinct from the zero form of degree e;
the entries of a bundle pair depend on that distinction.

Binary forms (two variables) are in bijection with univariate
polynomials of bounded degree via x = x0/x1; the converters
``to_univar`` / ``from_univar`` carry the declared degree so nothing is
lost at the boundary.  Exact division, gcd and squarefree testing for
binary forms go through this bijection, and so does the product of two
binary forms: it is the product of their coefficient lists.

The coefficients in ``terms`` are plain values as in :mod:`poly`: ints
reduced mod p over GF(p); over Q ints wherever integral and Fractions
only where a denominator exists, so that a form with integer
coefficients is substituted, multiplied and differentiated on ints.
The constructor accepts field elements, ints and Fractions (a float
raises TypeError); ``coeff`` and evaluation return field elements.
"""

from .poly import plain_poly, trim_c, add_c, scale_c, mul_c, poly_gcd, is_squarefree, NEG_INF


def plain_form(field, nvars, deg, terms):
    """An HForm on a dict of nonzero plain values with valid exponents,
    taken as it is (no copy, no checks)."""
    f = HForm.__new__(HForm)
    f.field = field
    f.nvars = nvars
    f.deg = deg
    f.terms = terms
    return f


def _nonzero(t, p):
    """The dict t of plain sums, reduced mod p (when p > 0), without zeros."""
    if p:
        t = {e: v % p for e, v in t.items()}
    return {e: v for e, v in t.items() if v}


class HForm:
    __slots__ = ("field", "nvars", "deg", "terms")

    def __init__(self, field, nvars, deg, terms):
        if nvars not in (2, 3):
            raise ValueError("only binary and ternary forms are supported")
        self.field = field
        self.nvars = nvars
        self.deg = deg
        clean = {}
        for exp, c in terms.items():
            if len(exp) != nvars or sum(exp) != deg or any(e < 0 for e in exp):
                raise ValueError("exponent %r is not of degree %d in %d vars"
                                 % (exp, deg, nvars))
            c = field.unbox(c)
            if c:
                clean[exp] = c
        self.terms = clean

    @classmethod
    def zero(cls, field, nvars, deg):
        return plain_form(field, nvars, deg, {})

    @classmethod
    def const(cls, field, nvars, a):
        return cls(field, nvars, 0, {(0,) * nvars: a})

    def is_zero(self):
        return not self.terms

    def coeff(self, exp):
        c = self.terms.get(tuple(exp))
        return self.field.zero if c is None else self.field.box(c)

    def _combine(self, other, sign):
        """self + sign * other for sign = 1 or -1."""
        self._check(other)
        p = self.field.characteristic
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t[e] + sign * c if e in t else sign * c
            if p:
                s %= p
            if s:
                t[e] = s
            else:
                del t[e]
        return plain_form(self.field, self.nvars, self.deg, t)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        p = self.field.characteristic
        return plain_form(self.field, self.nvars, self.deg,
                          {e: -c % p if p else -c for e, c in self.terms.items()})

    def __mul__(self, other):
        field = self.field
        p = field.characteristic
        if not isinstance(other, HForm):
            s = field.unbox(other)
            if not s:
                return HForm.zero(field, self.nvars, self.deg)
            return plain_form(field, self.nvars, self.deg,
                              {e: c * s % p if p else c * s for e, c in self.terms.items()})
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        self._same_field(other)
        deg = self.deg + other.deg
        if self.nvars == 2:
            # through the chart x1 = 1: the product of the dense coefficient lists
            c = mul_c(self._chart(), other._chart(), p)
            return plain_form(field, 2, deg, {(i, deg - i): v for i, v in enumerate(c) if v})
        t = {}
        for (a0, a1, a2), c1 in self.terms.items():
            for (b0, b1, b2), c2 in other.terms.items():
                e = (a0 + b0, a1 + b1, a2 + b2)
                t[e] = t.get(e, 0) + c1 * c2
        return plain_form(field, 3, deg, _nonzero(t, p))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative exponent %d" % k)
        r = HForm.const(self.field, self.nvars, self.field.one)
        b = self
        while k:
            if k & 1:
                r = r * b
            k >>= 1
            if k:
                b = b * b
        return r

    def __eq__(self, other):
        if not isinstance(other, HForm):
            return NotImplemented
        return (self.nvars == other.nvars and self.deg == other.deg
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.deg, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def __call__(self, point):
        field = self.field
        p = field.characteristic
        xs = [field.unbox(x) for x in point]
        r = 0
        for e, c in self.terms.items():
            for x, k in zip(xs, e):
                if k:
                    c = c * (pow(x, k, p) if p else x ** k)
            r = r + c
        return field.box(r % p if p else r)

    def _same_field(self, other):
        # the plain values of two fields mix silently, so compare the fields
        if other.field is not self.field and other.field != self.field:
            raise ValueError("mixed fields %r and %r" % (self.field, other.field))

    def _check(self, other):
        self._same_field(other)
        if self.nvars != other.nvars or self.deg != other.deg:
            raise ValueError("form degree/arity mismatch: (%d,%d) vs (%d,%d)"
                             % (self.nvars, self.deg, other.nvars, other.deg))

    def partial(self, i):
        t = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            t[tuple(e2)] = c * e[i]
        return plain_form(self.field, self.nvars, max(self.deg - 1, 0),
                          _nonzero(t, self.field.characteristic))

    def substitute(self, images):
        """Linear change of variables: x_i -> images[i], forms of degree 1
        (or of a common degree), by nested Horner's rule: outermost in the
        last variable, then in x1, with the powers of the x0 image computed
        once.  On coefficient lists: x0^i x1^j of the images is y^i (binary)
        or y^(i (D + 1) + j) (ternary), D = the result's degree, so products
        of degree <= D add exponents without carries."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        field, d, ternary = self.field, self.deg, self.nvars == 3
        p, nv, D = field.characteristic, images[0].nvars, d * images[0].deg
        base = 1 if nv == 2 else D + 1
        lin = []
        for img in images:
            c = [0] * (img.deg * base + 1)
            for e, v in img.terms.items():
                c[e[0] * base + (e[1] if nv == 3 else 0)] = v
            lin.append(trim_c(c))
        pw = [[1]]
        for _ in range(d):
            pw.append(mul_c(pw[-1], lin[0], p))

        def horner(cs, img):
            """sum_j cs[j] img^j"""
            out = []
            for c in reversed(cs):
                out = add_c(mul_c(out, img, p), c, p)
            return out

        # rows[k][j] is the coefficient of x2^k x1^j (binary: one row, of x1^j)
        rows = [[0] * (d + 1 - k) for k in range(d + 1 if ternary else 1)]
        for e, c in self.terms.items():
            rows[e[2] if ternary else 0][e[1]] = c
        # each row, sum_j c_j x0^(k - j) x1^j with k = len(row) - 1, at the images
        out = [horner([scale_c(pw[len(r) - 1 - j], c, p) for j, c in enumerate(r)], lin[1])
               for r in rows]
        out = horner(out, lin[2]) if ternary else out[0]
        if nv == 2:
            return plain_form(field, 2, D, {(i, D - i): v for i, v in enumerate(out) if v})
        return plain_form(field, 3, D, {(i // base, i % base, D - i // base - i % base): v
                                        for i, v in enumerate(out) if v})

    # -- binary form <-> univariate -------------------------------------

    def _chart(self):
        """The plain coefficient list of F(x, 1), for a binary form F."""
        c = [0] * (self.deg + 1)
        for (i, _), a in self.terms.items():
            c[i] = a
        return trim_c(c)

    def to_univar(self):
        """For a binary form F of degree d, return F(x, 1) as a Poly."""
        if self.nvars != 2:
            raise ValueError("to_univar needs a binary form")
        return plain_poly(self.field, self._chart())

    @classmethod
    def from_univar(cls, p, deg):
        """Homogenize a Poly to a binary form of the given degree."""
        if p.degree > deg:
            raise ValueError("degree %s exceeds target %d" % (p.degree, deg))
        return plain_form(p.field, 2, deg, {(i, deg - i): a for i, a in enumerate(p.c) if a})

    def exact_div(self, other):
        """Exact quotient of binary forms; raises if not divisible."""
        if self.nvars != 2 or other.nvars != 2:
            raise ValueError("exact_div is for binary forms")
        if other.is_zero():
            raise ZeroDivisionError("division by the zero form")
        if self.is_zero():
            return HForm.zero(self.field, 2, self.deg - other.deg)
        a, b = self.to_univar(), other.to_univar()
        # strip the x1-power content first: x1^k | F iff deg drops by k
        ka = self.deg - a.degree
        kb = other.deg - b.degree
        if kb > ka:
            raise ValueError("inexact form division (x1 multiplicity)")
        q = a.exact_div(b)
        return HForm.from_univar(q, self.deg - other.deg)

    def x1_multiplicity(self):
        if self.nvars != 2:
            raise ValueError("binary forms only")
        if self.is_zero():
            return NEG_INF
        return min(e[1] for e in self.terms)

    def is_squarefree(self):
        """Squarefree test for a binary form (the zero form is not)."""
        if self.nvars != 2:
            raise ValueError("binary forms only")
        if self.is_zero():
            return False
        return self.x1_multiplicity() < 2 and is_squarefree(self.to_univar())

    # -- ternary form as polynomial in one variable ---------------------

    def coeffs_in(self, var):
        """For a ternary form, the list of binary-form coefficients of
        powers of variable ``var``, low power first.  The two remaining
        variables keep their relative order."""
        if self.nvars != 3:
            raise ValueError("coeffs_in needs a ternary form")
        keep = [i for i in range(3) if i != var]
        out = [dict() for _ in range(self.deg + 1)]
        for e, c in self.terms.items():
            out[e[var]][(e[keep[0]], e[keep[1]])] = c
        return [plain_form(self.field, 2, self.deg - k, t) for k, t in enumerate(out)]

    def __repr__(self):
        # imported here: parsing builds on this module
        from .parsing import format_form
        return format_form(self)


def form_gcd(f, g):
    """Gcd of two binary forms, monic in the univariate chart.  The x1
    content is tracked separately, since x1 = 0 is the root the chart
    x1 = 1 cannot see; a zero form is a neutral argument."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    u = poly_gcd(f.to_univar(), g.to_univar())
    mult = min(f.x1_multiplicity(), g.x1_multiplicity())
    return HForm.from_univar(u, u.degree + mult)
