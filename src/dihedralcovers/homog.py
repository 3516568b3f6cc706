"""Homogeneous forms in two or three variables.

A :class:`HForm` is a homogeneous polynomial of a declared degree with a
sparse exponent-tuple representation.  The degree is part of the data,
so the zero form of degree d is distinct from the zero form of degree e;
graded matrix bookkeeping depends on that distinction.

Binary forms (two variables) are in bijection with univariate
polynomials of bounded degree via x = x0/x1; the converters
``to_univar`` / ``from_univar`` carry the declared degree so nothing is
lost at the boundary.  Exact division, gcd and squarefree testing for
binary forms go through this bijection.
"""

from .poly import Poly, poly_gcd, is_squarefree, NEG_INF


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
            c = field.of(c) if isinstance(c, int) else c
            if c:
                clean[exp] = c
        self.terms = clean

    @classmethod
    def zero(cls, field, nvars, deg):
        return cls(field, nvars, deg, {})

    @classmethod
    def const(cls, field, nvars, a):
        return cls(field, nvars, 0, {(0,) * nvars: a})

    @classmethod
    def monomial(cls, field, exp, a=1):
        return cls(field, len(exp), sum(exp), {tuple(exp): a})

    def is_zero(self):
        return not self.terms

    def coeff(self, exp):
        return self.terms.get(tuple(exp), self.field.zero)

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, self.field.zero) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        return HForm(self.field, self.nvars, self.deg, t)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return HForm(self.field, self.nvars, self.deg,
                     {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, HForm):
            s = self.field.of(other)
            return HForm(self.field, self.nvars, self.deg,
                         {e: c * s for e, c in self.terms.items()})
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = t.get(e, self.field.zero) + c1 * c2
                if s:
                    t[e] = s
                else:
                    t.pop(e, None)
        return HForm(self.field, self.nvars, self.deg + other.deg, t)

    __rmul__ = __mul__

    def __pow__(self, k):
        r = HForm.const(self.field, self.nvars, self.field.one)
        for _ in range(k):
            r = r * self
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
        r = self.field.zero
        for e, c in self.terms.items():
            t = c
            for x, k in zip(point, e):
                for _ in range(k):
                    t = t * x
            r = r + t
        return r

    def _check(self, other):
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
            t[tuple(e2)] = c * self.field.of(e[i])
        return HForm(self.field, self.nvars, max(self.deg - 1, 0), t)

    def substitute(self, images):
        """Linear change of variables: x_i -> images[i], a list of
        degree-1 forms (or forms of a common degree)."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        nv = images[0].nvars
        d = images[0].deg
        out = HForm.zero(self.field, nv, self.deg * d)
        for e, c in self.terms.items():
            term = HForm.const(self.field, nv, c)
            for img, k in zip(images, e):
                term = term * img ** k
            out = out + term
        return out

    # -- binary form <-> univariate -------------------------------------

    def to_univar(self):
        """For a binary form F of degree d, return F(x, 1) as a Poly."""
        if self.nvars != 2:
            raise ValueError("to_univar needs a binary form")
        c = [self.field.zero] * (self.deg + 1)
        for (i, _), a in self.terms.items():
            c[i] = a
        return Poly(self.field, c)

    @classmethod
    def from_univar(cls, p, deg):
        """Homogenize a Poly to a binary form of the given degree."""
        if p.degree > deg:
            raise ValueError("degree %s exceeds target %d" % (p.degree, deg))
        t = {}
        for i, a in enumerate(p.c):
            if a:
                t[(i, deg - i)] = a
        return cls(p.field, 2, deg, t)

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
        return [HForm(self.field, 2, self.deg - k, t) for k, t in enumerate(out)]

    def __repr__(self):
        if not self.terms:
            return "0[deg %d]" % self.deg
        names = ["x0", "x1"] if self.nvars == 2 else ["x0", "x1", "x2"]
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join("%s^%d" % (n, k) if k > 1 else n
                            for n, k in zip(names, e) if k)
            if mono:
                parts.append("%s*%s" % (c, mono) if c != 1 else mono)
            else:
                parts.append("%s" % (c,))
        return " + ".join(parts)


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
