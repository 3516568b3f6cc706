"""Rank-one modules on a double cover of the line, as trace-free matrices.

The cover is Spec of R = O + z O(-l) with z^2 = F for a binary form F
of degree 2l.  A line bundle on the cover pushes down to a rank-two
bundle E = O(-a) + O(-b) on the line, and the action of z is a
trace-free graded matrix

    N = [[P, f], [q, -P]],   N^2 = F * Id,

so P^2 + q f = F with deg P = l, deg f = l - a + b, deg q = l + a - b.
A :class:`BundlePair` over a :class:`DoubleCoverRing` holds (a, b) and
the charts F(x, 1) of (P, f, q) as plain coefficient lists: the twists
fix every degree, so the charts are the whole pair, and the forms P, f
and q are built only when read (for JSON, ``repr`` and
``divisor_of_section``).  The constructor takes each entry as a form or
as a chart and refuses one above its forced degree; ``validate`` checks
P^2 + q f = F on the charts against the ring's chart of F, kept as
``DoubleCoverRing.chart``.  q never vanishes, since P^2 = F would make
the squarefree F a square, so q is normalized to be monic, which is the
scaling freedom of the choice of basis.

A ring exists only for a squarefree F, that is for a normal cover; any
other F raises :class:`NonNormalRingError`, a ``ValueError``.  The
normal cover is the hyperelliptic curve of genus g = l - 1, and the ring
is that curve: ``hyperelliptic.HECurve`` is its (field, g, F)
constructor, and ``odd_model`` builds the curve's odd model on the first
call and keeps it.

Operations:

* ``tensor`` multiplies two modules: it is the group law of line
  bundles, one Cantor addition in ``hyperelliptic``'s dictionary, where
  a pair is the bundle c + e * inf on the ring's odd model (c its class
  and e = l - a - b its degree), so it needs a rational branch point;
* ``inverse`` flips the sign of P, which realizes the dual module up to
  the standard twist;
* ``is_isomorphic`` compares the twists and the normal forms
  (``BundlePair.normal_form``), which for a = b with F(1, 0) not a
  square in k are taken over k(sqrt(F(1, 0)));
* ``divisor_of_section`` returns the vanishing divisor of a global
  section in (u, v) coordinates.

``inverse``, ``is_isomorphic`` and the checks of a pair work on the
charts of N's entries and build no form.
"""

import math
from fractions import Fraction

from .fields import sqrt_mod
from .homog import HForm, plain_form
from .poly import (Poly, plain_poly, base_field_roots, trim_c, inv_c, reduce_c, neg_c, sub_c,
                   add_c, scale_c, addmul_c, mul_c, divmod_c, monic_c)
from . import linalg, parsing


class NonNormalRingError(ValueError):
    """Raised for a branch form that is not squarefree: the double cover
    is then not normal, and no ring is built for it."""


class DegenerateSectionError(ValueError):
    """Raised when a section lies in a z-eigenline, so its divisor is
    not given by a finite scheme of the expected length."""


class DoubleCoverRing:
    """R = O + z O(-l), z^2 = F, with F a squarefree binary form of
    degree 2l: the normal double cover of the line branched along F,
    which is the hyperelliptic curve of genus g = l - 1."""

    def __init__(self, field, l, F):
        if l < 1:
            raise ValueError("need l >= 1, that is genus g = l - 1 >= 0")
        if field.characteristic == 2:
            raise ValueError("characteristic 2 is not supported")
        if F.nvars != 2 or F.deg != 2 * l:
            raise ValueError("branch form must be binary of degree %d" % (2 * l))
        if not F.is_squarefree():
            raise NonNormalRingError("branch form must be squarefree (normal cover)")
        self.field = field
        self.l = l
        self.g = l - 1
        self.F = F
        self.chart = F._chart()
        self._odd = None

    def trivial_pair(self):
        """The structure sheaf as a module over itself: N = [[0, F], [1, 0]]."""
        return BundlePair(self, 0, self.l, [], self.chart, [1])

    def rational_branch_root(self):
        """A root (r0 : r1) of F over the base field, as plain values
        (1, 0) or (x, 1), or None."""
        if self.F.x1_multiplicity() > 0:
            return (1, 0)
        x = next(base_field_roots(self.F.to_univar()), None)
        return None if x is None else (x, 1)

    def odd_model(self):
        """The odd model y^2 = fodd(x) after moving a rational branch root
        to (1:0), built on the first call and kept with the ring."""
        if self._odd is None:
            # imported here: hyperelliptic builds on this module
            from .hyperelliptic import OddModel
            root = self.rational_branch_root()
            if root is None:
                raise ValueError("no rational branch point; odd model unavailable")
            self._odd = OddModel(self, root)
        return self._odd

    def __eq__(self, other):
        return (isinstance(other, DoubleCoverRing) and other.field == self.field
                and other.l == self.l and other.F == self.F)

    def __repr__(self):
        return "DoubleCoverRing(l=%d, F=%s)" % (self.l, self.F)


class BundlePair:
    """A trace-free matrix presentation (a, b, P, f, q) of a rank-one
    module on a double cover ring, held as the charts F(x, 1) of
    (P, f, q), ``charts``; the forms ``P``, ``f`` and ``q`` are built from
    them on each read.

    Every pair built passes the same checks: each chart within its forced
    degree, and P^2 + q f = F (``validate``).  The constructor takes each
    entry as a form or a chart (``_entry_chart``); ``_from_charts`` takes
    the reduced, trimmed charts that the package computes, a <= b, and
    skips only that conversion and its re-reduction."""

    __slots__ = ("ring", "a", "b", "charts")

    def __init__(self, ring, a, b, P, f, q):
        l = ring.l
        swap = a > b
        if swap:
            a, b = b, a
            f, q = q, f
        P, f, q = (_entry_chart(ring.field, name, e, d) for name, e, d in (
            ("P", P, l), ("f", f, l - a + b), ("q", q, l + a - b)))
        self._set(ring, a, b, (neg_c(P, ring.field.characteristic) if swap else P, f, q))

    @classmethod
    def _from_charts(cls, ring, a, b, charts):
        pair = cls.__new__(cls)
        pair._set(ring, a, b, charts)
        return pair

    def _set(self, ring, a, b, charts):
        """The checks of every pair, on its charts (P, f, q); then q is made
        monic."""
        l = ring.l
        for name, chart, d in zip("Pfq", charts, (l, l - a + b, l + a - b)):
            _check_degree(name, chart, d)
        self.ring = ring
        self.a = a
        self.b = b
        self.charts = charts
        self.validate()
        self._normalize()

    def _normalize(self):
        # validate refused q = 0, so q has a leading coefficient
        P, f, q = self.charts
        lead = q[-1]
        if lead != 1:
            p = self.ring.field.characteristic
            # conjugating by diag(1, lead) scales q by 1/lead and f by lead
            self.charts = (P, scale_c(f, lead, p), scale_c(q, inv_c(lead, p), p))

    @property
    def splitting(self):
        return (-self.a, -self.b)

    def _form(self, i, deg):
        """Entry i of (P, f, q) as the binary form of degree deg; an entry
        of negative forced degree is the zero form of degree 0."""
        return plain_form(self.ring.field, 2, max(deg, 0),
                          {(k, deg - k): v for k, v in enumerate(self.charts[i]) if v})

    @property
    def P(self):
        return self._form(0, self.ring.l)

    @property
    def f(self):
        return self._form(1, self.ring.l - self.a + self.b)

    @property
    def q(self):
        return self._form(2, self.ring.l + self.a - self.b)

    def validate(self):
        """Check the determinant constraint P^2 + q f = F, which says
        N^2 = F * Id, on the charts (every degree is fixed at 2l, so they
        decide it); raises ValueError.  It refuses q = 0, as P^2 = F
        contradicts a squarefree F of positive degree.  P^2 + q f is summed
        unreduced and reduced once."""
        p = self.ring.field.characteristic
        P, f, q = self.charts
        if reduce_c(addmul_c(addmul_c([], P, P), q, f), p) != self.ring.chart:
            raise ValueError("determinant constraint P^2 + q*f = F violated")
        return True

    def normal_form(self):
        """(a, b, P, q) of one fixed pair of the class: P and q are charts,
        except for a = b with F(1, 0) not a square in k, where each is a
        pair (x, y) of charts, the chart x + y s over k' = k(s), s^2 =
        F(1, 0).  Two pairs with the same twists are isomorphic iff their
        normal forms are equal.

        An isomorphism conjugates N by a graded automorphism U, which
        turns NJ = [[-f, P], [P, q]] (J = [[0, 1], [-1, 0]]), the form
        Q = -f X^2 + 2P XY + q Y^2, into U NJ U^T / det U.  U = [[alpha,
        h], [0, beta]] moves P by (h / alpha) q and scales q, so q monic
        and P reduced from the top modulo x^j q, j = b - a .. 0, fix the
        pair.  For a = b, U is constant, and first its second row is put
        on the root of Q's x0^l coefficient (discriminant 4 F(1, 0)) that
        makes the new P(1, 0) the field's square root of F(1, 0).

        Where F(1, 0) is not a square the same steps run over k', with s
        as the square root, and give the normal form of the class over
        k'; d = P_l + s is never 0 (P_l is in k, s is not), so gamma =
        -q_l / d always.  Isomorphism over k' is isomorphism over k: the
        intertwining equation Psi N1 = N2 Psi(-l) is linear over k, so its
        solutions over k' are V (x) k' for its solutions V over k; det Psi
        is a quadratic form on V, and in characteristic != 2 a quadratic
        form that vanishes on V vanishes on V (x) k' (its polar form
        does, as 2 is invertible)."""
        ring = self.ring
        p, l = ring.field.characteristic, ring.l
        P, f, q = self.charts
        if self.a == self.b:
            F = ring.chart
            s = _square_root(ring.field, F[2 * l] if len(F) > 2 * l else 0)
            if s is None:
                # over k' = k(s), s^2 = r = F(1, 0), x + y s is (x, y) and a
                # k'-chart two k-charts: (x1 + y1 s)(x2 + y2 s) = (x1 x2 +
                # r y1 y2) + (x1 y2 + x2 y1) s, and 1/(x + y s) = (x - y s) /
                # (x^2 - r y^2), a norm that is never 0, as r is not a square
                r = F[2 * l]
                Pl, ql = (c[l] if len(c) > l else 0 for c in (P, q))
                # d = P_l + s is never 0, so U = [[1, 0], [gamma, 1]] with
                # gamma = -q_l / d = x + y s, and P_l - gamma f_l = s
                y = ql * inv_c(Pl * Pl - r, p)
                x = -Pl * y
                # P - gamma f = Pn - y f s, and q + gamma (2 P - gamma f) =
                # q + 2 x P - (x^2 + r y^2) f + 2 y Pn s
                Pn = sub_c(P, scale_c(f, x, p), p)
                q = (sub_c(add_c(q, scale_c(P, 2 * x, p), p), scale_c(f, x * x + r * y * y, p), p),
                     scale_c(Pn, 2 * y, p))
                P = (Pn, scale_c(f, -y, p))
                # q times 1/lead(q)
                dq = max(map(len, q)) - 1
                x, y = (c[dq] if len(c) > dq else 0 for c in q)
                n = inv_c(x * x - r * y * y, p)
                x, y = x * n, -y * n
                q = (add_c(scale_c(q[0], x, p), scale_c(q[1], r * y, p), p),
                     add_c(scale_c(q[1], x, p), scale_c(q[0], y, p), p))
                # deg q < l: P reduced at degree deg q alone is P - P_dq q
                x, y = (c[dq] if len(c) > dq else 0 for c in P)
                P = (sub_c(P[0], add_c(scale_c(q[0], x, p), scale_c(q[1], r * y, p), p), p),
                     sub_c(P[1], add_c(scale_c(q[1], x, p), scale_c(q[0], y, p), p), p))
                return self.a, self.b, tuple(map(tuple, P)), tuple(map(tuple, q))
            Pl, fl, ql = (c[l] if len(c) > l else 0 for c in (P, f, q))
            d = (Pl + s) % p if p else Pl + s
            if d or fl:
                # U = [[1, 0], [gamma, 1]], gamma the root with P_l - gamma f_l = s
                gamma = -ql * inv_c(d, p) if d else 2 * Pl * inv_c(fl, p)
                Pn = sub_c(P, scale_c(f, gamma, p), p)
                P, q = Pn, add_c(q, scale_c(add_c(P, Pn, p), gamma, p), p)
            else:
                # f_l = 0 and s = -P_l: the line is (1 : 0), U swaps the summands
                P, q = neg_c(P, p), f
            q = monic_c(q, p)
        # deg q <= l - (b - a), so every position j + deg q is at most l
        P, dq = P + [0] * (l + 1 - len(P)), len(q) - 1
        for j in range(self.b - self.a, -1, -1):
            c = P[j + dq] % p if p else P[j + dq]
            if c:
                P[j:j + dq + 1] = [x - c * y for x, y in zip(P[j:j + dq + 1], q)]
        return self.a, self.b, tuple(reduce_c(P, p)), tuple(q)

    def is_trivial(self):
        return self.a == 0 and self.b == self.ring.l and not self.charts[0]

    def c1(self):
        return -self.a - self.b

    def __eq__(self, other):
        if not isinstance(other, BundlePair):
            return NotImplemented
        return (self.ring == other.ring and self.a == other.a and self.b == other.b
                and self.charts == other.charts)

    def __repr__(self):
        return "BundlePair(a=%d, b=%d, P=%s, f=%s, q=%s)" % (
            self.a, self.b, self.P, self.f, self.q)

    def to_json(self):
        return {"a": self.a, "b": self.b,
                "P": parsing.format_form(self.P),
                "f": parsing.format_form(self.f),
                "q": parsing.format_form(self.q)}

    @classmethod
    def from_json(cls, data, ring):
        field = ring.field
        return cls(ring, parsing.read_int(data, "a"), parsing.read_int(data, "b"),
                   parsing.parse_form(data["P"], field, 2),
                   parsing.parse_form(data["f"], field, 2),
                   parsing.parse_form(data["q"], field, 2))


def _entry_chart(field, name, val, deg):
    """The chart of the entry ``name`` of a pair, of forced degree deg,
    from an HForm, 0, a nonzero int (deg = 0 only) or a chart: a list of
    plain values, which is reduced and trimmed.  Only 0 fits a negative
    deg."""
    if isinstance(val, HForm):
        chart, fits = val._chart(), val.deg == deg
    elif isinstance(val, list):
        chart, fits = reduce_c(val, field.characteristic), True
    elif isinstance(val, int) and (deg <= 0 or not val):
        chart, fits = trim_c([field.unbox(val)]), deg == 0
    else:
        raise ValueError("expected a binary form of degree %d" % deg)
    return _check_degree(name, chart, deg, fits)


def _check_degree(name, chart, deg, fits=True):
    """The chart, refused unless it is zero or its form has the forced
    degree deg: it must fit (a form's own degree is deg, for a form) and
    be at most deg + 1 long, which only the zero chart is for deg < 0."""
    if chart and (not fits or len(chart) > deg + 1):
        if deg < 0:
            raise ValueError("entry of negative forced degree must vanish")
        raise ValueError("%s must have degree %d" % (name, deg))
    return chart


def _square_root(field, v):
    """A plain square root of the plain value v, or None: Tonelli-Shanks
    on the residue (``fields.sqrt_mod``), and over Q ``math.isqrt`` of
    the numerator and the denominator."""
    p = field.characteristic
    if p:
        return sqrt_mod(v % p, p)
    v = Fraction(v)
    n, d = math.isqrt(max(v.numerator, 0)), math.isqrt(v.denominator)
    return Fraction(n, d) if n * n == v.numerator and d * d == v.denominator else None


def tensor(p1, p2):
    """The product module of two pairs over the same ring: each pair is
    the line bundle c + e * inf on the ring's odd model
    (``hyperelliptic.bundle_from_matrix``), and the product is c1 + c2 by
    Cantor addition, plus (e1 + e2) * inf.  On a ring with no rational
    branch point the odd model raises ValueError."""
    if p1.ring != p2.ring:
        raise ValueError("pairs live over different rings")
    # imported here: hyperelliptic builds on this module
    from .hyperelliptic import bundle_from_matrix, matrix_from_bundle
    (c1, e1), (c2, e2) = bundle_from_matrix(p1), bundle_from_matrix(p2)
    return matrix_from_bundle(p1.ring, c1 + c2, e1 + e2)


def inverse(pair):
    """The inverse module: same splitting with P negated."""
    P, f, q = pair.charts
    return BundlePair._from_charts(pair.ring, pair.a, pair.b,
                                   (neg_c(P, pair.ring.field.characteristic), f, q))


def is_isomorphic(p1, p2):
    """Exact isomorphism test for two pairs over the same ring: equal
    twists and equal normal forms (``BundlePair.normal_form``, which
    says why that decides it)."""
    if p1.ring != p2.ring:
        raise ValueError("pairs live over different rings")
    return (p1.a, p1.b) == (p2.a, p2.b) and p1.normal_form() == p2.normal_form()


def divisor_of_section(pair, m, alpha, beta):
    """Vanishing divisor of the section (alpha, beta) of the pair
    twisted by m, in (u, v) coordinates.

    alpha and beta are forms, or charts, of degrees m - a and m - b (zero
    allowed).  Returns (u, v): u is the binary form det(s | Ns), the
    norm form of the section, and v is the univariate polynomial of
    degree < deg u(x, 1) with z = v(x) on the divisor, reduced in the
    affine chart x1 = 1.  Raises DegenerateSectionError when u vanishes
    identically, and ValueError when no single v interpolates the
    z-values (the vanishing scheme is then not reduced in a compatible
    way).

    This is the general section route; ``hyperelliptic.class_from_matrix``
    reads its answer for the section (1, 0) in closed form, and the tests
    compare the two.
    """
    field = pair.ring.field
    p = field.characteristic
    al = _entry_chart(field, "alpha", alpha, m - pair.a)
    be = _entry_chart(field, "beta", beta, m - pair.b)
    if not al and not be:
        raise ValueError("zero section has no divisor")
    P, f, q = pair.charts
    # u = q alpha^2 - 2 P alpha beta - f beta^2, of degree 2m + l - a - b
    u = sub_c(mul_c(q, mul_c(al, al, p), p), add_c(scale_c(mul_c(P, mul_c(al, be, p), p), 2, p),
                                                     mul_c(f, mul_c(be, be, p), p), p), p)
    if not u:
        raise DegenerateSectionError("section lies in a z-eigenline")
    d = len(u) - 1
    norm = HForm.from_univar(plain_poly(field, u), 2 * m + pair.ring.l - pair.a - pair.b)
    if d == 0:
        return norm, Poly.zero(field)
    # solve (P - v) alpha + f beta = 0 and q alpha - (P + v) beta = 0 mod u
    rows_eq = []
    rhs = []
    c1 = divmod_c(add_c(mul_c(P, al, p), mul_c(f, be, p), p), u, p)[1]
    c2 = divmod_c(sub_c(mul_c(q, al, p), mul_c(P, be, p), p), u, p)[1]
    for target, mult in ((c1, al), (c2, neg_c(be, p))):
        # v * mult = target (mod u): column s is x^s mult mod u
        cols = [divmod_c([0] * s + mult, u, p)[1] for s in range(d)]
        for c in range(d):
            rows_eq.append([col[c] if c < len(col) else 0 for col in cols])
            rhs.append(target[c] if c < len(target) else 0)
    sol = linalg.solve(rows_eq, rhs, field)
    if sol is None:
        raise ValueError("no z-value polynomial exists along the divisor")
    return norm, plain_poly(field, reduce_c(sol, p))
