"""Rank-one modules on a double cover of the line, as trace-free matrices.

The cover is Spec of R = O + z O(-l) with z^2 = F for a binary form F
of degree 2l.  A line bundle on the cover pushes down to a rank-two
bundle E = O(-a) + O(-b) on the line, and the action of z is a
trace-free graded matrix

    N = [[P, f], [q, -P]],   N^2 = F * Id,

so P^2 + q f = F with deg P = l, deg f = l - a + b, deg q = l + a - b.
A :class:`BundlePair` stores (a, b, P, f, q) over a
:class:`DoubleCoverRing` and normalizes q (or f, when q vanishes) to be
monic, which is the scaling freedom of the choice of basis; its
``validate`` checks the degrees and P^2 + q f = F on construction.

A ring exists only for a squarefree F, that is for a normal cover; any
other F raises :class:`NonNormalRingError`, a ``ValueError``.  The
normal cover is the hyperelliptic curve of genus g = l - 1, and the ring
is that curve: ``hyperelliptic.HECurve`` is its (field, g, F)
constructor, and ``odd_model`` builds the curve's odd model on the first
call and keeps it.

Operations:

* ``tensor`` multiplies two modules by presenting the product as the
  cokernel of psi = N1 (x) Id - Id (x) N2 and reading the z-action off a
  kernel basis of the transpose, whose rank is always 2 and whose twist
  sum is known beforehand: l - (a1 + b1 + a2 + b2), the first Chern
  class of the product;
* ``inverse`` flips the sign of P, which realizes the dual module up to
  the standard twist;
* ``is_isomorphic`` compares the twists and the normal forms
  (``BundlePair.normal_form``); where there is none (a = b, F(1, 0) not
  a square) it solves the intertwining equation exactly and evaluates
  the determinant quadratic form on a basis of the solutions and on
  pairwise sums (valid in characteristic != 2);
* ``divisor_of_section`` returns the vanishing divisor of a global
  section in (u, v) coordinates.

``tensor``, ``is_isomorphic`` and the checks of a pair work on the
charts F(x, 1) of N's entries (``_charts``): the twists (a, b, l) fix
every degree, and forms are made only for the result.  The linear
equations (the graded kernel in at most three degrees, and the
intertwining equation) come from ``linalg.convolution_matrix``; the
z-action on the kernel is an exact division of charts by a nonzero
2 x 2 minor of the kernel basis (its adjugate), checked on the other
two rows, and needs no solve.
"""

import math
from fractions import Fraction

from .homog import HForm
from .poly import (Poly, plain_poly, base_field_roots, inv_c, reduce_c, neg_c, sub_c,
                   add_c, scale_c, mul_c, divmod_c, monic_c)
from .graded import kernel_basis, nonzero_minor
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
        self._odd = None

    def trivial_pair(self):
        """The structure sheaf as a module over itself: N = [[0, F], [1, 0]]."""
        return BundlePair(self, 0, self.l,
                          HForm.zero(self.field, 2, self.l),
                          self.F,
                          HForm.const(self.field, 2, self.field.one))

    def rational_branch_root(self):
        """A root (r0 : r1) of F over the base field, or None."""
        if self.F.x1_multiplicity() > 0:
            return (self.field.one, self.field.zero)
        x = next(base_field_roots(self.F.to_univar()), None)
        return None if x is None else (x, self.field.one)

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
    module on a double cover ring."""

    __slots__ = ("ring", "a", "b", "P", "f", "q")

    def __init__(self, ring, a, b, P, f, q):
        field = ring.field
        l = ring.l
        if a > b:
            a, b = b, a
            P = -P
            f, q = q, f
        deg_f = l - a + b
        deg_q = l + a - b
        P = _as_form(field, P, l)
        f = _as_form(field, f, deg_f)
        q = _as_form(field, q, deg_q) if deg_q >= 0 else _zero_or_raise(field, q)
        self.ring = ring
        self.a = a
        self.b = b
        self.P = P
        self.f = f
        self.q = q
        self.validate()
        self._normalize()

    def _normalize(self):
        lead = (self.q._chart() or self.f._chart() or [1])[-1]
        if lead == 1:
            return
        inv = inv_c(lead, self.ring.field.characteristic)
        # conjugating by diag(1, lead) scales q by 1/lead and f by lead
        if self.q:
            self.q, self.f = self.q * inv, self.f * lead
        else:
            self.f, self.q = self.f * inv, self.q * lead

    @property
    def splitting(self):
        return (-self.a, -self.b)

    def validate(self):
        """Check the entries' degrees and the determinant constraint
        P^2 + q f = F, which says N^2 = F * Id; raises ValueError."""
        l = self.ring.l
        for name, e, d in (("P", self.P, l), ("f", self.f, l - self.a + self.b),
                           ("q", self.q, l + self.a - self.b)):
            if e.deg != d and not e.is_zero():
                raise ValueError("%s must have degree %d" % (name, d))
        # every degree is fixed at 2l, so the charts decide the identity
        p = self.ring.field.characteristic
        P, f, q = self.P._chart(), self.f._chart(), self.q._chart()
        if add_c(mul_c(P, P, p), mul_c(q, f, p), p) != self.ring.F._chart():
            raise ValueError("determinant constraint P^2 + q*f = F violated")
        return True

    def normal_form(self):
        """(a, b, P, q), P and q charts, of one fixed pair of the class,
        or None when a = b and F(1, 0) is not a square.

        An isomorphism conjugates N by a graded automorphism U, which
        turns NJ = [[-f, P], [P, q]] (J = [[0, 1], [-1, 0]]), the form
        Q = -f X^2 + 2P XY + q Y^2, into U NJ U^T / det U.  U = [[alpha,
        h], [0, beta]] moves P by (h / alpha) q and scales q, so q monic
        and P reduced from the top modulo x^j q, j = b - a .. 0, fix the
        pair.  For a = b, U is constant, and first its second row is put
        on the root of Q's x0^l coefficient (discriminant 4 F(1, 0)) that
        makes the new P(1, 0) the field's square root of F(1, 0)."""
        ring = self.ring
        p, l = ring.field.characteristic, ring.l
        P, q = self.P._chart(), self.q._chart()
        if self.a == self.b:
            f, F = self.f._chart(), ring.F._chart()
            s = _square_root(ring.field, F[2 * l] if len(F) > 2 * l else 0)
            if s is None:
                return None
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
        return self.a == 0 and self.P.is_zero() and self.q.deg == 0

    def c1(self):
        return -self.a - self.b

    def __eq__(self, other):
        if not isinstance(other, BundlePair):
            return NotImplemented
        return (self.ring == other.ring and self.a == other.a and self.b == other.b
                and self.P == other.P and self.f == other.f and self.q == other.q)

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
        return cls(ring, int(data["a"]), int(data["b"]),
                   parsing.parse_form(data["P"], field, 2),
                   parsing.parse_form(data["f"], field, 2),
                   parsing.parse_form(data["q"], field, 2))


def _as_form(field, val, deg):
    if isinstance(val, HForm):
        if val.is_zero() and val.deg != deg:
            return HForm.zero(field, 2, deg)
        return val
    if isinstance(val, int):
        if val == 0:
            return HForm.zero(field, 2, deg)
        if deg == 0:
            return HForm.const(field, 2, val)
    raise ValueError("expected a binary form of degree %d" % deg)


def _square_root(field, v):
    """A plain square root of the plain value v, or None: ``GF.sqrt``, and
    over Q ``math.isqrt`` of the numerator and the denominator."""
    if field.characteristic:
        r = field.sqrt(v)
        return None if r is None else field.unbox(r)
    v = Fraction(v)
    n, d = math.isqrt(max(v.numerator, 0)), math.isqrt(v.denominator)
    return Fraction(n, d) if n * n == v.numerator and d * d == v.denominator else None


def _zero_or_raise(field, val):
    f = val if isinstance(val, HForm) else HForm.zero(field, 2, 0)
    if not f.is_zero():
        raise ValueError("entry of negative forced degree must vanish")
    return HForm.zero(field, 2, 0)


def _charts(pair):
    """N = [[P, f], [q, -P]] as the charts F(x, 1) of its entries."""
    p = pair.ring.field.characteristic
    P = pair.P._chart()
    return [[P, pair.f._chart()], [pair.q._chart(), neg_c(P, p)]]


def tensor(p1, p2):
    """The product module of two pairs over the same ring.

    The product is the cokernel of psi = N1 (x) Id - Id (x) N2 acting on
    the tensor of the underlying bundles; its dual is the kernel of the
    transpose, which ``kernel_basis`` computes exactly at its known twist
    sum l - (a1 + b1 + a2 + b2), the first Chern class of the product
    (c1 = c1(p1) + c1(p2) - c1(O)), and certifies there.
    Everything runs on charts, with e_i (x) e_j at index 2i + j of
    O(-rows[2i + j]); forms are made only for the result.

    The z-action M on the kernel K (4 x 2) solves K(-l) M = (N1 (x) Id)^T K.
    Two rows j1, j2 of K with a nonzero determinant D give B M = C for
    the 2 x 2 blocks B of K and C of the right side, so M = adj(B) C / D,
    an exact division of charts; each M[h][g] must fit its degree
    tw[g] - tw[h] + l, and K M must equal the right side on the other two
    rows as well.  K has rank 2, so that solution is the only one.
    """
    if p1.ring != p2.ring:
        raise ValueError("pairs live over different rings")
    ring = p1.ring
    field = ring.field
    p = field.characteristic
    l = ring.l
    rows = [p1.a + p2.a, p1.a + p2.b, p1.b + p2.a, p1.b + p2.b]
    cols = [r + l for r in rows]
    n1, n2 = _charts(p1), _charts(p2)
    # psi^T: entry ((k, m), (i, j)) is N1[i][k] [j == m] - [i == k] N2[j][m]
    psiT = [[sub_c(n1[i][k] if j == m else [], n2[j][m] if i == k else [], p)
             for i in range(2) for j in range(2)]
            for k in range(2) for m in range(2)]
    # psi^T has a kernel of rank 2: each N_i is trace free, nonzero and
    # squares to F, so over the fraction field with z = sqrt(F) adjoined it
    # diagonalizes with eigenvalues z and -z (distinct, as F != 0 and the
    # characteristic is not 2), and psi has eigenvalues 0, 0, 2z, -2z
    tw, gens, minor = kernel_basis(field, psiT, [-c for c in cols], [-r for r in rows], 2,
                                   l - (p1.a + p1.b + p2.a + p2.b))
    return BundlePair(ring, -tw[0], -tw[1], *_z_action(field, l, n1, tw, gens, minor))


def _z_action(field, l, n1, tw, gens, minor=None):
    """(P3, f3, q3) of the product: the z-action M on the kernel with
    generators ``gens`` of twists ``tw``, by the adjugate division in
    ``tensor`` (through ``minor`` when ``kernel_basis`` found one);
    raises ValueError when it does not factor."""
    p = field.characteristic
    g0, g1 = gens
    # (N1 (x) Id)^T K: entry ((k, m), g) is sum_i N1[i][k] K[(i, m)][g]
    AtK = [[add_c(mul_c(n1[0][k], g[m], p), mul_c(n1[1][k], g[2 + m], p), p)
            for g in gens]
           for k in range(2) for m in range(2)]
    # kernel_basis certified g0 and g1 independent, so some minor is nonzero
    j1, j2, D = minor or nonzero_minor(g0, g1, p)
    # adj(B) C with B = [[g0[j1], g1[j1]], [g0[j2], g1[j2]]]
    M = [[None] * 2 for _ in range(2)]
    for g in range(2):
        c1, c2 = AtK[j1][g], AtK[j2][g]
        nums = (sub_c(mul_c(g1[j2], c1, p), mul_c(g1[j1], c2, p), p),
                sub_c(mul_c(g0[j1], c2, p), mul_c(g0[j2], c1, p), p))
        for h, num in enumerate(nums):
            q, r = divmod_c(num, D, p)
            if r or len(q) > tw[g] - tw[h] + l + 1:
                raise ValueError("factorization through kernel failed")
            M[h][g] = q
    # rows j1 and j2 of K M = (N1 (x) Id)^T K hold by the exact division
    for r in {0, 1, 2, 3} - {j1, j2}:
        for g in range(2):
            if add_c(mul_c(g0[r], M[0][g], p), mul_c(g1[r], M[1][g], p), p) != AtK[r][g]:
                raise ValueError("factorization through kernel failed")
    # N3 = M^T up to twists: O(-a3) + O(-b3) with (a3, b3) = (-tw0, -tw1)
    if add_c(M[0][0], M[1][1], p):
        raise AssertionError("tensor z-action is not trace free")
    return [HForm.from_univar(plain_poly(field, M[h][g]), tw[g] - tw[h] + l)
            if tw[g] - tw[h] + l >= 0 else HForm.zero(field, 2, 0)
            for h, g in ((0, 0), (1, 0), (0, 1))]


def inverse(pair):
    """The inverse module: same splitting with P negated."""
    return BundlePair(pair.ring, pair.a, pair.b, -pair.P, pair.f, pair.q)


def is_isomorphic(p1, p2):
    """Exact isomorphism test for two pairs over the same ring.

    Two pairs with the same twists are isomorphic iff their normal forms
    are equal.  Where there is none (a = b, F(1, 0) not a square), it
    solves the intertwining equation Psi N1 = N2 Psi(-L) for graded Psi
    and decides invertibility on the solution space.  det Psi is
    homogeneous of degree zero, hence a quadratic form Q in the solution
    coordinates; Q is nonzero on the space iff it is nonzero at a basis
    vector or a sum of two (characteristic != 2).
    """
    if p1.ring != p2.ring:
        raise ValueError("pairs live over different rings")
    if (p1.a, p1.b) != (p2.a, p2.b):
        return False
    form = p1.normal_form()
    if form is not None:
        return form == p2.normal_form()
    field = p1.ring.field
    l = p1.ring.l
    src = [p1.a, p1.b]
    tgt = [p2.a, p2.b]
    # unknowns Psi[a][b] (index 2a + b) of degree src[b] - tgt[a], negative
    # -> zero; equation entry (i, j) (index 2i + j) is the form
    # sum_k Psi[i][k] n1[k][j] - n2[i][k] Psi[k][j] of degree
    # src[j] + l - tgt[i], so unknown (a, b) enters it with the polynomial
    # [a == i] n1[b][j] - [b == j] n2[i][a]
    degs = [src[b] - tgt[a] for a in range(2) for b in range(2)]
    n1, n2 = _charts(p1), _charts(p2)
    p = field.characteristic
    coeffs = [[sub_c(n1[b][j] if a == i else [], n2[i][a] if b == j else [], p)
               for a in range(2) for b in range(2)]
              for i in range(2) for j in range(2)]
    # the diagonal equations have degree l >= 0, so there is always a row
    rows_eq = linalg.convolution_matrix(
        field, coeffs, degs, [src[j] + l - tgt[i] for i in range(2) for j in range(2)])
    basis = linalg.nullspace(rows_eq, field)
    if not basis:
        return False

    def det_of(vec):
        a_, b_, c_, d_ = (Poly(field, c) for c in linalg.split_blocks(vec, degs))
        return (a_ * d_ - b_ * c_).coeff(0)

    for i, v in enumerate(basis):
        if det_of(v):
            return True
        for w in basis[i + 1:]:
            if det_of([x + y for x, y in zip(v, w)]):
                return True
    return False


def divisor_of_section(pair, m, alpha, beta):
    """Vanishing divisor of the section (alpha, beta) of the pair
    twisted by m, in (u, v) coordinates.

    alpha must be a form of degree m - a and beta of degree m - b (zero
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
    ring = pair.ring
    field = ring.field
    da, db = m - pair.a, m - pair.b
    alpha = _as_form(field, alpha, max(da, 0))
    beta = _as_form(field, beta, max(db, 0))
    if (not alpha.is_zero() and alpha.deg != da) or (not beta.is_zero() and beta.deg != db):
        raise ValueError("section degrees must be (%d, %d)" % (da, db))
    if alpha.is_zero() and beta.is_zero():
        raise ValueError("zero section has no divisor")
    udeg = 2 * m + ring.l - pair.a - pair.b
    u = HForm.zero(field, 2, udeg)
    for term in (pair.q * alpha * alpha,
                 -2 * (pair.P * alpha * beta),
                 -(pair.f * beta * beta)):
        if not term.is_zero():
            u = u + term
    if u.is_zero():
        raise DegenerateSectionError("section lies in a z-eigenline")
    ua = u.to_univar()
    d = ua.degree
    Pa, fa, qa = (pair.P.to_univar(), pair.f.to_univar(), pair.q.to_univar())
    aa, ba = alpha.to_univar(), beta.to_univar()
    if d == 0:
        return u, Poly.zero(field)
    # solve (P - v) alpha + f beta = 0 and q alpha - (P + v) beta = 0 mod u
    rows_eq = []
    rhs = []
    c1 = (Pa * aa + fa * ba) % ua
    c2 = (qa * aa - Pa * ba) % ua
    for target, mult in ((c1, aa), (c2, -1 * ba)):
        # v * mult = target (mod ua)
        cols = []
        for s in range(d):
            cols.append(mult.shift(s) % ua)
        for c in range(d):
            rows_eq.append([col.coeff(c) for col in cols])
            rhs.append(target.coeff(c))
    sol = linalg.solve(rows_eq, rhs, field)
    if sol is None:
        raise ValueError("no z-value polynomial exists along the divisor")
    v = Poly(field, sol)
    return u, v
