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
  kernel basis of the transpose, whose rank is always 2;
* ``inverse`` flips the sign of P, which realizes the dual module up to
  the standard twist;
* ``is_isomorphic`` solves the intertwining equation exactly and
  decides whether the solution space contains an invertible element by
  evaluating the determinant quadratic form on a basis and on pairwise
  sums (valid in characteristic != 2);
* ``divisor_of_section`` returns the vanishing divisor of a global
  section in (u, v) coordinates.

``tensor`` and ``is_isomorphic`` work on the charts F(x, 1) of N's
entries (``_charts``): the twists (a, b, l) fix every degree, and forms
are made only for the result.  Their linear equations (the graded
kernel, the factorization of the z-action through it and the
intertwining equation) come from ``linalg.convolution_matrix``.
"""

from .homog import HForm
from .poly import Poly, base_field_roots, neg_c, sub_c, add_c, mul_c
from .graded import kernel_basis
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
        field = self.ring.field
        if not self.q.is_zero():
            lead = self.q.to_univar().lead()
        elif not self.f.is_zero():
            lead = self.f.to_univar().lead()
        else:
            return
        if lead == field.one:
            return
        inv = field.inv(lead)
        # conjugating by diag(1, lead) scales q by 1/lead and f by lead
        if not self.q.is_zero():
            self.q = self.q * inv
            self.f = self.f * lead
        else:
            self.f = self.f * inv
            self.q = self.q * lead

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
        check = self.P * self.P
        if not self.q.is_zero():
            check = check + self.q * self.f
        if check != self.ring.F:
            raise ValueError("determinant constraint P^2 + q*f = F violated")
        return True

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


def _zero_or_raise(field, val):
    f = val if isinstance(val, HForm) else HForm.zero(field, 2, 0)
    if not f.is_zero():
        raise ValueError("entry of negative forced degree must vanish")
    return HForm.zero(field, 2, 0)


def _charts(pair):
    """N = [[P, f], [q, -P]] as the charts F(x, 1) of its entries."""
    p = pair.ring.field.characteristic
    P = pair.P.to_univar().c
    return [[P, pair.f.to_univar().c], [pair.q.to_univar().c, neg_c(P, p)]]


def tensor(p1, p2):
    """The product module of two pairs over the same ring.

    The product is the cokernel of psi = N1 (x) Id - Id (x) N2 acting on
    the tensor of the underlying bundles; its dual is the kernel of the
    transpose, which a graded kernel basis computes exactly.  The
    z-action is read off by factoring (N1 (x) Id)^T through the kernel.
    Everything runs on charts, with e_i (x) e_j at index 2i + j of
    O(-rows[2i + j]); forms are made only for the result.
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
    tw, gens = kernel_basis(field, psiT, [-c for c in cols], [-r for r in rows], 2)
    K = list(zip(*gens))
    # (N1 (x) Id)^T K: entry ((k, m), g) is sum_i N1[i][k] K[(i, m)][g]
    AtK = [[add_c(mul_c(n1[0][k], K[m][g], p), mul_c(n1[1][k], K[2 + m][g], p), p)
            for g in range(2)]
           for k in range(2) for m in range(2)]
    # factor K(-l) M = (N1 (x) Id)^T K, with M the z-action on the kernel,
    # one column of M at a time; entry M[h][g] has degree tw[g] - tw[h] + l
    zero = field.unbox(field.zero)
    M = [[None] * 2 for _ in range(2)]
    for g in range(2):
        degs = [tw[g] - th + l for th in tw]
        out_degs = [tw[g] + c for c in cols]
        rows_eq = linalg.convolution_matrix(field, K, degs, out_degs)
        rhs = [b[c] if c < len(b) else zero
               for b, d in zip((row[g] for row in AtK), out_degs) for c in range(d + 1)]
        sol = (linalg.solve(rows_eq, rhs, field) if rows_eq
               else [field.zero] * sum(d + 1 for d in degs if d >= 0))
        if sol is None:
            raise ValueError("factorization through kernel failed")
        for h, c in enumerate(linalg.split_blocks(sol, degs)):
            M[h][g] = (HForm.from_univar(Poly(field, c), degs[h]) if degs[h] >= 0
                       else HForm.zero(field, 2, 0))
    # N3 = M^T up to twists: O(-a3) + O(-b3) with (a3, b3) = (-tw0, -tw1)
    P3, f3, q3 = M[0][0], M[1][0], M[0][1]
    if P3 + M[1][1]:
        raise AssertionError("tensor z-action is not trace free")
    res = BundlePair(ring, -tw[0], -tw[1], P3, f3, q3)
    if res.c1() != p1.c1() + p2.c1() - ring.trivial_pair().c1():
        raise AssertionError("first Chern class bookkeeping failed in tensor")
    return res


def inverse(pair):
    """The inverse module: same splitting with P negated."""
    return BundlePair(pair.ring, pair.a, pair.b, -pair.P, pair.f, pair.q)


def is_isomorphic(p1, p2):
    """Exact isomorphism test for two pairs over the same ring.

    Solves the intertwining equation Psi N1 = N2 Psi(-L) for graded Psi
    and decides invertibility on the solution space.  det Psi is
    homogeneous of degree zero, hence a quadratic form Q in the solution
    coordinates; Q is nonzero on the space iff it is nonzero at a basis
    vector or a sum of two (characteristic != 2).
    """
    if p1.ring != p2.ring:
        raise ValueError("pairs live over different rings")
    if (p1.a, p1.b) != (p2.a, p2.b):
        return False
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
