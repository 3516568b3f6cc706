"""Validation and numerical invariants of simple and almost-simple
dihedral covers.

A simple cover of degree 2n over a base with polarization L is cut out
by u v = F and u^n + v^n = 2a with a a section of nL and F of 2L.  Over
the projective plane with L = O(m) this module checks the two
construction hypotheses exactly:

(i)  the curve a^2 - F^n = 0 is smooth wherever F does not vanish, and
(ii) the curves a = 0 and F = 0 meet transversally in finitely many
     reduced points.

Condition (ii) gets a certificate: after a random linear change of
coordinates, the resultant R of a and F with respect to the last
variable is squarefree; a root of R has the multiplicity of the
intersection of a and F on the line it names (Fulton, Algebraic Curves,
1.6), so that alone proves transversality.  Condition (i) is certified
by the cusps' exponent: with R squarefree, R^(n-1) divides the
resultant r1 of the partials G_0 and G_1 of G = a^2 - F^n, and r1 / R^(n-1)
coprime to the resultant r2 of G_0 and G_2 proves (i)
(``_singular_containment``).  Over Q, R is exact, and (i) is decided
modulo the prime 2^30 - 35 only: a, F and R are reduced there, and r1,
r2 and their gcd run over GF(2^30 - 35); a reduction that keeps the
formal degrees and has gcd 1 proves gcd 1 over Q (Brown's one-sided
modular gcd).  The squarefree test of R runs modulo the same prime
first and falls back to an exact one.  Over Q a form's coefficients are
ints wherever integral (see :mod:`poly`), so on integer input the
coordinate change runs on ints, and R clears any remaining denominators
once.  r1 and r2 run as one batch of lanes of one remainder sequence,
and interpolation is one product with a cached table.  Verdicts are
"pass", "fail" or "inconclusive"; a pass or a fail always rests on an
exact computation, never on sampling.

Invariants of a cover of the plane (Y = P^2, L = O(m)) are computed
twice, from the closed formulas

    K_X^2    = 2n (K_Y + nL)^2
    chi(O_X) = 2n chi(O_Y) + n(2n^2+1)/6 L.L + n^2/2 L.K_Y

and from the Riemann-Roch sum over the 2n line-bundle summands of the
pushforward of the structure sheaf; any disagreement is a hard error.
Classification reads the sign of the canonical pullback degree.

The normality criterion for covers over a hyperelliptic base reduces to
exact divisor-class arithmetic: with kappa the gcd of n and the indices
of the nonzero branch components, the cover is normal when kappa = 1 or
when the class (n/kappa) F1 - sum (k/kappa) D_k has order exactly kappa.
"""

import math
import random
from fractions import Fraction

from .fields import QQ, GF
from .poly import plain_poly, poly_gcd, resultant_lanes_c, interpolate_c
from .homog import HForm, plain_form, form_gcd
from .hyperelliptic import class_from_matrix
from .deformations import pushforward_twists


class ProjectiveSpace:
    """The projective plane polarized by O(m); d = 2 is the only
    dimension with checks and invariants."""

    def __init__(self, d, m):
        if d != 2 or m < 1:
            raise ValueError("need d = 2 (the plane) and m >= 1")
        self.m = m

    def __repr__(self):
        return "ProjectiveSpace(d=2, m=%d)" % self.m


class SimpleCoverSpec:
    """Degree-2n simple cover data over the plane: a of degree n*m and
    F of degree 2m."""

    def __init__(self, n, base, a, F):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self.base = base
        self.a = a
        self.F = F
        if a.nvars != 3 or F.nvars != 3:
            raise ValueError("sections must be ternary forms")
        if a.deg != n * base.m:
            raise ValueError("deg a = %d, expected %d" % (a.deg, n * base.m))
        if F.deg != 2 * base.m:
            raise ValueError("deg F = %d, expected %d" % (F.deg, 2 * base.m))


class AlmostSimpleSpec:
    """Almost-simple cover data: F of degree 2m, a_inf of degree e and
    a_0 of degree n*m + e."""

    def __init__(self, n, base, F, a0, ainf):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self.base = base
        self.F = F
        self.a0 = a0
        self.ainf = ainf
        if not ainf:
            raise ValueError("a_inf must be nonzero")
        if F.deg != 2 * base.m:
            raise ValueError("deg F = %d, expected %d" % (F.deg, 2 * base.m))
        self.e = ainf.deg
        if a0.deg != n * base.m + self.e:
            raise ValueError("deg a0 = %d, expected %d"
                             % (a0.deg, n * base.m + self.e))


# -- resultants of ternary forms ----------------------------------------


def resultant_wrt_last(f, g, *more):
    """Resultant of two ternary forms with respect to x2, as a binary
    form in (x0, x1) of degree deg(f)*deg(g); with further forms ``more``
    of g's degree, the list of the resultants of f with each g, as one
    batch.

    Requires the forms to have full degree in x2 (their x2-leading
    coefficients are nonzero scalars), which a generic linear change of
    coordinates guarantees; computed by specializing x1 = 1 at the
    deg(f)*deg(g) + 1 values x0 = 0, 1, 2, ... and interpolating, so a
    prime field with fewer elements raises ValueError.  Each x2-chart is
    evaluated at all nodes in one Horner pass, f's once for the batch,
    and every node of every pair is a lane of one remainder sequence
    (``poly.resultant_lanes_c``), which regroups them where their
    remainders fall to different degrees.
    """
    gs = (g,) + more
    if any(h.deg != g.deg for h in more):
        raise ValueError("a batch of resultants needs forms of one degree")
    charts = [_x2_charts(h) for h in (f,) + gs]
    if not all(cs[-1][0] for cs in charts):
        raise ValueError("forms must have full degree in x2")
    field, D = f.field, f.deg * g.deg
    p = field.characteristic
    if p and D + 1 > p:
        raise ValueError("resultant_wrt_last needs %d distinct points, GF(%d) has %d"
                         % (D + 1, p, p))
    scales = [1] * len(gs)
    if not p:
        # Res(lam f, mu g) = lam^(deg g) mu^(deg f) Res(f, g): with the
        # denominators cleared, the charts are evaluated on ints
        lams, charts = zip(*map(_clear_denominators, charts))
        scales = [lams[0] ** g.deg * mu ** f.deg for mu in lams[1:]]
    xs = range(D + 1)

    def lanes(cs):
        out = []
        for c in cs:
            v = [c[-1]] * (D + 1)
            for a in reversed(c[:-1]):
                v = [y * x + a for y, x in zip(v, xs)]
            out.append([y % p for y in v] if p else v)
        return out

    # f's lanes once per g, side by side, against the g's lanes
    a = [v * len(gs) for v in lanes(charts[0])]
    b = [sum(col, []) for col in zip(*map(lanes, charts[1:]))]
    res = resultant_lanes_c(a, b, p)[0]
    out = []
    for k, scale in enumerate(scales):
        R = plain_poly(field, interpolate_c(xs, res[k * (D + 1):(k + 1) * (D + 1)], p))
        if scale != 1:
            R = R * Fraction(1, scale)
        out.append(HForm.from_univar(R, D))
    return out if more else out[0]


def _x2_charts(h):
    """The charts h_k(x, 1) of the coefficients of x2^k in a ternary form h,
    k = 0 .. deg h, as plain lists of length deg h - k + 1."""
    charts = [[0] * (h.deg - k + 1) for k in range(h.deg + 1)]
    for (i, _, k), v in h.terms.items():
        charts[k][i] = v
    return charts


def _clear_denominators(charts):
    """(lam, lam * charts on ints) for lam the lcm of all denominators."""
    lam = math.lcm(*[v.denominator for c in charts for v in c])
    return lam, [[v.numerator * (lam // v.denominator) for v in c] for c in charts]


def random_coordinate_change(field, rng):
    """A linear substitution with small integer entries, invertible over
    the field: a determinant divisible by p would collapse the plane
    onto a line and fake a common component."""
    p = field.characteristic
    while True:
        rows = [[rng.randint(-10, 10) for _ in range(3)] for _ in range(3)]
        det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
               - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
               + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
        if (det % p if p else det):
            break
    if p:
        rows = [[v % p for v in row] for row in rows]
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return [plain_form(field, 3, 1, {e: v for e, v in zip(units, row) if v}) for row in rows]


# -- hypothesis checks --------------------------------------------------


class CheckReport:
    """Verdicts for the construction hypotheses of a cover spec."""

    def __init__(self, condition_i, condition_ii, irreducible, details, seed):
        self.condition_i = condition_i
        self.condition_ii = condition_ii
        self.irreducible = irreducible
        self.details = details
        self.seed = seed

    def to_json(self):
        return {"conditionI": self.condition_i,
                "conditionII": self.condition_ii,
                "irreducible": self.irreducible,
                "details": self.details,
                "seed": self.seed}

    def __repr__(self):
        return "CheckReport(i=%s, ii=%s)" % (self.condition_i, self.condition_ii)


# random coordinate changes a check tries before it reports "inconclusive"
ATTEMPTS = 5


def check_simple(spec, seed=0):
    """Check hypotheses (i) and (ii) for a simple cover over the plane.

    After a random coordinate change that keeps (0:0:1) off both curves,
    a root of R = Res_x2(a, F) has the multiplicity of the intersection
    of a and F on the line through (0:0:1) it names (Fulton, Algebraic
    Curves, 1.6): a squarefree R proves (ii), and R = 0 a common
    component ("fail").  (i) is tried only in an attempt whose R is
    proved squarefree, and passes when gcd(r1 / R^(n-1), r2) = 1 (see
    _singular_containment).  An attempt whose resultant needs more points
    than a small prime field has certifies nothing; ATTEMPTS of them
    without a certificate yield "inconclusive".  R needs 2nm^2 + 1
    points: a smaller field gets no attempt.  The resultants behind (i)
    need (2nm - 1)^2 + 1 points: over a smaller prime field (i) is not
    tried, and (ii) ends the attempts.
    """
    field = spec.a.field
    rng = random.Random(seed)
    n, m = spec.n, spec.base.m
    p = field.characteristic
    details = {}
    cond_ii = "inconclusive"
    cond_i = "inconclusive"
    decide_i = not p or (2 * n * m - 1) ** 2 < p
    for _ in range(ATTEMPTS if not p or spec.a.deg * spec.F.deg < p else 0):
        images = random_coordinate_change(field, rng)
        a = spec.a.substitute(images)
        F = spec.F.substitute(images)
        try:
            R = resultant_wrt_last(a, F)
        except ValueError:      # (0:0:1) on a curve, or too small a field
            continue
        if R.is_zero():
            details["commonComponent"] = True
            cond_ii = "fail"
            break
        if not ((not p and _squarefree_mod_prime(R)) or R.is_squarefree()):
            continue
        cond_ii = "pass"
        details["resultantDegree"] = R.deg
        if decide_i and cond_i != "pass" and _singular_containment(a, F, R, n):
            cond_i = "pass"
        if cond_i == "pass" or not decide_i:
            break
    irreducible = None
    if cond_ii == "pass":
        # two plane curves of positive degree always meet
        irreducible = True
        details["intersectionNonempty"] = True
    details["branchDegree"] = 2 * n * m
    details["cuspCount"] = 2 * n * m * m if cond_ii == "pass" else None
    return CheckReport(cond_i, cond_ii, irreducible, details, seed)


# below 2^30, where an inverse costs about a quarter of one modulo 2^61 - 1
CERTIFICATE_PRIME = 2 ** 30 - 35
CERTIFICATE_FIELD = GF(CERTIFICATE_PRIME)


def _singular_containment(a, F, R, n):
    """True when G = a^2 - F^n is certified smooth off F = 0 by
    r1 = Res_x2(G_0, G_1), r2 = Res_x2(G_0, G_2) and the squarefree
    R = Res_x2(a, F) of the same coordinates; False certifies nothing.

    R is squarefree, so each root of R names a line through (0:0:1) with
    exactly one point P of a = F = 0, where a and F meet transversally.
    In local coordinates u = F, v = a, G = v^2 - u^n is an A_(n-1)
    singularity at P, of Tjurina number n - 1.  Euler's relation
    2nm G = x0 G_0 + x1 G_1 + x2 G_2 puts G in the ideal of the partials
    when the characteristic does not divide 2nm, so O_P / (G_0, G_1)
    maps onto the Tjurina algebra and i_P(G_0, G_1) >= n - 1.  The order
    of r1 at a root is the sum of the intersection multiplicities on its
    line (Fulton, Algebraic Curves, 1.6), so R^(n-1) divides r1; divide
    once, and no further, to r1'.  A singular point of G off F = 0 adds
    at least 1 on its line, so its root is a root of r1' even when the
    line holds a point of a = F = 0, and a root of r2.  So gcd(r1', r2) = 1
    proves (i) with no assumption on the projection; a nontrivial gcd
    leaves the attempt to the next coordinate change.  Over GF(p) (i) is
    tried only for p > (2nm - 1)^2 >= 2nm, so p does not divide 2nm.

    Over Q, r1' and r2 are never formed: a, F and R are reduced modulo
    CERTIFICATE_PRIME at their formal degrees and the GF(p) route runs on
    the reductions, which can prove gcd(r1', r2) = 1 and nothing else
    (Brown's one-sided modular gcd, J. ACM 18, 1971):

    - the prime dividing a denominator (ZeroDivisionError), R = 0 modulo
      it, or an x2-leading coefficient vanishing modulo it (the
      ValueError of resultant_wrt_last) certifies nothing;
    - otherwise Res_x2 commutes with reduction, and R^(n-1) reduces to a
      nonzero form, so by Gauss's lemma over Z localized at the prime
      r1' has no denominator divisible by it, and r1 / R^(n-1) modulo the
      prime is the reduction of r1';
    - two binary forms coprime modulo the prime at their formal degrees
      have a homogeneous resultant that is nonzero modulo it, so nonzero
      over Q, and r1' and r2 are coprime over Q."""
    if a.field == QQ:
        try:
            a, F, R = map(_reduction, (a, F, R))
        except ZeroDivisionError:   # the prime divides a denominator
            return False
        if R.is_zero():
            return False
    G = a * a - F ** n
    parts = [G.partial(i) for i in range(3)]
    try:
        r1, r2 = resultant_wrt_last(parts[0], parts[1], parts[2])
        r1 = r1.exact_div(R ** (n - 1))
    except ValueError:          # (0:0:1) on a curve, or R^(n-1) does not divide r1
        return False
    if r1.is_zero() or r2.is_zero():
        return False
    return form_gcd(r1, r2).deg == 0


def _squarefree_mod_prime(R):
    """True when a binary form R over Q reduces modulo CERTIFICATE_PRIME,
    at its formal degree, to a squarefree form; False proves nothing.

    Soundness: the homogeneous discriminant of a binary form of degree d
    is an integer polynomial in its coefficients that vanishes exactly
    when the form has a repeated root in P^1, the point x1 = 0 included.
    If no denominator vanishes modulo the prime, it commutes with
    reduction, so a squarefree reduction at the formal degree (whose
    charts' degrees are far below the prime) proves a nonzero
    discriminant over Q.  A reduction may gain a factor x1 (its chart
    drops in degree); at the formal degree that is a root at x1 = 0 like
    any other, so no comparison of x1-multiplicities is needed."""
    try:
        return _reduction(R).is_squarefree()
    except ZeroDivisionError:   # the prime divides a denominator
        return False


def _reduction(h):
    """The form h over Q reduced modulo CERTIFICATE_PRIME at its formal
    degree; ZeroDivisionError when the prime divides a denominator."""
    return HForm(CERTIFICATE_FIELD, h.nvars, h.deg, h.terms)


def check_almost_simple(spec, seed=0):
    """Check the almost-simple hypotheses.

    With a constant twisting section (e = 0) this is exactly the simple
    check.  For e >= 1 on the plane the divisors A_0 and A_inf have
    positive degrees, so they always intersect and the disjointness
    requirement fails; the report says so with the Bezout count.
    """
    n = spec.n
    if spec.e == 0:
        c = spec.ainf.coeff((0, 0, 0))
        scale = spec.a0.field.inv(c)
        simple = SimpleCoverSpec(n, spec.base, spec.a0 * scale, spec.F)
        return check_simple(simple, seed=seed)
    R = None
    field = spec.F.field
    rng = random.Random(seed)
    for _ in range(ATTEMPTS):
        images = random_coordinate_change(field, rng)
        a0 = spec.a0.substitute(images)
        ainf = spec.ainf.substitute(images)
        try:
            R = resultant_wrt_last(a0, ainf)
        except ValueError:      # (0:0:1) on a curve, or too small a field
            continue
        break
    details = {"disjointnessRequired": True,
               "bezoutIntersection": spec.a0.deg * spec.e}
    if R is not None and R.is_zero():
        details["commonComponent"] = True
    # a binary form of positive degree always has projective roots, so
    # A0 and Ainf meet and condition (i) cannot hold on the plane
    return CheckReport("fail", "inconclusive", None, details, seed)


# -- branch divisor and invariants --------------------------------------


def branch_divisor(spec):
    """The branch polynomial, its degree, and for transversal simple
    plane covers the count of the points a = F = 0.

    Returns a dict with keys "polynomial", "degree", "pointCount"
    (simple) or "factors", "degree" (almost-simple).
    """
    if isinstance(spec, AlmostSimpleSpec):
        inner = spec.a0 * spec.a0 - (spec.ainf * spec.ainf) * spec.F ** spec.n
        poly = spec.ainf * inner
        return {"factors": [spec.ainf, inner], "polynomial": poly,
                "degree": poly.deg}
    n, m = spec.n, spec.base.m
    return {"degree": 2 * n * m, "pointCount": 2 * n * m * m,
            "polynomial": spec.F ** n - spec.a * spec.a}


class InvariantReport:
    """Numerical invariants of a simple cover of the plane."""

    def __init__(self, n, omega_degree, K2, chi, pushforward_degrees,
                 branch_degree, cusp_count, label):
        self.n = n
        self.omega_degree = omega_degree
        self.K2 = K2
        self.chi = chi
        self.pushforward_degrees = pushforward_degrees
        self.branch_degree = branch_degree
        self.cusp_count = cusp_count
        self.label = label

    def to_json(self):
        return {"n": self.n, "omegaDegree": self.omega_degree,
                "K2": self.K2, "chi": self.chi,
                "pushforwardDegrees": self.pushforward_degrees,
                "branchDegree": self.branch_degree,
                "cuspCount": self.cusp_count, "label": self.label}

    def __repr__(self):
        return ("InvariantReport(n=%d, chi=%s, K2=%s, label=%s)"
                % (self.n, self.chi, self.K2, self.label))


def invariants(n, base):
    """Closed-formula invariants of a simple cover of the plane,
    cross-checked by the Riemann-Roch sum over the pushforward summands."""
    if n < 2:
        raise ValueError("need n >= 2")
    m = base.m
    degs = pushforward_twists(n, m)
    # on the plane: chi(O_Y) = 1, K_Y^2 = 9, L.K_Y = -3m, L.L = m^2
    KL, L2 = -3 * m, m * m
    K2 = 2 * n * (9 + 2 * n * KL + n * n * L2)
    chi = 2 * n + Fraction(n * (2 * n * n + 1), 6) * L2 + Fraction(n * n, 2) * KL
    if chi.denominator != 1:
        raise ArithmeticError("non-integral Euler characteristic")
    chi = int(chi)
    # Riemann-Roch cross-check: chi(O(t)) = 1 + t(t + 3)/2 on the plane
    rr = sum(1 + Fraction(t * (t + 3), 2) for t in degs)
    if rr != chi:
        raise ArithmeticError("Euler characteristic mismatch: %s vs %s"
                              % (chi, rr))
    report = InvariantReport(n, n * m - 3, K2, chi, degs, 2 * n * m,
                             2 * n * m * m, None)
    report.label = classify(report)
    return report


def classify(report):
    """Coarse classification from the sign of the canonical pullback."""
    w = report.omega_degree
    if w == 0:
        return "K3" if report.chi == 2 else "other"
    if w < 0:
        return "del-Pezzo-like"
    return "general-type-minimal"


# -- normality over a hyperelliptic base --------------------------------


def normality_criterion(n, pair, components):
    """Normality test for a dihedral cover built over a hyperelliptic
    curve from a divisorial sheaf F1 and branch components D_k.

    ``components`` is a list of (k, MumfordClass) with 1 <= k < n; the
    classes must be pairwise without common support.  With kappa the
    gcd of n and the labels of the nonzero components, the cover is
    normal exactly when kappa = 1 or the class
    (n/kappa) F1 - sum (k/kappa) D_k has order kappa.
    """
    ks = []
    classes = []
    for k, c in components:
        if not 1 <= k < n:
            raise ValueError("component label out of range")
        if c.is_zero():
            continue
        ks.append(k)
        classes.append((k, c))
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            ui = classes[i][1].u
            uj = classes[j][1].u
            if poly_gcd(ui, uj).degree > 0:
                raise ValueError("branch components share support")
    kappa = n
    for k in ks:
        kappa = math.gcd(kappa, k)
    if kappa == 1:
        return True
    c = (n // kappa) * class_from_matrix(pair)
    for k, d in classes:
        c = c - (k // kappa) * d
    # order exactly kappa: kappa * c vanishes, no proper divisor's multiple does
    return (kappa * c).is_zero() and all(
        not (d * c).is_zero() for d in range(1, kappa) if kappa % d == 0)
