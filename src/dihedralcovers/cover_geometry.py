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
1.6), so that alone proves transversality.  Condition (i) is tested by
projecting the singular scheme of a^2 - F^n with resultants of the
partial derivatives and certifying that every candidate lies over a
root of R.  Over Q both gcd tests first run modulo a large prime: a
reduction that keeps the degrees and has gcd 1 proves gcd 1 over Q
(Brown's one-sided modular gcd); only an inconclusive one falls back to
the exact gcd, a subresultant sequence on integers.  Over Q a form's
coefficients are ints wherever integral (see :mod:`poly`), so on
integer input the coordinate change, a^2 - F^n and its partials run on
ints; a resultant clears any remaining denominators once, and runs one
remainder sequence for all its interpolation nodes.  Verdicts are
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
from .poly import plain_poly, powmod_c, poly_gcd, resultant_lanes_c, interpolate_c
from .homog import HForm, form_gcd
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


def resultant_wrt_last(f, g):
    """Resultant of two ternary forms with respect to x2, as a binary
    form in (x0, x1) of degree deg(f)*deg(g).

    Requires both forms to have full degree in x2 (their x2-leading
    coefficients are nonzero scalars), which a generic linear change of
    coordinates guarantees; computed by specializing x1 = 1 at the
    deg(f)*deg(g) + 1 values x0 = 0, 1, 2, ... and interpolating, so a
    prime field with fewer elements raises ValueError.  Each x2-chart is
    evaluated at all nodes in one Horner pass, and the nodes are the
    lanes of one remainder sequence (``poly.resultant_lanes_c``), which
    regroups them where their remainders fall to different degrees.
    """
    cf = [c.to_univar().c for c in f.coeffs_in(2)]
    cg = [c.to_univar().c for c in g.coeffs_in(2)]
    if not cf[-1] or not cg[-1]:
        raise ValueError("forms must have full degree in x2")
    field, D = f.field, f.deg * g.deg
    p = field.characteristic
    if p and D + 1 > p:
        raise ValueError("resultant_wrt_last needs %d distinct points, GF(%d) has %d"
                         % (D + 1, p, p))
    scale = 1
    if not p:
        # Res(lam f, mu g) = lam^(deg g) mu^(deg f) Res(f, g): with the
        # denominators cleared, the charts are evaluated on ints
        lam, cf = _clear_denominators(cf)
        mu, cg = _clear_denominators(cg)
        scale = lam ** g.deg * mu ** f.deg
    xs = range(D + 1)
    lanes = []
    for c in cf + cg:
        v = [0] * (D + 1)
        for a in reversed(c):
            v = [y * x + a for y, x in zip(v, xs)]
        lanes.append([y % p for y in v] if p else v)
    R = plain_poly(field, interpolate_c(
        xs, resultant_lanes_c(lanes[:len(cf)], lanes[len(cf):], p)[0], p))
    if scale != 1:
        R = R * Fraction(1, scale)
    return HForm.from_univar(R, D)


def _clear_denominators(charts):
    """(lam, lam * charts on ints) for lam the lcm of all denominators."""
    lam = math.lcm(*[v.denominator for c in charts for v in c])
    return lam, [[v.numerator * (lam // v.denominator) for v in c] for c in charts]


def radical_divides(h, r):
    """True when every projective root of the binary form h is a root
    of the binary form r (with any multiplicity)."""
    if h.is_zero():
        raise ValueError("zero form has every root")
    if h.deg == 0:
        return True
    if r.is_zero():
        return True
    if h.x1_multiplicity() >= 1 and r.x1_multiplicity() < 1:
        return False
    hu = h.to_univar()
    if hu.degree <= 0:
        return True
    ru = r.to_univar()
    return not powmod_c(ru.c, hu.degree, hu.c, h.field.characteristic)


def random_coordinate_change(field, rng):
    """A linear substitution with small integer entries, invertible over
    the field: a determinant divisible by p would collapse the plane
    onto a line and fake a common component."""
    while True:
        rows = [[rng.randint(-10, 10) for _ in range(3)] for _ in range(3)]
        det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
               - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
               + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
        if field.of(det):
            break
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return [HForm(field, 3, 1, dict(zip(units, row))) for row in rows]


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
    component ("fail").  (i) passes when the singular points of
    a^2 - F^n project into the roots of R (see _singular_containment).
    An attempt whose resultant needs more points than a small prime field
    has certifies nothing; ATTEMPTS of them without a certificate yield
    "inconclusive".  R needs 2nm^2 + 1 points: a smaller field gets no
    attempt.  The resultants behind (i) need (2nm - 1)^2 + 1 points: over
    a smaller prime field (i) is not tried, and (ii) ends the attempts.
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
        if cond_ii != "pass" and (_trivial_gcd_mod_prime(HForm.is_squarefree, R)
                                  or R.is_squarefree()):
            cond_ii = "pass"
            details["resultantDegree"] = R.deg
        if decide_i and cond_i != "pass":
            verdict = _singular_containment(a, F, R, n)
            if verdict is not None:
                cond_i = verdict
        if cond_ii == "pass" and (cond_i == "pass" or not decide_i):
            break
    irreducible = None
    if cond_ii == "pass":
        # two plane curves of positive degree always meet
        irreducible = True
        details["intersectionNonempty"] = True
    details["branchDegree"] = 2 * n * m
    details["cuspCount"] = 2 * n * m * m if cond_ii == "pass" else None
    return CheckReport(cond_i, cond_ii, irreducible, details, seed)


CERTIFICATE_PRIME = 2 ** 61 - 1     # below the bound to which GF certifies primes


def _singular_containment(a, F, R, n):
    """Certify that the singular scheme of G = a^2 - F^n lies over the
    common zeros of a and F: every common root of r1 = Res_x2(G_0, G_1)
    and r2 = Res_x2(G_0, G_2) is a root of R.  Returns "pass" or None.

    With r1 = R^k r1' and R not dividing r1', a common root of r1 and r2
    off R is a root of r1', so gcd(r1', r2) = 1 proves the containment,
    and in general it holds iff every root of gcd(r1', r2) is one of R.
    Over Q the gcd is first tried modulo a prime, which can only prove
    it trivial; the exact gcd runs when that is inconclusive."""
    G = a * a - F ** n
    parts = [G.partial(i) for i in range(3)]
    try:
        r1 = resultant_wrt_last(parts[0], parts[1])
        r2 = resultant_wrt_last(parts[0], parts[2])
    except ValueError:          # (0:0:1) on a curve, or too small a field
        return None
    if r1.is_zero() or r2.is_zero():
        return None
    while r1.deg >= R.deg:
        try:
            r1 = r1.exact_div(R)
        except ValueError:
            break
    if _trivial_gcd_mod_prime(lambda f, g: form_gcd(f, g).deg == 0, r1, r2):
        return "pass"
    return "pass" if radical_divides(form_gcd(r1, r2), R) else None


def _trivial_gcd_mod_prime(test, *forms):
    """True when ``test``, that a gcd is trivial (coprimality, or
    HForm.is_squarefree: gcd(f, f') = 1), holds for the reductions of
    binary forms over Q modulo CERTIFICATE_PRIME.  False proves nothing.

    Soundness, the one-sided modular gcd (Brown, J. ACM 18, 1971): if no
    denominator vanishes and each form keeps its x1-multiplicity (its
    degree minus that of its chart f(x, 1)), the charts keep their
    degrees, and so do their derivatives (of degree far below the
    prime).  A common factor over Q, made primitive in Z[x] (Gauss's
    lemma), reduces to a common factor of equal degree, and a common
    power of x1 stays common.  So a trivial gcd modulo the prime proves
    a trivial gcd over Q.  It stays in front of the exact gcd because
    it is far cheaper whenever it decides."""
    if forms[0].field != QQ:
        return False
    K = GF(CERTIFICATE_PRIME)
    reduced = []
    for form in forms:
        try:
            fp = HForm(K, 2, form.deg, form.terms)
        except ZeroDivisionError:   # the prime divides a denominator
            return False
        if fp.x1_multiplicity() != form.x1_multiplicity():
            return False
        reduced.append(fp)
    return test(*reduced)


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
