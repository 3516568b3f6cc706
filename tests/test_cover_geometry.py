import math
import random
import signal
from fractions import Fraction

import pytest

from dihedralcovers.fields import QQ, GF
from dihedralcovers.homog import HForm
from dihedralcovers.parsing import parse_form
from dihedralcovers import cover_geometry as cg, cli, linalg, poly
from dihedralcovers.poly import lagrange_interpolate
from dihedralcovers.hyperelliptic import (class_from_matrix, class_order,
                                          matrix_from_class, enumerate_two_torsion)

from conftest import (split_curve, random_class, watch_plain_values, ref_trim, ref_divmod,
                      ref_resultant)


P2 = cg.ProjectiveSpace(2, 1)


def fermat_spec():
    a = parse_form("x0^3 + x1^3 + x2^3", QQ, 3)
    F = parse_form("x0*x1 + x0*x2 + x1*x2", QQ, 3)
    return cg.SimpleCoverSpec(3, P2, a, F)


def test_spec_degree_validation():
    a = parse_form("x0^2", QQ, 3)
    F = parse_form("x0^2", QQ, 3)
    with pytest.raises(ValueError):
        cg.SimpleCoverSpec(3, P2, a, F)     # deg a should be 3
    for d, m in ((1, 1), (3, 1), (2, 0)):
        with pytest.raises(ValueError):
            cg.ProjectiveSpace(d, m)        # the plane only, m >= 1


def test_resultant_wrt_last():
    # res_x2 of (x0 - x2, x1 - x2) vanishes exactly on the diagonal
    f = parse_form("x0 - x2", QQ, 3)
    g = parse_form("x1 - x2", QQ, 3)
    r = cg.resultant_wrt_last(f, g)
    assert r == parse_form("x0 - x1", QQ, 2)
    # common factor makes it vanish identically
    h = parse_form("x0^2 - x2^2", QQ, 3)
    assert cg.resultant_wrt_last(f, h).is_zero()


def test_radical_divides():
    a = parse_form("x0^2 - x1^2", QQ, 2)
    b = parse_form("x0^3*x1 - x0*x1^3", QQ, 2)
    assert cg.radical_divides(a, b)
    assert not cg.radical_divides(b, a)
    sq = parse_form("x0^2 - 2*x0*x1 + x1^2", QQ, 2)
    lin = parse_form("x0 - x1", QQ, 2)
    assert cg.radical_divides(sq, lin)


def test_form_gcd():
    a = parse_form("x0^2*x1 - x0*x1^2", QQ, 2)
    b = parse_form("x0^2*x1^2", QQ, 2)
    g = cg.form_gcd(a, b)
    assert g.deg == 2
    assert cg.radical_divides(g, a) and cg.radical_divides(g, b)


def test_invariants_regression():
    cases = {(2, 1): (1, 4, "del-Pezzo-like"),
             (3, 1): (2, 0, "K3"),
             (4, 1): (6, 8, "general-type-minimal"),
             (5, 1): (15, 40, "general-type-minimal")}
    for (n, m), (chi, K2, label) in cases.items():
        r = cg.invariants(n, cg.ProjectiveSpace(2, m))
        assert (r.chi, r.K2, r.label) == (chi, K2, label), (n, m)
    # closed forms for m = 1
    for n in range(4, 9):
        r = cg.invariants(n, P2)
        assert r.K2 == 2 * n * (n - 3) ** 2
        assert r.chi == Fraction(n ** 3, 3) - Fraction(3 * n * n, 2) \
            + Fraction(13 * n, 6)


def test_invariants_chi_consistency_sweep():
    # the closed formula and the Riemann-Roch sum agree (checked
    # internally; a mismatch raises)
    for n in range(2, 9):
        for m in (1, 2, 3):
            r = cg.invariants(n, cg.ProjectiveSpace(2, m))
            assert len(r.pushforward_degrees) == 2 * n
            assert sum(r.pushforward_degrees) == -n * n * m


def test_omega_degree():
    assert cg.invariants(2, P2).omega_degree == -1
    assert cg.invariants(3, P2).omega_degree == 0
    assert cg.invariants(5, P2).omega_degree == 2


def test_check_simple_fermat():
    rep = cg.check_simple(fermat_spec(), seed=7)
    assert rep.condition_i == "pass"
    assert rep.condition_ii == "pass"
    assert rep.irreducible is True
    assert rep.details["branchDegree"] == 6
    assert rep.details["cuspCount"] == 6


def test_q_integer_forms_stay_ints(monkeypatch):
    """A Q check on integer forms builds no float, and runs its forms on
    ints: the substituted a and F, G = a^2 - F^n and its partials hold
    no Fraction.  The report is the one the Fraction forms gave."""
    built = watch_plain_values(monkeypatch, lambda v: type(v) in (int, Fraction))
    forms = []

    def kept(method):
        def run(f, *args):
            out = method(f, *args)
            forms.extend((f, out) if method is partial else (out,))
            return out
        return run

    substitute, partial = HForm.substitute, HForm.partial
    monkeypatch.setattr(HForm, "substitute", kept(substitute))
    monkeypatch.setattr(HForm, "partial", kept(partial))
    spec = cg.SimpleCoverSpec(2, P2, parse_form(
        "-3*x0^2 - 4*x0*x1 - 3*x0*x2 - 4*x1^2 + 9*x1*x2 + 3*x2^2", QQ, 3), parse_form(
        "5*x0^2 - 9*x0*x1 - 5*x1^2 - 7*x1*x2 - 4*x2^2", QQ, 3))
    assert cg.check_simple(spec, seed=3).to_json() == {
        "conditionI": "pass", "conditionII": "pass", "irreducible": True,
        "details": {"resultantDegree": 4, "intersectionNonempty": True,
                    "branchDegree": 4, "cuspCount": 4}, "seed": 3}
    assert built and len(forms) >= 2 + 2 * 3
    for f in forms:
        assert all(type(v) is int for v in f.terms.values()), f


def test_check_simple_common_component_fails():
    bad = cg.SimpleCoverSpec(3, P2, parse_form("x0^3", QQ, 3),
                             parse_form("x0^2", QQ, 3))
    rep = cg.check_simple(bad, seed=1)
    assert rep.condition_ii == "fail"
    assert rep.details.get("commonComponent")


def test_check_simple_randomized_instances():
    rng = random.Random(2026)
    for trial in range(3):
        a = _random_form(rng, 3)
        F = _random_form(rng, 2)
        spec = cg.SimpleCoverSpec(3, P2, a, F)
        rep = cg.check_simple(spec, seed=trial)
        assert rep.condition_i == "pass", trial


def _random_form(rng, deg):
    terms = {}
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            terms[(i, j, deg - i - j)] = QQ.of(rng.randint(-9, 9))
    return HForm(QQ, 3, deg, terms)


def test_branch_divisor():
    bd = cg.branch_divisor(fermat_spec())
    assert bd["degree"] == 6
    assert bd["pointCount"] == 6
    assert bd["polynomial"].deg == 6


def test_check_almost_simple():
    spec = fermat_spec()
    one = HForm.const(QQ, 3, 1)
    asp = cg.AlmostSimpleSpec(3, P2, spec.F, spec.a, one)
    rep = cg.check_almost_simple(asp, seed=7)
    assert rep.condition_i == "pass" and rep.condition_ii == "pass"
    # positive-degree twisting sections force an intersection
    asp1 = cg.AlmostSimpleSpec(3, P2, spec.F,
                               parse_form("x0^4", QQ, 3),
                               parse_form("x0", QQ, 3))
    rep1 = cg.check_almost_simple(asp1, seed=1)
    assert rep1.condition_i == "fail"
    bd = cg.branch_divisor(asp1)
    assert bd["degree"] == 1 + 2 * 4


def test_normality_criterion():
    curve = split_curve(7, 1)
    pairs = enumerate_two_torsion(curve)
    two = pairs[0]
    cls = class_from_matrix(two)
    assert class_order(cls) == 2
    triv = curve.trivial_pair()
    # any nonzero component with label 1 gives kappa = 1
    assert cg.normality_criterion(2, triv, [(1, cls)]) is True
    # etale double cover from an honest 2-torsion sheaf
    assert cg.normality_criterion(2, two, []) is True
    # the trivial sheaf gives a disconnected cover
    assert cg.normality_criterion(2, triv, []) is False


def test_normality_criterion_needs_no_class_order():
    # 2 F1 - D has order 15,372, past the 512 additions of class_order
    curve = split_curve(1009, 2)
    model = curve.odd_model()
    rng = random.Random(5)
    F1, D = random_class(model, 2, rng), random_class(model, 2, rng)
    assert cg.normality_criterion(4, matrix_from_class(curve, F1), [(2, D)]) is False
    # a trivial F1 and one two-torsion component: kappa = 2, class order 2
    two = class_from_matrix(enumerate_two_torsion(curve)[0])
    assert cg.normality_criterion(4, curve.trivial_pair(), [(2, two)]) is True


def test_normality_rejects_shared_support():
    curve = split_curve(7, 1)
    pairs = enumerate_two_torsion(curve)
    cls = class_from_matrix(pairs[0])
    with pytest.raises(ValueError):
        cg.normality_criterion(3, pairs[0], [(1, cls), (2, cls)])


# -- exact certificates without the mod-p point scan --------------------

# Transversal pairs with a common zero mod 101 where all Jacobian minors
# vanish: a tangency mod 101 proves nothing over Q, and GF(1009) has no
# map to GF(101), so (ii) must pass.
TRANSVERSAL_JOBS = [
    {"command": "check", "field": "Q", "n": 2, "m": 1, "seed": 40,
     "a": "-4*x0^2 + x0*x1 - 8*x0*x2 - 4*x1^2 - x1*x2 - 8*x2^2",
     "F": "-x0^2 - 7*x0*x1 - 6*x0*x2 - 7*x1^2 - 7*x1*x2 + 4*x2^2"},
    {"command": "check", "field": "Fp:1009", "n": 2, "m": 1, "seed": 245,
     "a": "240*x0^2 + 269*x0*x1 + 656*x0*x2 + 743*x1^2 + 564*x1*x2 + 289*x2^2",
     "F": "48*x0^2 + 491*x0*x1 + 739*x0*x2 + 283*x1^2 + 101*x1*x2 + 215*x2^2"},
]


@pytest.mark.parametrize("job", TRANSVERSAL_JOBS, ids=["Q", "Fp1009"])
def test_transversal_pairs_pass_both_conditions(job):
    report, code = cli.run_job(job)
    assert (report["conditionI"], report["conditionII"], code) == ("pass", "pass", 0)
    assert report["details"]["resultantDegree"] == 4


@pytest.mark.parametrize("field", [QQ, GF(1009)], ids=["Q", "Fp1009"])
def test_tangent_pair_never_passes_condition_ii(field):
    # the line x0 = 0 touches the conic x1^2 = x0 x2 at (0:0:1)
    a = parse_form("x0^2 + x0*x1 + x0*x2", field, 3)     # x0 (x0 + x1 + x2)
    F = parse_form("x1^2 - x0*x2", field, 3)
    spec = cg.SimpleCoverSpec(2, P2, a, F)
    for seed in range(8):
        assert cg.check_simple(spec, seed=seed).condition_ii != "pass", seed


def test_inconclusive_reduction_falls_back_to_the_exact_gcd(monkeypatch):
    job = TRANSVERSAL_JOBS[0]
    spec = cg.SimpleCoverSpec(2, P2, parse_form(job["a"], QQ, 3),
                              parse_form(job["F"], QQ, 3))
    want = cg.check_simple(spec, seed=40).to_json()
    coprime_tries = []          # (r1 / R^k, r2, verdict of the reduction)
    gcd_fields = []
    certify = cg._trivial_gcd_mod_prime
    form_gcd = cg.form_gcd

    def spy_certify(test, *forms):
        ok = certify(test, *forms)
        if len(forms) == 2:
            coprime_tries.append((*forms, ok))
        return ok

    def spy_gcd(f, g):
        gcd_fields.append(f.field)
        return form_gcd(f, g)

    monkeypatch.setattr(cg, "_trivial_gcd_mod_prime", spy_certify)
    monkeypatch.setattr(cg, "form_gcd", spy_gcd)
    assert cg.check_simple(spec, seed=40).to_json() == want
    assert coprime_tries[-1][2] and QQ not in gcd_fields    # the reduction decided
    # a prime dividing the leading coefficient of r1 / R^k drops its degree
    lead = coprime_tries[-1][0].to_univar().lead().numerator
    prime = next(q for q in range(3, 10 ** 4, 2)
                 if lead % q == 0 and all(q % d for d in range(3, q, 2)))
    monkeypatch.setattr(cg, "CERTIFICATE_PRIME", prime)
    coprime_tries.clear()
    assert cg.check_simple(spec, seed=40).to_json() == want
    assert coprime_tries and not any(ok for _, _, ok in coprime_tries)
    assert QQ in gcd_fields                                 # the exact path decided


def _singular_at_origin_pair(rng):
    """Two quartics with a = F = 1 at (0:0:1) and equal gradients there,
    so a^2 - F^2 is singular at a point off F = 0."""
    shared = {(1, 0, 3): rng.randint(-9, 9), (0, 1, 3): rng.randint(-9, 9), (0, 0, 4): 1}

    def form():
        terms = dict(shared)
        for i in range(5):
            for j in range(5 - i):
                if i + j >= 2:
                    terms[(i, j, 4 - i - j)] = rng.randint(-9, 9)
        return HForm(QQ, 3, 4, terms)
    return form(), form()


def test_singular_pair_gets_a_verdict_from_the_exact_gcd(monkeypatch):
    # the modular step cannot prove gcd(r1', r2) = 1 here, since a common
    # root off R really exists, so the exact gcd over Q decides; on
    # Fractions it gave no verdict within a minute even on one attempt
    a, F = _singular_at_origin_pair(random.Random(1))
    G = a * a - F * F
    assert F((0, 0, 1)) == 1
    assert all(h((0, 0, 1)) == 0 for h in [G] + [G.partial(i) for i in range(3)])
    spec = cg.SimpleCoverSpec(2, cg.ProjectiveSpace(2, 2), a, F)
    monkeypatch.setattr(cg, "ATTEMPTS", 1)

    def give_up(signum, frame):
        raise TimeoutError("no verdict within 60 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(60)
    try:
        report = cg.check_simple(spec, seed=0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (report.condition_i, report.condition_ii) == ("inconclusive", "pass")
    assert report.details["resultantDegree"] == 16


def _rational_form(rng, deg):
    terms = {(i, j, deg - i - j): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
             for i in range(deg + 1) for j in range(deg + 1 - i)}
    terms[(0, 0, deg)] = Fraction(rng.randint(1, 9), rng.randint(1, 6))   # full x2-degree
    return HForm(QQ, 3, deg, terms)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_resultant_wrt_last_over_q_reduces_to_the_large_prime_one(n, m):
    # the reduction mod p of Res_x2(f, g) over Q is Res_x2 of the reduced
    # forms over GF(p), when p divides no denominator and no x2-lead
    K = GF(cg.CERTIFICATE_PRIME)
    rng = random.Random(100 * n + m)
    for _ in range(2):
        f, g = _rational_form(rng, n * m), _rational_form(rng, 2 * m)
        R = cg.resultant_wrt_last(f, g)
        assert R.deg == f.deg * g.deg and not R.is_zero()
        reduced = cg.resultant_wrt_last(HForm(K, 3, f.deg, f.terms), HForm(K, 3, g.deg, g.terms))
        assert HForm(K, 2, R.deg, R.terms) == reduced


# -- prime fields too small for the interpolation -----------------------


def _check_job(field, n, m, seed):
    rng = random.Random(seed)
    K = GF(int(field[3:]))

    def form(deg):
        return " + ".join("%d*x0^%d*x1^%d*x2^%d" % (rng.randrange(K.p), i, j, deg - i - j)
                          for i in range(deg + 1) for j in range(deg + 1 - i))

    return {"command": "check", "field": field, "n": n, "m": m,
            "a": form(n * m), "F": form(2 * m), "seed": seed}


@pytest.mark.parametrize("field,n,m", [("Fp:101", 3, 2), ("Fp:31", 2, 2)])
def test_small_field_leaves_condition_i_inconclusive(field, n, m, monkeypatch):
    # Res(a, F) needs 2nm^2 + 1 points, which fit; the resultants of the
    # partials of a^2 - F^n need (2nm - 1)^2 + 1 > p, so none is tried,
    # and the first attempt that passes (ii) is the last
    shapes = []
    resultant = cg.resultant_wrt_last

    def spy(f, g):
        shapes.append((f.deg, g.deg))
        return resultant(f, g)

    monkeypatch.setattr(cg, "resultant_wrt_last", spy)
    report, code = cli.run_job(_check_job(field, n, m, seed=3))
    assert (report["conditionI"], report["conditionII"], code) == ("inconclusive", "pass", 0)
    assert report["details"]["resultantDegree"] == 2 * n * m * m
    assert shapes == [(n * m, 2 * m)]


def test_field_smaller_than_the_resultant_degree(monkeypatch):
    """Over GF(3) R = Res(a, F) needs 2nm^2 + 1 = 5 points, so no attempt
    can decide anything: none is made, and the report is the one five
    failed attempts gave."""
    K = GF(3)
    f = parse_form("x0^2 + x1^2 + x2^2", K, 3)
    g = parse_form("x0*x1 + x2^2", K, 3)
    with pytest.raises(ValueError, match="needs 5 distinct points"):
        cg.resultant_wrt_last(f, g)
    calls = []

    def refuse(name):
        def call(*args):
            calls.append(name)
            raise AssertionError(name)
        return call

    monkeypatch.setattr(cg, "resultant_wrt_last", refuse("resultant_wrt_last"))
    monkeypatch.setattr(HForm, "substitute", refuse("substitute"))
    report, code = cli.run_job({"command": "check", "field": "Fp:3", "n": 2, "m": 1,
                                "a": "x0^2 + x1^2 + x2^2", "F": "x0*x1 + x2^2"})
    assert calls == []
    assert code == 0
    assert report == {"command": "check", "seed": 0, "conditionI": "inconclusive",
                      "conditionII": "inconclusive", "irreducible": None,
                      "details": {"branchDegree": 4, "cuspCount": None}}


def test_coordinate_change_is_invertible_over_the_field():
    # a determinant divisible by 5 would collapse the plane onto a line
    # and make this transversal pair look like a common component
    report, code = cli.run_job({"command": "check", "field": "Fp:5", "n": 2, "m": 1,
                                "a": "4*x2^2 + 2*x1*x2 + x1^2 + x0*x2 + 4*x0*x1 + 2*x0^2",
                                "F": "4*x2^2 + 4*x1*x2 + 3*x1^2 + 4*x0*x2 + 3*x0*x1 + x0^2",
                                "seed": 659})
    assert (report["conditionII"], code) == ("pass", 0)
    K = GF(5)
    rng = random.Random(0)
    for _ in range(50):
        images = cg.random_coordinate_change(K, rng)
        rows = [[img.coeff(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] for img in images]
        assert linalg.rank(rows) == 3


# -- the lane route against one boxed remainder sequence per node --------


def node_pairs(f, g):
    """(nodes, pairs): the nodes x0 = 0, 1, ..., deg f deg g of
    ``resultant_wrt_last`` (x1 = 1), and at each the x2-charts of f and g
    evaluated there, as lists of field elements."""
    K = f.field
    xs = [K.of(x) for x in range(f.deg * g.deg + 1)]
    charts = [[c.to_univar() for c in h.coeffs_in(2)] for h in (f, g)]
    return xs, [[ref_trim([c(x) for c in cs]) for cs in charts] for x in xs]


def per_node_resultant_wrt_last(f, g):
    """Res_x2(f, g) from the boxed Euclid of ``ref_resultant`` at each
    node, then interpolation: code the lanes do not share."""
    xs, pairs = node_pairs(f, g)
    ys = [ref_resultant(f.field, a, b) for a, b in pairs]
    return HForm.from_univar(lagrange_interpolate(f.field, list(zip(xs, ys))), f.deg * g.deg)


def ref_remainders(K, a, b):
    """The boxed Euclidean remainder sequence b, a mod b, ... down to its
    last nonzero member."""
    seq = [b]
    while True:
        r = ref_divmod(K, a, seq[-1])[1]
        if not r:
            return seq
        a = seq[-1]
        seq.append(r)


def check_lanes(K, pairs):
    """``resultant_lanes_c`` on the pairs of element lists, over Q on
    ints, against the boxed sequences: each lane's resultant, and its last
    remainder, a gcd of its pair, up to a scalar.  Returns the remainder
    degrees of each lane's sequence."""
    def plain(x):
        v = K.unbox(x)
        assert Fraction(v).denominator == 1
        return int(v)

    lanes = [[[plain(c[i]) for c in col] for i in range(len(col[0]))] for col in zip(*pairs)]
    res, rems = poly.resultant_lanes_c(*lanes, K.characteristic)
    degrees = []
    for (a, b), got, rem in zip(pairs, res, rems):
        assert K.of(got) == ref_resultant(K, a, b)
        seq = ref_remainders(K, a, b) if len(a) >= len(b) else ref_remainders(K, b, a)
        last = seq[-1]
        assert [K.of(v) / K.of(rem[-1]) for v in rem] == [v / last[-1] for v in last]
        degrees.append([len(r) - 1 for r in seq])
    return degrees


def integral(h):
    """h times the lcm of its denominators (h itself over GF(p))."""
    if h.field.characteristic:
        return h
    return h * math.lcm(*[Fraction(v).denominator for v in h.terms.values()])


LANE_FIELDS = [QQ, GF(101), GF(1009), GF(cg.CERTIFICATE_PRIME)]
LANE_IDS = ["Q", "Fp101", "Fp1009", "Fp2^61-1"]


def _lane_form(K, rng, deg):
    """A dense ternary form with a nonzero x2^deg coefficient; over Q
    with denominators."""
    def value():
        if K.characteristic:
            return rng.randrange(K.characteristic)
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))
    terms = {(i, j, deg - i - j): value() for i in range(deg + 1) for j in range(deg + 1 - i)}
    terms[(0, 0, deg)] = 1 + rng.randrange(5)
    return HForm(K, 3, deg, terms)


@pytest.mark.parametrize("K", LANE_FIELDS, ids=LANE_IDS)
def test_lanes_match_the_per_node_resultants(K):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    # forms of equal and of unequal x2-degree, in either order
    @hyp.settings(max_examples=25, deadline=None)
    @hyp.given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 32))
    def run(df, dg, seed):
        rng = random.Random(seed)
        f, g = _lane_form(K, rng, df), _lane_form(K, rng, dg)
        assert cg.resultant_wrt_last(f, g) == per_node_resultant_wrt_last(f, g)

    run()


@pytest.mark.parametrize("K", LANE_FIELDS, ids=LANE_IDS)
def test_a_shared_component_takes_every_lane_out(K):
    rng = random.Random(5)
    line = parse_form("x0 - 2*x1 + x2", K, 3)
    f, g = integral(line * _lane_form(K, rng, 3)), integral(line * _lane_form(K, rng, 1))
    R = cg.resultant_wrt_last(f, g)
    assert R.is_zero() and R.deg == 8
    assert per_node_resultant_wrt_last(f, g).is_zero()
    # every lane ends on a zero remainder: its divisor, the line's chart
    # x2 + x0 - 2, is the last remainder
    assert all(d[-1] == 1 for d in check_lanes(K, node_pairs(f, g)[1]))


@pytest.mark.parametrize("K", LANE_FIELDS, ids=LANE_IDS)
def test_a_lane_whose_remainder_drops_two_degrees(K):
    # at x0 = 2 (x1 = 1): f = x2^3 + x2 + 8 and g = x2^2 + 1, so f mod g
    # is the constant 8; at x0 = t the x2-coefficient of f mod g is (t - 2)^2
    f = parse_form("x2^3 + x1^2*x2 + x0^3", K, 3)
    g = parse_form("x2^2 + x0*x2 - 2*x1*x2 + x1^2", K, 3)
    for f, g in ((f, g), (g, f)):
        assert cg.resultant_wrt_last(f, g) == per_node_resultant_wrt_last(f, g)
        degrees = check_lanes(K, node_pairs(f, g)[1])
        assert degrees[2] == [2, 0]
        assert all(d[:2] == [2, 1] for x, d in enumerate(degrees) if x != 2)


@pytest.mark.parametrize("K", [QQ, GF(101)], ids=["Q", "Fp101"])
def test_lanes_regroup_when_remainders_fall_to_lower_degrees(K):
    """Sparse small coefficients make remainders fall by more than one
    degree, in different lanes to different degrees.  In this seeded set
    one step of a group sends its lanes to two different degrees, both
    below the next one down, and one lane falls short twice; each lane
    still gets its own resultant and gcd."""
    rng = random.Random(41)

    def lane_poly(deg):
        return [K.of(rng.choice((0, 0, 0, 1, -1, 2))) for _ in range(deg)] + [K.of(1 + rng.randrange(3))]

    degrees = check_lanes(K, [(lane_poly(6), lane_poly(5)) for _ in range(60)])
    # by the degree sequence so far (the group), the degrees of the next
    # remainder that fall short of the one below the divisor
    short = {}
    for d in degrees:
        for i in range(1, len(d)):
            if 0 <= d[i] < d[i - 1] - 1:
                short.setdefault(tuple(d[:i]), set()).add(d[i])
    assert any(len(v) > 1 for v in short.values())
    assert any(sum(0 <= d[i] < d[i - 1] - 1 for i in range(1, len(d))) > 1 for d in degrees)
