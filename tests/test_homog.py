import itertools
import random
from fractions import Fraction

import pytest

from dihedralcovers.fields import QQ, GF
from dihedralcovers.homog import HForm
from dihedralcovers.poly import Poly
from dihedralcovers.parsing import parse_form, format_univar, format_form

from conftest import parse_univar


def form(s, nvars=2, field=QQ):
    return parse_form(s, field, nvars)


def test_degree_is_part_of_the_data():
    z2 = HForm.zero(QQ, 2, 2)
    z3 = HForm.zero(QQ, 2, 3)
    assert z2 != z3
    with pytest.raises(ValueError):
        z2 + z3


def test_inhomogeneous_rejected():
    with pytest.raises(ValueError):
        HForm(QQ, 2, 2, {(1, 0): 1})
    with pytest.raises(ValueError):
        parse_form("x0^2 + x1", QQ, 2)


def test_arithmetic_and_evaluation():
    f = form("x0^2 - x1^2")
    g = form("x0 + x1")
    assert f == g * form("x0 - x1")
    assert (f * g).deg == 3
    two, three = QQ.of(2), QQ.of(3)
    assert f((two, three)) == QQ.of(-5)


def test_univar_roundtrip():
    f = form("x0^3 - 2*x0*x1^2")
    p = f.to_univar()
    assert HForm.from_univar(p, 3) == f
    assert f.x1_multiplicity() == 0
    assert form("x0^2*x1").x1_multiplicity() == 1


def test_exact_div():
    f = form("x0^4 - x1^4")
    g = form("x0^2 + x1^2")
    q = f.exact_div(g)
    assert q == form("x0^2 - x1^2")
    with pytest.raises(ValueError):
        f.exact_div(form("x0 + 2*x1"))


def test_squarefree():
    assert form("x0^2 - x1^2").is_squarefree()
    assert not form("x0^2 + 2*x0*x1 + x1^2").is_squarefree()
    assert not form("x0*x1^2").is_squarefree()


def test_partial_and_euler_relation():
    f = form("x0^3 + x1^3 + x2^3 - 3*x0*x1*x2", nvars=3)
    parts = [f.partial(i) for i in range(3)]
    x = [form(name, nvars=3) for name in ("x0", "x1", "x2")]
    euler = parts[0] * x[0] + parts[1] * x[1] + parts[2] * x[2]
    assert euler == f * 3


def test_substitute_linear_change():
    f = form("x0*x1")
    imgs = [form("x0 + x1"), form("x0 - x1")]
    assert f.substitute(imgs) == form("x0^2 - x1^2")


def test_substitute_onto_a_line_and_a_zero_image():
    K = GF(7)
    f = parse_form("x0^2 + 3*x1^2 + x0*x1", K, 2)
    zero = HForm.zero(K, 2, 1)
    x0 = parse_form("x0", K, 2)
    assert f.substitute([x0, zero]) == parse_form("x0^2", K, 2)
    assert f.substitute([zero, x0]) == parse_form("3*x0^2", K, 2)
    assert f.substitute([zero, zero]) == HForm.zero(K, 2, 2)
    # a ternary form restricted to the line x2 = x0 + x1
    g = form("x0*x2 - x1^2", nvars=3)
    line = [form("x0"), form("x1"), form("x0 + x1")]
    assert g.substitute(line) == form("x0^2 + x0*x1 - x1^2")


def power_substitute(f, images):
    """f at the images as a sum over its terms of products of the images'
    powers: the route ``HForm.substitute`` took before Horner's rule."""
    field = f.field
    one = HForm.const(field, images[0].nvars, field.one)
    powers = []
    for j, img in enumerate(images):
        pw = [one]
        for _ in range(max((e[j] for e in f.terms), default=0)):
            pw.append(pw[-1] * img)
        powers.append(pw)
    out = HForm.zero(field, images[0].nvars, f.deg * images[0].deg)
    for e, c in f.terms.items():
        term = one
        for pw, k in zip(powers, e):
            term = term * pw[k]
        out = out + term * c
    return out


def test_substitute_matches_the_power_route():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    from dihedralcovers.cover_geometry import random_coordinate_change

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(st.sampled_from((QQ, GF(7), GF(1009), GF(2 ** 61 - 1))), st.integers(2, 3),
               st.integers(0, 7), st.booleans(), st.integers(0, 2 ** 32))
    def run(K, nvars, deg, onto_a_line, seed):
        rng = random.Random(seed)
        def value():
            if K.characteristic:
                return K.of(rng.choice([0, 1, -1, rng.randrange(K.characteristic)]))
            return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))
        exps = [e for e in itertools.product(range(deg + 1), repeat=nvars) if sum(e) == deg]
        f = HForm(K, nvars, deg, {e: value() for e in exps})
        if onto_a_line:     # images in fewer variables, possibly zero
            images = [HForm(K, 2, 1, {(1, 0): value(), (0, 1): value()}) for _ in range(nvars)]
        elif nvars == 3:
            images = random_coordinate_change(K, rng)
        else:
            while True:
                m = [[value() for _ in range(2)] for _ in range(2)]
                if m[0][0] * m[1][1] - m[0][1] * m[1][0]:
                    break
            images = [HForm(K, 2, 1, {(1, 0): r[0], (0, 1): r[1]}) for r in m]
        got, want = f.substitute(images), power_substitute(f, images)
        assert got == want and repr(got) == repr(want)

    run()


def test_coeffs_in():
    f = form("x0^2*x2 + x1*x2^2 + x0^3", nvars=3)
    cs = f.coeffs_in(2)
    assert len(cs) == 4
    assert cs[0] == form("x0^3")
    assert cs[1] == form("x0^2")
    assert cs[2] == form("x1")
    assert cs[3].is_zero()


def test_parsing_rationals_and_format_stability():
    f = form("1/2*x0^2 - 3*x0*x1 + x1^2")
    s = format_form(f)
    assert parse_form(s, QQ, 2) == f
    assert format_form(parse_form(s, QQ, 2)) == s


def test_univar_parsing():
    p = parse_univar("x^3 - 2*x + 5/7", QQ)
    assert p.degree == 3
    s = format_univar(p)
    assert parse_univar(s, QQ) == p


def test_parse_errors_are_value_errors():
    # a "*" stands between two factors of one term, and only there
    for bad in ("x0^2 +", "x3", "x0 x1", "", "*", "x0^2*", "*x0", "3**x0", "x0^2 + * x1^2",
                "x0 * + x1", "x0*-x1"):
        with pytest.raises(ValueError):
            parse_form(bad, QQ, 2)


def test_finite_field_forms():
    K = GF(7)
    f = parse_form("x0^2 + 3*x1^2", K, 2)
    assert f((K.of(2), K.one)) == K.of(0)
    assert format_form(parse_form(format_form(f), K, 2)) == format_form(f)


def test_parse_inverts_format():
    # parse(format(f)) == f for random univariate polynomials and binary
    # and ternary forms, over Q (with fractions), GF(7) and GF(1009)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coeffs = st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 6)), max_size=16)

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(st.sampled_from((QQ, GF(7), GF(1009))), coeffs, coeffs,
               st.integers(2, 3), st.integers(0, 4))
    def run(K, pcs, fcs, nvars, deg):
        p = Poly(K, [K.of(Fraction(a, b)) for a, b in pcs])
        s = format_univar(p)
        assert parse_univar(s, K) == p and format_univar(parse_univar(s, K)) == s
        assert repr(p) == s
        exps = [e for e in itertools.product(range(deg + 1), repeat=nvars) if sum(e) == deg]
        f = HForm(K, nvars, deg, {e: K.of(Fraction(a, b)) for e, (a, b) in zip(exps, fcs)})
        s = format_form(f)
        assert repr(f) == s
        if f.is_zero():
            assert s == "0" and parse_form(s, K, nvars).is_zero()
        else:
            assert parse_form(s, K, nvars) == f and format_form(parse_form(s, K, nvars)) == s

    run()


def _spell_term(rng, c, exp, first):
    """One accepted spelling of the term c * x^exp, c = a/b with b > 0:
    a sign run, the coefficient whole, split or left out when 1, each
    power whole or split into repeated variables, x for x0, the factors
    in any order and whitespace and newlines between the pieces."""
    a, b = c.numerator, c.denominator
    space = lambda: rng.choice(["", "", " ", "  ", "\n", " \n "])
    minus = rng.choice([0, 2]) + (a < 0)
    signs = list("-" * minus + "+" * rng.randrange(3))
    rng.shuffle(signs)
    if not first and not signs:
        signs = ["+"]
    factors = rng.choice([["%d/%d" % (abs(a), b)], ["%d" % abs(a), "1/%d" % b],
                          ["%d/%d" % (2 * abs(a), 2 * b)]])
    if b == 1:
        factors = rng.choice([[str(abs(a))], factors] + [[], ["1", "1"]] * (abs(a) == 1))
    for i, k in enumerate(exp):
        names = ["x0", "x"] if i == 0 else ["x%d" % i]
        while k:
            j = rng.randint(1, k)
            caret = "%s^%s%d" % (space(), space(), j) if j > 1 or rng.random() < 0.2 else ""
            factors.append(rng.choice(names) + caret)
            k -= j
    if rng.random() < 0.2:
        factors.append("x%d^0" % rng.randrange(len(exp)))
    if not factors:
        factors = ["1"]
    rng.shuffle(factors)
    return space().join(signs) + space() + (space() + "*" + space()).join(factors)


def test_every_spelling_of_a_form_parses_to_it():
    # a form written term by term in random accepted spellings reads back
    # as the form; each string made malformed is refused
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coeff = st.tuples(st.integers(-40, 40), st.integers(1, 6))

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(st.sampled_from((QQ, GF(7), GF(1009))), st.integers(2, 3), st.integers(0, 4),
               st.lists(st.tuples(coeff, st.integers(0, 99)), min_size=1, max_size=8),
               st.integers(0, 2 ** 32))
    def run(K, nvars, deg, terms, seed):
        rng = random.Random(seed)
        exps = [e for e in itertools.product(range(deg + 1), repeat=nvars) if sum(e) == deg]
        acc, parts = {}, []
        for (a, b), k in terms:
            e = exps[k % len(exps)]
            acc[e] = acc.get(e, 0) + Fraction(a, b)
            parts.append(_spell_term(rng, Fraction(a, b), e, not parts))
        s = rng.choice(["", " ", "\n"]).join([""] + parts + [""])
        f = HForm(K, nvars, deg, {e: K.of(c) for e, c in acc.items()})
        got = parse_form(s, K, nvars)
        assert got == f, s
        if K is QQ:
            assert all(type(c) is int for c in got.terms.values() if c.denominator == 1)
        top = "x0^%d" % deg
        bad = ["*" + s, s + "*", s + " *\n", s.replace("*", "**", 1) if "*" in s else s + "**",
               s + " + 3 " + top, s + " + x0^", s + " - x3", s + " + u", s + " + 1/0*" + top,
               s + " + x0^%d" % (deg + 1), "", " \n "]
        if nvars == 2:
            bad.append(s + " + x2^%d" % deg)
        for t in bad:
            with pytest.raises(ValueError):
                parse_form(t, K, nvars)

    run()
