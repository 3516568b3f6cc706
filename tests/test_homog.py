import itertools
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
    for bad in ("x0^2 +", "x3", "x0 x1", ""):
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
        exps = [e for e in itertools.product(range(deg + 1), repeat=nvars) if sum(e) == deg]
        f = HForm(K, nvars, deg, {e: K.of(Fraction(a, b)) for e, (a, b) in zip(exps, fcs)})
        s = format_form(f)
        if f.is_zero():
            assert s == "0" and parse_form(s, K, nvars).is_zero()
        else:
            assert parse_form(s, K, nvars) == f and format_form(parse_form(s, K, nvars)) == s

    run()
