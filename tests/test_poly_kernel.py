"""The coefficient-list routines of ``poly`` against the boxed loops.

The reference below (with ``ref_trim``, ``ref_divmod`` and
``ref_resultant`` of conftest.py) is the arithmetic ``Poly`` ran before
it stored plain values: schoolbook loops on lists of field elements
(``FpElem`` or ``Fraction``), one field operation at a time.  Every
routine of the list kernel must give the same coefficients over GF(3),
GF(5), GF(1009), GF(2^61 - 1) and Q.
"""

import math
import random
from fractions import Fraction

import pytest

from dihedralcovers import poly
from dihedralcovers.fields import GF, QQ
from dihedralcovers.poly import (Poly, plain_poly, add_c, sub_c, mul_c, divmod_c, gcd_c,
                                 xgcd_c, cofactor_c, monic_c, scale_c, resultant_lanes_c,
                                 eval_c, interpolate_c, powmod_c, poly_gcd, poly_xgcd,
                                 resultant, lagrange_interpolate)

from conftest import ref_trim, ref_divmod, ref_resultant, ref_interpolate

FIELDS = [GF(3), GF(5), GF(1009), GF(2 ** 61 - 1), QQ]


# -- the reference: boxed loops on lists of field elements ---------------


def ref_add(K, a, b):
    n = max(len(a), len(b))
    get = lambda c, i: c[i] if i < len(c) else K.zero   # noqa: E731
    return ref_trim([get(a, i) + get(b, i) for i in range(n)])


def ref_sub(K, a, b):
    return ref_add(K, a, [-x for x in b])


def ref_mul(K, a, b):
    if not a or not b:
        return []
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return ref_trim(out)


def ref_monic(K, a):
    if not a:
        return a
    inv = K.inv(a[-1])
    return [x * inv for x in a]


def ref_gcd(K, a, b):
    while b:
        a, b = b, ref_divmod(K, a, b)[1]
    return ref_monic(K, a)


def ref_xgcd(K, a, b):
    r0, r1 = a, b
    s0, s1 = [K.one], []
    t0, t1 = [], [K.one]
    while r1:
        q, r = ref_divmod(K, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, ref_sub(K, s0, ref_mul(K, q, s1))
        t0, t1 = t1, ref_sub(K, t0, ref_mul(K, q, t1))
    if not r0:
        return r0, s0, t0
    inv = K.inv(r0[-1])
    return tuple(ref_trim([x * inv for x in c]) for c in (r0, s0, t0))


def ref_eval(K, a, x):
    r = K.zero
    for c in reversed(a):
        r = r * x + c
    return r


def ref_pow(K, a, e):
    r = [K.one]
    for _ in range(e):
        r = ref_mul(K, r, a)
    return r


# -- strategies -----------------------------------------------------------


def plain(K, c):
    """Field elements -> the plain values the kernel runs on.  Over Q an
    integral value comes as an int at even positions and as a Fraction
    at odd ones, so every routine also sees both forms of an integer."""
    c = [K.unbox(x) for x in c]
    if not K.characteristic:
        c = [Fraction(v) if i % 2 else v for i, v in enumerate(c)]
    return c


def assert_plain(K, c):
    """c is trimmed, and made of ints in range(p) over GF(p); over Q of
    ints and of Fractions with a denominator (never a float, never an
    integral Fraction)."""
    assert not c or c[-1]
    p = K.characteristic
    if p:
        assert all(type(v) is int and 0 <= v < p for v in c)
    else:
        assert all(type(v) is int or type(v) is Fraction and v.denominator > 1 for v in c)


def embed(K, v):
    """The int or Fraction v as an element of K; over GF(p) a Fraction
    keeps only its numerator, so no denominator can vanish mod p."""
    if K.characteristic and isinstance(v, Fraction):
        v = v.numerator
    return K.of(v)


def with_polys(count, max_len=8):
    """Run the decorated check(K, *polys) on ``count`` random coefficient
    lists of field elements, over each field of FIELDS."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    # small values give many zero and cancelling coefficients and leading
    # zeros to trim; large ones wrap around every p; over Q, non-integral
    # Fractions make the kernel clear denominators
    values = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70),
                       st.fractions(-5, 5, max_denominator=12),
                       st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
                                 st.integers(1, 2 ** 40)))
    lists = st.tuples(*[st.lists(values, max_size=max_len) for _ in range(count)])

    def wrap(check):
        @hyp.settings(max_examples=150, deadline=None)
        @hyp.given(st.sampled_from(range(len(FIELDS))), lists)
        def run(fi, polys):
            K = FIELDS[fi]
            check(K, *[ref_trim([embed(K, v) for v in c]) for c in polys])
        return run
    return wrap


def test_add_sub_mul_match_the_boxed_loops():
    @with_polys(2)
    def run(K, a, b):
        p = K.characteristic
        for got, want in ((add_c(plain(K, a), plain(K, b), p), ref_add(K, a, b)),
                          (sub_c(plain(K, a), plain(K, b), p), ref_sub(K, a, b)),
                          (mul_c(plain(K, a), plain(K, b), p), ref_mul(K, a, b))):
            assert_plain(K, got)
            assert got == plain(K, want)
        assert (Poly(K, a) * Poly(K, b)).c == plain(K, ref_mul(K, a, b))
    run()


def test_divmod_matches_the_boxed_loop():
    @with_polys(2)
    def run(K, a, b):
        if not b:
            with pytest.raises(ZeroDivisionError):
                divmod(Poly(K, a), Poly(K, b))
            return
        q, r = divmod_c(plain(K, a), plain(K, b), K.characteristic)
        wq, wr = ref_divmod(K, a, b)
        assert_plain(K, q)
        assert_plain(K, r)
        assert (q, r) == (plain(K, wq), plain(K, wr))
    run()


def test_q_division_gives_ints_where_integral():
    q, r = divmod_c([2, 4, 6], [1, 2], 0)
    assert (q, r) == ([Fraction(1, 2), 3], [Fraction(3, 2)])
    assert [type(v) for v in q] == [Fraction, int]
    results = [monic_c([2, 4], 0), scale_c([Fraction(1, 2), Fraction(3, 2)], 2, 0),
               *xgcd_c([-1, 0, 1], [1, 1], 0), cofactor_c([-1, 0, 1], [1, 1], [1, 1], [], 0),
               *divmod_c([Fraction(3, 2), 3], [3], 0)]
    assert results == [[Fraction(1, 2), 1], [1, 3], [1, 1], [], [1], [Fraction(1, 2), 1], []]
    for c in results:
        assert_plain(QQ, c)


def test_exact_division_matches_the_boxed_loop():
    @with_polys(2)
    def run(K, a, b):
        if not b:
            return
        A, B = Poly(K, a), Poly(K, b)
        assert (A * B).exact_div(B).c == plain(K, a)
        wq, wr = ref_divmod(K, a, b)
        if wr:
            with pytest.raises(ValueError, match="inexact"):
                A.exact_div(B)
        else:
            got = A.exact_div(B).c
            assert_plain(K, got)
            assert got == plain(K, wq)
    run()


def one_lane(K, a, b):
    """(Res(a, b), last nonzero remainder) of the nonzero plain lists a and
    b from one lane of ``resultant_lanes_c``, the resultant as a field
    element.  Over Q the lists are scaled to ints first, and
    Res(m a, n b) = m^(deg b) n^(deg a) Res(a, b)."""
    p, scale = K.characteristic, 1
    if not p:
        m, n = (math.lcm(*[Fraction(v).denominator for v in c]) for c in (a, b))
        scale = m ** (len(b) - 1) * n ** (len(a) - 1)
        a, b = [int(v * m) for v in a], [int(v * n) for v in b]
    res, rems = resultant_lanes_c([[v] for v in a], [[v] for v in b], p)
    return K.of(res[0]) / K.of(scale), rems[0]


def check_gcd_and_resultant(K, a, b):
    """gcd_c, poly.resultant and one lane against the boxed loops."""
    p = K.characteristic
    A, B = plain(K, a), plain(K, b)
    g = gcd_c(A, B, p)
    assert_plain(K, g)
    assert g == plain(K, ref_gcd(K, a, b)) == poly_gcd(Poly(K, a), Poly(K, b)).c
    want = ref_resultant(K, a, b)
    got = resultant(Poly(K, a), Poly(K, b))
    assert got == want and type(got) is type(want)
    if a and b:
        res, rem = one_lane(K, A, B)
        assert res == want
        # the lane's last remainder is a gcd, a constant when Res != 0
        assert monic_c(rem, p) == g if not want else len(rem) == 1


def test_gcd_xgcd_resultant_match_the_boxed_loops():
    @with_polys(2)
    def run(K, a, b):
        p = K.characteristic
        A, B = plain(K, a), plain(K, b)
        check_gcd_and_resultant(K, a, b)
        want = [plain(K, c) for c in ref_xgcd(K, a, b)]
        g, s = xgcd_c(A, B, p)
        t = cofactor_c(A, B, g, s, p)
        for c in (g, s, t):
            assert_plain(K, c)
        assert [g, s, t] == want
        assert [f.c for f in poly_xgcd(Poly(K, a), Poly(K, b))] == want
    run()


@pytest.mark.parametrize("K", FIELDS, ids=str)
def test_xgcd_of_zero_operands(K):
    p, f = K.characteristic, [K.of(2), K.one]
    for a, b in (([], []), (f, []), ([], f)):
        want = [plain(K, c) for c in ref_xgcd(K, a, b)]
        g, s = xgcd_c(plain(K, a), plain(K, b), p)
        assert [g, s, cofactor_c(plain(K, a), plain(K, b), g, s, p)] == want
        assert [c.c for c in poly_xgcd(Poly(K, a), Poly(K, b))] == want
    assert xgcd_c([], [], p) == ([], [1]) and want[1:] == [[], [1]]


def test_common_factor_gives_gcd_and_zero_resultant():
    @with_polys(3, max_len=5)
    def run(K, a, b, h):
        if not h or len(h) < 2:
            return
        p = K.characteristic
        ah, bh = mul_c(plain(K, a), plain(K, h), p), mul_c(plain(K, b), plain(K, h), p)
        g = gcd_c(ah, bh, p)
        if ah or bh:
            assert not divmod_c(g, plain(K, ref_monic(K, h)), p)[1]
        assert resultant(plain_poly(K, ah), plain_poly(K, bh)) == K.zero
        if ah and bh:
            res, rem = one_lane(K, ah, bh)
            assert res == K.zero and monic_c(rem, p) == g
    run()


# over Q: (a, b) pairs for the cases the integer subresultant sequence
# treats apart, as int or Fraction coefficients, low degree first; every
# field of FIELDS runs them too (a Fraction keeps its numerator there)
Q_CASES = [
    ([Fraction(3, 4)], [1, 2, 3]),                          # constant operand
    ([1, 2, 3], [Fraction(-5, 2)]),
    ([7], [Fraction(2, 9)]),                                # both constant
    ([1, Fraction(1, 2), 0, 3], [2, 0, 1, 0, Fraction(-1, 3), 4]),  # deg 3 < deg 5
    ([0, 1], [1, 0, 1, 1]),                                 # deg 1 < deg 3
    ([-1, 0, 1], [1, 2, 1]),                                # common factor x + 1
    ([Fraction(1, 6), Fraction(5, 6), 1],                   # (x + 1/2)(x + 1/3)
     [Fraction(1, 2), Fraction(3, 2), 1]),                  # (x + 1/2)(x + 1)
    ([0, 0, 2], [0, 3]),                                    # common factor x
    ([1, 0, 0, 0, 1], [1, 1, 0, 1, 0, 1]),                  # coprime, several steps
]


@pytest.mark.parametrize("a,b", Q_CASES)
def test_q_gcd_and_resultant_cases_match_the_boxed_loops(a, b):
    for K in FIELDS:
        x, y = (ref_trim([embed(K, v) for v in c]) for c in (a, b))
        check_gcd_and_resultant(K, x, y)
        check_gcd_and_resultant(K, y, x)


def test_q_gcd_and_resultant_through_degree_gaps():
    # small sparse coefficients make remainder degrees drop by two or
    # more, the steps where the subresultant sequence updates h by
    # g^delta / h^(delta - 1); over Q and every GF(p) of FIELDS
    rng = random.Random(17)
    for _ in range(400):
        a, b = ([rng.choice((0, 0, 1, -1, 2, -3, Fraction(1, 2)))
                 for _ in range(rng.randint(1, 9))] for _ in range(2))
        for K in FIELDS:
            check_gcd_and_resultant(K, *[ref_trim([embed(K, v) for v in c]) for c in (a, b)])


@pytest.mark.parametrize("K,nodes", [(GF(1009), (5, 3, 5)),
                                     (QQ, (Fraction(1, 2), 3, Fraction(1, 2)))])
def test_repeated_interpolation_node_raises(K, nodes):
    with pytest.raises(ValueError, match="repeated interpolation node"):
        lagrange_interpolate(K, [(K.of(x), K.one) for x in nodes])


def test_evaluation_matches_horner_on_elements():
    @with_polys(1)
    def run(K, a):
        for v in (0, 1, -1, 2, 12345, 2 ** 65 + 3):
            x = K.of(v)
            got = eval_c(plain(K, a), K.unbox(x), K.characteristic)
            assert got == K.unbox(ref_eval(K, a, x))
            assert Poly(K, a)(x) == ref_eval(K, a, x)
            if K.characteristic:
                assert type(got) is int and 0 <= got < K.characteristic
    run()


def test_interpolation_matches_the_boxed_newton_form():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(st.sampled_from(range(len(FIELDS))), st.integers(1, 12), st.randoms())
    def run(fi, n, rng):
        K = FIELDS[fi]
        n = min(n, K.characteristic or n)
        if K.characteristic:
            nodes = rng.sample(range(min(K.characteristic, 10 ** 6)), n)
            ys = [rng.randint(-10 ** 20, 10 ** 20) for _ in nodes]
        else:
            # distinct rational nodes, and values with denominators
            nodes = list({Fraction(v, rng.randint(1, 6)) for v in rng.sample(range(-40, 40), n)})
            ys = [Fraction(rng.randint(-10 ** 20, 10 ** 20), rng.randint(1, 10 ** 6))
                  for _ in nodes]
        xs = [K.of(v) for v in nodes]
        ys = [K.of(v) for v in ys]
        got = interpolate_c(plain(K, xs), plain(K, ys), K.characteristic)
        assert_plain(K, got)
        assert got == plain(K, ref_interpolate(K, xs, ys))
        assert lagrange_interpolate(K, list(zip(xs, ys))).c == got
    run()


def test_interpolation_table_matches_newton():
    """``interpolate_c`` (rows . ys / den through the cached inverse
    Vandermonde table) against Newton's divided differences on field
    elements (``ref_interpolate``), seeded: over Q on int and Fraction
    nodes and values, over GF(101), GF(1009) and GF(2^61 - 1) up to
    D = 121, and on all p nodes of GF(3), GF(5) and GF(101)."""
    rng = random.Random(47)
    cases = []
    for D in (0, 1, 2, 5, 9, 16, 25):
        nodes = rng.sample(range(-60, 60), D + 1)
        # int nodes, Fraction nodes with denominators, and integral Fractions
        cases.append((QQ, nodes, [rng.randint(-10 ** 12, 10 ** 12) for _ in nodes]))
        cases.append((QQ, list({Fraction(v, rng.randint(1, 7)) for v in nodes}),
                      [Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 50)) for _ in nodes]))
        cases.append((QQ, [Fraction(v) for v in nodes], [Fraction(rng.randint(-99, 99)) for _ in nodes]))
    for p in (101, 1009, 2 ** 61 - 1):
        for D in (0, 3, 24, 48, 100, 121)[:6 if p > 121 else 5]:
            nodes = list(range(D + 1)) if D % 2 else rng.sample(range(min(p, 10 ** 6)), D + 1)
            cases.append((GF(p), nodes, [rng.randint(-p, 2 * p) for _ in nodes]))
    for p in (3, 5, 101):
        nodes = list(range(p))
        rng.shuffle(nodes)
        cases.append((GF(p), nodes, [rng.randrange(p) for _ in nodes]))
    for K, nodes, ys in cases:
        got = interpolate_c(nodes, ys, K.characteristic)
        assert_plain(K, got)
        want = ref_interpolate(K, [K.of(x) for x in nodes], [K.of(y) for y in ys])
        assert [K.of(v) for v in got] == want, (K, nodes)


@pytest.mark.parametrize("K,nodes,name", [(GF(1009), (5, 3, 5), "5"), (GF(1009), (2, 1011, 7), "1011"),
                                          (QQ, (Fraction(1, 2), 3, Fraction(1, 2)), "1/2"),
                                          (QQ, (4, Fraction(8, 2), 1), "4")])
def test_repeated_node_names_the_node(K, nodes, name):
    with pytest.raises(ValueError, match="^repeated interpolation node %s$" % name):
        interpolate_c(list(nodes), [1] * len(nodes), K.characteristic)


def test_the_inverse_vandermonde_table_is_cached_and_bounded():
    table = poly._inverse_vandermonde
    assert table.cache_info().maxsize == 32
    table.cache_clear()
    xs, p = range(26), 1009
    first = interpolate_c(xs, list(range(1, 27)), p)
    info = table.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    # the same nodes again, as a range, a list or a tuple: no new table
    for nodes in (xs, list(xs), tuple(xs)):
        assert interpolate_c(nodes, list(range(1, 27)), p) == first
    info = table.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    # another prime is another table; so are other nodes
    interpolate_c(xs, [1] * 26, 101)
    assert table.cache_info().misses == 2
    for D in range(40):
        interpolate_c(range(D + 1), [1] * (D + 1), 101)
    assert table.cache_info().currsize == 32


def test_pow_and_powmod_match_repeated_products():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(st.sampled_from(range(len(FIELDS))),
               st.lists(st.integers(-3, 3), max_size=5),
               st.lists(st.integers(-3, 3), max_size=5), st.integers(0, 9))
    def run(fi, a, m, e):
        K = FIELDS[fi]
        p = K.characteristic
        a, m = ref_trim([K.of(v) for v in a]), ref_trim([K.of(v) for v in m])
        want = ref_pow(K, a, e)
        got = powmod_c(plain(K, a), e, None, p)
        assert_plain(K, got)
        assert got == plain(K, want) == (Poly(K, a) ** e).c
        if m:
            got = powmod_c(plain(K, a), e, plain(K, m), p)
            assert_plain(K, got)
            assert got == plain(K, ref_divmod(K, want, m)[1])
    run()


# -- negative exponents ---------------------------------------------------


def test_negative_powers_raise():
    from dihedralcovers.homog import HForm
    K = GF(7)
    with pytest.raises(ValueError):
        Poly.x(K) ** -1
    with pytest.raises(ValueError):
        powmod_c([0, 1], -2, [1, 1], 7)
    with pytest.raises(ValueError):
        HForm(K, 2, 1, {(1, 0): 1}) ** -1
    with pytest.raises(ZeroDivisionError):
        K.zero ** -1
    assert K.of(3) ** -1 == K.of(5)


def test_mixed_fields_raise():
    from dihedralcovers.homog import HForm
    x7, x11 = Poly.x(GF(7)), Poly.x(GF(11))
    for call in (lambda: x7 + x11, lambda: x7 * x11, lambda: divmod(x7, x11),
                 lambda: x7 * Poly.x(QQ)):
        with pytest.raises(ValueError, match="mixed fields"):
            call()
    f7, f11 = HForm(GF(7), 2, 1, {(1, 0): 1}), HForm(GF(11), 2, 1, {(1, 0): 1})
    for call in (lambda: f7 + f11, lambda: f7 - f11, lambda: f7 * f11):
        with pytest.raises(ValueError, match="mixed fields"):
            call()
    assert x7 * Poly.x(GF(7)) == Poly(GF(7), [0, 0, 1])
