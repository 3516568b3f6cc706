"""The coefficient-list routines of ``poly`` against the boxed loops.

The reference below is the arithmetic ``Poly`` ran before it stored
plain values: schoolbook loops on lists of field elements (``FpElem``
or ``Fraction``), one field operation at a time.  Every routine of the
list kernel must give the same coefficients over GF(3), GF(5),
GF(1009), GF(2^61 - 1) and Q.
"""

import random
from fractions import Fraction

import pytest

from dihedralcovers.fields import GF, QQ
from dihedralcovers.poly import (Poly, add_c, sub_c, mul_c, divmod_c, gcd_c, xgcd_c,
                                 monic_c, scale_c, resultant_c, eval_c, interpolate_c, powmod_c,
                                 poly_gcd, poly_xgcd, resultant, lagrange_interpolate)

FIELDS = [GF(3), GF(5), GF(1009), GF(2 ** 61 - 1), QQ]


# -- the reference: boxed loops on lists of field elements ---------------


def ref_trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


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


def ref_divmod(K, a, b):
    q = [K.zero] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    dinv = K.inv(b[-1])
    db = len(b) - 1
    for i in range(len(r) - 1 - db, -1, -1):
        t = r[i + db] * dinv
        if not t:
            continue
        q[i] = t
        for j, y in enumerate(b):
            r[i + j] = r[i + j] - t * y
    return ref_trim(q), ref_trim(r)


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


def ref_resultant(K, a, b):
    if not a or not b:
        return K.zero
    res = K.one
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * b[0] ** da
        r = ref_divmod(K, a, b)[1]
        if not r:
            return K.zero
        res = res * b[-1] ** (da - len(r) + 1)
        if da % 2 and db % 2:
            res = -res
        a, b = b, r


def ref_eval(K, a, x):
    r = K.zero
    for c in reversed(a):
        r = r * x + c
    return r


def ref_interpolate(K, xs, ys):
    d = list(ys)
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            d[i] = (d[i] - d[i - 1]) / (xs[i] - xs[i - k])
    c = []
    for xk, dk in zip(reversed(xs), reversed(d)):
        c = [hi - xk * lo for hi, lo in zip([dk] + c, c + [K.zero])]
    return ref_trim(c)


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
               *xgcd_c([-1, 0, 1], [1, 1], 0), *divmod_c([Fraction(3, 2), 3], [3], 0)]
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


def test_gcd_xgcd_resultant_match_the_boxed_loops():
    @with_polys(2)
    def run(K, a, b):
        p = K.characteristic
        A, B = plain(K, a), plain(K, b)
        g = gcd_c(A, B, p)
        assert_plain(K, g)
        assert g == plain(K, ref_gcd(K, a, b)) == poly_gcd(Poly(K, a), Poly(K, b)).c
        got = xgcd_c(A, B, p)
        for c in got:
            assert_plain(K, c)
        assert list(got) == [plain(K, c) for c in ref_xgcd(K, a, b)]
        assert [f.c for f in poly_xgcd(Poly(K, a), Poly(K, b))] == list(got)
        res = resultant_c(A, B, p)
        assert res == K.unbox(ref_resultant(K, a, b))
        assert resultant(Poly(K, a), Poly(K, b)) == ref_resultant(K, a, b)
    run()


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
        assert resultant_c(ah, bh, p) == (0 if p else Fraction(0))
    run()


# over Q: (a, b) pairs for the cases the integer subresultant sequence
# treats apart, as int or Fraction coefficients, low degree first
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
    a, b = [QQ.of(v) for v in a], [QQ.of(v) for v in b]
    for x, y in ((a, b), (b, a)):
        assert gcd_c(x, y, 0) == ref_gcd(QQ, x, y)
        assert resultant_c(x, y, 0) == ref_resultant(QQ, x, y)
        assert type(resultant_c(x, y, 0)) in (int, Fraction)


def test_q_gcd_and_resultant_through_degree_gaps():
    # small sparse coefficients make remainder degrees drop by two or
    # more, the steps where the subresultant sequence updates h by
    # g^delta / h^(delta - 1)
    rng = random.Random(17)
    for _ in range(400):
        a, b = ([QQ.of(rng.choice((0, 0, 1, -1, 2, -3, Fraction(1, 2))))
                 for _ in range(rng.randint(1, 9))] for _ in range(2))
        a, b = ref_trim(a), ref_trim(b)
        assert gcd_c(a, b, 0) == ref_gcd(QQ, a, b)
        assert resultant_c(a, b, 0) == ref_resultant(QQ, a, b)


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
