import random
from fractions import Fraction

import pytest

from dihedralcovers.fields import QQ, GF
from dihedralcovers.poly import (Poly, NEG_INF, poly_gcd, poly_xgcd,
                                 resultant, is_squarefree,
                                 lagrange_interpolate, base_field_roots)


def P(*coeffs):
    return Poly(QQ, [Fraction(c) for c in coeffs])


def test_degree_and_zero():
    assert Poly.zero(QQ).degree == NEG_INF
    assert P(5).degree == 0
    assert P(0, 0, 1).degree == 2
    assert Poly.x(QQ) == P(0, 1)


def test_ring_operations():
    a = P(1, 2, 1)          # (x+1)^2
    b = P(1, 1)
    assert a == b * b
    assert a - a == Poly.zero(QQ)
    assert (a * b)(Fraction(2)) == a(Fraction(2)) * b(Fraction(2))
    assert a.derivative() == P(2, 2)


def test_divmod_roundtrip(rng):
    K = GF(101)
    for _ in range(50):
        a = Poly(K, [K.random(rng) for _ in range(rng.randrange(1, 8))])
        b = Poly(K, [K.random(rng) for _ in range(rng.randrange(1, 6))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_exact_div_raises_on_remainder():
    with pytest.raises(ValueError):
        P(1, 0, 1).exact_div(P(1, 1))


def test_gcd_and_xgcd():
    a = P(1, 1) * P(2, 1) * P(3, 1)
    b = P(1, 1) * P(5, 1)
    g = poly_gcd(a, b)
    assert g == P(1, 1)
    g2, s, t = poly_xgcd(a, b)
    assert s * a + t * b == g2
    assert g2 == g      # xgcd's gcd is monic


def test_resultant_vanishes_iff_common_root():
    a = P(-1, 1) * P(-2, 1)
    b = P(-2, 1) * P(-3, 1)
    assert resultant(a, b) == 0
    c = P(-5, 1)
    assert resultant(a, c) != 0
    # resultant of (x-1)(x-2) and (x-3)(x-4): prod of differences
    d = P(-3, 1) * P(-4, 1)
    assert resultant(a, d) == Fraction((1 - 3) * (1 - 4) * (2 - 3) * (2 - 4))


def test_squarefree():
    assert is_squarefree(P(-1, 0, 1))
    assert not is_squarefree(P(1, 2, 1))
    K = GF(7)
    x = Poly.x(K)
    assert is_squarefree(x * x - Poly.one(K))
    assert not is_squarefree(x * x)


def test_interpolation():
    pts = [(Fraction(i), Fraction(i * i + 1)) for i in range(5)]
    p = lagrange_interpolate(QQ, pts)
    assert p == P(1, 0, 1)


def test_compose_and_shift():
    a = P(1, 0, 1)
    assert a.compose(P(0, 2)) == P(1, 0, 4)
    assert a.shift(2) == P(0, 0, 1, 0, 1)


def test_squarefree_in_degree_at_least_p():
    K5 = GF(5)
    x = Poly.x(K5)
    assert is_squarefree(x ** 5 - x)                  # the five linear factors
    assert is_squarefree(x ** 5 - x + Poly.one(K5))   # derivative is the unit -1
    assert not is_squarefree(x ** 5 - Poly.one(K5))   # (x - 1)^5, derivative 0
    assert not is_squarefree(x ** 10 + x ** 5)        # x^5 (x + 1)^5
    assert not is_squarefree((x ** 2 + Poly.one(K5)) ** 2 * x)


def test_interpolation_passes_through_every_point():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(st.sampled_from(("Q", 3, 1009)), st.integers(1, 40),
               st.booleans(), st.sampled_from((None, "same", "other")), st.randoms())
    def run(fname, npts, zero_values, repeat, rng):
        K = QQ if fname == "Q" else GF(fname)
        npts = min(npts, K.characteristic or npts)
        nodes = rng.sample(range(-50, 50) if fname == "Q" else range(fname), npts)
        xs = [K.of(x) for x in nodes]
        ys = [K.zero if zero_values else K.of(Fraction(rng.randint(-99, 99), rng.randint(1, 2)))
              for _ in xs]
        pts = list(zip(xs, ys))
        if repeat:
            x, y = rng.choice(pts)
            pts.insert(rng.randint(0, len(pts)), (x, y if repeat == "same" else y + 1))
            with pytest.raises(ValueError):
                lagrange_interpolate(K, pts)
            return
        p = lagrange_interpolate(K, pts)
        assert p.degree < npts
        assert all(p(x) == y for x, y in pts)
        assert p.is_zero() == (not any(ys))

    run()


def test_base_field_roots_match_a_scan(rng):
    for p in (3, 5, 7, 101):
        K = GF(p)
        x = Poly.x(K)
        for _ in range(60):
            f = Poly(K, [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [1])
            # repeated and many distinct roots, too
            for r in rng.sample(range(p), rng.randint(0, min(p, 6))):
                f = f * (x - r) ** rng.randint(1, 2)
            want = [v for v in range(p) if f(K.of(v)) == 0]
            assert [r.v for r in base_field_roots(f)] == want


@pytest.mark.parametrize("p", [5, 1009, 2 ** 61 - 1])
def test_base_field_roots_prefix_then_split(rng, p, monkeypatch):
    """Roots below ``ROOT_PREFIX`` come by evaluation, the rest by the
    split, in one ascending order: against a scan over GF(5) and GF(1009),
    and against the roots a polynomial was built from over GF(2^61 - 1).
    The first root costs no split when a small root exists."""
    from dihedralcovers import poly

    K = GF(p)
    x = Poly.x(K)
    non_square = next(n for n in range(2, 100) if pow(n, (p - 1) // 2, p) == p - 1)
    small = range(min(p, poly.ROOT_PREFIX))
    large = range(poly.ROOT_PREFIX, p) if p > poly.ROOT_PREFIX else range(p)
    cases = [[], [0], [0, 3, 4], rng.sample(large, min(3, len(large)))]
    for _ in range(20):
        cases.append(rng.sample(small, rng.randint(0, 3))
                     + rng.sample(large, rng.randint(0, min(3, len(large)))))
    for roots in cases:
        f = x * x - non_square
        for r in roots:
            f = f * (x - r) ** rng.randint(1, 2)
        got = [r.v for r in base_field_roots(f)]
        if p <= 1009:
            assert got == [v for v in range(p) if f(K.of(v)) == 0], (p, roots)
        assert got == sorted(set(roots)), (p, roots)
        assert next(base_field_roots(f), None) == (min(roots) if roots else None)
    # with a root below the prefix, the first root takes one power (x^p)
    powers = []
    real = poly.powmod_c
    monkeypatch.setattr(poly, "powmod_c", lambda *a: powers.append(a) or real(*a))
    f = (x * x - non_square) * (x - 3) * (x - (p - 1))
    assert next(base_field_roots(f)).v == 3
    assert len(powers) == 1


@pytest.mark.parametrize("p", [10 ** 9 + 7, 2 ** 61 - 1])
def test_base_field_roots_over_a_large_prime(p):
    K = GF(p)
    x = Poly.x(K)
    non_square = next(n for n in range(2, 100) if pow(n, (p - 1) // 2, p) == p - 1)
    roots = [0, 1, 2, p - 1, 12345, p // 3]
    f = (x * x - non_square) * (x - 1)
    for r in roots:
        f = f * (x - r)
    state = random.getstate()
    assert [r.v for r in base_field_roots(f)] == sorted(roots)
    assert list(base_field_roots(x * x - non_square)) == []
    assert list(base_field_roots(Poly.const(K, 3))) == []
    # the splitting draws from a generator of its own
    assert random.getstate() == state
