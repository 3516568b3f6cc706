import itertools
import random
from fractions import Fraction

import pytest

from dihedralcovers.fields import GF, QQ
from dihedralcovers.cyclotomic import CyclotomicField
from dihedralcovers.poly import Poly
from dihedralcovers.cover_algebra import (AFPoly, SimpleCoverAlgebra,
                                          phi_tensor, phi_is_symmetric,
                                          d3_resolvent, field_polynomial,
                                          verify_field_polynomial,
                                          eigensheaf_decomposition)


def test_afpoly_ring():
    a = AFPoly.a(QQ)
    F = AFPoly.F(QQ)
    assert (a + F) * (a - F) == a * a - F * F
    assert (a * F) * 0 == AFPoly(QQ)
    assert a * 3 + a * (-3) == AFPoly(QQ)


def test_basis_reduction_rules():
    A = SimpleCoverAlgebra(5)
    a = AFPoly.a(QQ)
    # u^2 * u^3 = u^5 = a + s/2
    prod = A.mul(A.u(2), A.u(3))
    assert A.equal(prod, A.add(A.scale(a, A.one()), A.scale(A.half, A.s())))
    # u^2 * v^3 = F^2 v
    assert A.mul(A.u(2), A.v(3)) == {("v", 1): AFPoly.F(QQ, 2)}
    # s^2 = 4a^2 - 4F^5
    s2 = A.mul(A.s(), A.s())
    assert s2 == {"1": a * a * 4 - AFPoly.F(QQ, 5) * 4}


def test_commutativity_and_associativity():
    # full structure-constant triples for all n <= 8
    for n in range(2, 9):
        A = SimpleCoverAlgebra(n)
        basis = A.basis()
        for x, y in itertools.combinations(basis, 2):
            assert A.equal(A.mul(x, y), A.mul(y, x)), n
        for x, y, z in itertools.product(basis, repeat=3):
            assert A.equal(A.mul(A.mul(x, y), z), A.mul(x, A.mul(y, z))), n


def test_associativity_over_a_prime_field():
    K = GF(7)
    for n in range(2, 7):
        A = SimpleCoverAlgebra(n, K)
        basis = A.basis()
        for x, y, z in itertools.product(basis, repeat=3):
            assert A.equal(A.mul(A.mul(x, y), z), A.mul(x, A.mul(y, z))), n


def _reference_mul(A, x, y):
    """x y from the defining relations alone: write each basis element
    as a polynomial in u and v (s = u^n - v^n), multiply, then rewrite
    with u v = F, u^(n+k) = u^k (2a - v^n) and u^n, v^n = a +- s/2."""
    K, n = A.K, A.n
    a, half = AFPoly.a(K), A.half

    def uv(z):
        out = {}
        for key, c in z.items():
            if key == "1":
                mono = [((0, 0), c)]
            elif key == "s":
                mono = [((n, 0), c), ((0, n), -c)]
            else:
                mono = [((key[1], 0) if key[0] == "u" else (0, key[1]), c)]
            for e, w in mono:
                out[e] = out.get(e, AFPoly(K)) + w
        return out

    todo = {}
    for (i1, j1), c1 in uv(x).items():
        for (i2, j2), c2 in uv(y).items():
            e = (i1 + i2, j1 + j2)
            todo[e] = todo.get(e, AFPoly(K)) + c1 * c2
    done = {}
    while todo:
        (i, j), c = todo.popitem()
        if i and j:                             # u v = F
            m = min(i, j)
            new = [((i - m, j - m), c * AFPoly.F(K, m))]
        elif max(i, j) > n:                     # u^(n+k) = 2a u^k - F^k v^(n-k)
            k = max(i, j) - n
            new = [((k, 0) if i else (0, k), c * a * 2),
                   ((0, n - k) if i else (n - k, 0), -(c * AFPoly.F(K, k)))]
        else:
            done[i, j] = done.get((i, j), AFPoly(K)) + c
            continue
        for e, w in new:
            todo[e] = todo.get(e, AFPoly(K)) + w
    out = A.zero()
    for (i, j), c in done.items():
        if (i, j) == (0, 0):
            out = A.add(out, A.scale(c, A.one()))
        elif max(i, j) == n:                    # u^n, v^n = a +- s/2
            sign = 1 if i else -1
            out = A.add(out, A.scale(c * a, A.one()))
            out = A.add(out, A.scale(c * half * sign, A.s()))
        else:
            out = A.add(out, A.scale(c, A.u(i) if i else A.v(j)))
    return out


def _random_element(A, rng, scalar):
    x = A.zero()
    for b in rng.sample(A.basis(), rng.randint(1, 4)):
        coef = AFPoly(A.K, {(rng.randint(0, 2), rng.randint(0, 2)): scalar()
                            for _ in range(rng.randint(1, 3))})
        x = A.add(x, A.scale(coef, b))
    return x


@pytest.mark.parametrize("n", range(2, 9))
def test_table_product_matches_the_defining_relations(n):
    rng = random.Random(1000 + n)
    Kn = CyclotomicField(n)

    def cyclo():
        return (Kn.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                + Kn.of(rng.randint(-3, 3)) * Kn.zeta(rng.randrange(n)))

    fields = [(QQ, lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
              (GF(7), lambda: GF(7).of(rng.randrange(7))),
              (GF(1009), lambda: GF(1009).of(rng.randrange(1009))),
              (Kn, cyclo)]
    for K, scalar in fields:
        A = SimpleCoverAlgebra(n, K)
        for _ in range(6):
            x, y = _random_element(A, rng, scalar), _random_element(A, rng, scalar)
            assert A.equal(A.mul(x, y), _reference_mul(A, x, y)), (n, K)
        for k1, k2 in itertools.product(A.basis(), repeat=2):
            assert A.equal(A.mul(k1, k2), _reference_mul(A, k1, k2)), (n, K)


def _term_by_term_mul(A, x, y):
    """x y from the structure constants, one field product per pair of
    terms and one scalar multiple per table entry: the product loop the
    packed one replaced, kept as its reference."""
    acc = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            c = c1 * c2
            for key, (da, dF), q in A._mul_basis(k1, k2):
                t = acc.setdefault(key, {})
                s = A.K.of(q)
                for (i, j), v in c.terms.items():
                    e = (i + da, j + dF)
                    t[e] = t[e] + s * v if e in t else s * v
    return {key: p for key, p in ((k, AFPoly(A.K, t)) for k, t in acc.items()) if p}


def _big_scalar(K, rng):
    """A coefficient up to 2^200 in size with one of several denominators,
    over Q(zeta_m) a combination of three powers of zeta."""
    def q():
        return Fraction(rng.randint(-2 ** 200, 2 ** 200), rng.choice((1, 1, 3, 4, 35, 2 ** 61 - 1)))
    if isinstance(K, CyclotomicField):
        return sum((K.zeta(rng.randrange(K.n)) * q() for _ in range(3)), K.zero)
    return K.of(q()) if K is QQ else K.of(rng.randint(-2 ** 200, 2 ** 200))


_PACKED_FIELDS = ([QQ, GF(3), GF(1009)] + [CyclotomicField(m) for m in range(1, 13)]
                  + [CyclotomicField(105)])


@pytest.mark.parametrize("K", _PACKED_FIELDS, ids=repr)
def test_packed_product_matches_both_references(K):
    rng = random.Random(hash(repr(K)) % 1000)
    for n in ((3,) if K == CyclotomicField(105) else (2, 3, 5)):
        A = SimpleCoverAlgebra(n, K)
        for _ in range(3):
            x = _random_element(A, rng, lambda: _big_scalar(K, rng))
            y = _random_element(A, rng, lambda: _big_scalar(K, rng))
            got = A.mul(x, y)
            assert got == _term_by_term_mul(A, x, y), (n, K)
            assert A.equal(got, _reference_mul(A, x, y)), (n, K)
            for c in got.values():
                assert all(w and type(w) is type(K.one) for w in c.terms.values())


@pytest.mark.parametrize("K", _PACKED_FIELDS, ids=repr)
def test_packed_product_drops_outputs_that_cancel(K):
    A = SimpleCoverAlgebra(5, K)
    one = AFPoly.const(K, K.one)
    # (u + v)(u - v) = u^2 - v^2: the two F terms of the "1" output cancel
    x = A.add(A.u(1), A.v(1))
    y = A.sub(A.u(1), A.v(1))
    assert A.mul(x, y) == {("u", 2): one, ("v", 2): -one}
    assert A.mul(x, A.neg(x)) == A.neg(A.mul(x, x))
    assert A.mul(x, A.zero()) == {} and A.mul(A.zero(), x) == {}
    if isinstance(K, CyclotomicField) and K.degree > 1:
        # zeta^(d-1) zeta + (Phi_n - t^d) is Phi_n(zeta) = 0, d = phi(n), but
        # only after the fold: the packed sum is the nonzero Phi_n(2^W) T
        low = K.of(Poly(QQ, [int(c) for c in K.modulus.c[:-1]]))
        assert K.zeta(K.degree) + low == K.zero
        x = {("u", 1): AFPoly.const(K, K.zeta(K.degree - 1)), ("v", 1): AFPoly.const(K, low)}
        y = {("v", 1): AFPoly.const(K, K.zeta(1)), ("u", 1): AFPoly.const(K, K.one)}
        got = A.mul(x, y)
        assert "1" not in got and got == _term_by_term_mul(A, x, y)


def _sign_vectors(K):
    """Two +-1 vectors whose product, folded modulo Phi_n, has one
    coefficient as large as an alternating search finds."""
    d = K.degree
    rows = [K.to_ints(K.zeta(k))[0] for k in range(2 * d - 1)]
    best = (0,)
    for k in range(d):
        q = [1] * d
        for _ in range(4):
            p = [1 if sum(q[b] * rows[a + b][k] for b in range(d)) >= 0 else -1
                 for a in range(d)]
            g = [sum(p[a] * rows[a + b][k] for a in range(d)) for b in range(d)]
            q = [1 if v >= 0 else -1 for v in g]
        best = max(best, (sum(v * w for v, w in zip(q, g)), p, q))
    return best


def test_packed_product_at_the_size_bound():
    """Products whose folded numerators come near the bound W is sized
    from: a slot too narrow by the fold factor or by the guard bits, or a
    residue not lifted to the symmetric range, gives a wrong product."""
    big = 2 ** 200 - 1
    # Q(zeta_105), whose fold rows have entries of 2: the sign vectors put
    # more than 8 phi(n) Mx My into one folded slot, more than a W sized
    # without the fold factor holds
    K = CyclotomicField(105)
    A = SimpleCoverAlgebra(3, K)
    size, p, q = _sign_vectors(K)
    assert size > 8 * K.degree
    for sp, sq in ((1, 1), (1, -1)):
        x = {"s": AFPoly.const(K, K.of(Poly(QQ, [sp * big * a for a in p])))}
        y = {"s": AFPoly.const(K, K.of(Poly(QQ, [sq * big * b for b in q])))}
        assert A.mul(x, y) == _term_by_term_mul(A, x, y)
    # Q(zeta_3): s^2 puts 8 (1 - t)^2 big^2 = -24 big^2 t over T = 2 into the
    # a^2 slot, three quarters of the bound 8 * 2 * big^2 * 2
    K = CyclotomicField(3)
    A = SimpleCoverAlgebra(3, K)
    c = AFPoly.const(K, (K.one - K.zeta(1)) * big)
    for x, y in (({"s": c}, {"s": c}), ({"s": c}, {"s": -c}), ({"s": c, "1": c}, {"s": c})):
        assert A.mul(x, y) == _term_by_term_mul(A, x, y)
    assert A.mul({"s": c}, {"s": c})["1"].terms[(2, 0)] == K.zeta(1) * (-12 * big * big)


def test_mixed_fields_are_refused():
    K3, K6 = CyclotomicField(3), CyclotomicField(6)
    with pytest.raises(ValueError):
        AFPoly(K3, {(0, 0): K6.zeta(1)})
    with pytest.raises(ValueError):
        AFPoly(GF(7), {(1, 0): GF(11).of(2)})
    for K, L in ((K3, K6), (GF(7), GF(11)), (QQ, GF(7))):
        A = SimpleCoverAlgebra(3, K)
        x = A.scale(AFPoly.a(L), {"s": AFPoly.const(L, L.one)})
        with pytest.raises(ValueError):
            A.mul(x, A.u(1))
        with pytest.raises(ValueError):
            A.mul(A.u(1), x)
    # a field equal to the algebra's, but another instance, is accepted
    A = SimpleCoverAlgebra(3, K3)
    w = {"s": AFPoly.const(CyclotomicField(3), CyclotomicField(3).zeta(1))}
    assert A.mul(w, A.one()) == A.mul(A.one(), w)


def test_tau_and_sigma_are_homomorphisms():
    for n in (3, 4, 5):
        K = CyclotomicField(n)
        A = SimpleCoverAlgebra(n, K)
        basis = A.basis()
        for x, y in itertools.product(basis, repeat=2):
            assert A.equal(A.tau(A.mul(x, y)), A.mul(A.tau(x), A.tau(y)))
            assert A.equal(A.sigma(A.mul(x, y)),
                           A.mul(A.sigma(x), A.sigma(y)))
        # tau is an involution and sigma has order n
    A = SimpleCoverAlgebra(4)
    for x in A.basis():
        assert A.equal(A.tau(A.tau(x)), x)


@pytest.mark.parametrize("m", range(3, 13))
def test_sigma_by_rotation_matches_the_full_product(m):
    """sigma rotates the numerators instead of multiplying by zeta^k; over
    Q(zeta_m) for every n | m (step m / n above 1 when m > n) it must
    equal the full product, and sigma^n must be the identity."""
    K = CyclotomicField(m)
    rng = random.Random(m)
    for n in (d for d in range(2, m + 1) if m % d == 0):
        A = SimpleCoverAlgebra(n, K)
        for _ in range(3):
            x = _random_element(A, rng, lambda: _big_scalar(K, rng))
            want = {k: c if k in ("1", "s") else
                    c * K.zeta(m // n * (k[1] if k[0] == "u" else -k[1]))
                    for k, c in x.items()}
            got = A.sigma(x)
            assert got == want, (m, n)
            for _ in range(n - 1):
                got = A.sigma(got)
            assert got == x, (m, n)


def test_sigma_needs_roots_of_unity():
    A = SimpleCoverAlgebra(3)
    with pytest.raises(ValueError):
        A.sigma(A.u(1))


def test_pairing_identities():
    # for a tau-odd element r:  m+(r x, y) = r m-(x, y) and vice versa
    for n in (3, 4, 5):
        A = SimpleCoverAlgebra(n)
        r = A.s()
        for x, y in itertools.product(A.basis(), repeat=2):
            assert A.equal(A.m_plus(A.mul(r, x), y),
                           A.mul(r, A.m_minus(x, y)))
            assert A.equal(A.m_minus(A.mul(r, x), y),
                           A.mul(r, A.m_plus(x, y)))


def test_pairing_symmetry():
    A = SimpleCoverAlgebra(4)
    for x, y in itertools.product(A.basis(), repeat=2):
        assert A.equal(A.m_plus(x, y), A.m_plus(y, x))
        assert A.equal(A.m_minus(x, y), A.neg(A.m_minus(y, x)))


def test_antisymmetric_pairing_of_the_eigenbasis():
    # m-(u, v^(n-1)) = s/2 for every n
    for n in (3, 4, 5, 6):
        A = SimpleCoverAlgebra(n)
        got = A.m_minus(A.u(1), A.v(n - 1))
        assert A.equal(got, A.scale(A.half, A.s())), n


def test_tensor_form_symmetry():
    for n in range(3, 7):
        assert phi_is_symmetric(phi_tensor(n)), n


def test_tensor_form_values_for_triple_cover():
    table = phi_tensor(3)
    by_count = {sum(c): v for c, v in table.items()}
    K = QQ
    assert by_count[0] == -AFPoly.const(K, K.one)
    assert by_count[1] == AFPoly(K)
    assert by_count[2] == AFPoly.F(K)
    assert by_count[3] == AFPoly.a(K) * 2


def test_d3_resolvent():
    disc = d3_resolvent()
    assert disc == (AFPoly.F(QQ, 3) - AFPoly.a(QQ, 2)) * 108


def test_field_polynomial():
    fp = field_polynomial(3)
    assert fp[6] == AFPoly.const(QQ, QQ.one)
    assert fp[3] == AFPoly.a(QQ) * (-2)
    assert fp[0] == AFPoly.F(QQ, 3)
    for n in (2, 3, 4, 5):
        assert verify_field_polynomial(n), n


def test_eigensheaf_decomposition():
    assert eigensheaf_decomposition(3, 1) == [
        ("chi1", [0]), ("chi2", [-3]), ("rho1", [-1, -1, -2, -2])]
    dec = dict(eigensheaf_decomposition(4, 2))
    assert dec["chi3"] == [-4] and dec["chi4"] == [-4]
    assert dec["rho1"] == [-2, -2, -6, -6]
    # total rank 2n and total degree -n^2 m
    for n in (3, 4, 5, 6):
        for m in (1, 2):
            flat = [d for _, ds in eigensheaf_decomposition(n, m) for d in ds]
            assert len(flat) == 2 * n
            assert sum(flat) == -n * n * m


def test_characteristic_two_rejected():
    class Char2:
        characteristic = 2
    with pytest.raises(ValueError):
        SimpleCoverAlgebra(3, Char2())
