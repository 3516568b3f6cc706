import itertools
import random
from fractions import Fraction

import pytest

from dihedralcovers.fields import GF, QQ
from dihedralcovers.cyclotomic import CyclotomicField
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
