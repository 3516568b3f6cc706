"""End-to-end acceptance checks.

Each test here certifies one of the headline guarantees of the package:
exact invariant values, oracle equivalence between the matrix-pair
calculus and Cantor arithmetic on Jacobians, census counts, the
dihedral algebra identities, the geometric hypothesis checks, the
deformation dimension counts, and the normality criterion.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from dihedralcovers.fields import QQ, GF
from dihedralcovers.parsing import parse_form
from dihedralcovers.homog import HForm
from dihedralcovers import cover_geometry as cg
from dihedralcovers import deformations as df
from dihedralcovers import dihedral
from dihedralcovers.cyclotomic import CyclotomicField
from dihedralcovers.cover_algebra import (SimpleCoverAlgebra, AFPoly,
                                          phi_tensor, phi_is_symmetric,
                                          d3_resolvent)
from dihedralcovers.double_cover import tensor, inverse
from dihedralcovers.hyperelliptic import (class_from_matrix, matrix_from_class,
                                          class_order, is_n_torsion,
                                          torsion_matrix,
                                          enumerate_two_torsion)

from conftest import identity, matmul, split_curve, random_class


def test_1_invariant_regression():
    start = time.time()
    r = cg.invariants(2, cg.ProjectiveSpace(2, 1))
    assert (r.chi, r.K2, r.omega_degree, r.label) == (1, 4, -1,
                                                      "del-Pezzo-like")
    r = cg.invariants(3, cg.ProjectiveSpace(2, 1))
    assert (r.chi, r.K2, r.omega_degree, r.label) == (2, 0, 0, "K3")
    for n in range(4, 9):
        r = cg.invariants(n, cg.ProjectiveSpace(2, 1))
        assert r.K2 == 2 * n * (n - 3) ** 2
        assert r.chi == Fraction(n ** 3, 3) - Fraction(3 * n * n, 2) \
            + Fraction(13 * n, 6)
        assert r.label == "general-type-minimal"
    assert time.time() - start < 1.0


def _random_pairs(p, g, count, seed):
    curve = split_curve(p, g)
    model = curve.odd_model()
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        c = random_class(model, g, rng)
        out.append((c, matrix_from_class(curve, c)))
    return curve, model, out


def test_2_torsion_oracle_equivalence():
    for p in (101, 211):
        for g in (1, 2):
            _, model, samples = _random_pairs(p, g, 30, seed=p * 10 + g)
            zero = model.zero_class()
            for c, pair in samples:
                for n in range(2, 9):
                    oracle = (n * c) == zero
                    assert is_n_torsion(pair, n) == oracle, (p, g, c, n)


def test_3_group_law_oracle_equivalence():
    for p, g in ((101, 1), (211, 1), (101, 2)):
        curve, model, samples = _random_pairs(p, g, 50, seed=p + g)
        # round trip on the whole suite
        for c, pair in samples:
            assert class_from_matrix(pair) == c
            assert class_from_matrix(inverse(pair)) == -c
        # tensor against Cantor addition
        rng = random.Random(p * g)
        for _ in range(50):
            (c1, p1), (c2, p2) = rng.choice(samples), rng.choice(samples)
            assert class_from_matrix(tensor(p1, p2)) == c1 + c2


def test_4_two_torsion_census_and_matrix_dimensions():
    for g, expected in ((1, 3), (2, 15)):
        curve = split_curve(7, g)
        pairs = enumerate_two_torsion(curve)
        assert len(pairs) == expected
        for pair in pairs:
            assert class_order(class_from_matrix(pair)) == 2
            m = torsion_matrix(pair, 2)
            a, b = pair.a, pair.b
            assert len(m) == 3 * a + 3 * b - 3
            assert len(m[0]) == 2 * a + 2 * b - 1
            assert is_n_torsion(pair, 2)


def test_5_dihedral_algebra():
    # projector identities for all n <= 12
    for n in range(2, 13):
        K = CyclotomicField(n)
        dim = 2 * n
        labels = dihedral.irreducible_labels(n)
        projs = {lab: dihedral.projector(n, lab, K) for lab in labels}
        total = [[K.zero] * dim for _ in range(dim)]
        for lab, pr in projs.items():
            assert matmul(pr, pr, K) == pr
            assert dihedral.projector_rank(pr) == \
                dihedral.char_degree(lab) ** 2
            for i in range(dim):
                for j in range(dim):
                    total[i][j] = total[i][j] + pr[i][j]
        assert total == identity(dim, K)
        for l1, l2 in itertools.combinations(labels, 2):
            prod = matmul(projs[l1], projs[l2], K)
            assert all(not x for row in prod for x in row)
    # algebra commutativity and associativity on all triples, n <= 8
    for n in range(2, 9):
        A = SimpleCoverAlgebra(n)
        basis = A.basis()
        for x, y in itertools.combinations(basis, 2):
            assert A.equal(A.mul(x, y), A.mul(y, x))
        for x, y, z in itertools.product(basis, repeat=3):
            assert A.equal(A.mul(A.mul(x, y), z), A.mul(x, A.mul(y, z)))
    # homomorphism checks over the cyclotomic coefficients
    for n in (3, 4):
        K = CyclotomicField(n)
        A = SimpleCoverAlgebra(n, K)
        for x, y in itertools.product(A.basis(), repeat=2):
            assert A.equal(A.tau(A.mul(x, y)), A.mul(A.tau(x), A.tau(y)))
            assert A.equal(A.sigma(A.mul(x, y)),
                           A.mul(A.sigma(x), A.sigma(y)))
    # total symmetry of the degree-n form
    for n in range(3, 7):
        assert phi_is_symmetric(phi_tensor(n))
    # triple-cover resolvent and discriminant
    disc = d3_resolvent()
    assert disc == (AFPoly.F(QQ, 3) - AFPoly.a(QQ, 2)) * 108


def test_6_smoothness_checks():
    a = parse_form("x0^3 + x1^3 + x2^3", QQ, 3)
    F = parse_form("x0*x1 + x0*x2 + x1*x2", QQ, 3)
    spec = cg.SimpleCoverSpec(3, cg.ProjectiveSpace(2, 1), a, F)
    rep = cg.check_simple(spec, seed=7)
    assert rep.condition_i == "pass"
    assert rep.condition_ii == "pass"
    assert rep.details["resultantDegree"] == 6       # exact certificate
    bad = cg.SimpleCoverSpec(3, cg.ProjectiveSpace(2, 1),
                             parse_form("x0^3", QQ, 3),
                             parse_form("x0^2", QQ, 3))
    rep2 = cg.check_simple(bad, seed=1)
    assert rep2.condition_ii == "fail"
    bd = cg.branch_divisor(spec)
    assert bd["degree"] == 6 and bd["pointCount"] == 6


def test_7_deformations():
    ok, off = df.h1_vanishing_check(2, 1, 2)
    assert ok and off is None
    for n in range(2, 9):
        ok, _ = df.h1_vanishing_check(n, 2, 2)
        assert ok
    ok, off = df.h1_vanishing_check(3, 1, 2)
    assert not ok and off == ("Theta", -3)
    assert df.h_tangent(2, -3, 1) == 1
    rep = df.def_prime_dims(2, 1, 2)
    assert (rep.target, rep.source, rep.lower_bound) == (26, 24, 2)
    for d in range(1, 5):
        for p in range(d + 1):
            for k in range(-12, 13):
                for q in range(d + 1):
                    assert df.bott(d, p, k, q) == df.bott(d, d - p, -k, d - q)
    for d in (2, 3):
        for p in range(d + 1):
            for k in range(-12, 13):
                chi = sum((-1) ** q * df.bott(d, p, k, q)
                          for q in range(d + 1))
                assert chi == df.euler_characteristic_form(d, p, k)


def test_8_normality_criterion():
    curve = split_curve(7, 1)
    two = enumerate_two_torsion(curve)[0]
    cls = class_from_matrix(two)
    assert class_order(cls) == 2                     # exact certificate
    triv = curve.trivial_pair()
    assert cg.normality_criterion(2, triv, [(1, cls)]) is True
    assert cg.normality_criterion(2, two, []) is True
    assert cg.normality_criterion(2, triv, []) is False
