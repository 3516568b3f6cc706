import itertools
import math
import random
from fractions import Fraction

import pytest

from dihedralcovers import dihedral, linalg
from dihedralcovers.cover_algebra import AFPoly, SimpleCoverAlgebra
from dihedralcovers.cyclotomic import CycloElem, CyclotomicField, cyclotomic_polynomial
from dihedralcovers.fields import GF, QQ
from dihedralcovers.poly import Poly, poly_xgcd

from conftest import identity, matmul


def test_cyclotomic_polynomials():
    x = Poly.x(QQ)
    assert cyclotomic_polynomial(1) == x - Poly.one(QQ)
    assert cyclotomic_polynomial(2) == x + Poly.one(QQ)
    assert cyclotomic_polynomial(4) == x * x + Poly.one(QQ)
    assert cyclotomic_polynomial(12).degree == 4
    # product of all cyclotomic divisors rebuilds t^n - 1
    for n in (6, 8, 12):
        prod = Poly.one(QQ)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod == Poly(QQ, [-1] + [0] * (n - 1) + [1])


def test_cyclotomic_field_arithmetic():
    K = CyclotomicField(7)
    z = K.zeta()
    assert z ** 7 == 1
    s = sum((z ** i for i in range(7)), K.zero)
    assert s == 0
    a = K.of(2) + z
    assert a * a.inverse() == 1
    assert (z * z.conjugate()) == 1
    assert (z + z.conjugate()).conjugate() == z + z.conjugate()


def _inverse_by_poly_xgcd(x):
    """The earlier inversion: ``poly_xgcd`` on Polys, its t discarded."""
    K = x.field
    g, s, _ = poly_xgcd(Poly(QQ, list(x.num)), K.modulus)
    assert g.degree == 0
    return K._reduce(s) * x.den


def test_inverse_matches_the_poly_xgcd_route():
    """20 seeded nonzero elements per field: x * x.inverse() == 1, and the
    inverse equals the one of the full extended gcd on Polys."""
    rng = random.Random(42)
    for n in (3, 5, 7, 12, 21):
        K = CyclotomicField(n)
        count = 0
        while count < 20:
            x = K.of(Poly(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                for _ in range(K.degree)]))
            if x == 0:
                continue
            inv, want = x.inverse(), _inverse_by_poly_xgcd(x)
            assert x * inv == 1 and (inv.num, inv.den) == (want.num, want.den), (n, x)
            count += 1
    with pytest.raises(ZeroDivisionError):
        CyclotomicField(5).zero.inverse()


def test_cyclotomic_arithmetic_matches_poly_oracle():
    # every operation against Poly arithmetic modulo Phi_n
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    ints = st.lists(st.integers(-6, 6), max_size=14)

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(st.integers(1, 12), ints, ints, st.integers(1, 4), st.integers(-3, 4),
               st.integers(-3, 3), st.integers(1, 3))
    def run(n, ca, cb, den, e, rn, rd):
        ca, r = [Fraction(c, den) for c in ca], Fraction(rn, rd)
        K = CyclotomicField(n)
        phi = cyclotomic_polynomial(n)
        pa, pb = Poly(QQ, ca) % phi, Poly(QQ, cb) % phi
        a = sum((K.zeta(k) * c for k, c in enumerate(ca)), K.zero)
        b = K.of(Poly(QQ, cb))

        def poly(x):
            assert _in_lowest_terms(x), (x.num, x.den)
            return Poly(QQ, list(x.rep))

        assert len(a.rep) == phi.degree and poly(a) == pa and poly(b) == pb
        assert poly(K.of(r)) == Poly.const(QQ, r) and poly(K.of(rn)) == Poly.const(QQ, rn)
        assert poly(K.of(Poly(QQ, ca))) == pa and K.zeta(1) ** 1000 == K.zeta(1000 % n)
        assert repr(a) == "(%s)" % repr(pa).replace("x", "z")
        assert poly(a + b) == (pa + pb) % phi
        assert poly(a - b) == (pa - pb) % phi
        assert poly(r - a) == (Poly.const(QQ, r) - pa) % phi
        assert poly(a * b) == (pa * pb) % phi
        assert poly(a * r) == pa * r and poly(-a) == -pa
        zinv = Poly(QQ, [0] * (n - 1) + [1])
        assert poly(a.conjugate()) == pa.compose(zinv) % phi
        assert a.conjugate().conjugate() == a
        assert (a == b) == (pa == pb)
        assert a == K.of(Poly(QQ, ca) + Poly(QQ, cb) * phi)
        assert (a == r) == (pa == Poly.const(QQ, r))
        assert a.is_rational() == (pa.degree <= 0)
        if a.is_rational():
            assert a.rational_value() == pa.coeff(0)
        assert poly(a * rn) == pa * rn and poly(a / rd) == pa * Fraction(1, rd)
        if pb:
            assert ((poly(a / b) * pb - pa) % phi).is_zero()
            assert ((poly(1 / b) * pb) % phi) == Poly.one(QQ)
            assert ((poly(b.inverse()) * pb) % phi) == Poly.one(QQ)
        if e >= 0:
            assert poly(a ** e) == (pa ** e) % phi
        elif pa:
            assert (poly(a ** e) * pa ** -e) % phi == Poly.one(QQ)

    run()


def _in_lowest_terms(x):
    """phi(n) int numerators over one positive int denominator, with no
    common factor, so that zero is 0/1."""
    return (type(x) is CycloElem and len(x.num) == x.field.degree
            and all(type(c) is int for c in x.num) and type(x.den) is int and x.den > 0
            and math.gcd(x.den, *x.num) == 1)


def _all_ints(x):
    return all(type(c) is int for c in x.rep)


@pytest.mark.parametrize("n", range(1, 13))
def test_integral_coefficients_are_plain_ints(n):
    K = CyclotomicField(n)
    zetas = [K.zeta(k) for k in range(n)]
    assert _all_ints(K.of(2)) and _all_ints(K.of(Fraction(4, 2)))
    assert _all_ints(K.zero) and _all_ints(K.one) and all(_all_ints(z) for z in zetas)
    x = K.of(3) + zetas[-1] * 2 - zetas[n // 2]
    y = zetas[1 % n] * x - x * 5
    for e in (x, y, x + y, x - y, x * y, -x, y * 7, x ** 3, x.conjugate()):
        assert _all_ints(e), e
    # a real denominator stays a Fraction; one that cancels becomes an int
    h = K.of(Fraction(1, 2))
    assert type(h.rep[0]) is Fraction and type((K.one / 3).rep[0]) is Fraction
    assert (x + h).rep[0] == x.rep[0] + Fraction(1, 2) and type((x + h).rep[0]) is Fraction
    for e in (h * 2, h + h, h * K.of(2), (x / 3) * 3, K.of(6) / 2, x - h - h + 1):
        assert _all_ints(e), e
    # the Fraction-built form of each element is the same element
    for e in (x, y, x * y, K.zero, K.of(-4)):
        f = sum((zetas[k] * Fraction(c) for k, c in enumerate(e.rep)), K.of(Fraction(0)))
        assert f == e and e == f and hash(f) == hash(e) and repr(f) == repr(e)
        if e.is_rational():
            assert e.rational_value() == f.rational_value()


def test_cyclotomic_hash_agrees_with_equality():
    """Equal values hash alike: a rational element like the int or
    Fraction it equals, any element like its copy in another instance of
    the same field."""
    for n in (1, 2, 5, 12):
        K, L = CyclotomicField(n), CyclotomicField(n)
        for v in (0, 3, -7, 2 ** 100, Fraction(5, 3), Fraction(-1, 2 ** 70)):
            assert K.of(v) == v and hash(K.of(v)) == hash(v), (n, v)
            assert len({K.of(v), v, L.of(v)}) == 1
        assert hash(K.zeta(0)) == hash(1) and hash(K.zeta(n)) == hash(K.one)
        for k in range(1, n):
            z = K.zeta(k)
            assert hash(z) == hash(L.zeta(k)) == hash(K.zeta(1) ** k), (n, k)
            assert hash(z * Fraction(2, 3)) == hash(L.zeta(k) / Fraction(3, 2))
        if n > 2:
            assert len({K.zeta(k) for k in range(n)} | {1, Fraction(1)}) == n


def test_cyclotomic_results_pass_through_the_constructor(monkeypatch):
    """Every CycloElem that arithmetic, K.of and the cover algebra return
    was built by ``CycloElem.__init__`` (which the benchmark tracer wraps
    to count constructions) and is in lowest terms."""
    made = []
    init = CycloElem.__init__

    def watched(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(CycloElem, "__init__", watched)
    K = CyclotomicField(12)
    x = K.of(Fraction(3, 4)) + K.zeta(1) * Fraction(-5, 6) + K.zeta(5)
    y = K.of(Poly(QQ, [Fraction(2, 3), 0, 1, Fraction(1, 5), 7]))
    h = K.of(Fraction(1, 2))
    results = [x, y, h, K.of(2), x + y, x - y, y - 1, 1 - y, x * y, x * h, h * x, x * 6,
               x * Fraction(4, 3), x / y, x / 3, 2 / y, -x, x.conjugate(), y.inverse(),
               x ** 0, x ** 3, x ** -2, h + h, (x * 4) - (x * 4)]
    A = SimpleCoverAlgebra(4, CyclotomicField(4))
    L = A.K
    c = AFPoly(L, {(0, 0): L.zeta(1) * Fraction(1, 3), (1, 0): L.of(Fraction(-1, 2))})
    w = A.add(A.scale(c, A.u(2)), A.scale(c, A.s()))
    prod = A.mul(A.sigma(w), A.tau(A.mul(w, w)))
    results += [v for p in prod.values() for v in p.terms.values()]
    made = set(map(id, made))     # ``made`` kept its objects alive
    for r in results:
        assert id(r) in made and _in_lowest_terms(r), r


def test_character_tables():
    for n in range(2, 9):
        table = dihedral.character_table(n)
        labels = dihedral.irreducible_labels(n)
        assert set(table) == set(labels)
        assert sum(dihedral.char_degree(l) ** 2 for l in labels) == 2 * n
        # first orthogonality relations
        G = dihedral.DihedralGroup(n)
        K = CyclotomicField(n)
        for l1 in labels:
            for l2 in labels:
                s = K.zero
                for g in G.elements():
                    s = s + table[l1][g] * table[l2][g].conjugate()
                assert s == (2 * n if l1 == l2 else 0), (n, l1, l2)


def test_projector_identities():
    # idempotence, orthogonality, completeness and ranks, for all n <= 12
    for n in range(2, 13):
        K = CyclotomicField(n)
        dim = 2 * n
        labels = dihedral.irreducible_labels(n)
        projs = {lab: dihedral.projector(n, lab, K) for lab in labels}
        total = [[K.zero] * dim for _ in range(dim)]
        for lab, p in projs.items():
            sq = matmul(p, p, K)
            assert sq == p, (n, lab)
            assert dihedral.projector_rank(p) == dihedral.char_degree(lab) ** 2
            for i in range(dim):
                for j in range(dim):
                    total[i][j] = total[i][j] + p[i][j]
        assert total == identity(dim, K), n
        for l1, l2 in itertools.combinations(labels, 2):
            prod = matmul(projs[l1], projs[l2], K)
            assert all(not x for row in prod for x in row), (n, l1, l2)


def monomial_representation(n, K):
    """Matrices of sigma and tau on the basis (1, s, u^i, v^i).

    Basis order: index 0 is 1, index 1 is s, indices 2..n is u^1..u^(n-1),
    indices n+1..2n-1 is v^1..v^(n-1).
    """
    dim = 2 * n
    zero = K.zero
    sigma = [[zero] * dim for _ in range(dim)]
    tau = [[zero] * dim for _ in range(dim)]
    sigma[0][0] = K.one
    sigma[1][1] = K.one
    tau[0][0] = K.one
    tau[1][1] = -K.one
    for i in range(1, n):
        ui = 1 + i
        vi = n + i
        sigma[ui][ui] = K.zeta(i)
        sigma[vi][vi] = K.zeta(-i)
        tau[ui][vi] = K.one
        tau[vi][ui] = K.one
    return sigma, tau


def representation_matrix(n, g, K):
    """The dense matrix of sigma^k tau^t in the monomial representation."""
    sigma, tau = monomial_representation(n, K)
    k, t = g
    m = identity(2 * n, K)
    for _ in range(k):
        m = matmul(m, sigma, K)
    if t:
        m = matmul(m, tau, K)
    return m


def test_projector_matches_dense_sum():
    # (deg/2n) sum over g of conj(chi(g)) rho(g), with rho(g) built by
    # dense products of the monomial sigma and tau matrices
    for n in range(2, 9):
        K = CyclotomicField(n)
        G = dihedral.DihedralGroup(n)
        dim = 2 * n
        mats = {g: representation_matrix(n, g, K) for g in G.elements()}
        for lab in dihedral.irreducible_labels(n):
            chi = dihedral.character(n, lab, K)
            want = [[K.zero] * dim for _ in range(dim)]
            for g, m in mats.items():
                c = chi(g).conjugate()
                for i in range(dim):
                    for j in range(dim):
                        want[i][j] = want[i][j] + c * m[i][j]
            scale = K.of(dihedral.char_degree(lab)) / K.of(2 * n)
            want = [[scale * x for x in row] for row in want]
            p = dihedral.projector(n, lab, K)
            assert p == want, (n, lab)
            assert linalg.rank(want, K) == dihedral.projector_rank(p), (n, lab)
            assert dihedral.projector_rank(want) == dihedral.char_degree(lab) ** 2


def _sparse(m, K):
    # the identity test only skips the shared zero cheaply
    return {(i, j): x for i, row in enumerate(m) for j, x in enumerate(row)
            if x is not K.zero and x}


def _sparse_product(a, b):
    out = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                out[i, j] = out.get((i, j), 0) + x * y
    return {c: x for c, x in out.items() if x}


def test_closed_form_projectors_are_sparse_rational_and_complete():
    # for n = 2..40: at most four nonzero entries, all rational;
    # idempotent, pairwise orthogonal and summing to the identity, checked
    # with sparse products; rank deg^2, read off as the trace of an
    # idempotent, and by elimination at n = 40 (n <= 8 is checked above)
    for n in range(2, 41):
        K = CyclotomicField(n)
        labels = dihedral.irreducible_labels(n)
        projs = {}
        for lab in labels:
            p = dihedral.projector(n, lab, K)
            assert len(p) == 2 * n and all(len(row) == 2 * n for row in p)
            sp = _sparse(p, K)
            assert len(sp) <= 4 and all(x.is_rational() for x in sp.values()), (n, lab)
            assert _sparse_product(sp, sp) == sp, (n, lab)
            rank = dihedral.char_degree(lab) ** 2
            assert sum(x for (i, j), x in sp.items() if i == j) == rank, (n, lab)
            assert dihedral.projector_rank(p) == rank, (n, lab)
            if n == 40:
                assert linalg.rank(p, K) == rank, (n, lab)
            projs[lab] = sp
        for l1, l2 in itertools.combinations(labels, 2):
            assert not _sparse_product(projs[l1], projs[l2]), (n, l1, l2)
        total = {}
        for sp in projs.values():
            for c, x in sp.items():
                total[c] = total.get(c, 0) + x
        assert {c: x for c, x in total.items() if x} == {(i, i): 1 for i in range(2 * n)}, n


def _invertible(rng, dim, entry, K):
    while True:
        a = [[entry() for _ in range(dim)] for _ in range(dim)]
        if linalg.rank(a, K) == dim:
            return a


def _inverse(a, K):
    dim = len(a)
    aug = [list(row) + [K.one if i == j else K.zero for j in range(dim)]
           for i, row in enumerate(a)]
    red, _ = linalg.rref(aug, K)
    return [row[dim:] for row in red]


@pytest.mark.parametrize("n", [None, 5, 8, 12])
def test_trace_rank_of_dense_idempotents_matches_elimination(n):
    # A E A^(-1) for a random invertible A and a 0/1 diagonal E, over Q
    # (n None) and over Q(zeta_n): trace rank equals the rank by elimination
    rng = random.Random(2026 + (n or 0))
    K = QQ if n is None else CyclotomicField(n)

    def entry():
        x = K.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return x if n is None else x + K.zeta(rng.randrange(n)) * rng.randint(-2, 2)

    for dim in (1, 3, 5):
        for r in range(dim + 1):
            diag = [K.one] * r + [K.zero] * (dim - r)
            rng.shuffle(diag)
            e = [[diag[i] if i == j else K.zero for j in range(dim)] for i in range(dim)]
            a = _invertible(rng, dim, entry, K)
            p = matmul(matmul(a, e, K), _inverse(a, K), K)
            assert matmul(p, p, K) == p
            assert dihedral.projector_rank(p) == linalg.rank(p, K) == r, (n, dim, r)


def test_trace_rank_refuses_what_it_cannot_certify():
    K = CyclotomicField(6)
    for m in ([[0, 1], [0, 0]], [[2, 0], [0, 2]],
              [[K.zero, K.one], [K.zero, K.zero]], [[K.of(2), K.zero], [K.zero, K.of(2)]],
              [[1, 0, 0], [0, 1, 0]]):
        with pytest.raises(ValueError):
            dihedral.projector_rank(m)
    # over GF(p) the trace is only the rank mod p: refused, even for an idempotent
    F = GF(7)
    for m in ([[F.one, F.zero], [F.zero, F.one]], [[0, F.zero], [F.zero, F.one]]):
        with pytest.raises(ValueError):
            dihedral.projector_rank(m)
    assert dihedral.projector_rank([]) == 0
    assert dihedral.projector_rank([[0, 0], [0, Fraction(1)]]) == 1


def test_projector_rejects_bad_labels_like_character():
    for n, lab in ((4, "rho2"), (4, "rho0"), (5, "chi3"), (7, "chi4"), (6, "psi1")):
        with pytest.raises(ValueError) as want:
            dihedral.character(n, lab)
        with pytest.raises(ValueError) as got:
            dihedral.projector(n, lab)
        assert str(got.value) == str(want.value), (n, lab)


def test_monomial_representation_is_regular():
    # the character of the monomial representation equals that of the
    # regular representation: 2n at the identity, 0 elsewhere
    for n in (3, 4, 6):
        K = CyclotomicField(n)
        G = dihedral.DihedralGroup(n)
        for g in G.elements():
            m = representation_matrix(n, g, K)
            tr = sum((m[i][i] for i in range(2 * n)), K.zero)
            assert tr == (2 * n if g == (0, 0) else 0), (n, g)


def test_rho_index_range():
    with pytest.raises(ValueError):
        dihedral.character(4, "rho2")
    with pytest.raises(ValueError):
        dihedral.character(5, "chi3")
