import itertools
import math
import random
from fractions import Fraction

import pytest

from dihedralcovers.fields import QQ, GF, _is_prime
from dihedralcovers.cyclotomic import CyclotomicField
from dihedralcovers.poly import Poly, add_c, mul_c, neg_c
from dihedralcovers import linalg
from dihedralcovers.graded import kernel_basis
from dihedralcovers.parsing import parse_form


def test_rank_rref_nullspace():
    m = [[QQ.of(1), QQ.of(2), QQ.of(3)],
         [QQ.of(2), QQ.of(4), QQ.of(6)],
         [QQ.of(1), QQ.of(0), QQ.of(1)]]
    assert linalg.rank(m, QQ) == 2
    ns = linalg.nullspace(m, QQ)
    assert len(ns) == 1
    v = ns[0]
    for row in m:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_solve():
    m = [[QQ.of(2), QQ.of(1)], [QQ.of(1), QQ.of(3)]]
    rhs = [QQ.of(5), QQ.of(10)]
    x = linalg.solve(m, rhs, QQ)
    assert [sum(a * b for a, b in zip(row, x)) for row in m] == rhs
    assert linalg.solve([[QQ.of(0)]], [QQ.one], QQ) is None


def test_bareiss_over_polynomials():
    x = Poly.x(QQ)
    one = Poly.one(QQ)
    m = [[x, one], [x * x, x]]
    assert linalg.bareiss_rank([row[:] for row in m], one) == 1
    m2 = [[x, one], [one, x]]
    assert linalg.bareiss_rank([row[:] for row in m2], one) == 2


def test_koszul_kernel():
    # kernel of (x0, x1): O(-1)^2 -> O is O(-2), spanned by (x1, -x0)
    x0 = parse_form("x0", QQ, 2).to_univar().c
    x1 = parse_form("x1", QQ, 2).to_univar().c
    twists, gens, _ = kernel_basis(QQ, [[x0, x1]], [0], [1, 1], nullity=1, twist_sum=2)
    assert twists == [2]
    (g0, g1), = gens
    # (x1, -x0) up to a unit
    assert len(g0) == 1 and g1 == mul_c(neg_c(x0, 0), g0, 0)
    assert not add_c(mul_c(x0, g0, 0), mul_c(x1, g1, 0), 0)


def test_kernel_degree_bound_raises():
    # (x0, x1) has a kernel of rank 1, O(-2); asking for 2 generators of
    # any twist sum reads a kernel dimension that fits no O(-t0) + O(-t1)
    # and raises instead of searching
    x0 = parse_form("x0", QQ, 2).to_univar().c
    x1 = parse_form("x1", QQ, 2).to_univar().c
    for twist_sum in range(2, 7):
        with pytest.raises(RuntimeError):
            kernel_basis(QQ, [[x0, x1]], [0], [1, 1], nullity=2, twist_sum=twist_sum)
    # and rank 1 at a wrong twist sum raises too
    for twist_sum in (1, 3):
        with pytest.raises(RuntimeError):
            kernel_basis(QQ, [[x0, x1]], [0], [1, 1], nullity=1, twist_sum=twist_sum)


# -- the GF(p) elimination path against oracles --------------------------
#
# The matrices are plain ints, as the package passes them; the oracles
# (``bareiss_rank`` and the p = 0 branch of the loop) run on FpElem
# entries.

SHAPES = ("dense", "sparse", "low-rank", "wide", "tall")


class Boxed:
    """GF(p) presented to ``linalg`` as a field of characteristic 0, so
    that a matrix of its FpElem entries takes the p = 0 branch of the
    one Gauss-Jordan loop, on field elements instead of lazily reduced
    ints.  It shares the loop with the GF(p) branch, so it checks the
    lazy reduction only; the independent oracles are ``bareiss_rank``
    and the identity checks (m v = 0, m x = b)."""

    characteristic = 0

    def __init__(self, K):
        self.zero, self.one = K.zero, K.one


def box(m, K):
    return [[K.of(x) for x in row] for row in m]


def random_gf_matrix(rng, p, shape):
    """A random matrix of residues mod p of the given shape family."""
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    if shape == "wide":
        rows, cols = rng.randint(1, 5), rng.randint(6, 14)
    elif shape == "tall":
        rows, cols = rng.randint(6, 14), rng.randint(1, 5)
    if shape == "low-rank":
        k = rng.randint(0, min(rows, cols) - 1)
        a = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
        b = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
        return [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(cols)]
                for i in range(rows)]
    density = 0.2 if shape == "sparse" else 1.0
    return [[rng.randrange(p) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


def for_gf_matrices(check):
    """Run ``check(K, m)`` on hypothesis-drawn dense, sparse, low-rank,
    wide and tall matrices over GF(3), GF(101) and GF(1009)."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(st.sampled_from((3, 101, 1009)), st.sampled_from(SHAPES), st.randoms())
    def run(p, shape, rng):
        check(GF(p), random_gf_matrix(rng, p, shape))

    run()


def mat_vec(m, v, p):
    """m v on plain values, reduced mod p when p > 0."""
    return [sum(a * b for a, b in zip(row, v)) % p if p else sum(a * b for a, b in zip(row, v))
            for row in m]


def reduced(values, p):
    """True when every value is an int in range(p)."""
    return all(type(x) is int and 0 <= x < p for x in values)


def slot_boundary_primes():
    """(p, ncols) pairs whose (ncols + 1) p^2, the bound the slot width
    of the packed rank loop is taken from, lies just below or just above
    2^32 or 2^64, then 65521, 2^31 - 1 and 2^61 - 1 at a few widths."""
    out = []
    for bits, ncols in itertools.product((32, 64), (1, 2, 5)):
        r = math.isqrt(2 ** bits // (ncols + 1))
        below = next(p for p in range(r, 2, -1) if _is_prime(p))
        above = next(p for p in itertools.count(r + 1) if _is_prime(p))
        assert (ncols + 1) * below ** 2 < 2 ** bits <= (ncols + 1) * above ** 2
        out += [(below, ncols), (above, ncols)]
    return out + [(p, n) for p in (65521, 2 ** 31 - 1, 2 ** 61 - 1) for n in (1, 3, 8)]


def disguise(x, p, rng):
    """The residue x as another int congruent to it: negative, at least
    p, or about 2^200 p away."""
    return rng.choice((lambda: x - rng.randint(1, 9) * p, lambda: x + rng.randint(1, 9) * p,
                       lambda: x + rng.choice((1, -1)) * (2 ** 200 + rng.randint(0, 99)) * p))()


def slot_boundary_matrices(rng):
    """(K, m, disguised m) over the primes of ``slot_boundary_primes``:
    1 x N, N x 1, square and tall shapes with entries drawn from 0, 1,
    p - 1, p - 2 and random residues, some rows all zero."""
    for p, ncols in slot_boundary_primes():
        K = GF(p)
        for nrows in sorted({1, 2, ncols, ncols + 3}):
            m = [[rng.choice((0, 1, p - 1, p - 2, rng.randrange(p))) for _ in range(ncols)]
                 for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.5:
                m[rng.randrange(nrows)] = [0] * ncols
            yield K, m, [[disguise(x, p, rng) for x in row] for row in m]


def test_gf_rank_matches_bareiss(rng):
    def check(K, m):
        assert linalg.rank(m, K) == linalg.bareiss_rank(box(m, K), K.one)
    for_gf_matrices(check)
    for K, m, disguised in slot_boundary_matrices(rng):
        check(K, m)
        assert linalg.rank(disguised, K) == linalg.bareiss_rank(box(m, K), K.one)


def test_gf_rref_matches_generic_loop():
    def check(K, m):
        p = K.characteristic
        red, pivots = linalg.rref(m, K)
        wred, wpivots = linalg.rref(box(m, K), Boxed(K))
        assert pivots == wpivots
        assert red == [[K.unbox(x) for x in row] for row in wred]
        assert reduced((x for row in red for x in row), p)
        # a reduced echelon basis of the same row space
        r = len(pivots)
        assert all(not x for row in red[r:] for x in row)
        for i, pc in enumerate(pivots):
            assert [red[k][pc] for k in range(len(red))] == [int(k == i) for k in range(len(red))]
            assert all(not x for x in red[i][:pc])
        assert linalg.bareiss_rank(box(m + red[:r], K), K.one) == r == linalg.rank(m, K)
    for_gf_matrices(check)


def test_gf_nullspace_is_kernel():
    def check(K, m):
        p = K.characteristic
        basis = linalg.nullspace(m, K)
        assert len(basis) == len(m[0]) - linalg.bareiss_rank(box(m, K), K.one)
        for v in basis:
            assert reduced(v, p)
            assert not any(mat_vec(m, v, p))
        if basis:
            assert linalg.bareiss_rank(box(basis, K), K.one) == len(basis)
    for_gf_matrices(check)


def test_gf_solve_satisfies_system():
    def check(K, m):
        p = K.characteristic
        rng = random.Random(len(m) * 31 + len(m[0]))
        b = mat_vec(m, [rng.randrange(p) for _ in m[0]], p)
        x = linalg.solve(m, b, K)
        assert x is not None and reduced(x, p) and mat_vec(m, x, p) == b
        b = [rng.randrange(p) for _ in m]
        aug = [row + [bv] for row, bv in zip(m, b)]
        consistent = (linalg.bareiss_rank(box(aug, K), K.one)
                      == linalg.bareiss_rank(box(m, K), K.one))
        x = linalg.solve(m, b, K)
        if consistent:
            assert reduced(x, p) and mat_vec(m, x, p) == b
        else:
            assert x is None
    for_gf_matrices(check)


def test_gf_square_rank_matches_bareiss(rng):
    def check(K, m):
        n = min(len(m), len(m[0]))
        sq = [row[:n] for row in m[:n]]
        assert linalg.rank(sq, K) == linalg.bareiss_rank(box(sq, K), K.one)
    for_gf_matrices(check)
    for K, m, disguised in slot_boundary_matrices(rng):
        check(K, m)
        n = min(len(m), len(m[0]))
        assert linalg.rank([r[:n] for r in disguised[:n]], K) == linalg.bareiss_rank(
            box([r[:n] for r in m[:n]], K), K.one)


def test_rank_after_row_swaps(rng):
    K = GF(101)
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 5]]
    assert linalg.rank(swap, K) == 3
    cycle = [[0, 1, 0], [0, 0, 1], [7, 0, 0]]
    assert linalg.rank(cycle, K) == 3 == linalg.bareiss_rank(box(cycle, K), K.one)
    # a row permutation P of an upper triangular U, some of its diagonal
    # entries zeroed so the rank varies, also after adding multiples of
    # rows to other rows, which moves the pivots away from the ends of
    # their buckets
    for p in (101, 65521, 2 ** 31 - 1, 2 ** 61 - 1):
        K = GF(p)
        for n in range(1, 8):
            diag = [rng.randrange(1, p) if rng.random() < 0.7 else 0 for _ in range(n)]
            upper = [[0] * i + [diag[i]] + [rng.randrange(p) for _ in range(n - i - 1)]
                     for i in range(n)]
            perm = list(range(n))
            rng.shuffle(perm)
            m = [upper[i] for i in perm]
            for mixed in (False, True):
                for i, j in itertools.permutations(range(n), 2) if mixed else ():
                    if rng.random() < 0.3:
                        f = rng.randrange(p)
                        m[j] = [(y + f * x) % p for x, y in zip(m[i], m[j])]
                want = linalg.bareiss_rank(box(m, K), K.one)
                if all(diag):
                    assert want == n
                assert linalg.rank(m, K) == want
                assert linalg.rank([[disguise(x, p, rng) for x in row] for row in m], K) == want


def test_lazy_reduction_matches_reduced_matrix(rng):
    """Int entries shifted by multiples of p (negative ones, and ones
    near 2^200 p) give the same results as the reduced matrix, and every
    returned value is an int in range(p)."""
    shifts = (lambda: rng.randint(-5, 5), lambda: rng.randint(-2 ** 64, 2 ** 64),
              lambda: rng.choice((1, -1)) * (2 ** 200 + rng.randint(0, 2 ** 20)))
    for p in (101, 65521, 2 ** 31 - 1, 2 ** 61 - 1):
        K = GF(p)
        for shape in SHAPES * 4 + ("1xN", "Nx1", "zero rows"):
            if shape == "1xN":
                m = [[rng.randrange(p) for _ in range(rng.randint(1, 9))]]
            elif shape == "Nx1":
                m = [[rng.randrange(p)] for _ in range(rng.randint(1, 9))]
            else:
                m = random_gf_matrix(rng, p, "dense" if shape == "zero rows" else shape)
            if shape == "zero rows":
                m[::2] = [[0] * len(m[0])] * len(m[::2])
            lazy = [[x + rng.choice(shifts)() * p for x in row] for row in m]
            assert linalg.rank(lazy, K) == linalg.rank(m, K)
            red, pivots = linalg.rref(lazy, K)
            assert (red, pivots) == linalg.rref(m, K)
            basis = linalg.nullspace(lazy, K)
            assert basis == linalg.nullspace(m, K)
            b = [rng.randrange(p) for _ in m]
            x = linalg.solve(lazy, b, K)
            assert x == linalg.solve(m, b, K)
            n = min(len(m), len(m[0]))
            assert (linalg.rank([r[:n] for r in lazy[:n]], K)
                    == linalg.rank([r[:n] for r in m[:n]], K))
            assert reduced((x or []) + [v for row in red + basis for v in row], p)


def test_plain_value_contract():
    """Every call takes its field.  Over GF(p) every value rref,
    nullspace and solve return is an int in range(p), for unreduced and
    negative int input, up to p = 2^61 - 1; over Q every integral value
    is an int and the others are Fractions, pinned here."""
    for p in (7, 101, 2 ** 61 - 1):
        K = GF(p)
        rng = random.Random(p)
        for _ in range(20):
            m = [[rng.randint(-3 * p, 3 * p) for _ in range(rng.randint(1, 6))]]
            m += [[rng.randint(-3 * p, 3 * p) for _ in m[0]] for _ in range(rng.randint(0, 5))]
            b = [rng.randint(-3 * p, 3 * p) for _ in m]
            red, _ = linalg.rref(m, K)
            x = linalg.solve(m, b, K) or []
            assert reduced([v for row in red + linalg.nullspace(m, K) for v in row] + x, p)
    typed = lambda rows: [[(type(v), v) for v in row] for row in rows]
    F = Fraction
    m = [[2, 3, 1], [4, 1, 0], [6, 4, 1]]
    assert typed(linalg.rref(m, QQ)[0]) == typed([[1, 0, F(-1, 10)], [0, 1, F(2, 5)], [0, 0, 0]])
    assert typed(linalg.nullspace(m, QQ)) == typed([[F(1, 10), F(-2, 5), 1]])
    assert typed([linalg.solve(m, [1, 2, 3], QQ)]) == typed([[F(1, 2), 0, 0]])
    m = [[0, 2, 4], [3, 0, 1]]
    assert typed(linalg.nullspace(m, QQ)) == typed([[F(-1, 3), -2, 1]])
    assert typed([linalg.solve(m, [2, 1], QQ)]) == typed([[F(1, 3), 1, 0]])
    # Fraction input too, and a system whose whole solution is integral
    assert typed([linalg.solve([[F(1, 2), 0], [0, F(2)]], [1, 4], QQ)]) == typed([[2, 2]])


def test_empty_and_zero_matrices():
    K = GF(7)
    assert linalg.rank([], K) == 0 and linalg.rank([[]], K) == 0
    assert linalg.rref([], K) == ([], [])
    assert linalg.rref([[], []], K) == ([[], []], [])
    assert linalg.nullspace([], K) == [] and linalg.nullspace([[]], K) == []
    assert linalg.solve([], [], K) == []
    assert linalg.solve([], [1], K) is None
    assert linalg.solve([[], []], [0, 1], K) is None
    zero = [[0] * 3 for _ in range(2)]
    assert linalg.rank(zero, K) == 0 == linalg.rank(zero, QQ)
    assert linalg.rref(zero, K) == (zero, [])
    assert linalg.nullspace(zero, K) == [[int(i == j) for i in range(3)] for j in range(3)]
    assert linalg.solve(zero, [0, 0], K) == [0] * 3
    assert linalg.solve(zero, [0, 1], K) is None
    assert linalg.rank([[-7, 14], [21, 0]], K) == 0


def test_no_call_mutates_its_input(rng):
    K = GF(101)
    for m, field in ((random_gf_matrix(rng, 101, "dense"), K),
                     (random_gf_matrix(rng, 101, "tall"), K),
                     ([[QQ.of(2), QQ.of(1)], [QQ.of(4), QQ.of(3)], [QQ.of(1), QQ.of(0)]], QQ),
                     ([[3, 5], [0, 2]], QQ),
                     ([[104, -5], [0, 2 ** 70]], K)):
        before = [list(row) for row in m]
        linalg.rref(m, field)
        linalg.rank(m, field)
        linalg.nullspace(m, field)
        linalg.solve(m, [1] * len(m), field)
        assert m == before
        assert all(a is b for row, old in zip(m, before) for a, b in zip(row, old))


def test_int_pivot_in_fp_matrix_divides_exactly():
    K = GF(7)
    red, pivots = linalg.rref([[2], [0]], K)
    assert red == [[1], [0]] and type(red[0][0]) is int
    m = [[2, 3], [1, 5]]
    assert linalg.rref(m, K) == linalg.rref([[9, -4], [-6, 12]], K)
    assert reduced((x for row in linalg.rref(m, K)[0] for x in row), 7)
    # 2 * 5 - 3 * 1 = 7: singular mod 7
    assert linalg.rank(m, K) == linalg.bareiss_rank(box(m, K), K.one) == 1
    x = linalg.solve(m, [1, 4], K)
    assert x == [4, 0] and mat_vec(m, x, 7) == [1, 4]
    assert linalg.solve(m, [1, 0], K) is None


def test_int_only_matrix_gives_no_floats():
    # over Q the ints are rationals, so no division is a float division
    red, pivots = linalg.rref([[2], [0]], QQ)
    assert red == [[1], [0]] and pivots == [0]
    m = [[2, 3, 1], [4, 1, 0], [6, 4, 1]]
    results = [linalg.rref(m, QQ)[0], linalg.nullspace(m, QQ), [linalg.solve(m, [1, 2, 3], QQ)]]
    for rows in [red] + results:
        assert not any(type(x) is float for row in rows for x in row)
    assert linalg.rank(m, QQ) == 2
    # a float division would leave 125 - (25 / 3) * 15 = -1.4e-14, rank 2
    assert linalg.rank([[3, 15], [25, 125]], QQ) == 1
    assert linalg.rank([[2, 3], [4, 1]], QQ) == 2
    v = linalg.nullspace(m, QQ)[0]
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
    assert linalg.solve(m, [1, 2, 3], QQ) == [Fraction(1, 2), 0, 0]


def test_forward_loop_on_disguised_slot_boundary_matrices(rng):
    """The forward half of the Gauss-Jordan loop over GF(p), on the
    disguised slot-boundary matrices, finds as many pivots as ``rank``
    and returns ints only.  In both halves the ints stay within k p^2
    of the input's largest (k the number of pivots): the row factor and
    the pivot row are reduced mod p, so an update moves an entry by
    less than p^2."""
    for K, m, disguised in slot_boundary_matrices(rng):
        p = K.characteristic
        bound = max(abs(x) for row in disguised for x in row)
        for reduced in (False, True):
            rows, pivots = linalg._eliminate(disguised, p, reduced)
            assert len(pivots) == linalg.rank(disguised, K) == linalg.rank(m, K)
            assert all(type(x) is int for row in rows for x in row)
            assert all(abs(x) <= bound + len(pivots) * p * p for row in rows for x in row)


def test_gauss_jordan_over_cyclotomic_fields(rng):
    """rref, nullspace and solve over Q(zeta_5) and Q(zeta_12), on
    CycloElem entries mixed with ints and Fractions: m kills each kernel
    vector, a solution solves, and the rref has as many pivots as
    ``bareiss_rank`` finds."""
    for n in (5, 12):
        K = CyclotomicField(n)

        def elem():
            if rng.random() < 0.3:
                return 0
            if rng.random() < 0.2:
                return rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
            return sum((Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * K.zeta(rng.randrange(n))
                        for _ in range(rng.randint(1, 3))), K.zero)

        def dot(row, v):
            return sum((a * x for a, x in zip(row, v)), K.zero)

        def bareiss(m):
            return linalg.bareiss_rank([[K.of(x) for x in row] for row in m], K.one)

        for trial in range(16):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            if trial % 2:
                # a product through k columns: rank at most k
                k = rng.randint(0, min(rows, cols))
                a = [[elem() for _ in range(k)] for _ in range(rows)]
                b = [[elem() for _ in range(cols)] for _ in range(k)]
                m = [[dot(a[i], [row[j] for row in b]) for j in range(cols)] for i in range(rows)]
            else:
                m = [[elem() for _ in range(cols)] for _ in range(rows)]
            r = bareiss(m)
            red, pivots = linalg.rref(m, K)
            assert len(pivots) == r == linalg.rank(m, K)
            for i, pc in enumerate(pivots):
                assert [red[k][pc] for k in range(rows)] == [int(k == i) for k in range(rows)]
            basis = linalg.nullspace(m, K)
            assert len(basis) == cols - r
            assert all(dot(row, v) == 0 for v in basis for row in m)
            if basis:
                assert bareiss(basis) == len(basis)
            x0 = [elem() for _ in range(cols)]
            rhs = [dot(row, x0) for row in m]
            x = linalg.solve(m, rhs, K)
            assert x is not None and [dot(row, x) for row in m] == rhs
            rhs = [elem() for _ in range(rows)]
            x = linalg.solve(m, rhs, K)
            if bareiss([row + [bv] for row, bv in zip(m, rhs)]) == r:
                assert [dot(row, x) for row in m] == rhs
            else:
                assert x is None


# -- the convolution-matrix builder against Poly multiplication ----------


def test_convolution_matrix_matches_poly_products():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(st.sampled_from(("Q", 3, 101, 2 ** 61 - 1)),
               st.lists(st.integers(-2, 4), min_size=0, max_size=4),
               st.lists(st.integers(-2, 5), min_size=0, max_size=4),
               st.randoms())
    def run(fname, in_degs, out_degs, rng):
        K = QQ if fname == "Q" else GF(fname)
        p = K.characteristic

        def elem():
            return K.unbox(rng.randint(-9, 9)) if rng.random() < 0.7 else 0

        # known polynomials of random length, the empty list among them
        coeffs = [[[elem() for _ in range(rng.randint(0, 4))] for _ in in_degs]
                  for _ in out_degs]
        xs = [[elem() for _ in range(d + 1)] for d in in_degs]
        vec = [x for blk in xs for x in blk]
        assert linalg.split_blocks(vec, in_degs) == xs
        m = linalg.convolution_matrix(K, coeffs, in_degs, out_degs)
        assert len(m) == sum(d + 1 for d in out_degs if d >= 0)
        assert all(len(row) == len(vec) for row in m)
        want = []
        for row_coeffs, dout in zip(coeffs, out_degs):
            total = sum((Poly(K, c) * Poly(K, x) for c, x in zip(row_coeffs, xs)),
                        Poly.zero(K))
            want += [total.c[k] if k < len(total.c) else 0 for k in range(dout + 1)]
        assert mat_vec(m, vec, p) == want
        # the rank, over GF(p) from rows packed straight from the charts
        assert linalg.convolution_rank(K, coeffs, in_degs, out_degs) == linalg.bareiss_rank(
            box(m, K), K.one)

    run()
