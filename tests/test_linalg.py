import itertools
import math
import random
from fractions import Fraction

import pytest

from dihedralcovers.fields import QQ, GF, FpElem, _is_prime
from dihedralcovers.poly import Poly, add_c, mul_c, neg_c
from dihedralcovers import linalg
from dihedralcovers.graded import kernel_basis
from dihedralcovers.parsing import parse_form


def test_rank_rref_nullspace():
    m = [[QQ.of(1), QQ.of(2), QQ.of(3)],
         [QQ.of(2), QQ.of(4), QQ.of(6)],
         [QQ.of(1), QQ.of(0), QQ.of(1)]]
    assert linalg.rank(m) == 2
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

SHAPES = ("dense", "sparse", "low-rank", "wide", "tall")


class Wrapped:
    """A GF(p) element that is not an FpElem, so a matrix of them takes
    the generic elimination loop."""

    __slots__ = ("e",)

    def __init__(self, e):
        self.e = e

    def __add__(self, o):
        return Wrapped(self.e + o.e)

    def __sub__(self, o):
        return Wrapped(self.e - o.e)

    def __mul__(self, o):
        return Wrapped(self.e * o.e)

    def __truediv__(self, o):
        return Wrapped(self.e / o.e)

    def __neg__(self):
        return Wrapped(-self.e)

    def __bool__(self):
        return bool(self.e)


def random_gf_matrix(rng, p, shape):
    """A random matrix over GF(p) of the given shape family."""
    K = GF(p)
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    if shape == "wide":
        rows, cols = rng.randint(1, 5), rng.randint(6, 14)
    elif shape == "tall":
        rows, cols = rng.randint(6, 14), rng.randint(1, 5)
    if shape == "low-rank":
        k = rng.randint(0, min(rows, cols) - 1)
        a = [[K.random(rng) for _ in range(k)] for _ in range(rows)]
        b = [[K.random(rng) for _ in range(cols)] for _ in range(k)]
        return [[sum((a[i][t] * b[t][j] for t in range(k)), K.zero) for j in range(cols)]
                for i in range(rows)]
    density = 0.2 if shape == "sparse" else 1.0
    return [[K.random(rng) if rng.random() < density else K.zero for _ in range(cols)]
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


def mat_vec(m, v, K):
    return [sum((a * b for a, b in zip(row, v)), K.zero) for row in m]


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
    """The residue x as one of the entries the GF(p) paths accept: an
    FpElem, or an int congruent to it that is negative, at least p, or
    about 2^200 p away."""
    return rng.choice((lambda: FpElem(x, p), lambda: x - rng.randint(1, 9) * p,
                       lambda: x + rng.randint(1, 9) * p,
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
            yield K, [[K.of(x) for x in row] for row in m], [[disguise(x, p, rng) for x in row]
                                                             for row in m]


def test_gf_rank_matches_bareiss(rng):
    def check(K, m):
        assert linalg.rank(m) == linalg.bareiss_rank(m, K.one)
    for_gf_matrices(check)
    for K, m, disguised in slot_boundary_matrices(rng):
        check(K, m)
        assert linalg.rank(disguised, K) == linalg.bareiss_rank(m, K.one)


def test_gf_rref_matches_generic_loop():
    def check(K, m):
        red, pivots = linalg.rref(m)
        wred, wpivots = linalg.rref([[Wrapped(x) for x in row] for row in m])
        assert pivots == wpivots
        assert red == [[x.e for x in row] for row in wred]
        assert all(type(x) is FpElem for row in red for x in row)
        # a reduced echelon basis of the same row space
        r = len(pivots)
        assert all(not x for row in red[r:] for x in row)
        for i, pc in enumerate(pivots):
            assert [red[k][pc] for k in range(len(red))] == [K.one if k == i else K.zero
                                                              for k in range(len(red))]
            assert all(not x for x in red[i][:pc])
        assert linalg.bareiss_rank(m + red[:r], K.one) == r == linalg.rank(m)
    for_gf_matrices(check)


def test_gf_nullspace_is_kernel():
    def check(K, m):
        basis = linalg.nullspace(m, K)
        assert len(basis) == len(m[0]) - linalg.bareiss_rank(m, K.one)
        for v in basis:
            assert all(type(x) is FpElem for x in v)
            assert not any(mat_vec(m, v, K))
        if basis:
            assert linalg.bareiss_rank(basis, K.one) == len(basis)
    for_gf_matrices(check)


def test_gf_solve_satisfies_system():
    def check(K, m):
        rng = random.Random(len(m) * 31 + len(m[0]))
        b = mat_vec(m, [K.random(rng) for _ in m[0]], K)
        x = linalg.solve(m, b, K)
        assert x is not None and mat_vec(m, x, K) == b
        b = [K.random(rng) for _ in m]
        aug = [row + [bv] for row, bv in zip(m, b)]
        consistent = linalg.bareiss_rank(aug, K.one) == linalg.bareiss_rank(m, K.one)
        x = linalg.solve(m, b, K)
        if consistent:
            assert mat_vec(m, x, K) == b
        else:
            assert x is None
    for_gf_matrices(check)


def test_gf_square_rank_matches_bareiss(rng):
    def check(K, m):
        n = min(len(m), len(m[0]))
        sq = [row[:n] for row in m[:n]]
        assert linalg.rank(sq, K) == linalg.bareiss_rank(sq, K.one)
    for_gf_matrices(check)
    for K, m, disguised in slot_boundary_matrices(rng):
        check(K, m)
        n = min(len(m), len(m[0]))
        assert linalg.rank([r[:n] for r in disguised[:n]], K) == linalg.bareiss_rank(
            [r[:n] for r in m[:n]], K.one)


def test_rank_after_row_swaps(rng):
    K = GF(101)
    one, zero = K.one, K.zero
    swap = [[zero, one, zero], [one, zero, zero], [zero, zero, K.of(5)]]
    assert linalg.rank(swap, K) == 3
    cycle = [[zero, one, zero], [zero, zero, one], [K.of(7), zero, zero]]
    assert linalg.rank(cycle, K) == 3 == linalg.bareiss_rank(cycle, K.one)
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
                boxed = [[K.of(x) for x in row] for row in m]
                want = linalg.bareiss_rank(boxed, K.one)
                if all(diag):
                    assert want == n
                assert linalg.rank(boxed, K) == want
                assert linalg.rank([[disguise(x, p, rng) for x in row] for row in m], K) == want


def test_mixed_characteristics_still_raise():
    m = [[FpElem(1, 7), FpElem(1, 11)], [FpElem(2, 7), FpElem(3, 11)]]
    for call in (lambda: linalg.rank(m), lambda: linalg.rref(m),
                 lambda: linalg.rank(m, GF(7)), lambda: linalg.nullspace(m, GF(7))):
        with pytest.raises(ValueError, match="mixed characteristics"):
            call()


def test_fp_and_int_mix_gives_same_answer(rng):
    K = GF(101)
    for _ in range(20):
        m = random_gf_matrix(rng, 101, rng.choice(SHAPES))
        # ints as the zeros, and as a nonzero entry that never becomes a pivot
        mixed = [[x if x else 0 for x in row] for row in m]
        if m[0][0] and len(m[0]) > 1:
            mixed[0][-1] = m[0][-1].v + 101
        assert linalg.rank(mixed) == linalg.rank(m)
        assert linalg.rref(mixed) == linalg.rref(m)
        assert linalg.nullspace(mixed, K) == linalg.nullspace(m, K)
        b = [K.random(rng) for _ in m]
        assert linalg.solve(mixed, b, K) == linalg.solve(m, b, K)
        n = min(len(m), len(m[0]))
        assert linalg.rank([r[:n] for r in mixed[:n]], K) == linalg.rank([r[:n] for r in m[:n]], K)


def test_lazy_reduction_matches_reduced_matrix(rng):
    """Int entries shifted by multiples of p (negative ones, and ones
    near 2^200 p) give the same results as the reduced FpElem matrix,
    and every returned value is a reduced FpElem."""
    shifts = (lambda: rng.randint(-5, 5), lambda: rng.randint(-2 ** 64, 2 ** 64),
              lambda: rng.choice((1, -1)) * (2 ** 200 + rng.randint(0, 2 ** 20)))
    for p in (101, 65521, 2 ** 31 - 1, 2 ** 61 - 1):
        K = GF(p)
        for shape in SHAPES * 4 + ("1xN", "Nx1", "zero rows"):
            if shape == "1xN":
                m = [[K.random(rng) for _ in range(rng.randint(1, 9))]]
            elif shape == "Nx1":
                m = [[K.random(rng)] for _ in range(rng.randint(1, 9))]
            else:
                m = random_gf_matrix(rng, p, "dense" if shape == "zero rows" else shape)
            if shape == "zero rows":
                m[::2] = [[K.zero] * len(m[0])] * len(m[::2])
            lazy = [[x.v + rng.choice(shifts)() * p for x in row] for row in m]
            assert linalg.rank(lazy, K) == linalg.rank(m)
            # rref takes its field from an FpElem: a zero row of them,
            # which leaves the int rows all-int
            zero = [K.zero] * len(m[0])
            red, pivots = linalg.rref(lazy + [zero])
            assert (red, pivots) == linalg.rref(m + [zero])
            basis = linalg.nullspace(lazy, K)
            assert basis == linalg.nullspace(m, K)
            b = [K.random(rng) for _ in m]
            x = linalg.solve(lazy, b, K)
            assert x == linalg.solve(m, b, K)
            n = min(len(m), len(m[0]))
            assert linalg.rank([r[:n] for r in lazy[:n]], K) == linalg.rank([r[:n] for r in m[:n]])
            for v in (x or []) + [v for row in red + basis for v in row]:
                assert type(v) is FpElem and v.p == p and 0 <= v.v < p


def test_empty_and_zero_matrices():
    K = GF(7)
    assert linalg.rank([]) == 0 and linalg.rank([[]]) == 0
    assert linalg.rref([]) == ([], [])
    assert linalg.rref([[], []]) == ([[], []], [])
    assert linalg.nullspace([], K) == [] and linalg.nullspace([[]], K) == []
    assert linalg.solve([], [], K) == []
    assert linalg.solve([], [K.one], K) is None
    assert linalg.solve([[], []], [K.zero, K.one], K) is None
    assert linalg.rank([], K) == 0 and linalg.rank([[]], K) == 0
    zero = [[K.zero] * 3 for _ in range(2)]
    assert linalg.rank(zero) == 0
    assert linalg.rref(zero) == (zero, [])
    assert linalg.nullspace(zero, K) == [[K.one if i == j else K.zero for i in range(3)]
                                         for j in range(3)]
    assert linalg.solve(zero, [K.zero, K.zero], K) == [K.zero] * 3
    assert linalg.solve(zero, [K.zero, K.one], K) is None
    assert linalg.rank([[K.zero] * 2 for _ in range(2)], K) == 0


def test_no_call_mutates_its_input(rng):
    K = GF(101)
    for m in (random_gf_matrix(rng, 101, "dense"), random_gf_matrix(rng, 101, "tall"),
              [[QQ.of(2), QQ.of(1)], [QQ.of(4), QQ.of(3)], [QQ.of(1), QQ.of(0)]],
              [[K.of(3), 5], [0, K.of(2)]]):
        field = QQ if isinstance(m[0][0], Fraction) else K
        before = [list(row) for row in m]
        linalg.rref(m)
        linalg.rank(m)
        linalg.nullspace(m, field)
        linalg.solve(m, [field.one] * len(m), field)
        assert m == before
        assert all(a is b for row, old in zip(m, before) for a, b in zip(row, old))


def test_int_pivot_in_fp_matrix_divides_exactly():
    K = GF(7)
    red, pivots = linalg.rref([[2], [K.zero]])
    assert red == [[K.one], [K.zero]] and type(red[0][0]) is FpElem
    m = [[2, K.of(3)], [K.of(1), K.of(5)]]
    boxed = [[K.of(2), K.of(3)], [K.of(1), K.of(5)]]
    assert linalg._residues(m, 7) == [[2, 3], [1, 5]]
    assert linalg.rref(m) == linalg.rref(boxed)
    assert all(type(x) is FpElem for row in linalg.rref(m)[0] for x in row)
    # 2 * 5 - 3 * 1 = 7: singular mod 7
    assert linalg.rank(m, K) == linalg.rank(m) == linalg.bareiss_rank(boxed, K.one) == 1
    assert linalg.solve(m, [K.one, K.zero], K) == linalg.solve(boxed, [K.one, K.zero], K)


def test_int_only_matrix_gives_no_floats():
    # with no FpElem to take a prime from, ints are rationals
    red, pivots = linalg.rref([[2], [0]])
    assert red == [[1], [0]] and pivots == [0]
    m = [[2, 3, 1], [4, 1, 0], [6, 4, 1]]
    results = [linalg.rref(m)[0], linalg.nullspace(m, QQ), [linalg.solve(m, [1, 2, 3], QQ)]]
    for rows in [red] + results:
        assert not any(type(x) is float for row in rows for x in row)
    assert linalg.rank(m) == 2
    # a float division would leave 125 - (25 / 3) * 15 = -1.4e-14, rank 2
    assert linalg.rank([[3, 15], [25, 125]], QQ) == 1
    assert linalg.rank([[2, 3], [4, 1]], QQ) == 2
    v = linalg.nullspace(m, QQ)[0]
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
    assert linalg.solve(m, [1, 2, 3], QQ) == [Fraction(1, 2), 0, 0]


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

        def elem():
            return K.of(rng.randint(-9, 9)) if rng.random() < 0.7 else K.zero

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
            want += [total.coeff(k) for k in range(dout + 1)]
        assert mat_vec(m, vec, K) == want
        # the rank, over GF(p) from rows packed straight from the charts
        assert linalg.convolution_rank(K, coeffs, in_degs, out_degs) == linalg.bareiss_rank(
            [[K.of(x) for x in row] for row in m], K.one)

    run()
