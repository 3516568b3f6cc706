import pytest

from dihedralcovers.fields import GF, QQ
from dihedralcovers.parsing import parse_form
from dihedralcovers.homog import HForm
from dihedralcovers.double_cover import (DoubleCoverRing, BundlePair,
                                         NonNormalRingError, tensor, inverse,
                                         is_isomorphic, divisor_of_section)

K = GF(101)
F4 = parse_form("x0^4 - 5*x0^2*x1^2 + 4*x1^4", K, 2)   # roots +-1, +-2


def ring():
    return DoubleCoverRing(K, 2, F4)


def two_torsion_pair(r):
    q = parse_form("x0^2 - x1^2", K, 2)
    f = F4.exact_div(q)
    return BundlePair(r, 1, 1, HForm.zero(K, 2, 2), f, q)


def test_ring_normality():
    r = ring()
    assert (r.l, r.g) == (2, 1)
    # a non-normal cover has no ring; the error is a ValueError (exit code 2)
    with pytest.raises(NonNormalRingError):
        DoubleCoverRing(K, 2, parse_form("x0^2*x1^2", K, 2))
    assert issubclass(NonNormalRingError, ValueError)


def test_trivial_pair_shape():
    t = ring().trivial_pair()
    assert t.splitting == (0, -2)
    assert t.is_trivial()
    t.validate()


def test_determinant_constraint_enforced():
    r = ring()
    with pytest.raises(ValueError):
        BundlePair(r, 1, 1, HForm.zero(K, 2, 2),
                   parse_form("x0^2", K, 2), parse_form("x1^2", K, 2))
    # q f = F, but with deg f = 1 and deg q = 3 where (a, b) = (1, 1) asks 2, 2
    f = parse_form("x0 - x1", K, 2)
    with pytest.raises(ValueError, match="must have degree"):
        BundlePair(r, 1, 1, HForm.zero(K, 2, 2), f, F4.exact_div(f))


def _split_pair_entries():
    """(P, f, q) of a pair with (a, b) = (1, 0) on ring(): q = x0 - x1
    divides F4 and P = q (x0 + 3 x1), so q | F - P^2 and f = (F - P^2)/q
    has degree l + a - b = 3."""
    q = parse_form("x0 - x1", K, 2)
    P = q * parse_form("x0 + 3*x1", K, 2)
    return P, (F4 - P * P).exact_div(q), q


def test_constructor_conversions_and_refusals():
    r = ring()
    zero2 = HForm.zero(K, 2, 2)
    one = HForm.const(K, 2, 1)
    # an entry of the wrong degree is refused with its name
    with pytest.raises(ValueError, match="P must have degree 2"):
        BundlePair(r, 0, 2, parse_form("x0", K, 2), F4, one)
    with pytest.raises(ValueError, match="q must have degree 0"):
        BundlePair(r, 0, 2, zero2, F4, parse_form("x0", K, 2))
    # (a, b) = (0, 3): q has forced degree l + a - b = -1 and must vanish
    f5 = F4 * parse_form("x0", K, 2)
    with pytest.raises(ValueError, match="entry of negative forced degree must vanish"):
        BundlePair(r, 0, 3, zero2, f5, one)
    # an int is a form only when it is 0, or a constant of a degree-0 entry
    with pytest.raises(ValueError, match="expected a binary form of degree 2"):
        BundlePair(r, 0, 2, 3, F4, one)
    with pytest.raises(ValueError, match="expected a binary form of degree 4"):
        BundlePair(r, 0, 2, zero2, 1, one)
    # a nonzero int is the constant of a degree-0 entry, and 0 is any zero entry
    assert BundlePair(r, 0, 2, 0, F4, 1) == r.trivial_pair()
    assert BundlePair(r, 0, 2, zero2, F4, one) == r.trivial_pair()
    assert BundlePair(r, 0, 2, 0, F4 * K.inv(K.of(5)), 5) == r.trivial_pair()
    # a > b swaps the summands: (a, b, P, f, q) is the pair (b, a, -P, q, f)
    P, f, q = _split_pair_entries()
    swapped = BundlePair(r, 1, 0, P, q, f)
    assert (swapped.a, swapped.b) == (0, 1)
    assert swapped == BundlePair(r, 0, 1, -P, f, q)
    assert swapped.to_json() == BundlePair(r, 0, 1, -P, f, q).to_json()


def test_chart_input_is_the_form_input():
    """Each entry may be given as its chart F(x, 1), a list of plain
    values: the pair equals the one built from the forms, the chart is
    reduced and trimmed first, and a chart above the forced degree is
    refused like a form."""
    r = ring()
    P, f, q = _split_pair_entries()
    t = two_torsion_pair(r)
    for a, b, forms in ((0, 1, (P, f, q)), (1, 0, (P, q, f)), (1, 1, (t.P, t.f, t.q))):
        want = BundlePair(r, a, b, *forms)
        got = BundlePair(r, a, b, *(e._chart() for e in forms))
        assert got == want and got.to_json() == want.to_json()
    assert BundlePair(r, 0, 2, [], F4._chart(), [1]) == r.trivial_pair()
    assert BundlePair(r, 0, 2, [0, 101], [v + 101 for v in F4._chart()],
                      [102, 0]) == r.trivial_pair()
    with pytest.raises(ValueError, match="q must have degree 0"):
        BundlePair(r, 0, 2, [], F4._chart(), [0, 1])
    with pytest.raises(ValueError, match="entry of negative forced degree must vanish"):
        BundlePair(r, 0, 3, [], (F4 * parse_form("x0", K, 2))._chart(), [1])


def test_a_pair_with_q_zero_is_refused():
    """q = 0 would make P^2 = F, and F is squarefree of positive degree:
    refused where q has a forced degree >= 0 and where it has none."""
    r = ring()
    with pytest.raises(ValueError):
        BundlePair(r, 1, 1, HForm.zero(K, 2, 2), F4, 0)
    with pytest.raises(ValueError):
        BundlePair(r, 1, 1, HForm.zero(K, 2, 2), F4, HForm.zero(K, 2, 2))
    # (a, b) = (0, 3): b - a > l, so q has forced degree -1
    with pytest.raises(ValueError):
        BundlePair(r, 0, 3, HForm.zero(K, 2, 2), F4 * parse_form("x0", K, 2), 0)
    P = parse_form("x0^2 + x1^2", K, 2)
    with pytest.raises(ValueError):
        BundlePair(r, 0, 3, P, F4 * parse_form("x0", K, 2), HForm.zero(K, 2, 0))


def test_local_freeness():
    # a shared zero of P, q and f forces a double root of the branch
    # form, and no ring is built over such a form
    with pytest.raises(NonNormalRingError):
        DoubleCoverRing(K, 2, parse_form("x0^4 - x0^2*x1^2", K, 2))


def test_tensor_with_trivial_is_identity():
    r = ring()
    p = two_torsion_pair(r)
    t = r.trivial_pair()
    assert is_isomorphic(tensor(p, t), p)
    assert is_isomorphic(tensor(t, p), p)


def test_two_torsion_squares_to_trivial():
    r = ring()
    p = two_torsion_pair(r)
    sq = tensor(p, p)
    assert is_isomorphic(sq, r.trivial_pair())
    assert is_isomorphic(inverse(p), p)


def test_isomorphism_distinguishes_classes():
    r = ring()
    p = two_torsion_pair(r)
    q2 = parse_form("x0^2 - 3*x0*x1 + 2*x1^2", K, 2)   # roots 1, 2
    f2 = F4.exact_div(q2)
    other = BundlePair(r, 1, 1, HForm.zero(K, 2, 2), f2, q2)
    assert not is_isomorphic(p, other)
    assert not is_isomorphic(p, r.trivial_pair())


def test_divisor_of_section():
    r = ring()
    p = two_torsion_pair(r)
    # the section (1, 0) of a P = 0 pair vanishes on q = 0
    one = HForm.const(K, 2, 1)
    zero1 = HForm.zero(K, 2, 1)
    u, v = divisor_of_section(p, 1, one, zero1)
    assert u == p.q * K.inv(p.q.coeff((2, 0)))
    assert v.is_zero()


def test_json_roundtrip():
    r = ring()
    p = two_torsion_pair(r)
    assert BundlePair.from_json(p.to_json(), r) == p
