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
