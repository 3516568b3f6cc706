import random
import time
from fractions import Fraction

import pytest

from dihedralcovers.fields import QQ, GF, FpElem, field_from_name
from dihedralcovers.homog import HForm
from dihedralcovers.poly import Poly


def test_rationals_protocol():
    assert QQ.zero == 0
    assert QQ.one == 1
    assert QQ.of(3) == Fraction(3)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.characteristic == 0
    # plain values are ints where integral; elements are Fractions
    for x in (3, Fraction(6, 2), QQ.of(-4)):
        assert type(QQ.unbox(x)) is int and QQ.unbox(x) == x
    assert type(QQ.unbox(Fraction(1, 2))) is Fraction
    for v in (3, Fraction(1, 2)):
        assert type(QQ.box(v)) is Fraction and QQ.box(v) == v


def test_rationals_refuse_floats():
    """A float is no exact rational: QQ refuses it as GF(p) does, and so
    do the constructors that embed coefficients through it."""
    for embed in (QQ.unbox, QQ.of, QQ.inv, GF(7).unbox):
        with pytest.raises(TypeError):
            embed(0.1)
    with pytest.raises(TypeError):
        HForm(QQ, 2, 1, {(1, 0): 0.5})
    with pytest.raises(TypeError):
        Poly(QQ, [1, 0.5])


def test_prime_field_arithmetic():
    K = GF(7)
    a = K.of(3)
    b = K.of(5)
    assert a + b == K.of(1)
    assert a - b == K.of(5)
    assert a * b == K.of(1)
    assert a / b == a * b.inverse()
    assert -a == K.of(4)
    assert a ** 6 == K.one
    assert K.of(Fraction(1, 2)) == K.of(4)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        GF(9)
    with pytest.raises(ValueError):
        GF(2)


def test_prime_field_primality_is_certified():
    start = time.perf_counter()
    assert GF(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.perf_counter() - start < 0.1
    # a Carmichael number, a product of two close primes, a strong
    # pseudoprime to the bases 2, 3, 5 and 7, and 2 and 1
    for n in (561, 1009 * 1013, 3215031751, 2, 1):
        with pytest.raises(ValueError, match="odd prime"):
            GF(n)
    # Miller-Rabin to the first 13 prime bases is exact only below 3.3e24
    with pytest.raises(ValueError, match="cannot certify"):
        GF(3317044064679887385961981)
    with pytest.raises(ValueError, match="cannot certify"):
        GF(2 ** 89 - 1)


def test_division_by_zero():
    K = GF(11)
    with pytest.raises(ZeroDivisionError):
        K.inv(K.zero)


def test_sqrt():
    for p in (7, 11, 13, 101, 211):
        K = GF(p)
        squares = {(K.of(v) * K.of(v)).v for v in range(p)}
        for v in range(p):
            a = K.of(v)
            r = K.sqrt(a)
            if v in squares:
                assert r is not None and r * r == a
            else:
                assert r is None


def test_random_elements_are_reproducible():
    K = GF(101)
    a = K.random(random.Random(3))
    b = K.random(random.Random(3))
    assert a == b
    assert K.random_nonzero(random.Random(3)) != K.zero


def test_field_from_name():
    assert field_from_name("Q") is QQ
    assert field_from_name("Fp:101") == GF(101)
    with pytest.raises(ValueError):
        field_from_name("Fp:10")
    with pytest.raises(ValueError):
        field_from_name("R")


def test_mixed_characteristic_rejected():
    with pytest.raises(ValueError):
        FpElem(1, 7) + FpElem(1, 11)


def test_embedding_agrees_with_unbox():
    K = GF(7)
    with pytest.raises(ValueError, match="mixed characteristics 7 and 5"):
        K.of(FpElem(3, 5))
    with pytest.raises(ZeroDivisionError):
        K.of(Fraction(3, 14))
    for x, v in ((10, 3), (-1, 6), (Fraction(1, 2), 4), (Fraction(-5, 3), 3),
                 (FpElem(3, 7), 3), (FpElem(0, 7), 0)):
        y = K.of(x)
        assert type(y) is FpElem and (y.v, y.p) == (v, 7) and y.v == K.unbox(x)


class Foreign:
    """A type FpElem does not know, with reflected operators of its own."""

    def __radd__(self, other):
        return ("radd", other)

    def __rsub__(self, other):
        return ("rsub", other)

    def __rmul__(self, other):
        return ("rmul", other)

    def __rtruediv__(self, other):
        return ("rtruediv", other)

    def __sub__(self, other):
        return NotImplemented

    def __truediv__(self, other):
        return NotImplemented


def test_foreign_operand_gets_its_reflected_operator():
    K = GF(7)
    a = K.of(3)
    x = Foreign()
    assert a + x == ("radd", a)
    assert a - x == ("rsub", a)
    assert a * x == ("rmul", a)
    assert a / x == ("rtruediv", a)
    with pytest.raises(TypeError):
        x - a               # FpElem.__rsub__ declines as well
    with pytest.raises(TypeError):
        x / a               # FpElem.__rtruediv__ declines as well
    with pytest.raises(TypeError):
        a + 1.5


def test_prime_field_element_equals_only_its_residue():
    """An FpElem equals an int only when the int is its residue in
    range(p), and hashes as that int; no Fraction equals it."""
    K = GF(7)
    assert K.of(3) == 3 and 3 == K.of(3) and hash(K.of(3)) == hash(3)
    assert K.of(3) != 10 and K.of(3) != -4 and K.of(Fraction(1, 2)) == 4
    assert 3 in {K.of(3)} and K.of(10) in {3} and 10 not in {K.of(3)}
    assert K.of(Fraction(1, 2)) != Fraction(1, 2) and K.zero != Fraction(0)
    assert K.zero == 0 and not K.zero and {0: "zero"}[K.zero] == "zero"


def test_equal_values_hash_alike():
    """x == y implies hash(x) == hash(y) over FpElem, int and Poly
    values mixed, so a dict keyed by any of them finds the others."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    fields = [GF(3), GF(7), GF(101), QQ]

    def value(kind, field, n, length):
        if kind == "int":
            return n
        if kind == "elem":
            return field.of(n) if field.characteristic else n
        return Poly(field, [n] + [n + 1] * length)

    values = st.tuples(st.sampled_from(("int", "elem", "poly")), st.sampled_from(fields),
                       st.integers(-12, 12), st.integers(0, 1))

    @hyp.settings(max_examples=400, deadline=None)
    @hyp.given(st.lists(values, min_size=2, max_size=6))
    def run(drawn):
        xs = [value(*d) for d in drawn]
        for x in xs:
            for y in xs:
                if x == y:
                    assert hash(x) == hash(y), (x, y)
                assert (y in {x: 0}) == (x == y), (x, y)

    run()
    K, x = GF(7), Poly.x(QQ)
    assert Poly.const(QQ, 3) == 3 and 3 in {Poly.const(QQ, 3)}
    assert Poly.zero(K) == 0 and 0 in {Poly.zero(K)} and Poly.zero(K) in {0: 1}
    assert Poly.const(K, 3) != 10 and Poly.const(K, 10) == 3
    assert x != 0 and x * 0 == 0 and {x: 1}[Poly.x(QQ)] == 1
