import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from dihedralcovers.fields import GF, QQ
from dihedralcovers.cover_algebra import AFPoly, SimpleCoverAlgebra
from dihedralcovers.homog import HForm
from dihedralcovers.poly import Poly
from dihedralcovers.hyperelliptic import HECurve
from dihedralcovers.parsing import _terms


def split_curve(p, g):
    """A genus-g curve over GF(p) whose branch form splits into
    distinct rational linear factors (roots 0 and small +-r)."""
    K = GF(p)
    roots = [0]
    r = 1
    while len(roots) < 2 * g + 2:
        roots.append(r)
        roots.append(p - r)
        r += 1
    roots = roots[:2 * g + 2]
    f = Poly.one(K)
    x = Poly.x(K)
    for t in roots:
        f = f * (x - Poly.const(K, K.of(t)))
    return HECurve(K, g, HForm.from_univar(f, 2 * g + 2))


def random_point_class(model, rng):
    K = model.field
    while True:
        x = K.random(rng)
        y = K.sqrt(model.fodd(x))
        if y is None:
            continue
        return model.point_class(x, y)


def random_class(model, g, rng):
    c = model.zero_class()
    for _ in range(g):
        c = c + random_point_class(model, rng)
    return c


def watch_plain_values(monkeypatch, check):
    """Patch ``poly.plain_poly`` and ``homog.plain_form`` wherever the
    package imported them, so that every Poly and HForm they build has
    its plain values asserted by ``check`` (one value at a time).
    Returns the list the built objects are appended to."""
    import dihedralcovers
    from dihedralcovers import homog, poly

    built = []

    def checked(make):
        def build(field, *args):
            obj = make(field, *args)
            built.append(obj)
            values = obj.c if isinstance(obj, Poly) else list(obj.terms.values())
            assert all(map(check, values)), values
            return obj
        return build

    for source, name in ((poly, "plain_poly"), (homog, "plain_form")):
        orig = getattr(source, name)
        for module in vars(dihedralcovers).values():
            if getattr(module, name, None) is orig:
                monkeypatch.setattr(module, name, checked(orig))
    return built


# -- boxed references: loops on lists of field elements -----------------


def ref_trim(c):
    """A copy of c without trailing zeros."""
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def ref_divmod(K, a, b):
    """(quotient, remainder) of a by the nonzero b, one field operation
    at a time."""
    q = [K.zero] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    dinv = K.inv(b[-1])
    db = len(b) - 1
    for i in range(len(r) - 1 - db, -1, -1):
        t = r[i + db] * dinv
        if not t:
            continue
        q[i] = t
        for j, y in enumerate(b):
            r[i + j] = r[i + j] - t * y
    return ref_trim(q), ref_trim(r)


def ref_resultant(K, a, b):
    """Res(a, b) by Euclid on field elements: with r = a mod b,
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r).  The
    oracle of every resultant of the package, whose code it shares
    with no routine there."""
    if not a or not b:
        return K.zero
    res = K.one
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * b[0] ** da
        r = ref_divmod(K, a, b)[1]
        if not r:
            return K.zero
        res = res * b[-1] ** (da - len(r) + 1)
        if da % 2 and db % 2:
            res = -res
        a, b = b, r


def identity(dim, K):
    """The dim x dim identity matrix over K."""
    return [[K.one if i == j else K.zero for j in range(dim)] for i in range(dim)]


def matmul(a, b, K):
    """The product of two square matrices over K, skipping zero entries."""
    dim = len(a)
    out = [[K.zero] * dim for _ in range(dim)]
    for i in range(dim):
        for k in range(dim):
            if not a[i][k]:
                continue
            aik = a[i][k]
            for j in range(dim):
                if b[k][j]:
                    out[i][j] = out[i][j] + aik * b[k][j]
    return out


def parse_univar(s, field):
    """The inverse of ``parsing.format_univar``: a univariate polynomial
    in any one variable; a constant string works too."""
    coeffs = {}
    seen = set()
    for c, exps in _terms(s):
        seen.update(exps)
        e = sum(exps.values())
        if len(exps) > 1:
            raise ValueError("more than one variable in %r" % s)
        coeffs[e] = coeffs.get(e, Fraction(0)) + c
    if len(seen) > 1:
        raise ValueError("unexpected variables %s in %r" % (sorted(seen), s))
    deg = max(coeffs) if coeffs else 0
    return Poly(field, [coeffs.get(i, 0) for i in range(deg + 1)])


def euler_characteristic_form(d, p, k):
    """chi of Omega^p(k) on projective d-space, computed independently
    of ``deformations.bott`` through the exterior powers of the Euler
    sequence."""
    def chi_line(j):
        v = Fraction(1)
        for i in range(1, d + 1):
            v *= Fraction(j + i, i)
        return v
    if p == 0:
        return int(chi_line(k))
    val = comb(d + 1, p) * chi_line(k - p) - euler_characteristic_form(d, p - 1, k)
    return int(val)


def afpoly_a(K, i=1):
    """The formal symbol a^i as an AFPoly."""
    return AFPoly(K, {(i, 0): K.one})


def afpoly_F(K, j=1):
    """The formal symbol F^j as an AFPoly."""
    return AFPoly(K, {(0, j): K.one})


def phi_tensor(n, K=QQ):
    """The values of the degree-n form on tuples from the eigenspace
    basis (u, v^(n-1)).

    Returns a dict mapping each tuple of 0/1 choices (0 = u,
    1 = v^(n-1)) to the AFPoly coefficient of u wedge v^(n-1).
    """
    if n < 3:
        raise ValueError("the tensor form needs n >= 3")
    A = SimpleCoverAlgebra(n, K)
    gens = [A.u(1), A.v(n - 1)]
    out = {}
    for choice in itertools.product((0, 1), repeat=n):
        prod = A.one()
        for c in choice[:-1]:
            prod = A.mul(prod, gens[c])
        w = A.tau(prod)
        # w lies in the eigenspace spanned by u and v^(n-1)
        alpha = w.get(("u", 1), AFPoly(A.K))
        beta = w.get(("v", n - 1), AFPoly(A.K))
        rest = {k: c for k, c in w.items() if k not in (("u", 1), ("v", n - 1))}
        if rest:
            raise AssertionError("product left the expected eigenspace: %r" % rest)
        if choice[-1] == 0:       # wedge with u
            val = -beta
        else:                     # wedge with v^(n-1)
            val = alpha
        out[choice] = val
    return out


def d3_resolvent(K=QQ):
    """Check the resolvent cubic w^3 = 2a + 3F w for w = u + v at n = 3
    and return the discriminant 108(F^3 - a^2)."""
    A = SimpleCoverAlgebra(3, K)
    w = A.add(A.u(1), A.v(1))
    w3 = A.mul(A.mul(w, w), w)
    rhs = A.add(A.scale(afpoly_a(K) * 2, A.one()),
                A.scale(afpoly_F(K) * 3, w))
    if not A.equal(w3, rhs):
        raise AssertionError("resolvent identity w^3 = 2a + 3Fw failed")
    return (afpoly_F(K, 3) - afpoly_a(K, 2)) * 108


def phi_is_symmetric(table):
    """True when the values of ``phi_tensor`` depend only on the
    multiset of arguments."""
    by_count = {}
    for choice, val in table.items():
        c = sum(choice)
        if c in by_count:
            if by_count[c] != val:
                return False
        else:
            by_count[c] = val
    return True


@pytest.fixture
def rng():
    return random.Random(20260824)
