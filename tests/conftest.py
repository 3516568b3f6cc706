import random

import pytest

from dihedralcovers.fields import GF
from dihedralcovers.homog import HForm
from dihedralcovers.poly import Poly
from dihedralcovers.hyperelliptic import HECurve


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


@pytest.fixture
def rng():
    return random.Random(20260824)
