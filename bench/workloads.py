"""The four benchmark workloads: torsion, grouplaw, dihedral and plane.

A workload builds its inputs and oracle values from a seeded RNG in
``setup`` and describes one *round*: a fixed list of op slots.  The
composition of a round never depends on the seed; the seed chooses the
concrete inputs (curves' classes, forms, algebra elements) and the
order of the slots.  A run executes whole rounds, so every run of a
workload measures the same mix of op kinds.  ``ROUND_SECONDS`` is about
the wall time of one round on the machine this benchmark was built on (2
cores of a shared 2.1 GHz Xeon host, Python 3.11, at its usual slowdown
of about 1.35, see ``speed.py``); it turns ``--seconds`` into a round
count.

Every op is a zero-argument closure that calls the library through its
module attributes (``lib.hyperelliptic.is_n_torsion``), so the tracer's
wrappers see the call.  ``check`` is the independent oracle, applied
after the timed phase.  ``summary`` turns a result into JSON for the
output digest.
"""

import itertools
import json
import random
from fractions import Fraction

SAFETY_DEADLINE_S = 30.0    # no op is expected to come near this
STRESS_DEADLINE_S = 5.0     # the Q (4,1) / (2,2) plane checks


class Lib(dict):
    """Module short name -> module of one import of the package."""

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


class Op:
    __slots__ = ("kind", "key", "call", "deadline")

    def __init__(self, kind, key, call, deadline=SAFETY_DEADLINE_S):
        self.kind = kind
        self.key = key
        self.call = call
        self.deadline = deadline


class SetupFailed(Exception):
    """An input whose construction raised during set-up."""


def _raise_setup_failure(message):
    def call():
        raise SetupFailed(message)
    return call


# -- curves and classes ------------------------------------------------


def split_curve(lib, p, g):
    """Genus-g curve over GF(p) whose branch form splits into distinct
    linear factors with roots 0, 1, -1, 2, -2, ..."""
    K = lib.fields.GF(p)
    Poly = lib.poly.Poly
    roots = [0]
    r = 1
    while len(roots) < 2 * g + 2:
        roots += [r, p - r]
        r += 1
    f = Poly.one(K)
    for t in roots[:2 * g + 2]:
        f = f * Poly(K, [K.of(-t), K.one])
    return lib.hyperelliptic.HECurve(K, g, lib.homog.HForm.from_univar(f, 2 * g + 2))


def quintic_curve(lib, rng):
    """y^2 = (seeded squarefree monic quintic) over GF(5), genus 2."""
    K = lib.fields.GF(5)
    Poly = lib.poly.Poly
    while True:
        f = Poly(K, [K.of(rng.randrange(5)) for _ in range(5)] + [K.one])
        if lib.poly.poly_gcd(f, f.derivative()).degree == 0:
            return lib.hyperelliptic.HECurve.from_odd_poly(K, 2, f)


def random_point_class(model, rng):
    K = model.field
    while True:
        x = K.random(rng)
        y = K.sqrt(model.fodd(x))
        if y is not None:
            return model.point_class(x, y)


def random_class(model, g, rng):
    """A nonzero class: the sum of g random points minus g * infinity."""
    while True:
        c = model.zero_class()
        for _ in range(g):
            c = c + random_point_class(model, rng)
        if not c.is_zero():
            return c


class Workload:
    name = None
    ROUND_SECONDS = None

    def setup(self, lib, rng):
        raise NotImplementedError

    def round(self, state, r):
        raise NotImplementedError

    def check(self, state, op, value):
        """True when ``value`` is right, False when it is wrong, or the
        name of a known defect that produced it (a failed op, not a
        mismatch)."""
        raise NotImplementedError

    def check_groups(self, state, items):
        """Indices into ``items`` (pairs (op, value) that passed
        ``check``) failing a check that spans several ops."""
        return set()

    def summary(self, op, value):
        return value


# -- torsion -----------------------------------------------------------


class Torsion(Workload):
    """One op is ``is_n_torsion(pair, n)`` on a band matrix over GF(p).

    A round has 50 ops, cheapest first: 16 under 20 ms, 17 copies of
    (g, n) = (2, 7) around the median, 8 single ops between, 7 copies of
    (3, 10) around p90, then (4, 9) and (4, 12).  Each block of copies has
    equal expected cost and the percentile sits in its middle, so neither
    falls on a steep part of the latency distribution.  The small-field
    classes stay far below the median: their cost depends on the class.
    """

    name = "torsion"
    ROUND_SECONDS = 11.0
    # source: (p, g, pairs from)
    SOURCES = {
        "p1009-g1": (1009, 1, "random"),
        "p1009-g2": (1009, 2, "random"),
        "p1009-g3": (1009, 3, "random"),
        "p1009-g4": (1009, 4, "random"),
        "p11-g1": (11, 1, "random"),
        "p13-g2": (13, 2, "random"),
        "p1009-g2-2tors": (1009, 2, "two_torsion"),
        "p1009-g3-2tors": (1009, 3, "two_torsion"),
    }
    # (source, n, copies per round), cheapest first
    ROUND = (
        [("p1009-g1", n, 1) for n in range(2, 6)]
        + [("p11-g1", n, 1) for n in (2, 3, 4, 5, 6, 10)]
        + [("p13-g2", 2, 1), ("p13-g2", 3, 1), ("p13-g2", 6, 1), ("p1009-g2-2tors", 2, 1),
           ("p1009-g2-2tors", 3, 1), ("p1009-g3-2tors", 2, 1)]
        + [("p1009-g2", 7, 17)]
        + [(src, n, 1) for src, n in (("p1009-g3", 7), ("p1009-g2", 8), ("p1009-g1", 12),
                                      ("p1009-g4", 6), ("p1009-g2", 9), ("p1009-g3", 8),
                                      ("p1009-g4", 7), ("p1009-g2", 10))]
        + [("p1009-g3", 10, 7), ("p1009-g4", 9, 1), ("p1009-g4", 12, 1)]
    )
    ROUNDS_WITHOUT_REPEATS = 2  # classes per source: its ops in this many rounds

    def _uses(self, src):
        return sum(copies for s, _, copies in self.ROUND if s == src)

    def setup(self, lib, rng):
        H = lib.hyperelliptic
        pools, oracle = {}, {}
        for src, (p, g, origin) in self.SOURCES.items():
            curve = split_curve(lib, p, g)
            size = self.ROUNDS_WITHOUT_REPEATS * self._uses(src)
            if origin == "random":
                model = curve.odd_model()
                classes = [random_class(model, g, rng) for _ in range(size)]
                pairs = [H.matrix_from_class(curve, c) for c in classes]
            else:
                pairs = rng.sample(H.enumerate_two_torsion(curve), size)
                classes = [H.class_from_matrix(pair) for pair in pairs]
            pools[src] = pairs
            # the oracle: the multiples n * c by iterated Cantor addition
            top = max(n for s, n, _ in self.ROUND if s == src)
            for i, c in enumerate(classes):
                multiple = c
                for n in range(2, top + 1):
                    multiple = multiple + c
                    oracle[(src, i, n)] = multiple.is_zero()
        return {"lib": lib, "pools": pools, "oracle": oracle}

    def round(self, state, r):
        H = state["lib"].hyperelliptic
        ops = []
        used = dict.fromkeys(self.SOURCES, 0)
        for src, n, copies in self.ROUND:
            pool = state["pools"][src]
            for _ in range(copies):
                i = (r * self._uses(src) + used[src]) % len(pool)
                used[src] += 1
                pair = pool[i]
                ops.append(Op(src, (src, i, n),
                              lambda pair=pair, n=n: H.is_n_torsion(pair, n)))
        return ops

    def check(self, state, op, value):
        return value == state["oracle"][op.key]


# -- grouplaw ----------------------------------------------------------


class GroupLaw(Workload):
    """One op is a group-law round on two seeded classes: Cantor sum,
    tensor and its class, inverse, the pair of the sum, isomorphism.

    The copies per round put the median in the middle of the genus-2
    block and p90 in the middle of the genus-4 block.
    """

    name = "grouplaw"
    ROUND_SECONDS = 0.75
    # (source, p, g, copies per round); p = 5 is the squarefree quintic
    SOURCES = [
        ("p101-g1", 101, 1, 6),
        ("p101-g2", 101, 2, 6),
        ("p1009-g1", 1009, 1, 6),
        ("p1009-g2", 1009, 2, 10),
        ("p1009-g3", 1009, 3, 5),
        ("p1009-g4", 1009, 4, 6),
        ("p5-g2-quintic", 5, 2, 1),
    ]
    CLASSES = 8     # per curve; an op takes an ordered pair of distinct ones
    PAIRS = list(itertools.permutations(range(CLASSES), 2))

    def setup(self, lib, rng):
        H = lib.hyperelliptic
        inputs, broken = {}, {}
        for src, p, g, _ in self.SOURCES:
            try:
                curve = quintic_curve(lib, rng) if p == 5 else split_curve(lib, p, g)
                model = curve.odd_model()
            except (ValueError, ArithmeticError) as e:
                broken[src] = "%s: %s" % (type(e).__name__, e)
                continue
            classes = [random_class(model, g, rng) for _ in range(self.CLASSES)]
            inputs[src] = {"curve": curve, "classes": classes,
                           "pairs": [H.matrix_from_class(curve, c) for c in classes],
                           "sums": {(i, j): classes[i] + classes[j] for i, j in self.PAIRS},
                           "negs": [-c for c in classes]}
        return {"lib": lib, "inputs": inputs, "broken": broken, "seen": {}}

    def round(self, state, r):
        lib = state["lib"]
        ops = []
        for src, _, _, copies in self.SOURCES:
            for k in range(copies):
                i, j = self.PAIRS[(r * copies + k) % len(self.PAIRS)]
                if src in state["broken"]:
                    call = _raise_setup_failure(state["broken"][src])
                else:
                    inp = state["inputs"][src]
                    call = lambda inp=inp, i=i, j=j: self._group_round(lib, inp, i, j)
                ops.append(Op(src, (src, i, j), call))
        return ops

    @staticmethod
    def _group_round(lib, inp, i, j):
        H, D = lib.hyperelliptic, lib.double_cover
        s = H.cantor_add(inp["classes"][i], inp["classes"][j])
        t = D.tensor(inp["pairs"][i], inp["pairs"][j])
        tc = H.class_from_matrix(t)
        inv = D.inverse(inp["pairs"][i])
        ms = H.matrix_from_class(inp["curve"], s)
        iso = D.is_isomorphic(t, ms)
        return s, tc, inv, ms, iso

    def check(self, state, op, value):
        first = state["seen"].get(op.key)
        if first is not None:
            return all(a == b for a, b in zip(value, first))
        H = state["lib"].hyperelliptic
        src, i, j = op.key
        inp = state["inputs"][src]
        total = inp["sums"][(i, j)]
        s, tc, inv, ms, iso = value
        good = (s == total and tc == total and iso is True
                and H.class_from_matrix(ms) == total
                and H.class_from_matrix(inv) == inp["negs"][i])
        if good:
            state["seen"][op.key] = value
        return good

    def summary(self, op, value):
        s, tc, inv, ms, iso = value
        return {"sum": s.to_json(), "tensorClass": tc.to_json(),
                "inverse": inv.to_json(), "pairOfSum": ms.to_json(),
                "isomorphic": iso}


# -- dihedral ----------------------------------------------------------


def _sparse_rows(m):
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def _sparse_product(a, b):
    """a * b as a list of {column: entry} rows; skips zero entries."""
    rows_b = _sparse_rows(b)
    out = []
    for row in _sparse_rows(a):
        acc = {}
        for k, x in row:
            for j, y in rows_b[k]:
                acc[j] = acc[j] + x * y if j in acc else x * y
        out.append(acc)
    return out


def _product_equals(prod, m):
    for d, row in zip(prod, m):
        for j, x in enumerate(row):
            y = d.get(j)
            if (y is None and x) or (y is not None and not y == x):
                return False
    return True


class Dihedral(Workload):
    """Two op kinds: ``projector`` + ``projector_rank`` for every (n,
    label), and associativity plus tau/sigma-homomorphism checks in
    ``SimpleCoverAlgebra(n, CyclotomicField(n))``.

    The projector costs rise steadily from rank to rank, so more copies
    of the projector at the median, (9, "rho1"), and of one at p90, (12,
    "chi1"), make blocks of equal cost for the percentiles to sit in.
    """

    name = "dihedral"
    ROUND_SECONDS = 12.0
    PROJECTOR_NS = range(2, 13)
    ALGEBRA_NS = range(3, 9)
    POOL = 4
    BLOCKS = ((9, "rho1", 20), (12, "chi1", 5))  # n, label, extra copies per round

    def setup(self, lib, rng):
        CA = lib.cover_algebra
        fields = {n: lib.cyclotomic.CyclotomicField(n) for n in self.PROJECTOR_NS}
        algebras, triples = {}, {}
        for n in self.ALGEBRA_NS:
            K = lib.cyclotomic.CyclotomicField(n)
            A = CA.SimpleCoverAlgebra(n, K)
            algebras[n] = A
            triples[n] = [tuple(self._random_element(CA, A, K, rng) for _ in range(3))
                          for _ in range(self.POOL)]
        return {"lib": lib, "fields": fields, "algebras": algebras,
                "triples": triples, "seen": {}}

    @staticmethod
    def _random_element(CA, A, K, rng):
        """Three random basis elements with coefficients c0 + c1*a,
        c0, c1 small combinations of 1 and a power of zeta."""
        basis = A.basis()
        x = A.zero()
        for b in rng.sample(basis, 3):
            coef = {}
            for e in ((0, 0), (1, 0)):
                coef[e] = (K.of(rng.randint(-3, 3))
                           + K.of(rng.randint(-3, 3)) * K.zeta(rng.randrange(K.n)))
            x = A.add(x, A.scale(CA.AFPoly(K, coef), b))
        return x

    def round(self, state, r):
        lib = state["lib"]
        D = lib.dihedral
        ops = []
        slots = [(n, label) for n in self.PROJECTOR_NS for label in D.irreducible_labels(n)]
        for n, label, copies in self.BLOCKS:
            slots += [(n, label)] * copies
        for n, label in slots:
            K = state["fields"][n]
            ops.append(Op("projector-n%d" % n, ("projector", n, label),
                          lambda n=n, label=label, K=K: self._projector(D, n, label, K)))
        for n in self.ALGEBRA_NS:
            i = r % self.POOL
            A = state["algebras"][n]
            x, y, z = state["triples"][n][i]
            ops.append(Op("algebra-n%d" % n, ("algebra", n, i),
                          lambda A=A, x=x, y=y, z=z: self._algebra(A, x, y, z)))
        return ops

    @staticmethod
    def _projector(D, n, label, K):
        p = D.projector(n, label, K)
        return p, D.projector_rank(p)

    @staticmethod
    def _algebra(A, x, y, z):
        xy = A.mul(x, y)
        return (A.mul(xy, z), A.mul(x, A.mul(y, z)),
                A.tau(xy), A.mul(A.tau(x), A.tau(y)),
                A.sigma(xy), A.mul(A.sigma(x), A.sigma(y)))

    def check(self, state, op, value):
        if op.key[0] == "algebra":
            A = state["algebras"][op.key[1]]
            return all(A.equal(value[k], value[k + 1]) for k in (0, 2, 4))
        p, rank = value
        first = state["seen"].get(op.key)
        if first is not None:
            return rank == first[1] and p == first[0]
        label = op.key[2]
        degree = 1 if label.startswith("chi") else 2
        good = rank == degree * degree and _product_equals(_sparse_product(p, p), p)
        if good:
            state["seen"][op.key] = value
        return good

    def check_groups(self, state, items):
        """For each n: the projectors sum to the identity and are
        pairwise orthogonal."""
        D = state["lib"].dihedral
        bad = set()
        for n in self.PROJECTOR_NS:
            labels = D.irreducible_labels(n)
            projs = [state["seen"].get(("projector", n, lab)) for lab in labels]
            if any(p is None for p in projs):
                continue
            K = state["fields"][n]
            mats = [p for p, _ in projs]
            dim = len(mats[0])
            good = True
            for i in range(dim):
                for j in range(dim):
                    s = K.zero
                    for m in mats:
                        s = s + m[i][j]
                    good = good and s == (K.one if i == j else K.zero)
            for a in range(len(mats)):
                for b in range(a + 1, len(mats)):
                    prod = _sparse_product(mats[a], mats[b])
                    good = good and not any(x for row in prod for x in row.values())
            if not good:
                bad.update(k for k, (op, _) in enumerate(items)
                           if op.key[0] == "projector" and op.key[1] == n)
        return bad

    def summary(self, op, value):
        if op.key[0] == "projector":
            p, rank = value
            return {"rank": rank, "matrix": [[repr(x) for x in row] for row in p]}
        return {"products": [{repr(k): repr(c) for k, c in sorted(v.items(), key=repr)}
                             for v in value]}


# -- plane -------------------------------------------------------------
#
# The plane oracle certifies on its own that two plane curves a = 0 and
# F = 0 meet transversally.  After a seeded change of coordinates that
# moves the projection centre off both curves, the resultant of a and F
# in the last variable is a binary form of degree deg a * deg F whose
# roots are the lines through the centre that hold intersection points,
# each with the sum of their multiplicities.  So when it has full degree
# in t = x1/x0 and is squarefree, the curves meet in deg a * deg F
# distinct points, each of multiplicity 1.  All arithmetic is modulo a
# prime P: the field's own prime, or for Q the prime 2^61 - 1, where the
# argument is the sound one-sided one: a reduction that keeps the degree
# and has gcd(R, R') = 1 proves R squarefree over Q.

ORACLE_PRIME = 2 ** 61 - 1


def _residue(c, P):
    """An int, Fraction or GF(p) element modulo P."""
    v = Fraction(getattr(c, "v", c))
    return v.numerator * pow(v.denominator, -1, P) % P


def _trim(f):
    while f and not f[-1]:
        f = f[:-1]
    return f


def _pmul(f, g, P):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = (out[i + j] + x * y) % P
    return out


def _det(m, P):
    m = [list(row) for row in m]
    size, det = len(m), 1
    for c in range(size):
        piv = next((i for i in range(c, size) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % P
        inv = pow(m[c][c], -1, P)
        for i in range(c + 1, size):
            f = m[i][c] * inv % P
            if f:
                m[i] = [(x - f * y) % P for x, y in zip(m[i], m[c])]
    return det % P


def _restrict(terms, deg, u, v, P):
    """Coefficients in z, lowest first, of form(u + z v) modulo P."""
    powers = []
    for ui, vi in zip(u, v):
        pw = [[1]]
        for _ in range(deg):
            pw.append(_pmul(pw[-1], [ui % P, vi % P], P))
        powers.append(pw)
    out = [0] * (deg + 1)
    for (e0, e1, e2), c in terms.items():
        prod = _pmul(_pmul(powers[0][e0], powers[1][e1], P), powers[2][e2], P)
        for k, x in enumerate(prod):
            out[k] = (out[k] + c * x) % P
    return out


def _resultant(f, g, P):
    """Sylvester resultant of two polynomials of full degree, up to sign."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + f[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + g[::-1] + [0] * (m - 1 - i) for i in range(m)]
    return _det(rows, P)


def _interpolate(ys, P):
    """The polynomial of degree < len(ys) through (k, ys[k])."""
    out = [0] * len(ys)
    for k, y in enumerate(ys):
        basis, denom = [1], 1
        for j in range(len(ys)):
            if j != k:
                basis = _pmul(basis, [-j % P, 1], P)
                denom = denom * (k - j) % P
        scale = y * pow(denom, -1, P) % P
        for i, b in enumerate(basis):
            out[i] = (out[i] + scale * b) % P
    return _trim(out)


def _poly_mod(f, g, P):
    f = list(f)
    inv = pow(g[-1], -1, P)
    while len(f) >= len(g):
        q = f[-1] * inv % P
        shift = len(f) - len(g)
        for i, y in enumerate(g):
            f[shift + i] = (f[shift + i] - q * y) % P
        f = _trim(f)
    return f


def _gcd_degree(f, g, P):
    f, g = _trim(f), _trim(g)
    while g:
        f, g = g, _poly_mod(f, g, P)
    return len(f) - 1


def meet_transversally(a, F, p, rng, tries=3):
    """True when the curves a = 0 and F = 0 (term dicts of ternary forms
    over Q, or over GF(p) when p > 0) meet transversally, certified as
    above; None when ``tries`` coordinate changes certified nothing."""
    P = p or ORACLE_PRIME
    a = {e: _residue(c, P) for e, c in a.items()}
    F = {e: _residue(c, P) for e, c in F.items()}
    d1, d2 = sum(next(iter(a))), sum(next(iter(F)))
    top = d1 * d2
    for _ in range(tries):
        m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        if not _det(m, P):
            continue
        c0, c1, v = ([m[i][j] for i in range(3)] for j in range(3))
        ys = []
        for t in range(top + 1):
            u = [x + t * y for x, y in zip(c0, c1)]
            fa, fF = _restrict(a, d1, u, v, P), _restrict(F, d2, u, v, P)
            if not (fa[-1] and fF[-1]):
                break       # the centre lies on a curve
            ys.append(_resultant(fa, fF, P))
        else:
            R = _interpolate(ys, P)
            derivative = [i * x % P for i, x in enumerate(R)][1:]
            if len(R) - 1 == top and _gcd_degree(R, derivative, P) == 0:
                return True
    return None


class Plane(Workload):
    """One op is ``cli.run_job`` of a "check" job on seeded text forms,
    followed by ``json.dumps(sort_keys=True)``."""

    name = "plane"
    ROUND_SECONDS = 42.0
    # (kind, field, n, m, copies per round, common component?).  A round
    # has 100 ops.  The 34 common-component inputs (a few ms each) lie
    # below the median block, the 50 (2,1) checks over Q (about 0.2 s);
    # p50, rank 50, is its 16th op.  The ten (3,1) checks over GF(1009)
    # (about 0.4 s) hold p90, rank 90, as their 6th op; above them lie
    # one (3,1) over Q, one (2,2) and one (3,2) over GF(1009) (1 to 7 s),
    # and three known defects.  The Jacobian-scan defect fails one more
    # op in about one run in four; that moves each percentile by one rank
    # within its block.
    KINDS = [
        ("Q-2-1", "Q", 2, 1, 50, False),
        ("Q-3-1", "Q", 3, 1, 1, False),
        ("p1009-3-1", "Fp:1009", 3, 1, 10, False),
        ("p1009-2-2", "Fp:1009", 2, 2, 1, False),
        ("p1009-3-2", "Fp:1009", 3, 2, 1, False),
        ("p101-3-2", "Fp:101", 3, 2, 1, False),
        ("shared-Q-2-1", "Q", 2, 1, 9, True),
        ("shared-Q-3-1", "Q", 3, 1, 9, True),
        ("shared-p1009-3-1", "Fp:1009", 3, 1, 8, True),
        ("shared-p1009-2-2", "Fp:1009", 2, 2, 8, True),
        # both run into the deadline today
        ("stress-Q-4-1", "Q", 4, 1, 1, False),
        ("stress-Q-2-2", "Q", 2, 2, 1, False),
    ]

    def setup(self, lib, rng):
        jobs, forms = {}, {}
        for kind, field, n, m, copies, shared in self.KINDS:
            made = [self._job(lib, rng, field, n, m, shared) for _ in range(copies)]
            jobs[kind] = [job for job, _ in made]
            forms[kind] = [terms for _, terms in made]
        return {"lib": lib, "jobs": jobs, "forms": forms}

    @staticmethod
    def _random_form(lib, rng, K, deg):
        """Dense ternary form: integers in [-9, 9] over Q, uniform over GF(p)."""
        p = K.characteristic
        while True:
            terms = {}
            for i in range(deg + 1):
                for j in range(deg + 1 - i):
                    v = rng.randrange(p) if p else rng.randint(-9, 9)
                    terms[(i, j, deg - i - j)] = K.of(v)
            form = lib.homog.HForm(K, 3, deg, terms)
            if not form.is_zero():
                return form

    def _job(self, lib, rng, field, n, m, shared):
        K = lib.fields.field_from_name(field)
        if shared:
            line = self._random_form(lib, rng, K, 1)
            a = line * self._random_form(lib, rng, K, n * m - 1)
            F = line * self._random_form(lib, rng, K, 2 * m - 1)
        else:
            a = self._random_form(lib, rng, K, n * m)
            F = self._random_form(lib, rng, K, 2 * m)
        fmt = lib.parsing.format_form
        job = {"command": "check", "field": field, "n": n, "m": m,
               "a": fmt(a), "F": fmt(F), "seed": rng.randrange(1000)}
        return job, (a.terms, F.terms, K.characteristic)

    def round(self, state, r):
        cli = state["lib"].cli
        ops = []

        def call(job):
            report, code = cli.run_job(job)
            return code, json.dumps(report, sort_keys=True)

        for kind, *_ in self.KINDS:
            deadline = STRESS_DEADLINE_S if kind.startswith("stress-") else SAFETY_DEADLINE_S
            for i, job in enumerate(state["jobs"][kind]):
                ops.append(Op(kind, (kind, i), lambda job=job: call(job), deadline))
        return ops

    def check(self, state, op, value):
        """Common-component inputs must fail (ii) with that certificate.
        For the others the oracle above certifies that a and F meet
        transversally in 2nm^2 points; then (ii) must pass with a
        resultant of that degree, and (i) can only pass or stay
        inconclusive."""
        code, text = value
        report = json.loads(text)
        c1, c2 = report["conditionI"], report["conditionII"]
        details = report["details"]
        if op.kind.startswith("shared-"):
            return c2 == "fail" and details.get("commonComponent") is True and code == 1
        job = state["jobs"][op.key[0]][op.key[1]]
        n, m = job["n"], job["m"]
        a, F, p = state["forms"][op.key[0]][op.key[1]]
        if not meet_transversally(a, F, p, random.Random(repr(op.key))):
            # tangent somewhere, which over GF(p) happens about once in p
            return c2 != "pass" and code == (1 if c2 == "fail" else 0)
        if c2 == "pass":
            return (details.get("resultantDegree") == 2 * n * m * m
                    and c1 in ("pass", "inconclusive") and code == 0)
        if c2 == "fail" and details.get("jacobianWitness"):
            # a common zero mod 101 with vanishing Jacobian minors: no
            # certificate over Q, and GF(p) residues mod 101 are no field
            # map at all.  A known defect of cover_geometry.
            return "unsupported-fail"
        return False

    def summary(self, op, value):
        code, text = value
        return {"exitCode": code, "report": text}


WORKLOADS = {w.name: w for w in (Torsion, GroupLaw, Dihedral, Plane)}
