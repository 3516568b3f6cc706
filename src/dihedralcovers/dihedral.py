"""Dihedral groups, their character tables, and isotypic projectors.

The group D_n = <sigma, tau | sigma^n = tau^2 = 1, tau sigma tau =
sigma^(-1)> is stored as pairs (k, t) meaning sigma^k tau^t.  Its
irreducible characters over Q(zeta_n):

* two linear characters for odd n, four for even n;
* two-dimensional characters rho_l for 0 < l < n/2 with
  chi(sigma^k) = zeta^(kl) + zeta^(-kl) and chi vanishing off the
  rotation subgroup.

``projector`` gives the isotypic projector of each character on the
monomial representation with basis (1, s, u^1..u^(n-1), v^1..v^(n-1)),
where sigma scales u^i by zeta^i and v^i by zeta^(-i) and tau swaps u
with v and negates s.  That representation is isomorphic to the regular
representation, so each projector is idempotent of rank (dim)^2 and the
projectors sum to the identity.  The orthogonality relations evaluate
(deg/2n) sum over g of conj(chi(g)) rho(g) in closed form: chi1 and
chi2 project onto 1 and s, chi3 and chi4 onto u^(n/2) + v^(n/2) and
u^(n/2) - v^(n/2), and rho_l onto the span of u^l, u^(n-l), v^l and
v^(n-l).  So a projector has at most four nonzero entries, all
rational, and costs no cyclotomic arithmetic.  ``projector_rank`` reads
the rank off as the trace: over a field of characteristic 0 the rank of
an idempotent equals its trace, so it checks p * p = p exactly on the
nonzero cells and sums the diagonal, with no elimination.  It refuses
entries of positive characteristic, where the trace is only the rank
mod p.  The dense matrices of group elements, built from products of
sigma and tau, are not needed here and live in the tests, which sum
them as the reference for ``projector`` and take their rank by
elimination as the reference for ``projector_rank``.

``epsilon`` is the cocycle exponent table: for the subgroup generated
by sigma^k, the product of the restrictions of the characters indexed
i and j contains the trivial character with a shift exactly when the
normalized exponents add up past the subgroup order.
"""

import math
from fractions import Fraction

from .cyclotomic import CycloElem, CyclotomicField


class DihedralGroup:
    """D_n with elements (k, t) = sigma^k tau^t."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("dihedral order parameter must be at least 2")
        self.n = n

    def elements(self):
        return [(k, t) for t in (0, 1) for k in range(self.n)]

    def multiply(self, g, h):
        k1, t1 = g
        k2, t2 = h
        k = (k1 + (k2 if t1 == 0 else -k2)) % self.n
        return (k, (t1 + t2) % 2)

    def inverse(self, g):
        k, t = g
        if t == 0:
            return ((-k) % self.n, 0)
        return (k, 1)

    def order(self):
        return 2 * self.n


def irreducible_labels(n):
    """Labels of the irreducible characters of D_n in a fixed order."""
    if n < 1:
        raise ValueError("need n >= 1")
    labels = ["chi1", "chi2"]
    if n % 2 == 0:
        labels += ["chi3", "chi4"]
    labels += ["rho%d" % l for l in range(1, (n - 1) // 2 + 1 if n % 2 else n // 2)]
    return labels


def character(n, label, K=None):
    """The character as a function (k, t) -> Q(zeta_n) element."""
    if K is None:
        K = CyclotomicField(n)
    if label == "chi1":
        return lambda g: K.one
    if label == "chi2":
        return lambda g: K.of(1 if g[1] == 0 else -1)
    if label == "chi3":
        if n % 2:
            raise ValueError("chi3 exists only for even n")
        return lambda g: K.of((-1) ** (g[0] % 2))
    if label == "chi4":
        if n % 2:
            raise ValueError("chi4 exists only for even n")
        return lambda g: K.of((-1) ** ((g[0] + g[1]) % 2))
    if label.startswith("rho"):
        l = int(label[3:])
        if not 0 < l < n / 2:
            raise ValueError("rho index out of range")
        def chi(g):
            k, t = g
            if t:
                return K.zero
            return K.zeta(k * l) + K.zeta(-k * l)
        return chi
    raise ValueError("unknown label %r" % label)


def char_degree(label):
    return 1 if label.startswith("chi") else 2


def character_table(n):
    """All irreducible characters, as {label: {element: value}}."""
    G = DihedralGroup(n)
    K = CyclotomicField(n)
    table = {}
    for lab in irreducible_labels(n):
        chi = character(n, lab, K)
        table[lab] = {g: chi(g) for g in G.elements()}
    return table


def projector(n, label, K=None):
    """The isotypic projector of the labelled character on the monomial
    representation: (deg/2n) sum over g of conj(chi(g)) rho(g), in closed
    form.  Every entry is 0, 1/2, -1/2 or 1."""
    if K is None:
        K = CyclotomicField(n)
    character(n, label, K)  # raises ValueError on a bad label
    dim = 2 * n
    out = [[K.zero] * dim for _ in range(dim)]
    # the rotations give (deg/2n) sum_k conj(chi(sigma^k)) zeta^(ik) at
    # (u^i, u^i), which is 0 unless chi restricted to the rotations
    # contains zeta^(-i); the reflections give the same sum at (u^i, v^i),
    # weighted by chi(tau) for a linear chi and vanishing for rho_l
    if label == "chi1":
        out[0][0] = K.one
    elif label == "chi2":
        out[1][1] = K.one
    elif label in ("chi3", "chi4"):
        u, v = 1 + n // 2, n + n // 2
        half = K.of(Fraction(1, 2))
        out[u][u] = out[v][v] = half
        out[u][v] = out[v][u] = half if label == "chi3" else K.of(Fraction(-1, 2))
    else:
        l = int(label[3:])
        for i in (l, n - l):
            out[1 + i][1 + i] = out[n + i][n + i] = K.one
    return out


def projector_rank(p):
    """The rank of an idempotent square matrix p over Q or Q(zeta_n), read
    off as its trace once p * p = p is checked exactly on the nonzero
    cells (an all-zero row is skipped by one ``count`` of the zero of
    p[0][0]; a rational cell is taken as its int or Fraction value).
    Raises ``ValueError`` if p is not square or not idempotent, or has
    an entry of positive characteristic."""
    dim = len(p)
    if not dim:
        return 0
    zero = p[0][0].field.zero if isinstance(p[0][0], CycloElem) else 0
    rows = {}
    for i, row in enumerate(p):
        if len(row) != dim:
            raise ValueError("projector_rank needs a square matrix")
        if row.count(zero) != dim:
            rows[i] = {j: _entry(x) for j, x in enumerate(row) if x}
    for i, cells in rows.items():
        square = {}
        for k, x in cells.items():
            for j, y in rows.get(k, {}).items():
                square[j] = square.get(j, 0) + x * y
        if {j: w for j, w in square.items() if w} != cells:
            raise ValueError("projector_rank needs an idempotent matrix")
    trace = sum(cells.get(i, 0) for i, cells in rows.items())
    return int(trace.rational_value() if isinstance(trace, CycloElem) else trace)


def _entry(x):
    """A nonzero entry, as its int or Fraction value where it is rational."""
    if isinstance(x, CycloElem):
        return x.rational_value() if x.is_rational() else x
    if isinstance(x, (int, Fraction)):
        return x
    raise ValueError("projector_rank needs entries of characteristic 0, not %r" % (x,))


def epsilon(n, k, i, j):
    """The cocycle exponent for the cyclic subgroup generated by sigma^k.

    The subgroup has order d = n/gcd(n, k); the character indexed by i
    restricts to the d-th root of unity raised to
    i*k/gcd(n, k) mod d.  The value is 1 when the normalized exponents
    of i and j add to at least d, and 0 otherwise.
    """
    k %= n
    if k == 0:
        return 0
    g = math.gcd(n, k)
    d = n // g
    ii = (i * (k // g)) % d
    jj = (j * (k // g)) % d
    return 1 if ii + jj >= d else 0
