"""Exact linear algebra helpers.

Two tiers:

* field matrices (lists of lists of field elements): rank, reduced row
  echelon form, nullspace, solving and determinant all go through one
  Gaussian elimination loop with exact division.  A matrix over GF(p)
  (the field passed in, or the prime of an ``FpElem`` entry) is read
  into plain ints (an ``FpElem`` gives its residue, an int row such as
  those ``convolution_matrix`` builds from the plain coefficient lists
  of ``Poly`` is copied as it is), eliminated on ints that are reduced
  mod p only where they are read, with one modular inverse per pivot,
  and boxed as reduced ``FpElem`` only at the result (the reduced rows,
  the kernel vectors, the solution, the determinant; a rank is an
  int).  Any other matrix goes through the generic loop, with its
  nonzero int entries as ``Fraction``, so no division is ever a float
  division.
* integral-domain matrices (e.g. polynomial entries): rank and
  determinant by fraction-free Bareiss elimination, which only ever
  performs divisions that are exact in the domain.

``convolution_matrix`` builds the field matrix of "known polynomials
times unknown coefficients", the linear map behind the graded kernels,
the intertwining equations and the torsion band matrices;
``split_blocks`` cuts a solution vector back into its polynomials.

Matrices are plain nested lists; nothing here mutates its input.
"""

import math
from fractions import Fraction

from .fields import FpElem, GF


def _clone(m):
    return [list(r) for r in m]


def _echelon(m, reduced, field=None):
    """Row-reduce a copy of the matrix m.

    Returns (rows, pivot columns, row swaps, box).  Without ``reduced``
    the elimination only clears below each pivot and never scales a
    pivot row (rank, det); with it, each pivot row is scaled to 1 and
    its column cleared above and below (rref).  The matrix is over
    ``field`` when given, else over GF(p) when an entry is an ``FpElem``
    of prime p, else over Q.  ``box`` makes a field element of an entry
    of ``rows``: the identity, or ``FpElem(., p)`` when the rows are the
    plain ints of the GF(p) loop.
    """
    if not m or not m[0]:
        return _clone(m), [], 0, _identity
    if field is not None:
        p = field.characteristic
    else:
        p = next((x.p for row in m for x in row if type(x) is FpElem), 0)
    if not p:
        return _eliminate(_rationals(m), reduced) + (_identity,)
    return _eliminate_mod(_residues(m, p), p, reduced) + (lambda v: FpElem(v, p),)


def _residues(m, p):
    """A copy of m on plain ints for ``_eliminate_mod``: a row of ints
    (the rows of ``convolution_matrix`` over GF(p)) is copied as it is,
    since the elimination reduces an entry when it reads it; any other
    row is read entry by entry (an FpElem must be of prime p)."""
    return [list(row) if {*map(type, row)} <= {int} else [_residue(x, p) for x in row]
            for row in m]


def _residue(x, p):
    if type(x) is FpElem:
        if x.p != p:
            raise ValueError("mixed characteristics %d and %d" % (p, x.p))
        return x.v
    return GF(p).unbox(x)


def _rationals(m):
    """A copy of m in which every nonzero int is a Fraction, so that a
    pivot divides exactly (an int zero is zero in any field and is never
    a pivot)."""
    return [[Fraction(x) if type(x) is int and x else x for x in row] for row in m]


def _identity(x):
    return x


def _eliminate(m, reduced):
    """Gaussian elimination of m in place over any exact field."""
    rows, cols = len(m), len(m[0])
    pivots, swaps = [], 0
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        top = m[r]
        if reduced:
            lead = top[c]
            top = m[r] = [x / lead for x in top]
        for i in range(0 if reduced else r + 1, rows):
            row = m[i]
            if i == r or not row[c]:
                continue
            f = row[c] if reduced else row[c] / top[c]
            for j in range(c, cols):
                row[j] = row[j] - f * top[j]
        pivots.append(c)
        if r + 1 == rows:
            break
    return m, pivots, swaps


def _eliminate_mod(m, p, reduced):
    """The same elimination in place on rows of ints, reduced mod p
    lazily.

    An entry is reduced only where it is read: a pivot-column entry when
    it is tested as a pivot, the pivot row's tail when it is used, and
    the row factor f; a target row is then updated by plain
    ``row[j] -= f * t``.  This is exact: every entry stays congruent
    mod p to its value in the elimination over GF(p), every zero test
    reads a residue, and an int cannot overflow (an update makes it at
    most p^2 larger).  So the rows returned are only congruent mod p to
    the eliminated matrix, apart from the pivots, which the search
    stores reduced: rank and det read only the pivots, and the box of
    ``_echelon``, ``FpElem(., p)``, reduces every value that rref,
    nullspace and solve return.  A target row is updated only where
    the pivot row is nonzero, which is most of the saving on sparse
    band matrices such as the torsion certificates.
    """
    rows, cols = len(m), len(m[0])
    pivots, swaps = [], 0
    for c in range(cols):
        r = len(pivots)
        for piv in range(r, rows):
            lead = m[piv][c] = m[piv][c] % p
            if lead:
                break
        else:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        inv = pow(lead, -1, p)
        if reduced:
            m[r] = [x * inv % p for x in m[r]]
        top = m[r]
        tail = [(j, t) for j, x in enumerate(top[c + 1:], c + 1) if x and (t := x % p)]
        for row in m if reduced else m[r + 1:]:
            x = row[c]
            if not x or row is top:
                continue
            f = x % p if reduced else x * inv % p
            if not f:
                continue
            for j, t in tail:
                row[j] -= f * t
            row[c] = 0
        pivots.append(c)
        if r + 1 == rows:
            break
    return m, pivots, swaps


def rank(m, field=None):
    """Rank of a matrix over a field (see ``_echelon`` for the field)."""
    return len(_echelon(m, False, field)[1])


def rref(m):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    red, pivots, _, box = _echelon(m, True)
    if box is not _identity:
        red = [[box(x) for x in row] for row in red]
    return red, pivots


def nullspace(m, field):
    """Basis of the right kernel of m, as a list of column vectors."""
    if not m or not m[0]:
        return []
    cols = len(m[0])
    red, pivots, _, box = _echelon(m, True, field)
    basis = []
    for fc in [c for c in range(cols) if c not in pivots]:
        v = [field.zero] * cols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = box(-red[r][fc])
        basis.append(v)
    return basis


def solve(m, b, field):
    """One solution x of m x = b over a field, or None if inconsistent."""
    if not m:
        return [] if all(not x for x in b) else None
    cols = len(m[0])
    aug = [list(r) + [bv] for r, bv in zip(m, b)]
    red, pivots, _, box = _echelon(aug, True, field)
    if cols in pivots:
        return None
    x = [field.zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = box(red[r][cols])
    return x


def det(m, field):
    """Determinant of a square matrix over a field."""
    n = len(m)
    if n == 0:
        return field.one
    red, pivots, swaps, box = _echelon(m, False, field)
    if pivots != list(range(n)):
        return field.zero
    d = math.prod((red[i][i] for i in range(n)), start=field.one if box is _identity else 1)
    return box(-d if swaps % 2 else d)


def convolution_matrix(field, coeffs, in_degs, out_degs):
    """The matrix of (x_j) -> (sum_j coeffs[i][j] * x_j)_i on coefficient
    vectors.

    ``coeffs[i][j]`` is the coefficient list, low degree first, of the
    known polynomial multiplying unknown j in output i.  There is one
    row block per output i, for its degrees 0..out_degs[i] (higher
    degrees are dropped), and one column block per unknown j, for its
    degrees 0..in_degs[j]; a negative degree means the block is absent.
    Each cell is one (output, degree, unknown, degree) pair, so it is
    assigned once and never summed.  The cells are copied from
    ``coeffs`` and the rest is the field's plain zero, so with the plain
    lists of ``Poly.c`` the rows over GF(p) are ints reduced mod p, ready
    for the elimination loop.
    """
    zero = field.unbox(field.zero)
    col_off, ncols = [], 0
    for d in in_degs:
        col_off.append(ncols)
        ncols += max(d + 1, 0)
    m = []
    for row_coeffs, dout in zip(coeffs, out_degs):
        blocks = [(c, o, din) for c, o, din in zip(row_coeffs, col_off, in_degs)
                  if c and din >= 0]
        for k in range(dout + 1):
            row = [zero] * ncols
            for c, o, din in blocks:
                # unknown degrees s with 0 <= k - s < len(c)
                lo, hi = max(k - len(c) + 1, 0), min(k, din)
                if lo <= hi:
                    row[o + lo:o + hi + 1] = c[k - hi:k - lo + 1][::-1]
            m.append(row)
    return m


def split_blocks(vec, degs):
    """Cut a vector laid out like the columns of ``convolution_matrix``
    into one coefficient list per block; an absent block gives []."""
    out, pos = [], 0
    for d in degs:
        n = max(d + 1, 0)
        out.append(vec[pos:pos + n])
        pos += n
    return out


def bareiss_rank(m, one):
    """Rank of a matrix with entries in an integral domain.

    Entries must support *, -, bool and an exact_div method (or
    __truediv__ that is exact).  ``one`` is the multiplicative identity
    of the domain; it seeds the previous-pivot chain.
    """
    if not m or not m[0]:
        return 0
    m = _clone(m)
    rows, cols = len(m), len(m[0])
    prev = one
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            ric = m[i][c]
            for j in range(c + 1, cols):
                m[i][j] = _exact(m[r][c] * m[i][j] - ric * m[r][j], prev)
            m[i][c] = ric - ric
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


def bareiss_det(m, one):
    """Determinant of a square matrix over an integral domain."""
    n = len(m)
    if n == 0:
        return one
    m = _clone(m)
    prev = one
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return one - one
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                num = m[c][c] * m[i][j] - m[i][c] * m[c][j]
                m[i][j] = _exact(num, prev)
        prev = m[c][c]
    d = m[n - 1][n - 1]
    return d if sign > 0 else -d


def _exact(a, b):
    if hasattr(a, "exact_div"):
        return a.exact_div(b)
    return a / b
