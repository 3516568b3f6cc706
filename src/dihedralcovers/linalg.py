"""Exact linear algebra helpers.

Two tiers:

* field matrices (lists of lists of field elements).  A matrix over
  GF(p) (the field passed in, or the prime of an ``FpElem`` entry) is
  read into plain ints (an ``FpElem`` gives its residue), eliminated on
  ints with one modular inverse per pivot, and boxed as reduced
  ``FpElem`` only at the result (the reduced rows, the kernel vectors,
  the solution; a rank is an int).  Two loops serve it:

  - rank: forward elimination on packed rows
    (``_forward_mod``).  A row is a single int that holds its residues,
    from its leading column on, in W-bit slots, so one big-int
    expression updates a whole row (packing several residues into one
    integer: Dumas, Fousse & Salvy, J. Symb. Comput. 46, 2011).  W is
    fixed per matrix with (ncols + 1) p^2 < 2^W, and no slot ever
    carries into the next: a pivot row is reduced to [0, p) before it
    is used, an update adds less than p^2 to a slot, and a row is
    updated at most once per column.  The same loop serves every prime.
    ``convolution_rank`` builds its rows packed, straight from the
    charts, so a torsion band is never built as lists.
  - rref, nullspace and solve: Gauss-Jordan elimination on lists of
    ints reduced mod p only where they are read (``_eliminate_mod``).
    It stays on lists because a packed Gauss-Jordan loop was about 3x
    slower on the many small reduced eliminations of the group law
    (about 15 x 8 on average): 45 -> 128 ms per three rounds of the
    ``grouplaw`` benchmark.

  Any other matrix (over Q or Q(zeta_n)) goes through the generic loop
  ``_eliminate``, with its nonzero int entries as ``Fraction``, so no
  division is ever a float division.
* integral-domain matrices (e.g. polynomial entries): rank by
  fraction-free Bareiss elimination, which only ever performs divisions
  that are exact in the domain; the tests use it as the oracle of
  ``rank`` and ``convolution_rank``.  No package path takes a
  determinant, so there is none here.

``convolution_matrix`` builds the field matrix of "known polynomials
times unknown coefficients", the linear map behind the graded kernels,
the intertwining equations and the torsion band matrices, and
``convolution_rank`` takes its rank; ``split_blocks`` cuts a solution
vector back into its polynomials.

Matrices are plain nested lists; nothing here mutates its input.
"""

from fractions import Fraction

from .fields import FpElem, GF


def _clone(m):
    return [list(r) for r in m]


def _prime(m, field):
    """The characteristic of the matrix m: the field's when given, else
    the prime of an ``FpElem`` entry, else 0 (the matrix is over Q)."""
    if field is not None:
        return field.characteristic
    return next((x.p for row in m for x in row if type(x) is FpElem), 0)


def _echelon(m, field=None):
    """Gauss-Jordan elimination of a copy of the matrix m: each pivot
    row is scaled to 1 and its column cleared above and below (rref,
    nullspace, solve).

    Returns (rows, pivot columns, box).  The matrix is over ``field``
    when given, else over GF(p) when an entry is an ``FpElem`` of prime
    p, else over Q.  ``box`` makes a field element of an entry of
    ``rows``: the identity, or ``FpElem(., p)`` when the rows are the
    plain ints of the GF(p) loop.
    """
    if not m or not m[0]:
        return _clone(m), [], _identity
    p = _prime(m, field)
    if not p:
        return _eliminate(_rationals(m), True) + (_identity,)
    return _eliminate_mod(_residues(m, p), p) + (lambda v: FpElem(v, p),)


def _residues(m, p):
    """A copy of m on plain ints for ``_eliminate_mod``: a row of ints
    (the rows of ``convolution_matrix`` over GF(p)) is copied as it is,
    since the elimination reduces an entry when it reads it; any other
    row is read entry by entry (an FpElem must be of prime p)."""
    return [list(row) if {*map(type, row)} <= {int} else [_residue(x, p) for x in row]
            for row in m]


def _residue(x, p):
    if type(x) is int:
        return x % p
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
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
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
    return m, pivots


def _eliminate_mod(m, p):
    """Gauss-Jordan elimination in place on rows of ints, reduced mod p
    lazily.

    An entry is reduced only where it is read: a pivot-column entry when
    it is tested as a pivot and the row factor f; the pivot row is
    scaled to 1 and so reduced, and a target row is updated by plain
    ``row[j] -= f * t``.  This is exact: every entry stays congruent
    mod p to its value in the elimination over GF(p), every zero test
    reads a residue, and an int cannot overflow (an update makes it at
    most p^2 larger).  So the rows returned are only congruent mod p to
    the reduced matrix, and the box of ``_echelon``, ``FpElem(., p)``,
    reduces every value that rref, nullspace and solve return.  A target
    row is updated only where the pivot row is nonzero.
    """
    rows, cols = len(m), len(m[0])
    pivots = []
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
        inv = pow(lead, -1, p)
        top = m[r] = [x * inv % p for x in m[r]]
        tail = [(j, t) for j, t in enumerate(top[c + 1:], c + 1) if t]
        for row in m:
            x = row[c]
            if not x or row is top:
                continue
            f = x % p
            if not f:
                continue
            for j, t in tail:
                row[j] -= f * t
            row[c] = 0
        pivots.append(c)
        if r + 1 == rows:
            break
    return m, pivots


def _slot_width(p, ncols):
    """The slot width W of packed rows over GF(p) with ncols columns:
    the least W with (ncols + 1) p^2 < 2^W (see ``_forward_mod``)."""
    return ((ncols + 1) * p * p).bit_length()


def _forward_mod(buckets, p, W):
    """Forward elimination over GF(p) on packed rows; returns the rank.

    A row is one int: its entries from its leading column c on, the
    entry of column c + k in the W-bit slot k.  ``buckets[c]`` holds
    the rows whose slot 0 stands for column c (the last bucket collects
    the rows pushed past the last column), and every row given must
    have its slots reduced to [0, p).  Column c takes as its pivot the
    last row of its bucket whose slot 0 is nonzero mod p (a row filed
    there from the start when there is one), and updates every other
    row v of the bucket by ``(v + (v & M) * neg % p * top) >> W``, where
    M = 2^W - 1, neg = -1/lead mod p and top is the pivot row reduced
    (a row equal to one of those given already is): slot 0 becomes a
    multiple of p and is shifted out, and the row moves to the front of
    the next bucket (a row whose slot 0 is 0 mod p gets factor 0 and is
    only shifted).  No slot ever carries into the next: a pivot row's
    slots are below p, an update adds at most (p - 1)^2 to a slot, and
    a row is updated at most once per column, so a slot stays below
    (ncols + 1) p^2 < 2^W.

    A row that becomes zero is dropped, which only happens when the rank
    is below the number of rows.
    """
    M = (1 << W) - 1
    fresh = {v for bucket in buckets for v in bucket}
    r = 0
    for c in range(len(buckets) - 1):
        bucket = buckets[c]
        if not bucket:
            continue
        for t in range(len(bucket) - 1, -1, -1):
            lead = (bucket[t] & M) % p
            if lead:
                break
        else:
            buckets[c + 1][:0] = [w for v in bucket if (w := v >> W)]
            continue
        v = bucket.pop(t)
        r += 1
        if not bucket:
            continue
        if v in fresh:
            top = v
        else:
            top, s = 0, 0
            while v:
                top |= (v & M) % p << s
                v >>= W
                s += W
        neg = p - pow(lead, -1, p)
        buckets[c + 1][:0] = [w for v in bucket if (w := (v + (v & M) * neg % p * top) >> W)]
    return r


def rank(m, field=None):
    """Rank of a matrix over a field (see ``_echelon`` for the field):
    over GF(p) on packed rows, all filed in bucket 0 (``_forward_mod``),
    over any other field by ``_eliminate``."""
    if not m or not m[0]:
        return 0
    p = _prime(m, field)
    if not p:
        return len(_eliminate(_rationals(m), False)[1])
    W = _slot_width(p, len(m[0]))
    first = []
    for row in m:
        v = 0
        for x in reversed(row):
            if type(x) is FpElem and x.p == p:
                x = x.v
            v = v << W | (x % p if type(x) is int else _residue(x, p))
        first.append(v)
    return _forward_mod([first] + [[] for _ in m[0]], p, W)


def rref(m):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    red, pivots, box = _echelon(m)
    if box is not _identity:
        red = [[box(x) for x in row] for row in red]
    return red, pivots


def nullspace(m, field):
    """Basis of the right kernel of m, as a list of column vectors."""
    if not m or not m[0]:
        return []
    cols = len(m[0])
    red, pivots, box = _echelon(m, field)
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
    red, pivots, box = _echelon(aug, field)
    if cols in pivots:
        return None
    x = [field.zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = box(red[r][cols])
    return x


def _convolution_blocks(coeffs, in_degs, out_degs):
    """The layout shared by ``convolution_matrix`` and ``convolution_rank``:
    (the number of columns, and for each output i the pair (out_degs[i],
    its blocks)), a block (c, o, din) being a nonempty chart c =
    coeffs[i][j] of a present unknown j, whose columns start at o."""
    col_off, ncols = [], 0
    for d in in_degs:
        col_off.append(ncols)
        ncols += max(d + 1, 0)
    return ncols, [(dout, [(c, o, din) for c, o, din in zip(row_coeffs, col_off, in_degs)
                           if c and din >= 0])
                   for row_coeffs, dout in zip(coeffs, out_degs)]


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
    ncols, outputs = _convolution_blocks(coeffs, in_degs, out_degs)
    m = []
    for dout, blocks in outputs:
        for k in range(dout + 1):
            row = [zero] * ncols
            for c, o, din in blocks:
                # unknown degrees s with 0 <= k - s < len(c)
                lo, hi = max(k - len(c) + 1, 0), min(k, din)
                if lo <= hi:
                    row[o + lo:o + hi + 1] = c[k - hi:k - lo + 1][::-1]
            m.append(row)
    return m


def convolution_rank(field, coeffs, in_degs, out_degs):
    """The rank of ``convolution_matrix(field, coeffs, in_degs, out_degs)``.

    Over GF(p) the matrix is never built as lists.  Row k of output i
    holds c[k - s] in column o + s for each block (c, o, din), that is
    c[t] in column o + k - t: so each chart is packed once, top
    coefficient in the lowest slot, and row k is the union over the
    blocks of that int shifted k slots and masked to the block's columns
    o..o + din (the mask cuts the window of degrees that
    ``convolution_matrix`` computes).  Every row is filed in the bucket
    of its first nonzero column and ``_forward_mod`` takes the rank.
    Over any other field this is ``rank`` of the matrix.
    """
    p = field.characteristic
    if not p:
        return rank(convolution_matrix(field, coeffs, in_degs, out_degs), field)
    ncols, outputs = _convolution_blocks(coeffs, in_degs, out_degs)
    W = _slot_width(p, ncols)
    buckets = [[] for _ in range(ncols + 1)]
    for dout, blocks in outputs:
        if not blocks:
            continue
        # slot 0 stands for column base, so that row 0 puts no slot below it
        base = blocks[0][1] + 1 - max(len(c) for c, _, _ in blocks)
        spans = []
        for c, o, din in blocks:
            v = 0
            for x in c:
                v = v << W | _residue(x, p)
            spans.append((v << W * (o - base - len(c) + 1),
                          ((1 << W * (din + 1)) - 1) << W * (o - base)))
        for k in range(dout + 1):
            v = 0
            for chart, mask in spans:
                v |= (chart << W * k) & mask
            if v:
                lead = ((v & -v).bit_length() - 1) // W
                buckets[base + lead].append(v >> W * lead)
    return _forward_mod(buckets, p, W)


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


def _exact(a, b):
    if hasattr(a, "exact_div"):
        return a.exact_div(b)
    return a / b
