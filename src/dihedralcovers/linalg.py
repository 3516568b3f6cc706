"""Exact linear algebra helpers.

Two tiers:

* field matrices (lists of lists of plain values).  Every call takes its
  field; entries and results are the field's plain values (see
  ``fields``), and nothing here builds a field element.  Over GF(p) an
  entry is any int, read modulo p, and every value returned is an int
  in range(p) (a rank is an int).  Two loops serve every field:

  - rank over GF(p): forward elimination on packed rows
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
  - everything else: one Gauss-Jordan loop on lists (``_eliminate``),
    forward only for rank over Q and Q(zeta_n), reduced for rref,
    nullspace and solve over every field.  Over GF(p) its ints are
    reduced mod p only where they are read, and each caller reduces the
    values it returns; over any other field its nonzero int entries
    become ``Fraction``s, so no division is ever a float division, and
    an integral value comes back as an int.
* integral-domain matrices (e.g. polynomial entries): rank by
  fraction-free Bareiss elimination, which only ever performs divisions
  that are exact in the domain; the tests use it as the oracle of
  ``rank`` and ``convolution_rank``.  No package path takes a
  determinant, so there is none here.

``convolution_matrix`` builds the field matrix of "known polynomials
times unknown coefficients", the linear map behind the graded kernels
and the torsion band matrices, and ``convolution_rank`` takes its rank;
``split_blocks`` cuts a solution vector back into its polynomials.

Matrices are plain nested lists; nothing here mutates its input.
"""

from fractions import Fraction


def _clone(m):
    return [list(r) for r in m]


def _plain(x, p):
    """x reduced mod p over GF(p); else an integral Fraction as an int."""
    if p:
        return x % p
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _eliminate(m, p, reduced):
    """Gaussian elimination of a copy of m over the field of
    characteristic p; returns (rows, pivot columns).

    Each pivot row is scaled by the inverse of its pivot, and the rows
    below it (with ``reduced``, also those above: Gauss-Jordan) are
    updated by ``row[j] -= f * t`` with f their entry in the pivot
    column, only where the pivot row t is nonzero right of the pivot;
    their pivot-column entry becomes 0.  Over any field but GF(p) the
    copy holds each nonzero int as a ``Fraction`` (an int zero is zero
    in any field and is never a pivot), so the inverse is never a float.

    Over GF(p) the copy holds the ints as given, and an entry is reduced
    only where it is read: the pivot test, the row factor f, and the
    pivot row, scaled by pow(lead, -1, p) and reduced.  This is exact:
    every entry stays congruent mod p to its value in the elimination
    over GF(p), every zero test reads a residue, and an int stays small
    (f and t lie in [0, p), so an update moves an entry by less than
    p^2).  So the rows returned are only congruent mod p to the
    eliminated matrix, and each caller reduces the values it returns.
    """
    if p:
        m = _clone(m)
    else:
        m = [[Fraction(x) if type(x) is int and x else x for x in row] for row in m]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        for piv in range(r, rows):
            lead = m[piv][c] % p if p else m[piv][c]
            if lead:
                break
        else:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(lead, -1, p) if p else 1 / lead
        top = m[r] = [x * inv % p for x in m[r]] if p else [x * inv for x in m[r]]
        tail = [(j, t) for j, t in enumerate(top[c + 1:], c + 1) if t]
        for row in m[0 if reduced else r + 1:]:
            f = row[c] % p if p else row[c]
            if f and row is not top:
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


def rank(m, field):
    """Rank of a matrix over a field: over GF(p) on packed rows, all
    filed in bucket 0 (``_forward_mod``), over any other field by the
    forward half of the Gauss-Jordan loop (``_eliminate``)."""
    if not m or not m[0]:
        return 0
    p = field.characteristic
    if not p:
        return len(_eliminate(m, 0, False)[1])
    W = _slot_width(p, len(m[0]))
    first = []
    for row in m:
        v = 0
        for x in reversed(row):
            v = v << W | x % p
        first.append(v)
    return _forward_mod([first] + [[] for _ in m[0]], p, W)


def rref(m, field):
    """Reduced row echelon form over a field; returns (matrix, pivot
    column list)."""
    p = field.characteristic
    red, pivots = _eliminate(m, p, True)
    return [[_plain(x, p) for x in row] for row in red], pivots


def nullspace(m, field):
    """Basis of the right kernel of m, as a list of column vectors."""
    if not m or not m[0]:
        return []
    p, cols = field.characteristic, len(m[0])
    red, pivots = _eliminate(m, p, True)
    zero, one = (0, 1) if p else (_plain(field.zero, 0), _plain(field.one, 0))
    basis = []
    for fc in [c for c in range(cols) if c not in pivots]:
        v = [zero] * cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = _plain(-red[r][fc], p)
        basis.append(v)
    return basis


def solve(m, b, field):
    """One solution x of m x = b over a field, or None if inconsistent."""
    if not m:
        return [] if all(not x for x in b) else None
    p, cols = field.characteristic, len(m[0])
    red, pivots = _eliminate([list(r) + [bv] for r, bv in zip(m, b)], p, True)
    if cols in pivots:
        return None
    x = [0 if p else _plain(field.zero, 0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = _plain(red[r][cols], p)
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
    ``coeffs`` and the rest is the plain 0, so with the charts of
    ``Poly.c`` the rows over GF(p) are ints reduced mod p.
    """
    ncols, outputs = _convolution_blocks(coeffs, in_degs, out_degs)
    m = []
    for dout, blocks in outputs:
        for k in range(dout + 1):
            row = [0] * ncols
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
                v = v << W | x % p
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
