"""Graded matrices: maps between twisted sums of line bundles on a line.

A :class:`GradedMatrix` represents a sheaf map

    O(-c_0) + ... + O(-c_{m-1})  -->  O(-r_0) + ... + O(-r_{n-1})

by an n x m array of binary forms where entry (i, j) is homogeneous of
degree c_j - r_i.  Entries whose forced degree is negative must be zero.
The twist lists are part of the data; composition and transposition
check them.

``kernel_basis`` computes a minimal generating set of the graded kernel
degree by degree; the equations in each degree come from
``linalg.convolution_matrix``.  On a line the kernel of a map of split
bundles is itself split, so the number of minimal generators equals the
kernel's rank over the fraction field.  The caller knows that rank from
the mathematics and passes it in; the search stops once it has that many
generators, and a degree bound derived from the column degrees raises
if the matrix has fewer.
"""

from .poly import Poly
from .homog import HForm
from . import linalg


class GradedMatrix:
    __slots__ = ("field", "row_twists", "col_twists", "entries")

    def __init__(self, field, row_twists, col_twists, entries):
        self.field = field
        self.row_twists = list(row_twists)
        self.col_twists = list(col_twists)
        if len(entries) != len(self.row_twists):
            raise ValueError("row count mismatch")
        for i, row in enumerate(entries):
            if len(row) != len(self.col_twists):
                raise ValueError("column count mismatch in row %d" % i)
            for j, e in enumerate(row):
                want = self.col_twists[j] - self.row_twists[i]
                if e is None:
                    row[j] = HForm.zero(field, 2, max(want, 0))
                    e = row[j]
                if want < 0:
                    if not e.is_zero():
                        raise ValueError("entry (%d,%d) must vanish: degree %d < 0"
                                         % (i, j, want))
                elif e.deg != want:
                    raise ValueError("entry (%d,%d) has degree %d, expected %d"
                                     % (i, j, e.deg, want))
        self.entries = entries

    @property
    def nrows(self):
        return len(self.row_twists)

    @property
    def ncols(self):
        return len(self.col_twists)

    def entry(self, i, j):
        return self.entries[i][j]

    def transpose(self):
        """The dual map, with all twists negated."""
        ent = [[self.entries[i][j] for i in range(self.nrows)]
               for j in range(self.ncols)]
        return GradedMatrix(self.field,
                            [-c for c in self.col_twists],
                            [-r for r in self.row_twists], ent)

    def twist(self, k):
        """Tensor source and target by O(-k)."""
        return GradedMatrix(self.field,
                            [r + k for r in self.row_twists],
                            [c + k for c in self.col_twists],
                            [list(row) for row in self.entries])

    def compose(self, other):
        """self after other; other's target twists must match self's source."""
        if other.row_twists != self.col_twists:
            raise ValueError("twist mismatch in composition")
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                deg = other.col_twists[j] - self.row_twists[i]
                acc = HForm.zero(self.field, 2, max(deg, 0))
                for k in range(self.ncols):
                    t = self.entries[i][k] * other.entries[k][j]
                    if not t.is_zero():
                        acc = acc + t
                row.append(acc)
            out.append(row)
        return GradedMatrix(self.field, self.row_twists, other.col_twists, out)

    def univar(self):
        """Entries as univariate polynomials (x1 = 1)."""
        return [[e.to_univar() for e in row] for row in self.entries]

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def __eq__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return (self.row_twists == other.row_twists
                and self.col_twists == other.col_twists
                and self.entries == other.entries)

    def __repr__(self):
        return "GradedMatrix(rows=%s, cols=%s, %s)" % (
            self.row_twists, self.col_twists, self.entries)


def kernel_basis(m, nullity):
    """Minimal homogeneous generators of ker(m) as a GradedMatrix, given
    the kernel's rank ``nullity`` over the fraction field.

    The returned matrix K maps a twisted sum onto the kernel subsheaf of
    m's source: m.compose(K) vanishes and K has ``nullity`` columns of
    full rank.
    """
    field = m.field
    gens = []          # (twist, [Poly per source column]), by rising twist
    coeffs = [[e.c for e in row] for row in m.univar()]
    tmin = min(m.col_twists)
    span = sum(max(max((e.deg for e in (m.entries[i][j] for i in range(m.nrows))
                        if not e.is_zero()), default=0), 0) + 1
               for j in range(m.ncols))
    t = tmin
    while len(gens) < nullity:
        if t > tmin + span + max(m.col_twists) - tmin:
            raise RuntimeError("kernel degree bound exceeded; matrix is not graded-consistent")
        # unknowns: coefficients of a degree (t - c_j) form per column j
        degs = [t - c for c in m.col_twists]
        nunk = sum(d + 1 for d in degs if d >= 0)
        if nunk:
            rows = linalg.convolution_matrix(field, coeffs, degs,
                                             [t - r for r in m.row_twists])
            sols = linalg.nullspace(rows, field) if rows else [
                [field.one if idx == q else field.zero for idx in range(nunk)]
                for q in range(nunk)]
            if sols:
                # quotient out shifts of generators found in lower degrees:
                # the columns of (x^s)_gen -> (x^s * gen_j)_j
                shifts = linalg.convolution_matrix(
                    field, [[vec[j].c for _, vec in gens] for j in range(m.ncols)],
                    [t - tw for tw, _ in gens], degs)
                basis = [list(v) for v in zip(*shifts)]
                r0 = linalg.rank(basis, field) if basis else 0
                for v in sols:
                    cand = basis + [v]
                    if linalg.rank(cand, field) > r0:
                        basis = cand
                        r0 += 1
                        gens.append((t, [Poly(field, c)
                                         for c in linalg.split_blocks(v, degs)]))
                        if len(gens) == nullity:
                            break
        t += 1
    col_tw = [tw for tw, _ in gens]
    ent = []
    for j in range(m.ncols):
        row = []
        for tw, vec in gens:
            d = tw - m.col_twists[j]
            row.append(HForm.from_univar(vec[j], d) if d >= 0
                       else HForm.zero(field, 2, 0))
        ent.append(row)
    return GradedMatrix(field, list(m.col_twists), col_tw, ent)
