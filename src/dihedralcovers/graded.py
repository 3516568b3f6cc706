"""Graded kernels of maps between twisted sums of line bundles on a line.

A sheaf map

    O(-c_0) + ... + O(-c_{m-1})  -->  O(-r_0) + ... + O(-r_{n-1})

is an n x m array of binary forms where entry (i, j) is homogeneous of
degree c_j - r_i; entries whose forced degree is negative vanish.  Here
such a map is its two twist lists plus the charts of its entries: the
coefficient lists of F(x, 1), low degree first, as ``Poly.c``.  The
twists fix every degree, so the chart loses nothing.

``kernel_basis`` computes a minimal generating set of the graded kernel
degree by degree; the equations in each degree come from
``linalg.convolution_matrix``.  On a line the kernel of a map of split
bundles is itself split, so the number of minimal generators equals the
kernel's rank over the fraction field.  The caller knows that rank from
the mathematics and passes it in; the search stops once it has that many
generators, and a degree bound derived from the column degrees raises
if the map has fewer.
"""

from .poly import trim_c
from . import linalg


def kernel_basis(field, coeffs, row_twists, col_twists, nullity):
    """Minimal homogeneous generators of the kernel of the map with
    entry charts ``coeffs[i][j]`` and the given twists, given the
    kernel's rank ``nullity`` over the fraction field.

    Returns ``(twists, gens)``, by rising twist: generator k maps
    O(-twists[k]) into the source, and ``gens[k][j]`` is the chart of
    its component j, a form of degree twists[k] - col_twists[j].
    """
    twists, gens = [], []
    span = sum(max(max((c - r for r, row in zip(row_twists, coeffs) if row[j]),
                       default=0), 0) + 1
               for j, c in enumerate(col_twists))
    t = min(col_twists)
    while len(gens) < nullity:
        if t > span + max(col_twists):
            raise RuntimeError("kernel degree bound exceeded; matrix is not graded-consistent")
        # unknowns: coefficients of a degree (t - c_j) form per column j
        degs = [t - c for c in col_twists]
        nunk = sum(d + 1 for d in degs if d >= 0)
        if nunk:
            rows = linalg.convolution_matrix(field, coeffs, degs,
                                             [t - r for r in row_twists])
            sols = linalg.nullspace(rows, field) if rows else [
                [field.one if idx == q else field.zero for idx in range(nunk)]
                for q in range(nunk)]
            if sols:
                # quotient out shifts of generators found in lower degrees:
                # the columns of (x^s)_gen -> (x^s * gen_j)_j
                shifts = linalg.convolution_matrix(
                    field, [[vec[j] for vec in gens] for j in range(len(col_twists))],
                    [t - tw for tw in twists], degs)
                basis = [list(v) for v in zip(*shifts)]
                r0 = linalg.rank(basis, field) if basis else 0
                for v in sols:
                    cand = basis + [v]
                    if linalg.rank(cand, field) > r0:
                        basis = cand
                        r0 += 1
                        twists.append(t)
                        gens.append([trim_c([field.unbox(x) for x in c])
                                     for c in linalg.split_blocks(v, degs)])
                        if len(gens) == nullity:
                            break
        t += 1
    return twists, gens
