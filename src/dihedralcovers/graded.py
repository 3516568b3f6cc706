"""Graded kernels of maps between twisted sums of line bundles on a line.

A sheaf map

    O(-c_0) + ... + O(-c_{m-1})  -->  O(-r_0) + ... + O(-r_{n-1})

is an n x m array of binary forms where entry (i, j) is homogeneous of
degree c_j - r_i; entries whose forced degree is negative vanish.  Here
such a map is its two twist lists plus the charts of its entries: the
coefficient lists of F(x, 1), low degree first, as ``Poly.c``.  The
twists fix every degree, so the chart loses nothing.

On a line the kernel of a map of split bundles is itself split
(Grothendieck, Amer. J. Math. 79, 1957), O(-t_0) + ... + O(-t_{k-1}),
and its sections in degree t, the kernel of ``linalg.convolution_matrix``
in that degree, have dimension sum_k max(t - t_k + 1, 0).  So given the
rank and the twist sum, one dimension names the twists (``kernel_basis``).
"""

from .poly import trim_c, sub_c, mul_c
from . import linalg


def nonzero_minor(u, v, p):
    """The first pair of rows j1 < j2 of the two vectors of charts u, v
    with D = u[j1] v[j2] - u[j2] v[j1] nonzero, as (j1, j2, D), or None
    when u and v are dependent over the fraction field."""
    for j1 in range(len(u)):
        for j2 in range(j1 + 1, len(u)):
            D = sub_c(mul_c(u[j1], v[j2], p), mul_c(u[j2], v[j1], p), p)
            if D:
                return j1, j2, D
    return None


def _vector_charts(field, vec, degs):
    return [trim_c([field.unbox(x) for x in c]) for c in linalg.split_blocks(vec, degs)]


def kernel_basis(field, coeffs, row_twists, col_twists, nullity, twist_sum):
    """Minimal homogeneous generators of the kernel of the map with
    entry charts ``coeffs[i][j]`` and the given twists, given the
    kernel's rank ``nullity`` (1 or 2) over the fraction field and the
    sum S = ``twist_sum`` of its twists (S = -deg of the kernel).

    Returns ``(twists, gens, minor)``, by rising twist: generator k maps
    O(-twists[k]) into the source, and ``gens[k][j]`` is the chart of
    its component j, a form of degree twists[k] - col_twists[j];
    ``minor`` is the ``nonzero_minor`` of the balanced case, else None.

    Rank 1: the kernel is O(-S) for S = ``twist_sum``, and its one
    section in degree S is the generator.

    Rank 2: for O(-t0) + O(-t1), t0 <= t1, t0 + t1 = S, the sections in
    degree t = floor(S / 2) have dimension d = t - t0 + 1, except that
    t0 = t1 = t also gives d = 2; in that balanced case two sections with
    a nonzero 2 x 2 minor (``nonzero_minor``) are the generators, and
    otherwise t0 = t - 1.  Else the one section in degree t0 is the
    first generator g0, and the second is the first section in degree
    t1 outside the span of the shifts (x^s g0) of g0.

    The certificate: both generators lie in the kernel; they are
    independent over the fraction field (a nonzero minor, or g1 outside
    the shifts of g0, which hold every section proportional to g0 since
    g0 has the least twist); and the dimensions read in degrees t0 and
    t1 are those of O(-t0) + O(-t1), so t0 + t1 = S is the kernel's own
    twist sum and the generators span the saturated kernel.  Any other
    dimension raises ``RuntimeError``.
    """
    def sections(t, want=None):
        """A basis of the kernel's sections in degree t, as vectors laid
        out like the columns of ``convolution_matrix``, and the unknowns'
        degrees; ``want`` is the dimension they must have, when known."""
        degs = [t - c for c in col_twists]
        rows = linalg.convolution_matrix(field, coeffs, degs, [t - r for r in row_twists])
        nunk = sum(max(d + 1, 0) for d in degs)
        sols = (linalg.nullspace(rows, field) if rows else
                [[field.one if idx == q else field.zero for idx in range(nunk)]
                 for q in range(nunk)])
        if want is not None and len(sols) != want:
            raise RuntimeError("kernel of dimension %d in degree %d, not %d: no rank %d "
                               "kernel of twist sum %d" % (len(sols), t, want, nullity, twist_sum))
        return sols, degs

    if nullity == 1:
        sols, degs = sections(twist_sum, 1)
        return [twist_sum], [_vector_charts(field, sols[0], degs)], None
    if nullity != 2:
        raise ValueError("kernel rank must be 1 or 2, not %r" % (nullity,))
    t = twist_sum // 2
    sols, degs = sections(t)
    tw0 = t - len(sols) + 1
    if len(sols) == 2 and 2 * t == twist_sum:
        gens = [_vector_charts(field, v, degs) for v in sols]
        minor = nonzero_minor(*gens, field.characteristic)
        if minor:
            return [t, t], gens, minor
        tw0 = t - 1
    tw1 = twist_sum - tw0
    if tw0 >= tw1:
        raise RuntimeError("kernel of dimension %d in degree %d: no rank 2 kernel of "
                           "twist sum %d" % (len(sols), t, twist_sum))
    if tw0 != t:        # else d = 1 and the one section is g0
        sols, degs = sections(tw0, 1)
    g0 = _vector_charts(field, sols[0], degs)
    k = tw1 - tw0
    sols, degs = sections(tw1, k + 2)
    # quotient out the shifts of g0: the columns of x^s -> (x^s * g0_j)_j,
    # k + 1 independent vectors since g0 is nonzero
    shifts = linalg.convolution_matrix(field, [[c] for c in g0], [k], degs)
    basis = [list(v) for v in zip(*shifts)]
    for v in sols:
        if linalg.rank(basis + [v], field) > k + 1:
            return [tw0, tw1], [g0, _vector_charts(field, v, degs)], None
    raise RuntimeError("no second generator in degree %d" % tw1)
