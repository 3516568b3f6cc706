"""Cohomology of twisted differential forms on projective space and
dimension counts for natural deformations of simple dihedral covers.

``bott`` returns h^q of Omega^p(k) on projective d-space from the
closed formula: the only nonzero cases are

    q = 0, k > p:      C(k+d-p, k) * C(k-1, p)
    q = d, k < p - d:  the Serre dual of the first case
    q = p, k = 0:      1

The tangent sheaf is handled through the twist identity
Theta = Omega^(d-1)(d+1), so one routine serves both.  The tests check
the formula against chi of Omega^p(k) computed independently, through
the exterior powers of the Euler sequence.

The deformation bookkeeping concerns a simple cover with data a (a
section of O(nm)) and F (a section of O(2m)) over projective d-space.
Perturbing a and F inside their twists gives the natural deformations;
their Kodaira-Spencer target is H^0 of (O(2m) + O(nm)) tensored with
the pushforward of the cover's structure sheaf.  The source is the
space of ambient infinitesimal automorphisms, computed from the two
ends of the Euler-type sequence for the total space of the two line
bundles when the connecting H^1 vanishes.  The difference is a lower
bound for the dimension of the space of non-trivial natural
deformations.
"""

from math import comb

_bott_cache = {}


def bott(d, p, k, q):
    """h^q of Omega^p(k) on projective d-space."""
    if not (0 <= p <= d and 0 <= q <= d):
        raise ValueError("indices out of range: need 0 <= p, q <= %d" % d)
    key = (d, p, k, q)
    if key in _bott_cache:
        return _bott_cache[key]
    if q == 0 and k > p:
        val = comb(k + d - p, k) * comb(k - 1, p)
    elif q == d and k < p - d:
        val = comb(-k + p, -k) * comb(-k - 1, d - p)
    elif q == p and k == 0:
        val = 1
    else:
        val = 0
    _bott_cache[key] = val
    return val


def h_tangent(d, k, q):
    """h^q of the tangent sheaf twisted by O(k), via the identity with
    Omega^(d-1)(d+1+k)."""
    return bott(d, d - 1, d + 1 + k, q)


def h_line(d, k, q):
    """h^q of O(k) on projective d-space."""
    return bott(d, 0, k, q)


def pushforward_twists(n, m, e=0):
    """Twist degrees of the 2n summands of the pushforward of the
    cover's structure sheaf."""
    degs = [0, -n * m - e]
    for i in range(1, n):
        degs.append(-i * m - e)
        degs.append(-(n - i) * m - e)
    return degs


def natural_def_target(n, m, d, e=0):
    """dim H^0 of (O(2m) + O(nm)) tensored with the pushforward."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    total = 0
    for t in pushforward_twists(n, m, e):
        total += h_line(d, 2 * m + t, 0)
        total += h_line(d, n * m + t, 0)
    return total


def h1_vanishing_check(n, m, d):
    """Whether H^1 of (Theta + O(m)^2) tensored with the pushforward
    vanishes; returns (verdict, offending summand or None).

    The offender is reported as ("Theta", t) or ("O", k) naming the
    summand with nonzero h^1.
    """
    for t in pushforward_twists(n, m):
        if h_tangent(d, t, 1):
            return False, ("Theta", t)
        if h_line(d, m + t, 1):
            return False, ("O", m + t)
    return True, None


class DefReport:
    """Dimension bookkeeping for the natural deformations of a cover."""

    def __init__(self, n, m, d, target, source, source_exact, lower_bound,
                 h1_vanishing, offender):
        self.n = n
        self.m = m
        self.d = d
        self.target = target
        self.source = source
        self.source_exact = source_exact
        self.lower_bound = lower_bound
        self.h1_vanishing = h1_vanishing
        self.offender = offender

    def to_json(self):
        return {"n": self.n, "m": self.m, "d": self.d,
                "target": self.target, "source": self.source,
                "sourceExact": self.source_exact,
                "lowerBound": self.lower_bound,
                "h1Vanishing": self.h1_vanishing,
                "offender": list(self.offender) if self.offender else None}

    def __repr__(self):
        return ("DefReport(target=%d, source=%s, lowerBound=%s)"
                % (self.target, self.source, self.lower_bound))


def def_prime_dims(n, m, d):
    """Deformation dimension report for a simple cover over projective
    d-space.

    target is ``natural_def_target``; source sums h^0 of O(m)^2 and of
    the tangent sheaf, each tensored with the pushforward.  The sum
    equals the true source dimension only when the connecting H^1 of
    the Euler-type sequence vanishes; otherwise the report flags the
    source as inexact and the lower bound as a bound only.
    """
    target = natural_def_target(n, m, d)
    twists = pushforward_twists(n, m)
    source = 0
    connecting_ok = True
    for t in twists:
        source += 2 * h_line(d, m + t, 0)
        source += h_tangent(d, t, 0)
        if h_line(d, m + t, 1):
            connecting_ok = False
    h1_ok, offender = h1_vanishing_check(n, m, d)
    lower = target - source
    return DefReport(n, m, d, target, source, connecting_ok, lower,
                     h1_ok, offender)
