"""Text grammar for polynomials.

A form is a sum of terms like ``3*x0^2*x1 - 1/2*x1^3 + x0``: a run of
signs (the first term may have none; an odd number of ``-`` negates),
then factors joined by single ``*`` in any order.  A factor is an
integer, a rational ``p/q`` or a variable ``x0``, ``x1``, ``x2`` or ``x``
(read as x0) with an optional exponent ``^k``.  Coefficients multiply
and the exponents of a repeated variable add.  Whitespace and newlines
may stand between any two of these pieces.  Any other text, a zero
denominator, or over GF(p) a denominator divisible by p raises
``ValueError``.

``parse_form`` returns a homogeneous :class:`~dihedralcovers.homog.HForm`
and rejects inhomogeneous input.  ``format_form`` and ``format_univar``
(a :class:`~dihedralcovers.poly.Poly` in x: Mumford classes in the CLI,
read back by the tests' ``parse_univar``) write what the parser reads,
so round trips are byte stable; the reprs of both classes print through
them.  ``read_int`` reads the integer fields of a job, curve or pair.
"""

import re

from .homog import HForm
from .poly import _ratio

# one factor, after a run of signs (a new term) or one "*" (the same term)
_FACTOR = re.compile(r"\s*(?:([-+][-+\s]*)|(\*))?\s*"
                     r"(?:(x[012]?)(?:\s*\^\s*(\d*))?|(\d+)(?:/(\d+))?)")
# the variables of a form in n variables, x read as x0
_INDEX = {n: dict([("x", 0)] + [("x%d" % i, i) for i in range(n)]) for n in (1, 2, 3)}


def _scan(s, nvars):
    """[(coefficient, exponent tuple)] per term of s, with int coefficients
    where the text writes integers.  Each match must start where the last
    one ended; the first text that no match reads raises ``ValueError``
    with its position."""
    terms, pos, exp, index = [], 0, None, _INDEX[nvars]
    for m in _FACTOR.finditer(s):
        signs, star, var, e, num, den = m.groups()
        if m.start() != pos or star and exp is None:
            break
        if not star:
            if exp is not None:
                if signs is None:
                    raise ValueError("missing operator near %r in %r" % (m.group().strip(), s))
                terms.append((c, tuple(exp)))
            c, exp = -1 if signs and signs.count("-") & 1 else 1, [0] * nvars
        if var:
            i = index.get(var)
            if i is None:
                raise ValueError("variable %r not allowed in a %d-variable form" % (var, nvars))
            if e:
                exp[i] += int(e)
            elif e is None:
                exp[i] += 1
            else:
                raise ValueError("exponent expected in %r" % s)
        elif den:
            if not int(den):
                raise ValueError("zero denominator in coefficient %s/%s of %r" % (num, den, s))
            c *= _ratio(int(num), int(den))
        else:
            c *= int(num)
        pos = m.end()
    if s[pos:].strip():
        raise ValueError("cannot parse %r at position %d" % (s, pos))
    if exp is None:
        raise ValueError("empty polynomial string")
    terms.append((c, tuple(exp)))
    return terms


def parse_form(s, field, nvars):
    """Parse a homogeneous form in x0,x1[,x2].  Raises on inhomogeneous
    input."""
    terms = _scan(s, nvars)
    degs = {sum(e) for _, e in terms}
    if len(degs) > 1:
        raise ValueError("inhomogeneous polynomial %r (degrees %s)"
                         % (s, sorted(degs)))
    acc = {}
    for c, e in terms:
        acc[e] = acc.get(e, 0) + c
    p = field.characteristic
    for c in acc.values():
        if p and c.denominator % p == 0:
            raise ValueError("coefficient %s of %r has no value in GF(%d)" % (c, s, p))
    return HForm(field, nvars, degs.pop(), acc)


def read_int(data, key, default=None):
    """data[key] (``default`` when given and the key is absent) as an int,
    from an int (not a bool) or a string of one; anything else, a float
    among them, raises ``ValueError``."""
    v = data[key] if default is None else data.get(key, default)
    if type(v) in (int, str):
        try:
            return int(v)
        except ValueError:
            pass
    raise ValueError("%s must be an integer" % key)


def _join_terms(terms):
    """Join (coefficient, monomial) pairs, highest first, as the parser
    reads them: "3*x^2 - x + 1/2"; no pairs give "0"."""
    parts = []
    for a, mono in terms:
        cs = "%s" % (a,)
        neg = cs.startswith("-")
        cs = cs.lstrip("-")
        if not mono:
            body = cs
        elif cs == "1":
            body = mono
        else:
            body = "%s*%s" % (cs, mono)
        if parts:
            parts.append(("- " if neg else "+ ") + body)
        else:
            parts.append(("-" if neg else "") + body)
    return " ".join(parts) or "0"


def format_univar(p):
    monos = ["", "x"] + ["x^%d" % i for i in range(2, len(p.c))]
    return _join_terms((a, monos[i]) for i, a in reversed(list(enumerate(p.c))) if a)


def format_form(f):
    names = ("x0", "x1", "x2")[:f.nvars]
    return _join_terms((f.terms[e], "*".join("%s^%d" % (n, k) if k > 1 else n
                                             for n, k in zip(names, e) if k))
                       for e in sorted(f.terms, reverse=True))
